"""Training loop contracts: reward math, dataset completeness, determinism."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from voxhunt import nn, world
from voxhunt.config import TrainConfig
from voxhunt.mapio import fixture_path
from voxhunt.trainer import (
    Trainer,
    TrainingDiverged,
    TrajectoryLog,
    combine_reward,
    run_training,
    sample_alpha,
)
from voxhunt.world import AgentState

from .oracles import event_scripts, greedy_eval_ref, local_occupancy


def tiny_cfg(area1_demo_paths, **kw):
    base = dict(
        map_path=str(fixture_path("testmap_area1.json")),
        demo_paths=list(area1_demo_paths),
        iterations=2,
        episodes_per_iter=3,
        episode_length=24,
        seed=11,
    )
    base.update(kw)
    return TrainConfig(**base)


class TestAlphaAndReward:
    def test_alpha_reproducible(self):
        a = [sample_alpha(np.random.default_rng(4)) for _ in range(5)]
        b = [sample_alpha(np.random.default_rng(4)) for _ in range(5)]
        assert a == b

    def test_alpha_mean_near_half(self):
        rng = np.random.default_rng(5)
        vals = [sample_alpha(rng) for _ in range(10_000)]
        assert abs(np.mean(vals) - 0.5) < 0.02

    def test_combine_endpoints(self):
        assert combine_reward(2.0, 0.4, 10.0, 0.0) == 10.4
        assert combine_reward(2.0, 0.4, 10.0, 1.0) == 12.0

    def test_combine_midpoint_example(self):
        assert combine_reward(2.0, 0.4, 10.0, 0.5) == pytest.approx(11.2, abs=1e-15)

    @given(
        rc=st.floats(0, 100, allow_nan=False),
        ri=st.floats(0, 1, allow_nan=False),
        re=st.floats(0, 10, allow_nan=False),
        alpha=st.floats(0, 1, allow_nan=False),
    )
    @settings(max_examples=100)
    def test_combine_is_exact_affine(self, rc, ri, re, alpha):
        assert combine_reward(rc, ri, re, alpha) == alpha * rc + (1 - alpha) * ri + re


class TestTrainingRuns:
    def test_zero_iterations_gives_empty_dataset_and_checkpoints(
        self, tmp_path, area1_demo_paths
    ):
        cfg = tiny_cfg(area1_demo_paths, iterations=0)
        res = run_training(cfg, tmp_path / "run")
        assert res["trajectories"] == 0
        assert (tmp_path / "run" / "dataset.jsonl").read_text() == ""
        assert (tmp_path / "run" / "checkpoints" / "policy.vxnp").exists()

    def test_dataset_complete_and_reward_audit(self, tmp_path, area1_demo_paths):
        cfg = tiny_cfg(area1_demo_paths)
        res = run_training(cfg, tmp_path / "run")
        records = TrajectoryLog.read(tmp_path / "run" / "dataset.jsonl")
        assert len(records) == cfg.iterations * cfg.episodes_per_iter == res["trajectories"]
        for rec in records:
            alpha = rec["alpha"]
            assert 0.0 <= alpha <= 1.0
            assert len(rec["positions"]) == cfg.episode_length + 1
            assert len(rec["actions"]) == cfg.episode_length
            for rc, ri, re, R in zip(rec["rc_norm"], rec["ri"], rec["re"], rec["R"]):
                assert R == alpha * rc + (1 - alpha) * ri + re  # exact, same floats
            for v in rec["rc_raw"]:
                assert v >= 0.0

    def test_rerun_bit_identical_datasets(self, tmp_path, area1_demo_paths):
        cfg = tiny_cfg(area1_demo_paths, seed=21)
        run_training(cfg, tmp_path / "a")
        run_training(cfg, tmp_path / "b")
        assert (tmp_path / "a" / "dataset.jsonl").read_bytes() == (
            tmp_path / "b" / "dataset.jsonl"
        ).read_bytes()
        for name in ("policy", "critic", "discriminator", "rnd_target", "rnd_predictor"):
            assert (tmp_path / "a" / "checkpoints" / f"{name}.vxnp").read_bytes() == (
                tmp_path / "b" / "checkpoints" / f"{name}.vxnp"
            ).read_bytes()

    def test_fixed_alpha_mode_constant_per_trajectory(self, tmp_path, area1_demo_paths):
        cfg = tiny_cfg(area1_demo_paths, alpha_mode="fixed", alpha_value=0.25)
        run_training(cfg, tmp_path / "run")
        records = TrajectoryLog.read(tmp_path / "run" / "dataset.jsonl")
        assert all(rec["alpha"] == 0.25 for rec in records)

    def test_extrinsic_only_mode_runs_without_demos(self, tmp_path):
        cfg = TrainConfig(
            map_path=str(fixture_path("corridor.json")),
            demo_paths=[],
            reward_mode="extrinsic_only",
            iterations=2,
            episodes_per_iter=2,
            episode_length=16,
            seed=3,
        )
        run_training(cfg, tmp_path / "run")
        records = TrajectoryLog.read(tmp_path / "run" / "dataset.jsonl")
        assert all(v == 0.0 for rec in records for v in rec["ri"] + rec["rc_raw"])

    def test_lockstep_evaluation_matches_one_episode_at_a_time(self, tmp_path):
        # Seven iterations bring this corridor run from no goal to every goal.
        cfg = TrainConfig(
            map_path=str(fixture_path("corridor.json")),
            demo_paths=[],
            reward_mode="extrinsic_only",
            episodes_per_iter=10,
            episode_length=48,
            seed=0,
            eval_episodes=8,
        )
        trainer = Trainer(cfg, tmp_path / "run")
        rates = []
        for it in range(8):
            ref_rate, episodes = greedy_eval_ref(trainer, it)
            ro = trainer.collect_group(np.array([alpha for alpha, _, _ in episodes]))
            for taken, reached, (_, actions, hit) in zip(ro.actions, ro.reached_goal, episodes):
                assert taken[: len(actions)].tolist() == actions
                assert reached == hit
            rates.append(trainer.evaluate(it))
            assert rates[-1] == ref_rate
            trainer.train_iteration(it, None)
        assert rates[0] == 0.0 and rates[-1] == 1.0

    def test_rollouts_share_the_trainers_physics(self, tmp_path, area1_demo_paths, monkeypatch):
        trainer = Trainer(tiny_cfg(area1_demo_paths), tmp_path / "run")
        built = []
        init = world.Physics.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(world.Physics, "__init__", counting_init)
        trainer.train_iteration(0, None)
        trainer.evaluate(0)
        assert built == []

    def test_rollout_cube_ids_index_the_occupancy_of_every_state(
        self, tmp_path, area1_demo_paths
    ):
        cfg = tiny_cfg(area1_demo_paths, episodes_per_iter=4)
        trainer = Trainer(cfg, tmp_path / "run")
        rngs = [trainer._episode_rng(0, e) for e in range(4)]
        ro = trainer.collect_group(np.array([0.1, 0.9, 0.5, 0.3]), rngs)
        occ = ro.features["occ"]
        assert isinstance(occ, nn.Rows)
        ids, cubes = occ.ids, occ.table
        assert ids.shape == (4, cfg.episode_length + 1)
        assert cubes.dtype == np.uint8 and cubes.shape[1] == 7**3
        rec = ro.replay
        for i in range(4):
            for t in range(cfg.episode_length + 1):
                state = AgentState(trainer.physics.position(int(rec.cell[t, i])))
                want = local_occupancy(trainer.map, state, 7, tick=t).reshape(-1)
                assert np.array_equal(cubes[ids[i, t]], want)
        # ids count up from 0 in the order states are recorded (step by step)
        order = ids.T.reshape(-1)
        first_seen = order[np.sort(np.unique(order, return_index=True)[1])]
        assert np.array_equal(first_seen, np.arange(len(cubes)))
        assert len(np.unique(cubes, axis=0)) == len(cubes) < ids.size
        steps = ro.occ_steps()
        assert steps.table is cubes and steps.stem_index is occ.stem_index
        assert np.array_equal(np.asarray(steps), cubes[ids[:, :-1].reshape(-1)])
        # the critic values and the PPO batch read views of the same table and
        # share the one window index the critic's stem built
        zeros = np.zeros(ro.logp.shape)
        batch, _ = trainer._build_batch(ro, zeros, zeros)
        assert batch.inputs["occ"].stem_index is occ.stem_index and len(occ.stem_index) == 1

    def test_rollout_records_the_replay_of_its_own_actions(
        self, tmp_path, area1_demo_paths, monkeypatch
    ):
        from voxhunt import trainer as trainer_module

        def assert_recorded(trainer, ro):
            want = trainer.physics.replay(ro.actions.tolist())
            for name in ("actions", "lengths", "cell", "jump_ticks", "grounded", "climbing",
                         "double_jump", "goal", "bugs_in", "bugs_used"):
                a, b = getattr(ro.replay, name), getattr(want, name)
                assert a.dtype == b.dtype and np.array_equal(a, b), name
            return ro.replay

        trainer = Trainer(tiny_cfg(area1_demo_paths, episodes_per_iter=5), tmp_path / "run")
        rngs = [trainer._episode_rng(0, e) for e in range(5)]
        assert_recorded(trainer, trainer.collect_group(np.linspace(0.0, 1.0, 5), rngs))

        # Scripted episodes into every goal and bug region (area2 has a
        # climbable bug), then random actions, so every array is exercised.
        T = 32
        rng = np.random.default_rng(4)
        for name in ("testmap_area1", "testmap_area2"):
            cfg = TrainConfig(map_path=str(fixture_path(f"{name}.json")), demo_paths=[],
                              reward_mode="extrinsic_only", episode_length=T)
            trainer = Trainer(cfg, tmp_path / name)
            heads = list(event_scripts(trainer.map).values()) + [[]]
            scripts = np.array([(h + rng.integers(0, 10, size=T).tolist())[:T] for h in heads])
            ticks = iter(range(T))

            def scripted(policy, inputs, rngs, greedy):
                return scripts[:, next(ticks)], np.zeros(len(scripts)), None

            monkeypatch.setattr(trainer_module, "act", scripted)
            rec = assert_recorded(trainer, trainer.collect_group(np.full(len(scripts), 0.5)))
            assert rec.goal.any()
            assert np.bitwise_or.reduce(rec.entered()) == (1 << len(trainer.map.bugs)) - 1
            assert rec.bugs_used.any() == (name == "testmap_area2")

    def test_existing_run_dir_refused(self, tmp_path, area1_demo_paths):
        cfg = tiny_cfg(area1_demo_paths, iterations=0)
        run_training(cfg, tmp_path / "run")
        with pytest.raises(FileExistsError):
            run_training(cfg, tmp_path / "run")

    def test_manifest_stable_fields_only(self, tmp_path, area1_demo_paths):
        cfg = tiny_cfg(area1_demo_paths, iterations=1)
        run_training(cfg, tmp_path / "run")
        doc = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert doc["seed"] == cfg.seed
        assert doc["config_hash"] == cfg.config_hash()
        assert "seconds" not in json.dumps(doc)  # timing lives in its own file
        assert (tmp_path / "run" / "timing.json").exists()

    def test_timing_and_diagnostics_written_atomically(
        self, tmp_path, area1_demo_paths, monkeypatch
    ):
        written = []
        write_atomic = nn.write_atomic

        def spy(path, data):
            written.append(path.name)
            write_atomic(path, data)

        monkeypatch.setattr(nn, "write_atomic", spy)
        run_training(tiny_cfg(area1_demo_paths, iterations=1), tmp_path / "run")
        assert "timing.json" in written

        trainer = Trainer(tiny_cfg(area1_demo_paths), tmp_path / "diverged")

        def diverge(batch, rng):
            raise nn.NonFiniteError("policy loss is nan")

        monkeypatch.setattr(trainer.ppo, "update", diverge)
        with pytest.raises(TrainingDiverged, match="iteration 0"):
            trainer.run()
        assert "diagnostics.json" in written
        diag = json.loads((tmp_path / "diverged" / "diagnostics.json").read_text())
        assert diag == {"iteration": 0, "error": "policy loss is nan"}

    def test_metrics_log_one_line_per_iteration(self, tmp_path, area1_demo_paths):
        cfg = tiny_cfg(area1_demo_paths, iterations=3)
        run_training(cfg, tmp_path / "run")
        lines = (tmp_path / "run" / "metrics.jsonl").read_text().splitlines()
        assert len(lines) == 3
        rec = json.loads(lines[-1])
        for key in ("mean_R", "mean_ri", "mean_rc_raw", "coverage", "goal_rate"):
            assert key in rec


class TestConfig:
    def test_validation_lists_all_problems(self):
        cfg = TrainConfig(map_path="missing.json", iterations=-1, episode_length=0)
        problems = cfg.validate()
        assert len(problems) >= 3

    def test_eval_settings_validated(self, area1_demo_paths):
        assert tiny_cfg(area1_demo_paths, eval_every=0).validate() == []
        problems = tiny_cfg(area1_demo_paths, eval_every=-1, eval_episodes=0).validate()
        assert any("eval_every" in p for p in problems)
        assert any("eval_episodes" in p for p in problems)

    def test_round_trip_and_overrides(self, area1_demo_paths):
        cfg = tiny_cfg(area1_demo_paths)
        back = TrainConfig.from_dict(cfg.to_dict())
        assert back.to_dict() == cfg.to_dict()
        assert back.config_hash() == cfg.config_hash()
        cfg2 = cfg.apply_overrides(["ppo.lr=0.001", "seed=99", "alpha_mode=fixed"])
        assert cfg2.ppo.lr == 0.001 and cfg2.seed == 99 and cfg2.alpha_mode == "fixed"

    def test_unknown_override_rejected(self, area1_demo_paths):
        from voxhunt.config import ConfigError

        with pytest.raises(ConfigError, match="no such config field"):
            tiny_cfg(area1_demo_paths).apply_overrides(["ppo.momentum=0.9"])

    def test_profiles_expose_both_sizes(self):
        from voxhunt.config import PROFILES, Profile

        desk, paper = PROFILES["desk"], PROFILES["paper"]
        assert desk == Profile()
        assert desk.L == 7 and paper.L == 21
        assert paper.trunk == (1024, 512, 512)
        assert paper.conv == ((32, 2, 1), (32, 2, 1), (64, 2, 1), (64, 2, 1))
        assert paper.rnd_out == desk.rnd_out == 128

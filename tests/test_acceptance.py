"""Acceptance gate.

One test per acceptance criterion, each at its stated tolerance, plus the
trained-artifact invariants that need the shared end-to-end runs. Heavy
artifacts (the reward-variant sweep, the corridor run) are session fixtures
shared across criteria. Budgets are wall-clock checked where the criterion
states one.
"""

import json
import time
from contextlib import contextmanager
from pathlib import Path
import numpy as np
import pytest

from voxhunt import nn
from voxhunt.cli import REWARD_VARIANTS, main as cli_main
from voxhunt.config import TrainConfig
from voxhunt.curiosity import CuriosityConfig, RNDPair
from voxhunt.encode import (
    ObservationEncoder,
    agent_info_vector,
    positional_embedding,
)
from voxhunt.imitation import (
    AMPModule,
    ImitationConfig,
    demo_pairs,
    imitation_reward_from_d,
    load_demos,
    one_hot_actions,
)
from voxhunt.mapio import fixture_path, load_fixture_map
from voxhunt.policy import make_critic_net, make_policy_net, act
from voxhunt.rundir import Columns, TrajectoryLog
from voxhunt.trainer import run_training
from voxhunt.triage import (
    TRIAGE_FIELDS,
    compute_epsilon,
    filter_theta,
    read_report,
    score_records,
)
from voxhunt.world import (
    Action,
    AgentState,
    INFINITE_JUMP_GLITCH,
    MISSING_COLLISION,
    play_script,
)

from .oracles import (
    Env,
    ScanPhysics,
    assert_grads_close,
    explore_states,
    fd_param_gradients,
    gradient_penalty,
    positional_embedding_ref,
)


@contextmanager
def criterion(number: int, name: str):
    started = time.time()
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE] criterion {number:02d} ({name}): FAIL")
        raise
    print(
        f"[ACCEPTANCE] criterion {number:02d} ({name}): PASS"
        f" ({time.time() - started:.1f}s)"
    )


DEMO_PATHS = [str(fixture_path(f"demo_area1_{i}.txt")) for i in range(1, 7)]
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def sweep_config(**patch) -> TrainConfig:
    base = dict(
        map_path=str(fixture_path("testmap_area1.json")),
        demo_paths=list(DEMO_PATHS),
        iterations=60,
        episodes_per_iter=10,
        episode_length=128,
        seed=0,
        imitation=ImitationConfig(gp_coef=0.1),
    )
    base.update(patch)
    return TrainConfig(**base)


@pytest.fixture(scope="session")
def reward_sweep(tmp_path_factory):
    """`voxhunt ablate-reward` on the sweep config: dial sampling plus the three
    fixed-dial baselines. Each variant's run directory and triage report, by
    run directory name."""
    root = tmp_path_factory.mktemp("sweep")
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(sweep_config().to_dict()))
    out = root / "ablate-reward"
    assert cli_main(["ablate-reward", "--config", str(cfg_path), "--out", str(out)]) == 0
    return {
        name: {"dir": out / name, "report": read_report(out / name)}
        for name, _, _ in REWARD_VARIANTS
    }


# ---------------------------------------------------------------------------
# 1. gradient suite


def _probe_layer(loss_builder, count_target=100, seed=0):
    """Accumulate FD probes over fresh random instances until >=100 checked."""
    rng = np.random.default_rng(seed)
    probes = 0
    while probes < count_target:
        loss_fn, analytic, params = loss_builder(rng)
        fd = fd_param_gradients(loss_fn, params, probes_per_array=6, rng=rng)
        assert_grads_close(analytic, fd)
        probes += len(fd)
    return probes


def test_criterion_01_gradient_suite():
    with criterion(1, "gradient suite <2min, rel err 1e-4, >=100 probes each"):
        started = time.time()

        def dense_builder(activation):
            def build(rng):
                layer = nn.Dense(6, 5, activation, rng)
                x = rng.normal(size=(4, 6))
                w_out = rng.normal(size=(4, 5))
                _, cache = layer.forward(x)
                _, grads = layer.backward(cache, w_out)
                return (
                    lambda: float((layer.forward(x)[0] * w_out).sum()),
                    grads,
                    layer.params,
                )

            return build

        def embed_builder(rng):
            layer = nn.Embedding(5, 6, "tanh", rng)
            codes = rng.integers(0, 5, size=(3, 8))
            w_out = rng.normal(size=(3, 8, 6))
            _, cache = layer.forward(codes)
            _, grads = layer.backward(cache, w_out)
            return (
                lambda: float((layer.forward(codes)[0] * w_out).sum()),
                grads,
                layer.params,
            )

        def conv_builder(rng):
            layer = nn.Conv3d(2, 3, 3, 2, 1, "relu", rng)
            x = rng.normal(size=(2, 5, 5, 5, 2))
            y, cache = layer.forward(x)
            w_out = rng.normal(size=y.shape)
            _, grads = layer.backward(cache, w_out)
            return (
                lambda: float((layer.forward(x)[0] * w_out).sum()),
                grads,
                layer.params,
            )

        for i, act_kind in enumerate([None, "relu", "tanh"]):
            _probe_layer(dense_builder(act_kind), seed=i)
        _probe_layer(embed_builder, seed=3)
        _probe_layer(conv_builder, seed=4)

        # full desk networks
        cfg = sweep_config()
        vmap = load_fixture_map("testmap_area1")
        profile = cfg.net_profile()
        branches = dict(position_mode=cfg.position_mode, perception=cfg.perception, dims=vmap.dims)
        rng = np.random.default_rng(7)

        def net_inputs(n):
            return {
                "pos": rng.uniform(-1, 1, size=(n, 96)),
                "info": rng.normal(size=(n, 9)),
                "occ": rng.integers(0, 4, size=(n, 343)),
                "alpha": rng.random(size=(n, 1)),
            }

        nets = [make(profile, rng, **branches) for make in (make_policy_net, make_critic_net)]
        for net in nets:
            inputs = net_inputs(3)
            out, cache = net.forward(inputs)
            w_out = rng.normal(size=out.shape)
            grads = net.backward(cache, w_out)

            def loss(net=net, inputs=inputs, w_out=w_out):
                return float((net.forward(inputs)[0] * w_out).sum())

            fd = fd_param_gradients(loss, net.params(), probes_per_array=6, rng=rng)
            assert len(fd) >= 100
            assert_grads_close(grads, fd)

        from voxhunt.imitation import Discriminator

        disc = Discriminator(profile, rng)
        occ = rng.integers(0, 4, size=(3, 343))
        onehot = one_hot_actions(rng.integers(0, 10, size=3))
        d, cache = disc.forward(occ, onehot)
        w_out = rng.normal(size=3)
        grads = disc.backward(cache, w_out)

        def disc_loss():
            return float((disc.forward(occ, onehot)[0] * w_out).sum())

        fd = fd_param_gradients(disc_loss, disc.params(), probes_per_array=8, rng=rng)
        assert len(fd) >= 100
        assert_grads_close(grads, fd)

        # discriminator input gradients (the surface the penalty differentiates)
        emb, _ = disc.embed_occupancy(occ)
        _, ccache = disc.core_forward(emb, onehot)
        _, g_emb, g_act = disc.core_backward(ccache, np.ones(3))
        h = 1e-6
        flat = emb.reshape(-1)
        probe_rng = np.random.default_rng(11)
        for i in probe_rng.choice(flat.size, size=60, replace=False):
            orig = flat[i]
            flat[i] = orig + h
            dp, _ = disc.core_forward(emb, onehot)
            flat[i] = orig - h
            dm, _ = disc.core_forward(emb, onehot)
            flat[i] = orig
            fd_v = (dp.sum() - dm.sum()) / (2 * h)
            got = g_emb.reshape(-1)[i]
            assert abs(got - fd_v) / max(abs(fd_v), abs(got), 1e-7) < 1e-4
        flat = onehot.reshape(-1)
        for i in probe_rng.choice(flat.size, size=min(30, flat.size), replace=False):
            orig = flat[i]
            flat[i] = orig + h
            dp, _ = disc.core_forward(emb, onehot)
            flat[i] = orig - h
            dm, _ = disc.core_forward(emb, onehot)
            flat[i] = orig
            fd_v = (dp.sum() - dm.sum()) / (2 * h)
            got = g_act.reshape(-1)[i]
            assert abs(got - fd_v) / max(abs(fd_v), abs(got), 1e-7) < 1e-4

        rnd = RNDPair(
            profile, CuriosityConfig(), np.random.default_rng(1), np.random.default_rng(2)
        )
        inputs = {"pos": rng.uniform(-1, 1, size=(4, 96)), "info": rng.normal(size=(4, 9))}
        out, cache = rnd.predictor.forward(inputs)
        w_out = rng.normal(size=out.shape)
        grads = rnd.predictor.backward(cache, w_out)

        def rnd_loss():
            return float((rnd.predictor.forward(inputs)[0] * w_out).sum())

        fd = fd_param_gradients(rnd_loss, rnd.predictor.params(), probes_per_array=9, rng=rng)
        assert len(fd) >= 100
        assert_grads_close(grads, fd)

        assert time.time() - started < 120.0


# ---------------------------------------------------------------------------
# 2. formula oracles


def test_criterion_02_formula_oracles(tmp_path):
    with criterion(2, "formula oracles at 1e-12"):
        rng = np.random.default_rng(0)

        # positional code vs scalar recomputation
        for pos in [0, 1, 5, 311, 9997]:
            for d in (4, 32):
                got = positional_embedding(pos, d)
                ref = positional_embedding_ref(pos, d)
                assert np.max(np.abs(got - ref)) <= 1e-12

        # bounded imitation reward incl. clamps
        for d_val, expected in [(-1.0, 0.0), (0.0, 0.75), (1.0, 1.0), (3.0, 0.0)]:
            assert abs(float(imitation_reward_from_d(d_val)) - expected) <= 1e-12
        ds = rng.normal(scale=4.0, size=1000)
        ref = np.array([max(0.0, 1.0 - 0.25 * (d - 1.0) ** 2) for d in ds])
        assert np.max(np.abs(imitation_reward_from_d(ds) - ref)) <= 1e-12

        # curiosity reward vs elementwise mean
        pair = RNDPair(
            TrainConfig(map_path="x").net_profile(),
            CuriosityConfig(),
            np.random.default_rng(3),
            np.random.default_rng(4),
        )
        inputs = {"pos": rng.uniform(-1, 1, (16, 96)), "info": rng.normal(size=(16, 9))}
        t_out, _ = pair.target.forward(inputs)
        p_out, _ = pair.predictor.forward(inputs)
        ref = np.array(
            [sum((t_out[i, j] - p_out[i, j]) ** 2 for j in range(128)) / 128 for i in range(16)]
        )
        assert np.max(np.abs(pair.raw_reward(inputs) - ref)) <= 1e-12

        # combined-reward audit over every logged step of a short run
        cfg = sweep_config(iterations=2, episodes_per_iter=4, episode_length=32, seed=5)
        run_training(cfg, tmp_path / "audit")
        records = TrajectoryLog.read(tmp_path / "audit" / "dataset.jsonl")
        assert records
        for rec in records:
            a = rec["alpha"]
            for rc, ri, re, R in zip(rec["rc_norm"], rec["ri"], rec["re"], rec["R"]):
                assert abs(R - (a * rc + (1.0 - a) * ri + re)) == 0.0

        # filtered-set construction vs brute-force enumeration
        scores = []
        for i in range(200):
            scores.append(
                {
                    "traj_id": i,
                    "alpha": float(rng.random()),
                    "reached_goal": bool(rng.random() < 0.7),
                    "first_goal": 10,
                    "rc_avg": float(rng.random() * 2.0),
                    "bug_regions": [],
                    "demo": False,
                }
            )
        for eps in (-1.0, 0.3, 0.9, 2.5):
            expected = sorted(
                s["traj_id"]
                for s in scores
                if s["alpha"] >= 0.5 and s["reached_goal"] and s["rc_avg"] > eps
            )
            assert sorted(filter_theta(scores, eps)) == expected

        # trajectory average against hand summation on a replayed demo
        vmap = load_fixture_map("testmap_area1")
        enc = ObservationEncoder(vmap, L=7)
        from voxhunt.mapio import load_demo_script

        script = (DEMO_PATHS[0], *load_demo_script(DEMO_PATHS[0]))
        traj = play_script(vmap, script[-1])
        T = traj.first_goal_state_index
        no_records = Columns.of([], TRIAGE_FIELDS)
        _, [got], _ = score_records(no_records, vmap, pair, enc, [script], max_rows=T + 1)
        hand = 0.0
        for t in range(T + 1):
            s = traj.states[t]
            one = {
                "pos": enc.position_code(s.pos)[None, :],
                "info": agent_info_vector(s)[None, :],
            }
            t_o, _ = pair.target.forward(one)
            p_o, _ = pair.predictor.forward(one)
            hand += float(((t_o[0] - p_o[0]) ** 2).mean())
        assert abs(got - hand / T) <= 1e-12


# ---------------------------------------------------------------------------
# 3. simulator brute-force oracle


def test_criterion_03_simulator_bfs_oracle():
    with criterion(3, "bug shortcuts reachable only with bugs enabled"):
        # area 1: missing-collision hole and the glitch column's upper cells
        m1 = load_fixture_map("testmap_area1")
        pos_on, _, _ = explore_states(ScanPhysics(m1, bugs_enabled=True))
        pos_off, _, _ = explore_states(ScanPhysics(m1, bugs_enabled=False))
        hole = next(b.voxels for b in m1.bugs if b.kind == MISSING_COLLISION)
        glitch = next(b.voxels for b in m1.bugs if b.kind == INFINITE_JUMP_GLITCH)
        glitch_top = {v for v in glitch if v[1] >= 8}
        assert hole <= pos_on and not (hole & pos_off)
        assert glitch_top <= pos_on and not (glitch_top & pos_off)
        assert m1.goals[0].voxels & pos_off  # intended path stays intact

        # area 2: missing-collision hole; climbing only happens at the bug strip
        m2 = load_fixture_map("testmap_area2")
        pos_on2, climb_on, _ = explore_states(ScanPhysics(m2, bugs_enabled=True))
        pos_off2, climb_off, _ = explore_states(ScanPhysics(m2, bugs_enabled=False))
        hole2 = next(b.voxels for b in m2.bugs if b.kind == MISSING_COLLISION)
        assert hole2 <= pos_on2 and not (hole2 & pos_off2)
        strip_adjacent = {(4, y, 1) for y in range(1, 7)}
        assert strip_adjacent & climb_on and not (strip_adjacent & climb_off)
        assert m2.goals[0].voxels & pos_off2

        # observations are a function of (map, state, tick) alone: encoding the
        # same states from physics-on and physics-off worlds is bit-identical
        env_on = Env(m1, bugs_enabled=True)
        env_off = Env(m1, bugs_enabled=False)
        enc = ObservationEncoder(m1, L=7)
        rng = np.random.default_rng(1)
        env_on.reset()
        for t in range(100):
            pos = np.array([env_on.state.pos])
            occ_off = ObservationEncoder(env_off.map, L=7).cubes(pos, env_on.tick)
            assert np.array_equal(enc.cubes(pos, env_on.tick), occ_off)
            # agent info takes no map at all, so it cannot see the bugs either
            assert np.array_equal(
                agent_info_vector(env_on.state), agent_info_vector(env_on.state)
            )
            rays_off = ObservationEncoder(env_off.map, L=7).rays(pos, env_on.tick)
            assert np.array_equal(enc.rays(pos, env_on.tick), rays_off)
            env_on.step(int(rng.integers(0, 10)))
        # while physics genuinely disagrees at the bug cells
        cell = sorted(hole)[0]
        assert not env_on.physics.colliding(cell, 0)
        assert env_off.physics.colliding(cell, 0)


# ---------------------------------------------------------------------------
# 4. curiosity module behavior


def test_criterion_04_rnd_region_behavior():
    with criterion(4, "novelty collapses on trained region, stays high elsewhere"):
        started = time.time()
        vmap = load_fixture_map("testmap_area1")
        enc = ObservationEncoder(vmap, L=7)
        rng = np.random.default_rng(0)

        def region_states(x_range, n):
            rows_pos, rows_info = [], []
            for _ in range(n):
                pos = (
                    int(rng.integers(*x_range)),
                    int(rng.integers(1, 9)),
                    int(rng.integers(0, 14)),
                )
                s = AgentState(
                    pos=pos,
                    grounded=bool(rng.integers(2)),
                    last_disp=tuple(int(v) for v in rng.integers(-1, 2, 3)),
                )
                rows_pos.append(enc.position_code(s.pos))
                rows_info.append(agent_info_vector(s))
            return {"pos": np.stack(rows_pos), "info": np.stack(rows_info)}

        region_a = region_states((0, 8), 512)
        region_b = region_states((11, 16), 512)
        pair = RNDPair(
            TrainConfig(map_path="x").net_profile(),
            CuriosityConfig(lr=7e-5),
            np.random.default_rng(1),
            np.random.default_rng(2),
        )
        initial_a = float(pair.raw_reward(region_a).mean())
        for _ in range(3000):
            idx = rng.integers(0, 512, size=128)
            pair.train_step({k: v[idx] for k, v in region_a.items()})
        trained_a = float(pair.raw_reward(region_a).mean())
        trained_b = float(pair.raw_reward(region_b).mean())
        print(f"  region A {initial_a:.4f} -> {trained_a:.4f}; region B {trained_b:.4f}")
        assert trained_a < 0.5 * initial_a
        assert trained_b >= 2.0 * trained_a
        assert time.time() - started < 300.0


# ---------------------------------------------------------------------------
# 5. adversarial imitation behavior


def test_criterion_05_amp_separation():
    with criterion(5, "held-out sign accuracy >=90% within 500 updates"):
        vmap = load_fixture_map("testmap_area1")
        enc = ObservationEncoder(vmap, L=7)
        demos = load_demos(DEMO_PATHS, vmap)
        e_occ, e_act = demo_pairs(demos, enc)
        rng = np.random.default_rng(0)
        p_occ_rows, p_act_rows = [], []
        for _ in range(20):
            env = Env(vmap, episode_length=128)
            env.reset()
            for _ in range(128):
                p_occ_rows.append(enc.cubes(np.array([env.state.pos]), env.tick)[0])
                a = int(rng.integers(0, 10))
                p_act_rows.append(a)
                env.step(a)
        p_occ = np.stack(p_occ_rows)
        p_act = np.array(p_act_rows)

        e_cut, p_cut = int(0.8 * len(e_act)), int(0.8 * len(p_act))
        amp = AMPModule(
            sweep_config().net_profile(),
            ImitationConfig(lr=2e-4, updates_per_iter=1, gp_coef=0.1),
            e_occ[:e_cut],
            e_act[:e_cut],
            np.random.default_rng(3),
        )
        amp.observe_policy_pairs(p_occ[:p_cut], p_act[:p_cut])
        update_rng = np.random.default_rng(4)
        for _ in range(500):
            amp.update(update_rng)
        d_e = amp.disc.score(e_occ[e_cut:], one_hot_actions(e_act[e_cut:]))
        d_p = amp.disc.score(p_occ[p_cut:], one_hot_actions(p_act[p_cut:]))
        accuracy = 0.5 * (float((d_e > 0).mean()) + float((d_p < 0).mean()))
        print(f"  held-out sign accuracy {accuracy:.3f}")
        assert accuracy >= 0.90

        # reward bounds over 1e5 random discriminator outputs
        ds = np.random.default_rng(5).normal(scale=50.0, size=100_000)
        r = imitation_reward_from_d(ds)
        assert float(r.min()) >= 0.0 and float(r.max()) <= 1.0


# ---------------------------------------------------------------------------
# 6. policy optimizer sanity


@pytest.fixture(scope="session")
def corridor_run(tmp_path_factory):
    """The shipped corridor config: 416 iterations * 10 * 48 < 200k env steps."""
    cfg = TrainConfig.from_json_file(CONFIGS / "corridor_sanity.json")
    run_dir = tmp_path_factory.mktemp("corridor") / "run"
    started = time.time()
    result = run_training(cfg, run_dir)
    result["seconds"] = time.time() - started
    return result


def test_criterion_06_ppo_corridor_sanity(corridor_run):
    with criterion(6, "extrinsic-only corridor >=90% eval goal rate <=200k steps"):
        print(
            f"  reached eval rate {corridor_run['eval_goal_rate']} after "
            f"{corridor_run['env_steps']} steps in {corridor_run['seconds']:.0f}s"
        )
        assert corridor_run["eval_goal_rate"] >= 0.90
        assert corridor_run["env_steps"] <= 200_000
        assert corridor_run["seconds"] < 900.0


# ---------------------------------------------------------------------------
# 7 & 8. end-to-end fixture and baseline ordering


def test_criterion_07_end_to_end_fixture(reward_sweep):
    with criterion(7, "filtered set non-empty, hits a planted bug, excludes demos"):
        report = reward_sweep["ccpt"]["report"]
        assert len(report["theta"]) > 0  # (a)
        theta_set = set(report["theta"])
        highlighted = [s for s in report["scores"] if s["traj_id"] in theta_set]
        assert any(s["bug_regions"] for s in highlighted)  # (b)
        for s in highlighted:
            assert s["alpha"] >= 0.5 and s["reached_goal"]  # (c)
        assert report["mode"] == "quantile"
        assert max(report["demo_scores"]) < report["epsilon"]  # (d)
        print(
            f"  theta={len(report['theta'])} bugs_highlighted={report['bugs_highlighted']} "
            f"demo_max={max(report['demo_scores']):.5f} < eps={report['epsilon']:.5f}"
        )


def test_criterion_08_baseline_ordering(reward_sweep):
    with criterion(8, "imitation-only covers least; highlight counts ordered"):
        cov = {k: v["report"]["coverage"] for k, v in reward_sweep.items()}
        hi = {k: v["report"]["bugs_highlighted"] for k, v in reward_sweep.items()}
        print(f"  coverage {cov}")
        print(f"  bugs_highlighted {hi}")
        assert cov["only_imitation"] < cov["ccpt"]
        assert hi["ccpt"] >= hi["linear_combination"] >= hi["only_imitation"]
        # reported, never asserted: pure novelty chasing may cover the most
        print(
            f"  only_curiosity coverage {cov['only_curiosity']} vs ccpt {cov['ccpt']}"
            f" ({'exceeds' if cov['only_curiosity'] > cov['ccpt'] else 'does not exceed'})"
        )
        # the printed table is the reports' figures, noted when the ordering fails
        table = (reward_sweep["ccpt"]["dir"].parent / "reward_ablation.tsv").read_text()
        lines = table.splitlines()
        assert lines[0] == "variant\tcoverage\tbugs_found\tbugs_highlighted"
        expected = [
            f"{label}\t{cov[name]}\t{reward_sweep[name]['report']['bugs_found']}\t{hi[name]}"
            for name, label, _ in REWARD_VARIANTS
        ]
        assert lines[1:5] == expected
        notes = lines[5:]
        assert all(line.startswith("# note: ") for line in notes)
        assert len(notes) == (cov["only_imitation"] >= cov["ccpt"])


# ---------------------------------------------------------------------------
# 9. determinism


def test_criterion_09_bit_exact_reproduction(tmp_path):
    with criterion(9, "rerun with the same seed is bit-identical"):
        cfg_doc = sweep_config(
            iterations=3, episodes_per_iter=4, episode_length=32, seed=33
        ).to_dict()
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg_doc))
        digests = []
        for name in ("a", "b"):
            out = tmp_path / name
            rc = cli_main(
                [
                    "train",
                    "--config",
                    str(cfg_path),
                    "--seed",
                    "33",
                    "--out",
                    str(out),
                ]
            )
            assert rc == 0
            rc = cli_main(["triage", str(out)])
            assert rc == 0
            blob = {}
            for rel in (
                "dataset.jsonl",
                "dataset.index",
                "triage_report.json",
                "manifest.json",
                "checkpoints/policy.vxnp",
                "checkpoints/critic.vxnp",
                "checkpoints/discriminator.vxnp",
                "checkpoints/rnd_target.vxnp",
                "checkpoints/rnd_predictor.vxnp",
            ):
                blob[rel] = (out / rel).read_bytes()
            digests.append(blob)
        for rel in digests[0]:
            assert digests[0][rel] == digests[1][rel], f"{rel} differs between runs"


# ---------------------------------------------------------------------------
# 10. encoder ablation harness


def test_criterion_10_encoding_ablation(tmp_path):
    with criterion(10, "five encoder series emitted, full vs normalized reported"):
        cfg_doc = sweep_config(
            iterations=20, episodes_per_iter=8, episode_length=96, seed=2
        ).to_dict()
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg_doc))
        out = tmp_path / "ablation"
        rc = cli_main(
            ["ablate-encoding", "--config", str(cfg_path), "--out", str(out)]
        )
        assert rc == 0
        lines = (out / "coverage_series.tsv").read_text().splitlines()
        assert lines[0] == "series\tsteps\tcoverage"
        rows = [l.split("\t") for l in lines[1:] if l and not l.startswith("#")]
        series = {r[0] for r in rows}
        assert series == {"full", "normalized", "learned", "global_only", "raycast"}
        finals = {}
        for name in sorted(series):
            steps = [int(r[1]) for r in rows if r[0] == name]
            assert steps == sorted(steps) and len(set(steps)) == len(steps)
            finals[name] = int([r[2] for r in rows if r[0] == name][-1])
        print(f"  final coverage {finals}")
        if finals["full"] < finals["normalized"]:
            print(
                "  note: full model final coverage below normalized baseline on "
                "this fixture (soft assertion, reported per contract)"
            )
        notes = [l for l in lines if l.startswith("#")]
        assert (finals["full"] >= finals["normalized"]) == (not notes)


# ---------------------------------------------------------------------------
# trained-artifact invariants that ride on the shared sweep


def test_alpha_conditioning_is_live(reward_sweep):
    """A trained checkpoint must act measurably differently at dial 0 vs 1."""
    run_dir = reward_sweep["ccpt"]["dir"]
    cfg = TrainConfig.from_dict(json.loads((run_dir / "config.json").read_text()))
    vmap = load_fixture_map("testmap_area1")
    net = make_policy_net(
        cfg.net_profile(), np.random.default_rng(0),
        position_mode=cfg.position_mode, perception=cfg.perception, dims=vmap.dims,
    )
    net.load(run_dir / "checkpoints" / "policy.vxnp")
    enc = ObservationEncoder(vmap, L=7)

    records = TrajectoryLog.read(run_dir / "dataset.jsonl")[::71][:10]
    states = []
    for rec in records:
        traj = play_script(vmap, [int(a) for a in rec["actions"]])
        states.extend(traj.states[::16])
    assert len(states) >= 50

    def probs_at(alpha):
        inputs = {
            "pos": np.stack([enc.position_code(s.pos) for s in states]),
            "info": np.stack([agent_info_vector(s) for s in states]),
            "occ": enc.cubes(np.array([s.pos for s in states]), 0),
            "alpha": np.full((len(states), 1), alpha),
        }
        _, _, probs = act(net, inputs)
        return probs

    tv = 0.5 * np.abs(probs_at(0.0) - probs_at(1.0)).sum(axis=1)
    assert float((tv > 0.01).mean()) >= 0.10


def test_endpoint_behavior_imitation_vs_curiosity(reward_sweep):
    """The dial-0 run must end with a higher imitation reward than the dial-1 run."""

    def final_ri(name):
        lines = (reward_sweep[name]["dir"] / "metrics.jsonl").read_text().splitlines()
        tail = [json.loads(l)["mean_ri"] for l in lines[-5:]]
        return float(np.mean(tail))

    ri0 = final_ri("only_imitation")
    ri1 = final_ri("only_curiosity")
    print(f"final mean r_i: dial 0 {ri0:.4f} vs dial 1 {ri1:.4f}")
    assert ri0 > ri1


def test_rnd_target_frozen_across_run(reward_sweep):
    """The stored target equals a fresh same-seed init: training never touched it."""
    run_dir = reward_sweep["ccpt"]["dir"]
    cfg = TrainConfig.from_dict(json.loads((run_dir / "config.json").read_text()))
    from voxhunt.curiosity import RNDNet

    fresh = RNDNet(
        cfg.net_profile(),
        np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(0, 3))),
    )
    stored = RNDNet(cfg.net_profile(), np.random.default_rng(0))
    stored.load(run_dir / "checkpoints" / "rnd_target.vxnp")
    for name, arr in fresh.params().items():
        assert np.array_equal(arr, stored.params()[name])


def test_gradient_penalty_shrinks_expert_input_gradients():
    """At matched steps, penalized training keeps grad norms below a no-penalty run."""
    vmap = load_fixture_map("testmap_area1")
    enc = ObservationEncoder(vmap, L=7)
    demos = load_demos(DEMO_PATHS, vmap)
    e_occ, e_act = demo_pairs(demos, enc)
    rng = np.random.default_rng(0)
    p_occ = rng.integers(0, 4, size=(512, 343))
    p_act = rng.integers(0, 10, size=512)

    def grad_norm_trace(gp_coef):
        amp = AMPModule(
            sweep_config().net_profile(),
            ImitationConfig(lr=2e-4, updates_per_iter=1, gp_coef=gp_coef),
            e_occ,
            e_act,
            np.random.default_rng(3),
        )
        amp.observe_policy_pairs(p_occ, p_act)
        update_rng = np.random.default_rng(4)
        trace = []
        for step in range(120):
            amp.update(update_rng)
            if (step + 1) % 20 == 0:
                _, g_emb, g_act = gradient_penalty(amp.disc, e_occ, e_act, coef=1.0)
                n = len(e_act)
                sq = (g_emb.reshape(n, -1) ** 2).sum(axis=1) + (g_act**2).sum(axis=1)
                trace.append(float(np.sqrt(sq).mean()))
        return trace

    with_pen = grad_norm_trace(1.0)
    without = grad_norm_trace(0.0)
    print(f"grad norms with penalty {with_pen}")
    print(f"grad norms without     {without}")
    assert np.mean(with_pen[-3:]) < np.mean(without[-3:])

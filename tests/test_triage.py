"""Trajectory filtering: scores, threshold modes, bug tallies, export."""

import json
import os
import re
import shutil
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from voxhunt.cli import main
from voxhunt.config import Profile, TrainConfig, resolve_path
from voxhunt.curiosity import CuriosityConfig, RNDPair
from voxhunt.encode import ObservationEncoder
from voxhunt.imitation import load_demos
from voxhunt.mapio import fixture_path, load_map, save_demo_script
from voxhunt.trainer import (
    INDEX_FORMAT,
    Columns,
    TrajectoryLog,
    _read_index,
    index_path,
    run_training,
)
from voxhunt.triage import (
    EXPORT_FIELDS,
    EXPORT_OPTIONAL,
    REPORT_KEYS,
    SCORE_KEYS,
    TRIAGE_FIELDS,
    TriageError,
    compute_epsilon,
    evaluate_bugs,
    export_trajectories,
    filter_theta,
    percentile,
    read_report,
    run_triage,
    score_records,
    write_report,
)
from voxhunt.world import Action, play_script

from .oracles import parse_export, score_trajectory, state_curiosity


def synth_score(i, alpha, reached=True, rc=0.5, bugs=()):
    return {
        "traj_id": i, "alpha": alpha, "reached_goal": reached,
        "first_goal": 10 if reached else None,
        "rc_avg": rc if reached else None, "bug_regions": list(bugs), "demo": False,
    }


class TestScoreTrajectory:
    def _rnd(self, identical=False):
        pair = RNDPair(
            Profile(), CuriosityConfig(), np.random.default_rng(0), np.random.default_rng(1)
        )
        if identical:
            pair.predictor.set_params(pair.target.params())
        return pair

    def _score(self, vmap, actions, rnd):
        """(score, T) of one stored record, through triage's scoring."""
        traj = play_script(vmap, actions)
        rec = {"id": 0, "alpha": 0.5, "actions": [int(a) for a in actions],
               "positions": [list(p) for p in traj.positions]}
        enc = ObservationEncoder(vmap, L=7)
        records = Columns.of([rec], TRIAGE_FIELDS)
        [score], _, _ = score_records(records, vmap, rnd, enc, [], max_rows=len(actions) + 1)
        return score["rc_avg"], score["first_goal"]

    def test_identical_networks_score_zero(self, area1, area1_demo_paths):
        from voxhunt.mapio import load_demo_script

        _, _, actions = load_demo_script(area1_demo_paths[0])
        score, T = self._score(area1, actions, self._rnd(identical=True))
        assert score == 0.0
        assert T == play_script(area1, actions).first_goal_state_index

    def test_sum_convention_one_extra_term_over_T(self, area1, area1_demo_paths):
        from voxhunt.mapio import load_demo_script

        _, _, actions = load_demo_script(area1_demo_paths[0])
        traj = play_script(area1, actions)
        rnd = self._rnd()
        score, T = self._score(area1, actions, rnd)
        per_state = state_curiosity(traj.states[: T + 1], rnd, ObservationEncoder(area1, L=7))
        assert len(per_state) == T + 1  # sum runs 0..T inclusive
        assert score == pytest.approx(per_state.sum() / T, abs=1e-12)

    def test_never_reaching_goal_not_scoreable(self, area1):
        score, T = self._score(area1, [Action.WAIT] * 10, self._rnd())
        assert score is None and T is None


class TestFilter:
    def test_low_alpha_all_dropped(self):
        scores = [synth_score(i, alpha=0.2) for i in range(5)]
        assert filter_theta(scores, epsilon=-1.0) == []

    def test_vacuous_threshold_keeps_all_eligible(self):
        scores = [synth_score(0, 0.9), synth_score(1, 0.5), synth_score(2, 0.9, reached=False)]
        assert filter_theta(scores, epsilon=-1.0) == [0, 1]

    def test_known_scores_brute_force(self):
        scores = [
            synth_score(0, 0.8, rc=0.1),
            synth_score(1, 0.8, rc=0.5),
            synth_score(2, 0.8, rc=0.9),
        ]
        eps = 0.4
        expected = sorted(
            s["traj_id"]
            for s in scores
            if s["alpha"] >= 0.5 and s["reached_goal"] and s["rc_avg"] > eps
        )
        assert sorted(filter_theta(scores, eps)) == expected == [1, 2]

    @given(
        data=st.lists(
            st.tuples(
                st.floats(0, 1, allow_nan=False),
                st.floats(0, 2, allow_nan=False),
                st.booleans(),
            ),
            min_size=1,
            max_size=40,
        ),
        e1=st.floats(-1, 2, allow_nan=False),
        e2=st.floats(-1, 2, allow_nan=False),
    )
    @settings(max_examples=80)
    def test_monotone_in_epsilon(self, data, e1, e2):
        scores = [
            synth_score(i, alpha, rc=rc, reached=reached)
            for i, (alpha, rc, reached) in enumerate(data)
        ]
        lo, hi = min(e1, e2), max(e1, e2)
        assert set(filter_theta(scores, hi)) <= set(filter_theta(scores, lo))


class TestEpsilon:
    def test_absolute_mode_passthrough(self):
        assert compute_epsilon([], [], "absolute", value=0.7) == 0.7

    def test_absolute_requires_value(self):
        from voxhunt.triage import TriageError

        with pytest.raises(TriageError):
            compute_epsilon([], [], "absolute")

    def test_quantile_uses_demos_and_low_alpha(self):
        demo_scores = [0.1, 0.2]
        scores = [synth_score(0, 0.2, rc=0.3), synth_score(1, 0.9, rc=9.0)]
        eps = compute_epsilon(scores, demo_scores, "quantile", quantile=0.9)
        # reference set is {0.1, 0.2, 0.3}: the high-alpha 9.0 must not leak in
        assert eps < 0.5
        assert eps == pytest.approx(np.percentile([0.1, 0.2, 0.3], 90))

    @given(
        values=st.lists(
            # non-negative, as scores are: no tie between 0.0 and -0.0
            st.one_of(st.floats(0, 1e6), st.sampled_from([0.0, 0.1, 0.3])),
            min_size=1,
            max_size=12,
        ),
        quantile=st.one_of(st.floats(0, 1), st.sampled_from([0.0, 0.5, 0.9, 1.0])),
    )
    @settings(max_examples=300)
    def test_percentile_is_numpy_linear_bit_for_bit(self, values, quantile):
        want = np.percentile(np.array(values, dtype=np.float64), quantile * 100.0)
        assert repr(percentile(values, quantile * 100.0)) == repr(float(want))

    @pytest.mark.parametrize("quantile", [-0.1, 1.5, float("nan")])
    def test_quantile_outside_unit_interval_rejected(self, quantile):
        with pytest.raises(TriageError, match="not in \\[0, 1\\]"):
            compute_epsilon([], [0.1, 0.2], "quantile", quantile=quantile)


class TestEvaluateBugs:
    def test_empty_theta_zero_highlighted(self, area1):
        scores = [synth_score(0, 0.9, bugs=(0,))]
        report = evaluate_bugs(scores, [], area1, 0.5, "absolute", total_coverage=10)
        assert set(report) == set(REPORT_KEYS)
        assert report["bugs_found"] == 1
        assert report["bugs_highlighted"] == 0

    def test_all_bugs_in_theta_found_equals_highlighted(self, area1):
        scores = [synth_score(0, 0.9, bugs=(0,)), synth_score(1, 0.7, bugs=(1,))]
        report = evaluate_bugs(scores, [0, 1], area1, 0.0, "absolute", total_coverage=5)
        assert report["bugs_found"] == report["bugs_highlighted"] == 2
        assert report["per_kind_highlighted"] == {
            "missing_collision": 1,
            "infinite_jump_glitch": 1,
        }

    def test_set_intersection_oracle(self, area1):
        rng = np.random.default_rng(0)
        scores = []
        for i in range(30):
            bugs = tuple(sorted(set(rng.integers(0, 2, size=rng.integers(0, 3)).tolist())))
            scores.append(synth_score(i, float(rng.random()), bugs=bugs))
        theta = [s["traj_id"] for s in scores if s["alpha"] >= 0.5][:10]
        report = evaluate_bugs(scores, theta, area1, 0.0, "absolute", total_coverage=1)
        expected_found = set().union(*[set(s["bug_regions"]) for s in scores])
        expected_high = set().union(
            *[set(s["bug_regions"]) for s in scores if s["traj_id"] in set(theta)]
        ) if theta else set()
        assert report["bugs_found"] == len(expected_found)
        assert report["bugs_highlighted"] == len(expected_high)
        assert report["bugs_highlighted"] <= report["bugs_found"]


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory, area1_demo_paths):
    cfg = TrainConfig(
        map_path=str(fixture_path("testmap_area1.json")),
        demo_paths=list(area1_demo_paths),
        iterations=3,
        episodes_per_iter=4,
        episode_length=24,
        seed=13,
    )
    run_dir = tmp_path_factory.mktemp("runs") / "tiny"
    run_training(cfg, run_dir)
    return run_dir


class TestRunTriage:
    def test_report_reproducible(self, tiny_run):
        r1 = run_triage(tiny_run)
        r2 = run_triage(tiny_run)
        assert r1 == r2

    def test_written_report_reads_back_as_returned(self, tiny_run, tmp_path):
        report = run_triage(tiny_run)
        assert set(report) == set(REPORT_KEYS)
        assert report["scores"] and all(set(s) == set(SCORE_KEYS) for s in report["scores"])
        path = write_report(tmp_path, report)
        assert path == tmp_path / "triage_report.json"
        assert path.read_text() == json.dumps(report, indent=1, sort_keys=True) + "\n"
        assert read_report(tmp_path) == report

    @pytest.mark.parametrize("scores", [5, [5], {"0": {}}])
    def test_report_scores_must_be_objects(self, tiny_run, tmp_path, scores):
        write_report(tmp_path, {**run_triage(tiny_run), "scores": scores})
        path = tmp_path / "triage_report.json"
        want = re.escape(f"{path}: scores is not a list of objects")
        with pytest.raises(TriageError, match=want):
            read_report(tmp_path)

    def test_absolute_vacuous_threshold_superset_of_quantile(self, tiny_run):
        vacuous = run_triage(tiny_run, mode="absolute", epsilon=-1.0)
        quant = run_triage(tiny_run)
        assert set(quant["theta"]) <= set(vacuous["theta"])
        for tid in vacuous["theta"]:
            s = next(x for x in vacuous["scores"] if x["traj_id"] == tid)
            assert s["alpha"] >= 0.5 and s["reached_goal"]

    def test_missing_artifacts_reported(self, tmp_path):
        from voxhunt.triage import TriageError

        with pytest.raises(TriageError, match="missing run artifact"):
            run_triage(tmp_path)

    def test_demo_scores_present(self, tiny_run):
        report = run_triage(tiny_run)
        assert len(report["demo_scores"]) == 6
        assert all(s >= 0 for s in report["demo_scores"])

    def test_scores_match_per_trajectory_reference_bit_for_bit(
        self, tiny_run, tmp_path, monkeypatch
    ):
        # tiny_run's own episodes never reach a goal: add goal-reaching
        # records that replay the demos, some with a detour first
        run = tmp_path / "run"
        shutil.copytree(tiny_run, run)
        cfg = TrainConfig.from_run_dir(run)
        vmap = load_map(resolve_path(cfg.map_path))
        demos = load_demos([resolve_path(p) for p in cfg.demo_paths], vmap).demos
        records = TrajectoryLog.read(run / "dataset.jsonl")
        for i, demo in enumerate(demos * 2):
            actions = [int(a) for a in demo.actions]
            if i >= len(demos):
                actions = ([int(Action.MOVE_E)] * i + actions)[: cfg.episode_length]
            traj = play_script(vmap, actions)
            records.append({"id": len(records), "alpha": 0.25 * (i % 4), "actions": actions,
                            "positions": [list(p) for p in traj.positions]})
        (run / "dataset.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records))

        enc = ObservationEncoder(vmap, L=cfg.net_profile().L)
        rng = np.random.default_rng(0)
        rnd = RNDPair(cfg.rnd_arch(), cfg.curiosity, rng, rng)
        rnd.target.load(run / "checkpoints" / "rnd_target.vxnp")
        rnd.predictor.load(run / "checkpoints" / "rnd_predictor.vxnp")
        want = [score_trajectory(play_script(vmap, r["actions"]), rnd, enc) for r in records]
        want_demo = [score_trajectory(d.trajectory, rnd, enc)[0] for d in demos]

        rows = []
        raw_reward = RNDPair.raw_reward

        def spy(self, inputs):
            rows.append(len(inputs["pos"]))
            return raw_reward(self, inputs)

        monkeypatch.setattr(RNDPair, "raw_reward", spy)
        report = run_triage(run)
        assert [(s["rc_avg"], s["first_goal"]) for s in report["scores"]] == want
        assert sum(s["rc_avg"] is not None for s in report["scores"]) >= len(demos)
        assert report["demo_scores"] == want_demo
        # each distinct state once, in calls no larger than one episode
        assert len(rows) > 1 and max(rows) <= cfg.episode_length + 1
        prefix_rows = sum(T + 1 for _, T in want if T is not None)
        assert sum(rows) < prefix_rows

    def test_coverage_counts_distinct_stored_positions(self, tiny_run):
        records = TrajectoryLog.read(tiny_run / "dataset.jsonl")
        visited = {tuple(p) for r in records for p in r["positions"]}
        assert run_triage(tiny_run)["coverage"] == len(visited)


@pytest.fixture(scope="module")
def quickstart_run(tmp_path_factory):
    config = Path(__file__).resolve().parents[1] / "configs" / "quickstart.json"
    cfg = TrainConfig.from_json_file(config).apply_overrides(["iterations=2"])
    run_dir = tmp_path_factory.mktemp("runs") / "quickstart"
    run_training(cfg, run_dir)
    return run_dir


class TestProjectedRead:
    @pytest.mark.parametrize(
        "fields",  # (fields, optional)
        [(TRIAGE_FIELDS, ()), (EXPORT_FIELDS, EXPORT_OPTIONAL), (("id",), ("bug_regions",))],
    )
    def test_projection_keeps_only_the_named_fields(self, quickstart_run, fields):
        fields, optional = fields
        path = quickstart_run / "dataset.jsonl"
        full = TrajectoryLog.read(path)
        assert len(full) == 20
        projected = TrajectoryLog.read(path, fields=fields, optional=optional)
        assert projected.values.keys() == {*fields, *optional}
        assert_same_columns(projected, Columns.of(full, fields, optional))
        assert_holds_records(projected, full)

    def test_projection_without_a_named_field_is_an_error(self, quickstart_run):
        path = quickstart_run / "dataset.jsonl"
        with pytest.raises(ValueError, match="^not dataset fields: absent$"):
            TrajectoryLog.read(path, fields=("id", "absent"))
        with pytest.raises(ValueError, match="^only a list field can be optional: alpha$"):
            TrajectoryLog.read(path, fields=("id",), optional=("alpha",))

    def test_projected_read_peaks_under_half_the_full_read(self, quickstart_run):
        path = quickstart_run / "dataset.jsonl"

        def peak(**kwargs):
            tracemalloc.start()
            try:
                records = TrajectoryLog.read(path, **kwargs)
                return tracemalloc.get_traced_memory()[1], records
            finally:
                tracemalloc.stop()

        full_peak, full = peak()
        projected_peak, _ = peak(fields=TRIAGE_FIELDS)
        assert full and projected_peak < 0.5 * full_peak

    @pytest.mark.parametrize(
        "damage, want",
        [
            ("torn", "line 3: torn or malformed record"),
            ("array", "line 3: record is not a JSON object"),
        ],
    )
    def test_bad_line_same_error_with_and_without_fields(
        self, quickstart_run, tmp_path, damage, want
    ):
        lines = (quickstart_run / "dataset.jsonl").read_text().splitlines(keepends=True)
        lines[2] = lines[2][: len(lines[2]) // 2] if damage == "torn" else "[1, 2]\n"
        path = tmp_path / "dataset.jsonl"
        path.write_text("".join(lines))
        errors = []
        for fields in (None, TRIAGE_FIELDS):
            with pytest.raises(TriageError, match=re.escape(f"{path}: {want}")) as e:
                TrajectoryLog.read(path, fields=fields)
            errors.append(str(e.value))
        assert errors[0] == errors[1]


def assert_same_columns(got, want):
    """Two projected reads hold the same fields, as arrays equal in dtype,
    shape and values."""
    assert len(got) == len(want)
    for name in ("values", "lengths"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.keys() == b.keys()
        for k in a:
            assert (a[k].dtype, a[k].shape) == (b[k].dtype, b[k].shape), (name, k)
            assert np.array_equal(a[k], b[k]), (name, k)


def assert_holds_records(columns, records):
    """``columns`` hold each record's values of its fields (a list field
    that a record lacks is empty)."""
    for k in columns.values:
        got = columns.split(k) if k in columns.lengths else columns[k].tolist()
        assert got == [rec.get(k, []) for rec in records], k


def write_log(path, records):
    """Append ``records`` through a TrajectoryLog and close it, as a run does."""
    log = TrajectoryLog(path)
    for record in records:
        log.append(record)
    log.close()


def synthetic_records(n, seed=0, length=128):
    """Records with every field a run's dataset line has, as
    benchmark/gen_triage.py writes them (positions are not replayed)."""
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n):
        steps = int(rng.integers(0, length + 1))
        floats = lambda: rng.normal(size=steps).tolist()  # noqa: E731
        records.append({
            "id": i, "iter": i // 10, "ep": i % 10, "alpha": float(rng.random()),
            "reached_goal": bool(rng.random() < 0.5), "first_goal": None,
            "positions": rng.integers(-5, 300, size=(steps + 1, 3)).tolist(),
            "actions": rng.integers(0, len(Action), size=steps).tolist(),
            "re": floats(), "ri": floats(), "rc_raw": floats(), "rc_norm": floats(), "R": floats(),
            "bug_regions": sorted(set(rng.integers(0, 4, size=int(rng.integers(0, 3))).tolist())),
            "bug_kinds": [],
        })
    return records


def jsonl_read(path, *args):
    """TrajectoryLog.read with the index out of the way: the JSONL path."""
    index = index_path(path)
    saved = index.read_bytes() if index.exists() else None
    index.unlink(missing_ok=True)
    try:
        return TrajectoryLog.read(path, *args)
    finally:
        if saved is not None:
            index.write_bytes(saved)


PROJECTIONS = [(TRIAGE_FIELDS, ()), (EXPORT_FIELDS, EXPORT_OPTIONAL)]


class TestDatasetIndex:
    """The index beside dataset.jsonl serves projected reads, and a read
    with a missing, stale or damaged index decodes the JSONL instead."""

    @pytest.fixture(scope="class")
    def big_dataset(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("index") / "dataset.jsonl"
        write_log(path, synthetic_records(600))
        return path

    @pytest.mark.parametrize("fields", PROJECTIONS)
    @pytest.mark.parametrize("dataset", ["quickstart", "synthetic"])
    def test_indexed_read_equals_the_jsonl_read(
        self, quickstart_run, big_dataset, dataset, fields
    ):
        path = quickstart_run / "dataset.jsonl" if dataset == "quickstart" else big_dataset
        indexed = _read_index(path, (*fields[0], *fields[1]))
        assert indexed is not None
        want = jsonl_read(path, *fields)
        assert len(want) == (20 if dataset == "quickstart" else 600)
        assert_same_columns(indexed, want)
        assert_same_columns(TrajectoryLog.read(path, *fields), want)
        assert not indexed["id"].flags.writeable  # views of the index, not copies

    def test_outputs_byte_identical_without_the_index(self, quickstart_run, tmp_path, capsys):
        outputs = []
        for name in ("indexed", "plain"):
            run = tmp_path / name
            shutil.copytree(quickstart_run, run)
            if name == "plain":
                index_path(run / "dataset.jsonl").unlink()
            assert main(["triage", str(run)]) == 0
            for flags in ([], ["--theta-only"], ["--demos"]):
                assert main(["export", str(run), *flags, "--out", str(run / "x.tsv")]) == 0
                outputs.append((run / "x.tsv").read_bytes())
            outputs.append((run / "triage_report.json").read_bytes())
        assert index_path(tmp_path / "indexed" / "dataset.jsonl").exists()
        assert outputs[:4] == outputs[4:]
        assert b"demo=1" in outputs[2] and outputs[1] != outputs[0]

    @pytest.mark.parametrize(
        "case, indexed",
        [
            ("int_alpha", False),
            ("no_bug_regions", False),
            ("empty_bug_regions", True),
            ("position_beyond_int16", False),
            ("id_beyond_int64", False),
            ("bad_action", False),
            ("zero_records", False),
        ],
    )
    def test_record_held_exactly_or_no_index(self, tmp_path, case, indexed):
        records = synthetic_records(5, seed=1)
        rec = records[2]
        if case == "int_alpha":
            rec["alpha"] = 1
        elif case == "no_bug_regions":
            del rec["bug_regions"]
        elif case == "empty_bug_regions":
            for r in records:
                r["bug_regions"] = []
        elif case == "position_beyond_int16":
            rec["positions"][0][1] = 2**15
        elif case == "id_beyond_int64":
            rec["id"] = 2**63
        elif case == "bad_action":
            rec["actions"] = [len(Action)] * (len(rec["positions"]) - 1)
        elif case == "zero_records":
            records = []
        path = tmp_path / "dataset.jsonl"
        write_log(path, records)
        assert index_path(path).exists() == indexed
        for fields in PROJECTIONS:
            try:
                want = jsonl_read(path, *fields)
            except TriageError as e:  # the bad action, read either way
                with pytest.raises(TriageError, match=re.escape(str(e))):
                    TrajectoryLog.read(path, *fields)
                continue
            assert_same_columns(TrajectoryLog.read(path, *fields), want)
            assert_holds_records(want, records)

    def test_jsonl_projected_read_still_peaks_under_half_the_full_read(
        self, quickstart_run, tmp_path
    ):
        path = tmp_path / "dataset.jsonl"  # a copy with no index beside it
        shutil.copy(quickstart_run / "dataset.jsonl", path)
        peaks = []
        for fields in (None, TRIAGE_FIELDS):
            tracemalloc.start()
            try:
                assert len(TrajectoryLog.read(path, fields)) == 20
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 0.5 * peaks[0]

    def test_metrics_log_gets_no_index(self, quickstart_run):
        assert index_path(quickstart_run / "dataset.jsonl").exists()
        assert not index_path(quickstart_run / "metrics.jsonl").exists()

    def test_log_reopened_on_a_nonempty_file_removes_the_index(self, tmp_path):
        path = tmp_path / "dataset.jsonl"
        records = synthetic_records(4)
        write_log(path, records[:3])
        assert index_path(path).exists()
        log = TrajectoryLog(path)
        assert not index_path(path).exists()
        log.append(records[3])
        log.close()
        assert not index_path(path).exists()
        assert TrajectoryLog.read(path, TRIAGE_FIELDS)["id"].tolist() == [0, 1, 2, 3]

    @pytest.mark.parametrize("damage", ["truncated", "bit_flip", "layout", "empty"])
    def test_damaged_index_takes_the_jsonl_path(self, quickstart_run, tmp_path, damage):
        path = tmp_path / "dataset.jsonl"
        shutil.copy(quickstart_run / "dataset.jsonl", path)
        blob = bytearray(index_path(quickstart_run / "dataset.jsonl").read_bytes())
        if damage == "truncated":
            blob = blob[:-10]
        elif damage == "bit_flip":
            blob[len(blob) // 2] ^= 0x10
        elif damage == "layout":  # written for int32 positions
            blob[: len(INDEX_FORMAT)] = INDEX_FORMAT.replace(b"<i2", b"<i4")
        else:
            blob = b""
        index_path(path).write_bytes(bytes(blob))
        for fields in PROJECTIONS:
            assert _read_index(path, (*fields[0], *fields[1])) is None
            assert_same_columns(TrajectoryLog.read(path, *fields), jsonl_read(path, *fields))

    def test_changed_float_byte_takes_the_jsonl_path(self, quickstart_run, tmp_path):
        path = tmp_path / "dataset.jsonl"
        shutil.copy(quickstart_run / "dataset.jsonl", path)
        shutil.copy(index_path(quickstart_run / "dataset.jsonl"), index_path(path))
        before = TrajectoryLog.read(path, TRIAGE_FIELDS)
        data = path.read_bytes()
        at = data.index(b'"alpha": ') + len(b'"alpha": 0.1')  # a digit of record 0's alpha
        digit = b"7" if data[at : at + 1] != b"7" else b"3"
        path.write_bytes(data[:at] + digit + data[at + 1 :])
        after = TrajectoryLog.read(path, TRIAGE_FIELDS)
        assert after["alpha"][0] != before["alpha"][0]
        after.values["alpha"] = np.concatenate([before["alpha"][:1], after["alpha"][1:]])
        assert_same_columns(after, before)
        assert _read_index(path, TRIAGE_FIELDS) is None

    @pytest.mark.parametrize("command", ["triage", "export"])
    def test_dataset_torn_after_close_still_names_the_line(
        self, quickstart_run, tmp_path, command, capsys
    ):
        run = tmp_path / "run"
        shutil.copytree(quickstart_run, run)
        assert index_path(run / "dataset.jsonl").exists()
        with open(run / "dataset.jsonl", "r+b") as fh:
            fh.truncate(fh.seek(0, os.SEEK_END) - 10)
        capsys.readouterr()
        assert main([command, str(run)]) == 1
        err = capsys.readouterr().err
        want = f"error: {run / 'dataset.jsonl'}: line 20: torn or malformed record"
        assert want in err and "Traceback" not in err

    @pytest.mark.parametrize("via", ["reader", "reader-projected", "triage", "export"])
    def test_bytes_not_utf8_name_the_line(self, quickstart_run, tmp_path, via, capsys):
        run = tmp_path / "run"
        shutil.copytree(quickstart_run, run)
        path = run / "dataset.jsonl"
        with open(path, "ab") as fh:
            fh.write(b"\xff\xfe\n")
        want = f"{path}: line 21: torn or malformed record (not UTF-8: invalid start byte)"
        if via.startswith("reader"):
            fields = TRIAGE_FIELDS if via == "reader-projected" else None
            with pytest.raises(TriageError) as e:
                TrajectoryLog.read(path, fields)
            assert str(e.value) == want
            return
        capsys.readouterr()
        assert main([via, str(run)]) == 1
        err = capsys.readouterr().err
        assert f"error: {want}" in err and "Traceback" not in err


class TestStoredRecordsChecked:
    @pytest.mark.parametrize(
        "problem, via",  # through the CLI, and through the reader alone
        [
            pytest.param(problem, via, id=problem if via == "cli" else f"reader-{problem}")
            for via in ("cli", "reader")
            for problem in
            ["action_12", "action_minus_3", "action_float", "action_bool", "positions"]
        ],
    )
    def test_cli_names_the_record(self, tiny_run, tmp_path, problem, via, capsys):
        run = tmp_path / "run"
        shutil.copytree(tiny_run, run)
        records = TrajectoryLog.read(run / "dataset.jsonl")
        bad = records[1]
        if problem == "positions":
            bad["actions"].pop()
            want = f"{len(bad['positions'])} positions for {len(bad['actions'])} actions"
        else:
            # each stand-in once replayed as the action it replaces (a Wait, or
            # MoveS for true), so only the check can tell them apart
            value, replaced = {
                "action_12": (12, Action.WAIT), "action_minus_3": (-3, Action.WAIT),
                "action_float": (9.7, Action.WAIT), "action_bool": (True, Action.MOVE_S),
            }[problem]
            bad["actions"][bad["actions"].index(replaced)] = value
            want = "field actions is not a list of action ids 0..9"
        (run / "dataset.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records))
        want = f"{run / 'dataset.jsonl'}: trajectory {bad['id']}: {want}"
        if via == "reader":
            with pytest.raises(TriageError) as e:
                TrajectoryLog.read(run / "dataset.jsonl", TRIAGE_FIELDS)
            assert str(e.value) == want
            return
        capsys.readouterr()
        assert main(["triage", str(run)]) == 1
        err = capsys.readouterr().err
        assert f"error: {want}" in err and "Traceback" not in err
        assert not (run / "triage_report.json").exists()


class TestDivergence:
    @pytest.mark.parametrize("indexed", [True, False], ids=["index", "jsonl"])
    @pytest.mark.parametrize(
        "edited",  # (record, stored position) pairs, in the order they are edited
        [[(10, 64)], [(19, -1)], [(12, 64), (7, 0)]], ids=["middle", "last", "two"],
    )
    def test_first_diverging_record_is_named(self, quickstart_run, tmp_path, indexed, edited):
        run = tmp_path / "run"
        shutil.copytree(quickstart_run, run)
        path = run / "dataset.jsonl"
        records = TrajectoryLog.read(path)
        assert len(records) == 20 and {len(r["positions"]) for r in records} == {129}
        for i, t in edited:
            x, y, z = records[i]["positions"][t]
            records[i]["positions"][t] = [x, y + 1, z]
        path.unlink()
        write_log(path, records)
        assert index_path(path).exists()
        if not indexed:
            index_path(path).unlink()
        with pytest.raises(TriageError) as e:
            run_triage(run)
        first = records[min(edited)[0]]["id"]
        assert str(e.value) == f"{path}: trajectory {first}: replay diverged from stored positions"


class TestExport:
    @pytest.mark.parametrize("problem", ["wrong_map", "goal_missed"])
    def test_cli_demos_checked_as_triage_checks_them(self, tiny_run, tmp_path, problem, capsys):
        run = tmp_path / "run"
        shutil.copytree(tiny_run, run)
        if problem == "wrong_map":
            demo = str(fixture_path("demo_area2_1.txt"))
        else:
            demo = str(tmp_path / "idle.txt")
            save_demo_script(demo, "testmap_area1", 0, [Action.WAIT] * 3)
        cfg = json.loads((run / "config.json").read_text())
        (run / "config.json").write_text(json.dumps({**cfg, "demo_paths": [demo]}))
        capsys.readouterr()
        assert main(["export", str(run), "--demos"]) == 1
        err = capsys.readouterr().err
        assert f"error: {demo}:" in err and "Traceback" not in err
        assert not (run / "trajectories.tsv").exists()
        assert main(["triage", str(run)]) == 1
        assert f"error: {demo}:" in capsys.readouterr().err

    def test_row_count_and_round_trip(self, tmp_path):
        records = [
            {
                "id": 0,
                "alpha": 0.8,
                "reached_goal": True,
                "positions": [[1, 1, 1], [1, 1, 2], [2, 1, 2]],
                "bug_regions": [1],
            }
        ]
        path = tmp_path / "out.tsv"
        n = export_trajectories(Columns.of(records, EXPORT_FIELDS, EXPORT_OPTIONAL), {}, path)
        assert n == 1
        text = path.read_text().splitlines()
        data_rows = [l for l in text if not l.startswith("#")]
        assert len(data_rows) == 3
        header_rows = [l for l in text if l.startswith("# trajectory")]
        assert len(header_rows) == 1
        back = parse_export(path)
        assert back["0"] == [(1, 1, 1), (1, 1, 2), (2, 1, 2)]

    def test_theta_only_and_demo_tag(self, tmp_path, area1, area1_demo_paths):
        from voxhunt.mapio import load_demo_script

        records = [
            {"id": i, "alpha": 0.6, "reached_goal": True,
             "positions": [[0, 1, 0]], "bug_regions": []}
            for i in range(4)
        ]
        _, _, actions = load_demo_script(area1_demo_paths[0])
        demo_traj = play_script(area1, actions)
        path = tmp_path / "out.tsv"
        export_trajectories(
            Columns.of(records, EXPORT_FIELDS, EXPORT_OPTIONAL), {}, path, only_ids={1, 2},
            demos=[("demo1", demo_traj.positions)],
        )
        text = path.read_text()
        assert "id=1 " in text and "id=3 " not in text
        assert "# trajectory id=demo1 alpha= score= reached_goal=1 bugs=- demo=1\n" in text
        back = parse_export(path)
        assert set(back) == {"1", "2", "demo1"}

    def test_failed_replace_keeps_the_earlier_export(self, tmp_path, monkeypatch):
        records = [{"id": 0, "alpha": 0.6, "reached_goal": True, "positions": [[0, 1, 0]]}]
        path = tmp_path / "trajectories.tsv"
        export_trajectories(Columns.of(records, EXPORT_FIELDS, EXPORT_OPTIONAL), {0: 0.5}, path)
        before = path.read_bytes()

        def refuse(src, dst):
            raise OSError("replace refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="replace refused"):
            export_trajectories(Columns.of(records * 2, EXPORT_FIELDS, EXPORT_OPTIONAL), {}, path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["trajectories.tsv"]

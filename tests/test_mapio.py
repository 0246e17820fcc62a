"""Map documents and demo scripts: round trips and error reporting."""

import json
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from voxhunt.mapio import (
    load_demo_script,
    load_map,
    map_from_dict,
    map_to_dict,
    rle_decode_layer,
    rle_encode_layer,
    save_demo_script,
    save_map,
)
from voxhunt.world import Action, MapFormatError, MapInvariantError

# A wrongly typed value at a path into testmap_area1's document. Each must be
# rejected by name: not coerced, and not left to fail later in a traceback.
MISTYPED = {
    "dims-str": (["dims"], ["a", 4, 3]),
    "dims-float": (["dims"], [16.0, 10, 14]),
    "spawn-float": (["spawn"], [1.5, 1, 1]),
    "spawn-bool": (["spawn"], [True, 1, 1]),
    "voxels-int": (["voxels"], 5),
    "layers-int": (["voxels", "layers"], 3),
    "run-float": (["voxels", "layers", 0, 0], [18.0, 1]),
    "run-code": (["voxels", "layers", 0, 0], [18, 300]),
    "goals-int": (["goals"], 3),
    "goal-list": (["goals", 0], [0]),
    "goal-id-str": (["goals", 0, "id"], "0"),
    "goal-active-str": (["goals", 0, "active"], "no"),
    "goal-voxel-float": (["goals", 0, "voxels", 0], [13.0, 1, 6]),
    "bug-kind-int": (["bugs", 0, "kind"], 3),
    "platform-axis-int": (["platforms", 0, "axis"], 0),
    "platform-amplitude-str": (["platforms", 0, "amplitude"], "2"),
    "platform-period-float": (["platforms", 0, "period"], 8.5),
    "name-int": (["name"], 7),
}


def field_name(path) -> str:
    """The dotted name of a document path, e.g. goals[0].id."""
    return "".join(f"[{k}]" if type(k) is int else f".{k}" for k in path).lstrip(".")


class TestRle:
    def test_uniform_layer_single_run(self):
        layer = np.ones((4, 6), dtype=np.uint8)
        assert rle_encode_layer(layer) == [[24, 1]]

    @given(
        nx=st.integers(1, 6),
        nz=st.integers(1, 6),
        data=st.data(),
    )
    @settings(max_examples=50, deadline=None)
    def test_round_trip(self, nx, nz, data):
        cells = data.draw(
            st.lists(st.integers(0, 2), min_size=nx * nz, max_size=nx * nz)
        )
        layer = np.array(cells, dtype=np.uint8).reshape(nx, nz)
        runs = rle_encode_layer(layer)
        back = rle_decode_layer(runs, nx, nz, y=0)
        assert np.array_equal(layer, back)

    def test_wrong_cell_count_rejected(self):
        with pytest.raises(MapFormatError, match="expected 6"):
            rle_decode_layer([[5, 0]], nx=2, nz=3, y=1)

    def test_huge_count_rejected_before_decoding(self):
        with pytest.raises(MapFormatError, match=r"^voxels.layers\[1\]: 1000000000006 cells"):
            rle_decode_layer([[5, 0], [10**12, 1], [1, 2]], nx=2, nz=3, y=1)


class TestMapDocuments:
    def test_round_trip(self, tmp_path, area1):
        p = tmp_path / "m.json"
        save_map(area1, p)
        back = load_map(p)
        assert back.name == area1.name
        assert back.dims == area1.dims
        assert np.array_equal(back.voxels, area1.voxels)
        assert back.spawn == area1.spawn
        assert [g.voxels for g in back.goals] == [g.voxels for g in area1.goals]
        assert [(b.kind, b.voxels) for b in back.bugs] == [
            (b.kind, b.voxels) for b in area1.bugs
        ]
        assert [p_.footprint for p_ in back.platforms] == [
            p_.footprint for p_ in area1.platforms
        ]

    def test_invalid_json_reports_line(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{\n "dims": [3,3,3],\n oops\n}')
        with pytest.raises(MapFormatError, match="line 3"):
            load_map(p)

    def test_missing_field_reported(self):
        with pytest.raises(MapFormatError, match="missing field 'dims'"):
            map_from_dict({"format_version": 1})

    def test_wrong_version_rejected(self):
        with pytest.raises(MapFormatError, match="format_version"):
            map_from_dict({"format_version": 99, "dims": [1, 1, 1]})

    @pytest.mark.parametrize("path, value", MISTYPED.values(), ids=MISTYPED.keys())
    def test_mistyped_value_names_its_field(self, area1, path, value):
        doc = node = map_to_dict(area1)
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        with pytest.raises(MapFormatError, match=rf"^{re.escape(field_name(path))}: expected "):
            map_from_dict(doc)

    def test_failed_replace_keeps_the_earlier_map(self, tmp_path, monkeypatch, area1, flat5):
        p = tmp_path / "m.json"
        save_map(area1, p)
        before = p.read_bytes()
        monkeypatch.setattr(os, "replace", refuse_replace)
        with pytest.raises(OSError, match="replace refused"):
            save_map(flat5, p)
        assert p.read_bytes() == before
        assert [q.name for q in tmp_path.iterdir()] == ["m.json"]

    def test_goal_out_of_bounds_names_voxel(self, flat5):
        doc = map_to_dict(flat5)
        doc["goals"] = [{"id": 0, "voxels": [[9, 9, 9]]}]
        with pytest.raises(MapInvariantError, match=r"\(9, 9, 9\)"):
            map_from_dict(doc)


def refuse_replace(src, dst):
    raise OSError("replace refused")


class TestDemoScripts:
    def test_failed_replace_keeps_the_earlier_script(self, tmp_path, monkeypatch):
        p = tmp_path / "demo.txt"
        save_demo_script(p, "corridor", 0, [Action.MOVE_E])
        before = p.read_bytes()
        monkeypatch.setattr(os, "replace", refuse_replace)
        with pytest.raises(OSError, match="replace refused"):
            save_demo_script(p, "corridor", 0, [Action.MOVE_W] * 3)
        assert p.read_bytes() == before
        assert [q.name for q in tmp_path.iterdir()] == ["demo.txt"]

    def test_round_trip(self, tmp_path):
        p = tmp_path / "demo.txt"
        actions = [Action.MOVE_N, Action.JUMP, Action.WAIT, Action.MOVE_SE]
        save_demo_script(p, "corridor", 0, actions)
        name, goal, back = load_demo_script(p)
        assert (name, goal, back) == ("corridor", 0, actions)

    def test_unknown_action_reports_line(self, tmp_path):
        p = tmp_path / "demo.txt"
        p.write_text("format_version: 1\nmap: m\ngoal: 0\nMoveN\nFly\n")
        with pytest.raises(MapFormatError, match="demo.txt:5"):
            load_demo_script(p)

    def test_empty_script_rejected(self, tmp_path):
        p = tmp_path / "demo.txt"
        p.write_text("format_version: 1\nmap: m\ngoal: 0\n")
        with pytest.raises(MapFormatError, match="no actions"):
            load_demo_script(p)

    @pytest.mark.parametrize("header", ["format_version: one", "goal: first"])
    def test_non_integer_header_rejected(self, tmp_path, header):
        p = tmp_path / "demo.txt"
        lines = {"format_version": "format_version: 1", "map": "map: m", "goal": "goal: 0"}
        lines[header.partition(":")[0]] = header
        p.write_text("\n".join([*lines.values(), "MoveN"]) + "\n")
        with pytest.raises(MapFormatError, match="demo.txt: header value is not an integer"):
            load_demo_script(p)

    def test_undecodable_script_names_its_path(self, tmp_path):
        p = tmp_path / "demo.txt"
        p.write_bytes(b"format_version: 1\nmap: m\ngoal: 0\n\xffMoveN\n")
        with pytest.raises(MapFormatError, match=f"^cannot read {re.escape(str(p))}: "):
            load_demo_script(p)

    def test_missing_header_rejected(self, tmp_path):
        p = tmp_path / "demo.txt"
        p.write_text("MoveN\n")
        with pytest.raises(MapFormatError, match="format_version"):
            load_demo_script(p)

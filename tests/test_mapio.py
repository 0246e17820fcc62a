"""Map documents and demo scripts: round trips and error reporting."""

import json

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

    def test_goal_out_of_bounds_names_voxel(self, flat5):
        doc = map_to_dict(flat5)
        doc["goals"] = [{"id": 0, "voxels": [[9, 9, 9]]}]
        with pytest.raises(MapInvariantError, match=r"\(9, 9, 9\)"):
            map_from_dict(doc)


class TestDemoScripts:
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

    def test_missing_header_rejected(self, tmp_path):
        p = tmp_path / "demo.txt"
        p.write_text("MoveN\n")
        with pytest.raises(MapFormatError, match="format_version"):
            load_demo_script(p)

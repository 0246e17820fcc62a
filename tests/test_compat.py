"""Committed ``.vxnp`` files load into the current networks and give the same
outputs and gradients they gave when they were written."""

import numpy as np
import pytest

from .compat_fixtures import EXPECTED, FIXTURE_DIR, NAMES, build, evaluate


def _max_rel_err(got: np.ndarray, want: np.ndarray) -> float:
    scale = max(float(np.abs(want).max(initial=0.0)), 1e-300)
    return float(np.abs(got - want).max(initial=0.0)) / scale


@pytest.mark.parametrize("name", NAMES)
def test_checkpoint_loads_and_reproduces(name, tmp_path):
    path = FIXTURE_DIR / f"{name}.vxnp"
    net = build(name, np.random.default_rng(12345))  # different init, overwritten by load
    net.load(path)

    net.save(tmp_path / "resaved.vxnp")
    assert (tmp_path / "resaved.vxnp").read_bytes() == path.read_bytes()

    ref = np.load(EXPECTED)
    prefix = f"{name}/"
    inputs = {k[len(prefix) + 3 :]: ref[k] for k in ref.files if k.startswith(prefix + "in/")}
    want = {
        k[len(prefix) :]: ref[k]
        for k in ref.files
        if k.startswith(prefix) and not k.startswith(prefix + "in/")
    }
    got = evaluate(net, inputs)
    assert set(got) == set(want)
    for key, value in want.items():
        assert got[key].shape == value.shape, key
        assert _max_rel_err(got[key], value) <= 1e-12, key

"""Checkpoint-compatibility fixtures: tiny-architecture networks, their
``.vxnp`` files, and the outputs and gradients they give on fixed inputs.

The committed files under ``tests/fixtures/compat`` were written by the
hand-wired ``ObsNet``, ``Discriminator`` and ``RNDNet`` that preceded the
shared ``nn.Net`` wiring. ``tests/test_compat.py`` loads them into the current
classes and compares. Regenerate them only when the parameter format or a
layer's arithmetic changes on purpose, from the repository root:

    PYTHONPATH=src python -m tests.compat_fixtures
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from voxhunt.curiosity import RNDArch, RNDNet
from voxhunt.imitation import DiscArch, Discriminator, one_hot_actions
from voxhunt.policy import ObsNet, ObsNetArch

FIXTURE_DIR = Path(__file__).parent / "fixtures" / "compat"
EXPECTED = FIXTURE_DIR / "expected.npz"

N = 5
L = 5
CONV = ((4, 2, 1), (5, 2, 0))  # padded stem, then a strided conv down to 1^3
DIMS = (6, 5, 7)
OBS_VARIANTS = {
    "obs_sinusoidal_occupancy": ("sinusoidal", "occupancy"),
    "obs_learned_raycast": ("learned", "raycast"),
    "obs_normalized_none": ("normalized", "none"),
}
NAMES = (*OBS_VARIANTS, "discriminator", "rnd")


def build(name: str, rng: np.random.Generator):
    if name in OBS_VARIANTS:
        position_mode, perception = OBS_VARIANTS[name]
        arch = ObsNetArch(
            out_dim=4, pe_d=4, position_mode=position_mode, perception=perception,
            L=L, occ_embed=3, conv=CONV, pos_units=6, info_units=(5,), ray_units=6,
            trunk=(7, 6), head_scale=0.5, dims=DIMS,
        )
        return ObsNet(arch, rng)
    if name == "discriminator":
        return Discriminator(DiscArch(L=L, occ_embed=3, conv=CONV, act_units=6, trunk=(7, 6)), rng)
    return RNDNet(RNDArch(pos_dim=12, pos_units=6, info_units=(5, 4), trunk=(7, 6), out_dim=8), rng)


def make_inputs(name: str, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Network inputs plus ``dout``, the upstream gradient fed to backward."""
    occ = rng.integers(0, 4, size=(N, L**3)).astype(np.uint8)
    if name == "discriminator":
        return {"occ": occ, "act": one_hot_actions(rng.integers(0, 10, size=N)), "dout": rng.normal(size=N)}
    inputs = {"info": rng.normal(size=(N, 9))}
    if name == "rnd":
        inputs["pos"] = rng.normal(size=(N, 12))
        inputs["dout"] = rng.normal(size=(N, 8))
        return inputs
    position_mode, perception = OBS_VARIANTS[name]
    if position_mode == "learned":
        inputs["pos_idx"] = np.stack([rng.integers(0, n, size=N) for n in DIMS], axis=1)
    elif position_mode == "normalized":
        inputs["pos"] = rng.random(size=(N, 3))
    else:
        inputs["pos"] = rng.uniform(-1.0, 1.0, size=(N, 12))
    if perception == "occupancy":
        inputs["occ"] = occ
    elif perception == "raycast":
        inputs["rays"] = rng.random(size=(N, 48))
    inputs["alpha"] = rng.random(size=(N, 1))
    inputs["dout"] = rng.normal(size=(N, 4))
    return inputs


def evaluate(net, inputs: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Outputs, parameter grads and (discriminator) penalty-entry input grads."""
    res: dict[str, np.ndarray] = {}
    dout = inputs["dout"]
    if isinstance(net, Discriminator):
        out, caches = net.forward(inputs["occ"], inputs["act"])
        emb, _ = net.embed_occupancy(inputs["occ"])
        core_out, core_caches = net.core_forward(emb, inputs["act"])
        core_grads, d_emb, d_act = net.core_backward(core_caches, dout)
        res.update(core_out=core_out, core_d_emb=d_emb, core_d_act=d_act)
        res.update((f"core_grad/{k}", g) for k, g in core_grads.items())
    else:
        out, caches = net.forward({k: v for k, v in inputs.items() if k != "dout"})
    res["out"] = out
    res.update((f"grad/{k}", g) for k, g in net.backward(caches, dout).items())
    return res


def write_fixtures(out_dir: Path = FIXTURE_DIR) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    arrays: dict[str, np.ndarray] = {}
    for i, name in enumerate(NAMES):
        net = build(name, np.random.default_rng(100 + i))
        net.save(out_dir / f"{name}.vxnp")
        inputs = make_inputs(name, np.random.default_rng(200 + i))
        arrays.update((f"{name}/in/{k}", v) for k, v in inputs.items())
        arrays.update((f"{name}/{k}", v) for k, v in evaluate(net, inputs).items())
    np.savez(out_dir / EXPECTED.name, **arrays)


if __name__ == "__main__":
    write_fixtures()

"""Minimal float64 numerical core: dense / embedding / 3D-conv layers with
analytic gradients, Adam, and a versioned binary parameter format.

Layers operate on batch-first arrays. ``forward`` returns ``(y, cache)``;
``backward(cache, dy)`` returns ``(dx, grads)`` where ``grads`` maps the
layer's parameter names to arrays of matching shapes. Everything is float64:
the gradient acceptance checks compare against central finite differences and
need the headroom.

``embed_conv_forward`` / ``embed_conv_backward`` compute an ``Embedding``
followed by a ``Conv3d`` (the occupancy stem of the policy, critic and
discriminator nets) as one exact step. Each kernel tap's weights are folded
into the few embedded code rows, so the embedded cube and its input gradient
are never built. The conv runs once per distinct kernel window: the
parameter-free ``window_index`` packs each window's codes into one integer
key and keeps the one-hot columns of the distinct keys only, and the output
is gathered back by window id. Cubes repeat their windows heavily (a desk
quickstart iteration's 373 distinct cubes hold 10071 windows, of which 443
are distinct). The two layers keep their own parameters; only the
arithmetic is shared.

``Net`` holds the one forward/backward wiring every network uses. A network
builds named layers and a graph: a list of stages run in order, each a layer
name, a fused ``Stem``, or a ``Concat`` of parallel branches whose flattened
outputs are joined. The policy, critic, discriminator and novelty nets are all
branches -> concat -> trunk -> head; ``Net.run`` / ``Net.run_backward`` run any
such graph, and ``run_backward`` also returns the input gradients a
``Concat`` receives (the discriminator's penalty entry reads them).
``Net.infer`` is the forward pass of a caller that only scores: the same
output bit for bit, with no cache kept, so each layer's cache is freed
before the next layer runs.

A ``Concat`` branch that starts with a stem may read ``Rows``: ids into a
table of distinct rows, such as the occupancy cubes of a rollout. The branch
then runs on the batch's
distinct rows only, its output is gathered back to one row per id, and its
output gradient is summed over repeated ids (``segment_sum``) before its
backward pass. A stem that reads ``Rows`` takes its window index from the
table, which builds it once and shares it with every view sliced from it.
"""

from __future__ import annotations

import io
import json
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


class NNError(Exception):
    pass


class ShapeError(NNError):
    pass


class NonFiniteError(NNError):
    pass


class ParamsFormatError(NNError):
    pass


class DescriptorMismatchError(ParamsFormatError):
    pass


def he_uniform(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int, scale: float = 1.0) -> np.ndarray:
    limit = scale * np.sqrt(6.0 / max(fan_in, 1))
    return rng.uniform(-limit, limit, size=shape)


def _apply_activation(pre: np.ndarray, activation: str | None) -> np.ndarray:
    if activation is None:
        return pre
    if activation == "relu":
        return np.maximum(pre, 0.0)
    if activation == "tanh":
        return np.tanh(pre)
    raise ValueError(f"unknown activation {activation!r}")


def _activation_grad(dy: np.ndarray, pre: np.ndarray, y: np.ndarray, activation: str | None) -> np.ndarray:
    if activation is None:
        return dy
    if activation == "relu":
        return dy * (pre > 0.0)
    if activation == "tanh":
        return dy * (1.0 - y * y)
    raise ValueError(f"unknown activation {activation!r}")


class Dense:
    """y = act(x @ w + b) over the last axis."""

    def __init__(
        self,
        n_in: int,
        n_out: int,
        activation: str | None = None,
        rng: np.random.Generator | None = None,
        w_scale: float = 1.0,
    ):
        self.n_in = n_in
        self.n_out = n_out
        self.activation = activation
        rng = rng or np.random.default_rng(0)
        self.w = he_uniform(rng, (n_in, n_out), n_in, w_scale)
        self.b = np.zeros(n_out, dtype=np.float64)

    @property
    def params(self) -> dict[str, np.ndarray]:
        return {"w": self.w, "b": self.b}

    def descriptor(self) -> dict:
        return {
            "kind": "dense",
            "n_in": self.n_in,
            "n_out": self.n_out,
            "activation": self.activation,
        }

    def forward(self, x: np.ndarray):
        if x.shape[-1] != self.n_in:
            raise ShapeError(f"dense expects last dim {self.n_in}, got {x.shape}")
        pre = x @ self.w + self.b
        y = _apply_activation(pre, self.activation)
        return y, (x, pre, y)

    def backward(self, cache, dy: np.ndarray):
        x, pre, y = cache
        dpre = _activation_grad(dy, pre, y, self.activation)
        flat_x = x.reshape(-1, self.n_in)
        flat_d = dpre.reshape(-1, self.n_out)
        gw = flat_x.T @ flat_d
        gb = flat_d.sum(axis=0)
        dx = dpre @ self.w.T
        return dx, {"w": gw, "b": gb}


class Embedding:
    """Row lookup table for small integer codes; optional tanh on the rows."""

    def __init__(
        self,
        num_codes: int,
        dim: int,
        activation: str | None = None,
        rng: np.random.Generator | None = None,
    ):
        self.num_codes = num_codes
        self.dim = dim
        self.activation = activation
        rng = rng or np.random.default_rng(0)
        self.table = rng.uniform(-1.0, 1.0, size=(num_codes, dim))

    @property
    def params(self) -> dict[str, np.ndarray]:
        return {"table": self.table}

    def descriptor(self) -> dict:
        return {
            "kind": "embedding",
            "num_codes": self.num_codes,
            "dim": self.dim,
            "activation": self.activation,
        }

    def forward(self, codes: np.ndarray):
        rows = _apply_activation(self.table, self.activation)
        return np.take(rows, codes, axis=0), (codes, rows)

    def backward(self, cache, dy: np.ndarray):
        codes, rows = cache
        # Sum dy by code, then apply the activation grad once per row.
        g = segment_sum(codes, dy, self.num_codes)
        return None, {"table": _activation_grad(g, self.table, rows, self.activation)}


def im2col(xp: np.ndarray, kernel: int, stride: int, od: tuple[int, int, int]) -> np.ndarray:
    """Patches of a padded channels-last volume (N, X, Y, Z, C) as rows.

    Returns (N, ox*oy*oz, kernel**3 * C), tap-major and channel-minor, which is
    the row order of a ``Conv3d`` weight matrix.
    """
    k, s = kernel, stride
    n, c = xp.shape[0], xp.shape[-1]
    ox, oy, oz = od
    # One strided gather: window view (n, wx, wy, wz, c, k, k, k) then a
    # single stride-s slice + copy, instead of k^3 separate assignments.
    win = np.lib.stride_tricks.sliding_window_view(xp, (k, k, k), axis=(1, 2, 3))
    patches = win[:, ::s, ::s, ::s][:, :ox, :oy, :oz]
    cols = patches.transpose(0, 1, 2, 3, 5, 6, 7, 4).reshape(n, ox * oy * oz, k**3 * c)
    return np.ascontiguousarray(cols)


class Conv3d:
    """Strided 3D cross-correlation, channels-last: (N, X, Y, Z, C)."""

    def __init__(
        self,
        c_in: int,
        c_out: int,
        kernel: int = 3,
        stride: int = 2,
        pad: int = 0,
        activation: str | None = "relu",
        rng: np.random.Generator | None = None,
    ):
        self.c_in = c_in
        self.c_out = c_out
        self.kernel = kernel
        self.stride = stride
        self.pad = pad
        self.activation = activation
        rng = rng or np.random.default_rng(0)
        fan_in = c_in * kernel**3
        self.w = he_uniform(rng, (fan_in, c_out), fan_in)
        self.b = np.zeros(c_out, dtype=np.float64)

    @property
    def params(self) -> dict[str, np.ndarray]:
        return {"w": self.w, "b": self.b}

    def descriptor(self) -> dict:
        return {
            "kind": "conv3d",
            "c_in": self.c_in,
            "c_out": self.c_out,
            "kernel": self.kernel,
            "stride": self.stride,
            "pad": self.pad,
            "activation": self.activation,
        }

    def out_size(self, n: int) -> int:
        return (n + 2 * self.pad - self.kernel) // self.stride + 1

    def _padded_out(self, x: np.ndarray, fill: int = 0):
        """Pad (N, X, Y, Z, C) by ``pad`` with ``fill``; return it and the output dims."""
        p = self.pad
        xp = np.pad(x, ((0, 0), (p, p), (p, p), (p, p), (0, 0)), constant_values=fill) if p else x
        od = tuple(self.out_size(x.shape[i + 1]) for i in range(3))
        if min(od) < 1:
            raise ShapeError(f"conv3d output collapses for input {x.shape}")
        return xp, od

    def _one_window(self, xp_shape) -> bool:
        """True when the padded input is exactly one kernel window: the conv is
        then a ``Dense`` over the flattened window, and im2col a reshape."""
        return xp_shape[1:4] == (self.kernel,) * 3

    def forward(self, x: np.ndarray):
        if x.ndim != 5 or x.shape[-1] != self.c_in:
            raise ShapeError(f"conv3d expects (N,X,Y,Z,{self.c_in}), got {x.shape}")
        xp, od = self._padded_out(x)
        if self._one_window(xp.shape):
            cols = xp.reshape(x.shape[0], 1, -1)
        else:
            cols = im2col(xp, self.kernel, self.stride, od)
        pre = (cols @ self.w + self.b).reshape(x.shape[0], *od, self.c_out)
        y = _apply_activation(pre, self.activation)
        return y, (x.shape, xp.shape, cols, pre, y, od)

    def backward(self, cache, dy: np.ndarray):
        x_shape, xp_shape, cols, pre, y, od = cache
        k, s, p = self.kernel, self.stride, self.pad
        n = x_shape[0]
        ox, oy, oz = od
        dpre = _activation_grad(dy, pre, y, self.activation).reshape(
            n, ox * oy * oz, self.c_out
        )
        flat_cols = cols.reshape(-1, cols.shape[-1])
        flat_d = dpre.reshape(-1, self.c_out)
        gw = flat_cols.T @ flat_d
        gb = flat_d.sum(axis=0)
        dcols = dpre @ self.w.T
        if self._one_window(xp_shape):
            dxp = dcols.reshape(xp_shape)
        else:
            dcols = dcols.reshape(n, ox, oy, oz, k, k, k, self.c_in)
            dxp = np.zeros(xp_shape, dtype=np.float64)
            for i in range(k):
                for j in range(k):
                    for l in range(k):
                        dxp[
                            :,
                            i : i + ox * s : s,
                            j : j + oy * s : s,
                            l : l + oz * s : s,
                            :,
                        ] += dcols[:, :, :, :, i, j, l, :]
        if p:
            dx = dxp[:, p:-p, p:-p, p:-p, :]
        else:
            dx = dxp
        return dx, {"w": gw, "b": gb}


def window_index(codes: np.ndarray, num_codes: int, conv: Conv3d):
    """The distinct kernel windows of integer codes (N, X, Y, Z) under ``conv``.

    Each window's kernel**3 codes, in ``im2col`` tap order, are packed into
    one int64 key in base ``num_codes + 1``; padding voxels get the digit
    ``num_codes``. Returns the window ids (N, ox, oy, oz) and the one-hot
    columns of the W distinct windows (W, kernel**3 * num_codes), where a
    padding voxel's one-hot row is zero.
    """
    k, base = conv.kernel, num_codes + 1
    if base ** (k**3) > 2**63:
        raise ShapeError(f"{k}^3 windows of {num_codes} codes do not pack into an int64 key")
    if codes.ndim != 4:
        raise ShapeError(f"stem expects codes (N,X,Y,Z), got {codes.shape}")
    if codes.size and (codes.min() < 0 or codes.max() >= num_codes):
        raise IndexError(f"codes outside [0, {num_codes})")
    xp, od = conv._padded_out(codes[..., None], fill=num_codes)
    code_cols = im2col(xp, k, conv.stride, od).reshape(-1, k**3)
    keys = code_cols @ base ** np.arange(k**3, dtype=np.int64)
    _, first, ids = np.unique(keys, return_index=True, return_inverse=True)
    cols = np.take(np.eye(base, num_codes), code_cols[first], axis=0).reshape(len(first), -1)
    return ids.reshape(len(codes), *od), cols


def segment_sum(ids: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """Rows of ``values`` (M, c) summed by ``ids`` (M,) into (n, c); the same
    sums, in the same order, as ``np.add.at``."""
    c = values.shape[-1]
    bins = ids.reshape(-1, 1).astype(np.intp) * c + np.arange(c)
    return np.bincount(bins.reshape(-1), weights=values.reshape(-1), minlength=n * c).reshape(n, c)


def embed_conv_forward(embed: Embedding, conv: Conv3d, codes, windows=None):
    """``conv.forward(embed.forward(codes))`` for integer codes (N, X, Y, Z),
    computed without building the embedded (N, X, Y, Z, dim) cube.

    With E = act(table) and W_t the (dim, c_out) block of kernel tap t, a voxel
    holding code c adds E[c] @ W_t =: P[t, c] through tap t. conv0 is then the
    one-hot columns of each distinct window times P, gathered back by window
    id. ``windows`` is the ``window_index`` of ``codes`` when it is already
    built (a ``Rows`` table's); ``codes`` is then not read.
    """
    if conv.c_in != embed.dim:
        raise ShapeError(f"stem embeds {embed.dim} channels, conv reads {conv.c_in}")
    ids, cols = window_index(codes, embed.num_codes, conv) if windows is None else windows
    rows = _apply_activation(embed.table, embed.activation)
    taps = rows @ conv.w.reshape(-1, embed.dim, conv.c_out)
    pre = cols @ taps.reshape(-1, conv.c_out) + conv.b
    y = _apply_activation(pre, conv.activation)
    return y[ids], (ids, cols, rows, pre, y)


def embed_conv_backward(embed: Embedding, conv: Conv3d, cache, dy: np.ndarray):
    """Parameter grads ``(embed grads, conv grads)`` of ``embed_conv_forward``.

    ``dy`` is summed over the positions of each distinct window; one GEMM then
    gives gP = cols^T dpre, the grad of every P[t, c]; from it gW_t = E^T gP_t
    and dE = sum_t gP_t W_t^T. The codes take no gradient.
    """
    ids, cols, rows, pre, y = cache
    dpre = _activation_grad(segment_sum(ids, dy, len(cols)), pre, y, conv.activation)
    g_taps = (cols.T @ dpre).reshape(-1, embed.num_codes, conv.c_out)
    w = conv.w.reshape(-1, embed.dim, conv.c_out)
    gw = rows.T @ g_taps
    d_rows = np.einsum("tko,tdo->kd", g_taps, w)
    g_table = _activation_grad(d_rows, embed.table, rows, embed.activation)
    return {"table": g_table}, {"w": gw.reshape(-1, conv.c_out), "b": dpre.sum(axis=0)}


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax; output strictly positive, rows sum to 1."""
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


class Adam:
    """Standard Adam with bias correction over a named parameter dict."""

    def __init__(
        self,
        params: dict[str, np.ndarray],
        lr: float = 7e-5,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, grads: dict[str, np.ndarray]) -> None:
        self.step_count += 1
        t = self.step_count
        b1c = 1.0 - self.beta1**t
        b2c = 1.0 - self.beta2**t
        for name, p in self.params.items():
            g = grads.get(name)
            if g is None:
                continue
            if g.shape != p.shape:
                raise ShapeError(f"grad {name}: {g.shape} != param {p.shape}")
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)


@dataclass(frozen=True, eq=False)
class Rows:
    """A batch given as ids into a table of rows: row ``i`` is ``table[ids[i]]``.

    Indexing and ``reshape`` act on the ids and keep the table, so views of a
    ``Rows`` stay ``Rows``; ``np.asarray`` builds the rows themselves. A stem
    reading a ``Rows`` builds the table's window index once, and every view
    of the table shares it.
    """

    table: np.ndarray
    ids: np.ndarray
    stem_index: dict = field(default_factory=dict, repr=False)  # stem geometry -> window_index

    @property
    def shape(self) -> tuple[int, ...]:
        return (*self.ids.shape, *self.table.shape[1:])

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, sel) -> "Rows":
        return Rows(self.table, self.ids[sel], self.stem_index)

    def reshape(self, *shape) -> "Rows":
        """Reshape the ids; the trailing axes of ``shape`` must be a row's."""
        lead = len(shape) - (self.table.ndim - 1)
        if shape[lead:] != self.table.shape[1:]:
            raise ShapeError(f"cannot reshape rows of shape {self.table.shape[1:]} to {shape}")
        return Rows(self.table, self.ids.reshape(shape[:lead]), self.stem_index)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.asarray(self.table[self.ids], dtype=dtype)

    def windows(self, num_codes: int, conv: Conv3d, cube: tuple[int, int, int]):
        """``window_index`` of these rows as cubes, from the whole table's index."""
        key = (num_codes, conv.kernel, conv.stride, conv.pad, cube)
        if key not in self.stem_index:
            self.stem_index[key] = window_index(self.table.reshape(-1, *cube), num_codes, conv)
        ids, cols = self.stem_index[key]
        return ids[self.ids], cols


@dataclass(frozen=True)
class Stem:
    """Graph stage: integer codes reshaped to ``(N, *cube)``, then the layers
    ``embed`` and ``conv`` as one ``embed_conv_forward`` step."""

    embed: str
    conv: str
    cube: tuple[int, int, int]


@dataclass(frozen=True)
class Concat:
    """Graph stage: parallel ``(key, stages)`` branches. Each runs its stages on
    ``x[key]`` (a dict entry, or ``np.s_[:, i]`` for a column of an array); the
    branch outputs are flattened and concatenated along the last axis. A branch
    whose input is ``Rows`` starts with a ``Stem`` and runs once per distinct
    id of the batch."""

    branches: list[tuple[object, list]]


class Net:
    """Base for composite networks: an ordered dict of named layers and a graph.

    ``graph`` lists the stages ``forward`` runs in order: a layer name, a
    ``Stem`` or a ``Concat``. Subclasses build layers and graphs; ``run`` and
    ``run_backward`` wire any graph over the layers. Parameter names are
    ``<layer>.<param>`` and serialize in layer order.
    """

    def __init__(self):
        self.layers: dict[str, object] = {}
        self.graph: list = []

    def forward(self, inputs):
        return self.run(self.graph, inputs)

    def infer(self, inputs) -> np.ndarray:
        """``forward(inputs)[0]``, bit for bit, without keeping any cache."""
        return self.run(self.graph, inputs, keep=False)[0]

    def backward(self, caches, dout: np.ndarray) -> dict[str, np.ndarray]:
        return self.run_backward(self.graph, caches, dout)[0]

    def run(self, stages: list, x, keep: bool = True):
        """Forward ``x`` through ``stages``; returns (output, caches).

        With ``keep`` false no cache is kept: each stage's cache is freed
        before the next stage runs, and the cache list is empty.
        """
        caches = []
        for stage in stages:
            if isinstance(stage, str):
                x, cache = self.layers[stage].forward(x)
            elif isinstance(stage, Stem):
                embed, conv = self.layers[stage.embed], self.layers[stage.conv]
                if isinstance(x, Rows):
                    windows = x.windows(embed.num_codes, conv, stage.cube)
                    x, cache = embed_conv_forward(embed, conv, None, windows)
                else:
                    x, cache = embed_conv_forward(embed, conv, x.reshape(-1, *stage.cube))
            else:
                x, cache = self._run_concat(stage, x, keep)
            if keep:
                caches.append(cache)
            del cache  # unkept, it is freed before the next stage runs
        return x, caches

    def _run_concat(self, stage: Concat, x, keep: bool):
        outs, cache = [], []
        for key, sub in stage.branches:
            xb, inverse = x[key], None
            if isinstance(xb, Rows):  # run once per distinct row, then gather
                uniq, inverse = np.unique(xb.ids, return_inverse=True)
                xb = Rows(xb.table, uniq, xb.stem_index)
            y, c = self.run(sub, xb, keep)
            cache.append((c, y.shape, inverse))
            y = y.reshape(len(y), -1)
            outs.append(y if inverse is None else y[inverse])
        return np.concatenate(outs, axis=-1), cache

    def run_backward(self, stages: list, caches, dy: np.ndarray, grads=None):
        """Back-propagate ``dy`` through ``stages``; returns (param grads, input grad).

        A ``Concat`` input grad is the list of its branches' input grads; a
        ``Stem`` (integer codes or ``Rows``) has none.
        """
        grads = {} if grads is None else grads
        for stage, cache in zip(reversed(stages), reversed(caches)):
            if isinstance(stage, str):
                dy, g = self.layers[stage].backward(cache, dy)
                accumulate(grads, g, stage)
            elif isinstance(stage, Stem):
                embed, conv = self.layers[stage.embed], self.layers[stage.conv]
                g_embed, g_conv = embed_conv_backward(embed, conv, cache, dy)
                accumulate(grads, g_embed, stage.embed)
                accumulate(grads, g_conv, stage.conv)
                dy = None
            else:
                widths = [int(np.prod(shape[1:])) for _, shape, _ in cache]
                parts = np.split(dy, np.cumsum(widths)[:-1], axis=-1)
                dy = []
                for (_, sub), (c, shape, inverse), d in zip(stage.branches, cache, parts):
                    if inverse is not None:  # sum the grads of repeated rows
                        d = segment_sum(inverse, d, shape[0])
                    dy.append(self.run_backward(sub, c, d.reshape(shape), grads)[1])
        return grads, dy

    def dense_chain(self, prefix: str, n_in: int, widths, rng) -> tuple[list[str], int]:
        """Add ReLU ``Dense`` layers ``<prefix>0..``; returns their names and output width."""
        names = []
        for i, width in enumerate(widths):
            names.append(f"{prefix}{i}")
            self.layers[names[-1]] = Dense(n_in, width, "relu", rng)
            n_in = width
        return names, n_in

    def params(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        for lname, layer in self.layers.items():
            for pname, arr in layer.params.items():
                out[f"{lname}.{pname}"] = arr
        return out

    def set_params(self, values: dict[str, np.ndarray]) -> None:
        mine = self.params()
        if set(mine) != set(values):
            raise DescriptorMismatchError(
                f"parameter names differ: {sorted(set(mine) ^ set(values))}"
            )
        for name, arr in mine.items():
            if arr.shape != values[name].shape:
                raise DescriptorMismatchError(
                    f"parameter {name}: shape {values[name].shape} != {arr.shape}"
                )
            arr[...] = values[name]

    def descriptor(self) -> dict:
        return {
            "net": type(self).__name__,
            "layers": {name: layer.descriptor() for name, layer in self.layers.items()},
        }

    def param_bytes(self) -> bytes:
        buf = io.BytesIO()
        for name in sorted(self.params()):
            buf.write(name.encode())
            buf.write(np.ascontiguousarray(self.params()[name]).tobytes())
        return buf.getvalue()

    def save(self, path: str | Path) -> None:
        save_params(path, self.descriptor(), self.params())

    def load(self, path: str | Path) -> None:
        _, values = load_params(path, expected_descriptor=self.descriptor())
        self.set_params(values)


_MAGIC = b"VXNP"
_FORMAT_VERSION = 1


def save_params(path: str | Path, descriptor: dict, params: dict[str, np.ndarray]) -> None:
    """Versioned little-endian binary: descriptor echo + named float64 tensors."""
    desc = json.dumps(descriptor, sort_keys=True).encode()
    f = io.BytesIO()
    f.write(_MAGIC)
    f.write(struct.pack("<I", _FORMAT_VERSION))
    f.write(struct.pack("<Q", len(desc)))
    f.write(desc)
    f.write(struct.pack("<I", len(params)))
    for name in sorted(params):
        arr = np.ascontiguousarray(params[name], dtype=np.float64)
        nb = name.encode()
        f.write(struct.pack("<H", len(nb)))
        f.write(nb)
        f.write(struct.pack("<B", arr.ndim))
        for d in arr.shape:
            f.write(struct.pack("<Q", d))
        f.write(arr.astype("<f8").tobytes())
    write_atomic(path, f.getvalue())


def write_atomic(path: str | Path, data: bytes | str) -> None:
    """Replace ``path`` by ``data`` through a temp file in the same directory and
    ``os.replace``: a reader sees the old file or the new one, never a torn one,
    and a failed write leaves the old file and no temp file behind. There is no
    fsync, so this guards against a killed process, not against power loss."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(data.encode() if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_json_object(path: str | Path, error: type[Exception]) -> dict:
    """The JSON object in the file at ``path``; ``error`` names the path if
    the file cannot be read, is not JSON or holds another value."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, UnicodeDecodeError) as e:
        raise error(f"cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise error(f"{path}: invalid JSON at line {e.lineno} column {e.colno}: {e.msg}") from e
    if not isinstance(doc, dict):
        raise error(f"{path}: top level must be an object")
    return doc


def load_params(
    path: str | Path, expected_descriptor: dict | None = None
) -> tuple[dict, dict[str, np.ndarray]]:
    raw = Path(path).read_bytes()
    view = memoryview(raw)
    off = 0

    def take(n: int) -> memoryview:
        nonlocal off
        if off + n > len(raw):
            raise ParamsFormatError(f"{path}: truncated at byte {off}")
        chunk = view[off : off + n]
        off += n
        return chunk

    if bytes(take(4)) != _MAGIC:
        raise ParamsFormatError(f"{path}: bad magic, not a parameter file")
    (version,) = struct.unpack("<I", take(4))
    if version != _FORMAT_VERSION:
        raise ParamsFormatError(f"{path}: unsupported version {version}")
    (dlen,) = struct.unpack("<Q", take(8))
    try:
        descriptor = json.loads(bytes(take(dlen)).decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ParamsFormatError(f"{path}: bad descriptor: {e}") from e
    if expected_descriptor is not None and descriptor != expected_descriptor:
        raise DescriptorMismatchError(
            f"{path}: architecture descriptor does not match this network"
        )
    (count,) = struct.unpack("<I", take(4))
    params: dict[str, np.ndarray] = {}
    for _ in range(count):
        (nlen,) = struct.unpack("<H", take(2))
        name = bytes(take(nlen)).decode()
        (ndim,) = struct.unpack("<B", take(1))
        shape = tuple(struct.unpack("<Q", take(8))[0] for _ in range(ndim))
        size = int(np.prod(shape)) if shape else 1
        arr = np.frombuffer(take(size * 8), dtype="<f8").reshape(shape).copy()
        params[name] = arr
    if off != len(raw):
        raise ParamsFormatError(f"{path}: {len(raw) - off} trailing bytes")
    return descriptor, params


def check_finite(name: str, arr: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"{name} contains non-finite values")
    return arr


def accumulate(total: dict[str, np.ndarray], grads: dict[str, np.ndarray], prefix: str) -> None:
    """Add layer grads into a net-level dict under `<prefix>.<name>` keys."""
    for name, g in grads.items():
        key = f"{prefix}.{name}"
        total[key] = total[key] + g if key in total else g

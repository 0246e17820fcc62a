"""Numerical core: forward oracles, analytic vs finite-difference gradients,
optimizer behavior, parameter file round trips."""

import os

import numpy as np
import pytest

from voxhunt import nn
from voxhunt.config import Profile, TrainConfig
from voxhunt.imitation import Discriminator, one_hot_actions
from voxhunt.mapio import fixture_path
from voxhunt.policy import N_ACTIONS, make_critic_net, make_policy_net
from voxhunt.trainer import Trainer

from .oracles import (
    assert_grads_close,
    fd_param_gradients,
    softmax_ref,
    stem_backward_ref,
    stem_forward_ref,
)


def loss_weights(rng, shape):
    return rng.normal(size=shape)


class TestDenseForward:
    def test_zero_weights_zero_output(self):
        layer = nn.Dense(4, 3)
        layer.w[:] = 0.0
        layer.b[:] = 0.0
        y, _ = layer.forward(np.ones((2, 4)))
        assert np.array_equal(y, np.zeros((2, 3)))

    def test_identity_configuration(self):
        layer = nn.Dense(3, 3)
        layer.w[:] = np.eye(3)
        layer.b[:] = 0.0
        x = np.random.default_rng(0).normal(size=(5, 3))
        y, _ = layer.forward(x)
        assert np.allclose(y, x, atol=0, rtol=0)

    def test_two_layer_net_matches_hand_rolled_matmul(self):
        rng = np.random.default_rng(1)
        l1 = nn.Dense(6, 5, "relu", rng)
        l2 = nn.Dense(5, 2, None, rng)
        x = rng.normal(size=(7, 6))
        y1, _ = l1.forward(x)
        y2, _ = l2.forward(y1)
        ref = np.maximum(x @ l1.w + l1.b, 0.0) @ l2.w + l2.b
        assert np.allclose(y2, ref, atol=1e-12, rtol=0)

    def test_shape_mismatch_raises(self):
        with pytest.raises(nn.ShapeError):
            nn.Dense(4, 3).forward(np.ones((2, 5)))


class TestDenseBackward:
    def test_linear_weight_grad_is_outer_product(self):
        rng = np.random.default_rng(2)
        layer = nn.Dense(4, 3)
        x = rng.normal(size=(1, 4))
        dy = rng.normal(size=(1, 3))
        _, cache = layer.forward(x)
        _, grads = layer.backward(cache, dy)
        assert np.allclose(grads["w"], np.outer(x[0], dy[0]), atol=1e-12)

    def test_relu_blocks_gradient_at_negative_preactivation(self):
        layer = nn.Dense(2, 1, "relu")
        layer.w[:] = np.array([[1.0], [1.0]])
        layer.b[:] = 0.0
        x = np.array([[-3.0, 1.0]])  # pre-activation = -2 < 0
        y, cache = layer.forward(x)
        assert y[0, 0] == 0.0
        dx, grads = layer.backward(cache, np.ones((1, 1)))
        assert np.array_equal(dx, np.zeros((1, 2)))
        assert np.array_equal(grads["w"], np.zeros((2, 1)))

    @pytest.mark.parametrize("activation", [None, "relu", "tanh"])
    def test_matches_finite_differences(self, activation):
        rng = np.random.default_rng(3)
        layer = nn.Dense(5, 4, activation, rng)
        x = rng.normal(size=(6, 5))
        w_out = loss_weights(rng, (6, 4))

        def loss():
            y, _ = layer.forward(x)
            return float((y * w_out).sum())

        _, cache = layer.forward(x)
        _, grads = layer.backward(cache, w_out)
        fd = fd_param_gradients(loss, layer.params, probes_per_array=8, rng=rng)
        assert_grads_close(grads, fd)


class TestEmbedding:
    def test_lookup_and_tanh(self):
        rng = np.random.default_rng(4)
        emb = nn.Embedding(4, 3, "tanh", rng)
        codes = np.array([[0, 3], [2, 2]])
        y, _ = emb.forward(codes)
        assert np.allclose(y, np.tanh(emb.table[codes]), atol=1e-15)

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        emb = nn.Embedding(5, 4, "tanh", rng)
        codes = rng.integers(0, 5, size=(3, 7))
        w_out = loss_weights(rng, (3, 7, 4))

        def loss():
            y, _ = emb.forward(codes)
            return float((y * w_out).sum())

        _, cache = emb.forward(codes)
        _, grads = emb.backward(cache, w_out)
        fd = fd_param_gradients(loss, emb.params, probes_per_array=10, rng=rng)
        assert_grads_close(grads, fd)


class TestConv3d:
    def test_all_ones_sum(self):
        conv = nn.Conv3d(1, 1, kernel=3, stride=1, pad=0, activation=None)
        conv.w[:] = 1.0
        conv.b[:] = 0.0
        x = np.ones((1, 3, 3, 3, 1))
        y, _ = conv.forward(x)
        assert y.shape == (1, 1, 1, 1, 1)
        assert y[0, 0, 0, 0, 0] == 27.0

    def test_delta_kernel_identity(self):
        conv = nn.Conv3d(1, 1, kernel=3, stride=1, pad=1, activation=None)
        conv.w[:] = 0.0
        conv.w[13, 0] = 1.0  # center tap of the 3x3x3 kernel
        conv.b[:] = 0.0
        rng = np.random.default_rng(6)
        x = rng.normal(size=(2, 4, 4, 4, 1))
        y, _ = conv.forward(x)
        assert np.allclose(y, x, atol=1e-12)

    def test_matches_naive_six_loop_oracle(self):
        rng = np.random.default_rng(7)
        conv = nn.Conv3d(2, 3, kernel=3, stride=2, pad=1, activation=None, rng=rng)
        x = rng.normal(size=(2, 5, 5, 5, 2))
        y, _ = conv.forward(x)
        w = conv.w.reshape(3, 3, 3, 2, 3)
        xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (1, 1), (0, 0)))
        expected = np.zeros_like(y)
        for n in range(2):
            for ox in range(y.shape[1]):
                for oy in range(y.shape[2]):
                    for oz in range(y.shape[3]):
                        for co in range(3):
                            acc = conv.b[co]
                            for i in range(3):
                                for j in range(3):
                                    for l in range(3):
                                        for ci in range(2):
                                            acc += (
                                                xp[n, ox * 2 + i, oy * 2 + j, oz * 2 + l, ci]
                                                * w[i, j, l, ci, co]
                                            )
                            expected[n, ox, oy, oz, co] = acc
        assert np.allclose(y, expected, atol=1e-12, rtol=0)

    @pytest.mark.parametrize("stride,pad", [(1, 0), (2, 0), (2, 1)])
    def test_backward_matches_finite_differences(self, stride, pad):
        rng = np.random.default_rng(8)
        conv = nn.Conv3d(2, 3, kernel=3, stride=stride, pad=pad, activation="relu", rng=rng)
        x = rng.normal(size=(2, 5, 5, 5, 2))
        y, cache = conv.forward(x)
        w_out = loss_weights(rng, y.shape)

        def loss():
            out, _ = conv.forward(x)
            return float((out * w_out).sum())

        dx, grads = conv.backward(cache, w_out)
        fd = fd_param_gradients(loss, conv.params, probes_per_array=10, rng=rng)
        assert_grads_close(grads, fd)

        # input gradient against finite differences too
        flat = x.reshape(-1)
        idx = rng.choice(flat.size, size=10, replace=False)
        for i in idx:
            orig = flat[i]
            flat[i] = orig + 1e-6
            lp = loss()
            flat[i] = orig - 1e-6
            lm = loss()
            flat[i] = orig
            fd_v = (lp - lm) / 2e-6
            got = dx.reshape(-1)[i]
            assert abs(got - fd_v) / max(abs(fd_v), 1e-7) < 1e-4


class TestConv3dOneWindow:
    """A conv whose padded input is one kernel window runs as a Dense."""

    @pytest.mark.parametrize("side,pad", [(3, 0), (1, 1)])
    def test_matches_general_path(self, side, pad):
        rng = np.random.default_rng(14)
        conv = nn.Conv3d(8, 16, kernel=3, stride=2, pad=pad, activation="relu", rng=rng)
        conv.b[:] = rng.normal(scale=0.1, size=16)
        x = rng.normal(size=(32, side, side, side, 8))
        y, cache = conv.forward(x)
        dy = rng.normal(size=y.shape)
        dx, grads = conv.backward(cache, dy)

        conv._one_window = lambda xp_shape: False  # force im2col / col2im
        y_ref, cache_ref = conv.forward(x)
        dx_ref, grads_ref = conv.backward(cache_ref, dy)
        assert y.shape == y_ref.shape == (32, 1, 1, 1, 16)
        assert max_rel_err(y, y_ref) <= 1e-12
        assert dx.shape == x.shape and max_rel_err(dx, dx_ref) <= 1e-12
        for k in ("w", "b"):
            assert max_rel_err(grads[k], grads_ref[k]) <= 1e-12

    def test_only_a_single_window_skips_im2col(self, monkeypatch):
        calls = []
        im2col = nn.im2col
        monkeypatch.setattr(nn, "im2col", lambda *a: calls.append(a) or im2col(*a))
        rng = np.random.default_rng(15)
        conv = nn.Conv3d(2, 3, kernel=3, stride=2, pad=0, rng=rng)
        y, cache = conv.forward(rng.normal(size=(2, 3, 3, 3, 2)))
        conv.backward(cache, np.ones_like(y))
        assert calls == []
        y, cache = conv.forward(rng.normal(size=(2, 5, 5, 5, 2)))
        conv.backward(cache, np.ones_like(y))
        assert len(calls) == 1


def max_rel_err(got, want):
    return float(np.abs(got - want).max() / max(np.abs(want).max(), 1e-300))


class TestEmbedConvStem:
    """The fused stem against the Embedding -> Conv3d chain it replaces."""

    def make_stem(self, rng, dim, c_out, stride, pad):
        embed = nn.Embedding(4, dim, "tanh", rng)
        conv = nn.Conv3d(dim, c_out, kernel=3, stride=stride, pad=pad, activation="relu", rng=rng)
        conv.b[:] = rng.normal(scale=0.1, size=c_out)
        return embed, conv

    @pytest.mark.parametrize(
        "n,side,stride,pad",
        [(256, 7, 2, 0), (8, 7, 1, 1), (8, 7, 2, 1)],
    )
    def test_matches_embedding_conv_chain(self, n, side, stride, pad):
        rng = np.random.default_rng(11)
        embed, conv = self.make_stem(rng, 8, 8, stride, pad)
        codes = rng.integers(0, 4, size=(n, side, side, side)).astype(np.uint8)

        emb, emb_cache = embed.forward(codes.reshape(n, -1))
        y_ref, conv_cache = conv.forward(emb.reshape(n, side, side, side, 8))
        y, cache = nn.embed_conv_forward(embed, conv, codes)
        assert y.shape == y_ref.shape
        assert max_rel_err(y, y_ref) <= 1e-12

        dy = rng.normal(size=y.shape)
        dx, g_conv_ref = conv.backward(conv_cache, dy)
        _, g_embed_ref = embed.backward(emb_cache, dx.reshape(n, -1, 8))
        g_embed, g_conv = nn.embed_conv_backward(embed, conv, cache, dy)
        assert max_rel_err(g_embed["table"], g_embed_ref["table"]) <= 1e-12
        for k in ("w", "b"):
            assert max_rel_err(g_conv[k], g_conv_ref[k]) <= 1e-12

    @pytest.mark.parametrize("stride,pad", [(2, 0), (1, 1), (2, 1)])
    def test_backward_matches_finite_differences(self, stride, pad):
        rng = np.random.default_rng(12)
        embed, conv = self.make_stem(rng, 3, 4, stride, pad)
        codes = rng.integers(0, 4, size=(3, 5, 5, 5))
        y, cache = nn.embed_conv_forward(embed, conv, codes)
        w_out = loss_weights(rng, y.shape)

        def loss():
            out, _ = nn.embed_conv_forward(embed, conv, codes)
            return float((out * w_out).sum())

        g_embed, g_conv = nn.embed_conv_backward(embed, conv, cache, w_out)
        fd = fd_param_gradients(
            loss,
            {"table": embed.table, "w": conv.w, "b": conv.b},
            probes_per_array=10,
            rng=rng,
        )
        assert_grads_close({**g_embed, **g_conv}, fd)

    def test_out_of_range_code_rejected(self):
        rng = np.random.default_rng(13)
        embed, conv = self.make_stem(rng, 3, 4, 2, 0)
        codes = np.zeros((1, 5, 5, 5), dtype=np.uint8)
        codes[0, 2, 2, 2] = 4
        with pytest.raises(IndexError):
            nn.embed_conv_forward(embed, conv, codes)


def rollout_cubes(demo_paths, tmp_path):
    """The distinct occupancy cubes (K, 7, 7, 7) of a short quickstart-like rollout."""
    cfg = TrainConfig(
        map_path=str(fixture_path("testmap_area1.json")),
        demo_paths=list(demo_paths),
        episodes_per_iter=4,
        episode_length=32,
        seed=41,
    )
    trainer = Trainer(cfg, tmp_path / "run")
    rngs = [trainer._episode_rng(0, e) for e in range(4)]
    ro = trainer.collect_group(np.array([0.1, 0.4, 0.7, 0.9]), rngs)
    return ro.features["occ"].table.reshape(-1, 7, 7, 7)


class TestStemWindowIndex:
    """The stem over distinct windows against the im2col stem over every window."""

    def check_against_oracle(self, rng, codes, stride=2, pad=0, windows=None):
        embed = nn.Embedding(4, 8, "tanh", rng)
        conv = nn.Conv3d(8, 8, kernel=3, stride=stride, pad=pad, activation="relu", rng=rng)
        conv.b[:] = rng.normal(scale=0.1, size=8)
        y_ref, cache_ref = stem_forward_ref(embed, conv, codes)
        y, cache = nn.embed_conv_forward(embed, conv, codes, windows)
        assert y.shape == y_ref.shape
        assert max_rel_err(y, y_ref) <= 1e-12
        dy = rng.normal(size=y.shape)
        g_embed_ref, g_conv_ref = stem_backward_ref(embed, conv, cache_ref, dy)
        g_embed, g_conv = nn.embed_conv_backward(embed, conv, cache, dy)
        assert max_rel_err(g_embed["table"], g_embed_ref["table"]) <= 1e-12
        for k in ("w", "b"):
            assert max_rel_err(g_conv[k], g_conv_ref[k]) <= 1e-12
        return cache[1]  # the distinct windows' one-hot columns

    def test_rollout_cubes(self, area1_demo_paths, tmp_path):
        rng = np.random.default_rng(20)
        codes = rollout_cubes(area1_demo_paths, tmp_path)
        cols = self.check_against_oracle(rng, codes)
        assert len(cols) < codes.shape[0] * 27 // 4  # windows repeat across cubes

    def test_every_window_distinct(self):
        rng = np.random.default_rng(21)
        codes = rng.integers(0, 4, size=(16, 7, 7, 7))
        cols = self.check_against_oracle(rng, codes)
        assert len(cols) == 16 * 27

    def test_padding_digit_keeps_a_zero_one_hot_row(self):
        rng = np.random.default_rng(22)
        codes = rng.integers(0, 4, size=(6, 7, 7, 7)).astype(np.uint8)
        cols = self.check_against_oracle(rng, codes, pad=1)
        voxels = cols.reshape(len(cols), 27, 4).sum(axis=2)
        assert voxels.min() == 0 and voxels.max() == 1  # pad voxels: all-zero rows

    @pytest.mark.parametrize("stride,pad", [(2, 0), (1, 1)])
    def test_single_row(self, stride, pad):
        rng = np.random.default_rng(23)
        self.check_against_oracle(rng, rng.integers(0, 4, size=(1, 7, 7, 7)), stride, pad)

    def test_rows_index_matches_raw_codes(self):
        rng = np.random.default_rng(24)
        table = rng.integers(0, 4, size=(30, 343)).astype(np.uint8)
        rows = nn.Rows(table, rng.integers(0, 30, size=50))
        conv = nn.Conv3d(8, 8, kernel=3, stride=2, activation="relu")
        windows = rows.windows(4, conv, (7, 7, 7))
        assert len(windows[1]) <= 30 * 27
        self.check_against_oracle(rng, np.asarray(rows).reshape(-1, 7, 7, 7), windows=windows)

    def test_key_that_overflows_int64_rejected(self):
        codes = np.zeros((1, 4, 4, 4), dtype=np.uint8)
        with pytest.raises(nn.ShapeError):  # 7^27 > 2^63
            nn.window_index(codes, 6, nn.Conv3d(1, 1, kernel=3))
        with pytest.raises(nn.ShapeError):  # 2^64 > 2^63
            nn.window_index(codes, 1, nn.Conv3d(1, 1, kernel=4))
        ids, cols = nn.window_index(codes, 4, nn.Conv3d(1, 1, kernel=3, pad=1))  # 5^27 fits
        assert ids.shape == (1, 2, 2, 2) and cols.shape[1] == 27 * 4

    def test_slices_share_one_index_and_a_new_table_builds_its_own(self, monkeypatch):
        built = []
        window_index = nn.window_index
        monkeypatch.setattr(nn, "window_index", lambda *a: built.append(1) or window_index(*a))
        rng = np.random.default_rng(25)
        table = rng.integers(0, 4, size=(12, 343)).astype(np.uint8)
        rows = nn.Rows(table, rng.integers(0, 12, size=40))
        net, inputs = desk_net_and_inputs("critic", rows, rng)
        for sel in (np.s_[:], np.s_[:20], np.array([3, 1, 3])):
            net.forward({k: v[sel] for k, v in inputs.items()})
        assert len(built) == 1 and len(rows.stem_index) == 1
        assert rows[:5].stem_index is rows.stem_index
        assert rows.reshape(5, 8, 343).stem_index is rows.stem_index
        other = nn.Rows(table.copy(), rows.ids)
        assert other.stem_index == {}
        net.forward({**inputs, "occ": other})
        assert len(built) == 2 and len(other.stem_index) == 1

    def test_segment_sum_equals_add_at_bit_for_bit(self):
        rng = np.random.default_rng(26)
        ids = rng.integers(0, 40, size=256)
        values = rng.normal(size=(256, 16))
        want = np.zeros((40, 16))
        np.add.at(want, ids, values)
        assert np.array_equal(nn.segment_sum(ids, values, 40), want)


def desk_net_and_inputs(kind, occ, rng):
    """A desk-profile policy, critic or discriminator and inputs around ``occ``."""
    n = len(occ)
    if kind == "discriminator":
        net = Discriminator(Profile(), rng)
        return net, {"occ": occ, "act": one_hot_actions(rng.integers(0, N_ACTIONS, size=n))}
    make = make_policy_net if kind == "policy" else make_critic_net
    net = make(Profile(), rng, position_mode="sinusoidal", perception="occupancy", dims=(1, 1, 1))
    for layer in net.layers.values():  # nonzero biases, so no gradient is trivially zero
        if hasattr(layer, "b"):
            layer.b[:] = rng.normal(scale=0.1, size=layer.b.shape)
    return net, {
        "pos": rng.uniform(-1, 1, size=(n, 96)),
        "info": rng.normal(size=(n, 9)),
        "occ": occ,
        "alpha": rng.random(size=(n, 1)),
    }


class TestRowsBranch:
    """An occupancy branch fed ``Rows`` against the same branch fed every row."""

    @pytest.mark.parametrize("kind", ["policy", "critic", "discriminator"])
    @pytest.mark.parametrize("n_cubes,n_rows", [(5, 96), (40, 40)])
    def test_matches_per_row_branch(self, kind, n_cubes, n_rows):
        rng = np.random.default_rng(16)
        table = rng.integers(0, 4, size=(n_cubes, 343)).astype(np.uint8)
        ids = rng.permutation(n_cubes) if n_cubes == n_rows else rng.integers(0, n_cubes, n_rows)
        rows = nn.Rows(table, ids)
        net, inputs = desk_net_and_inputs(kind, rows, rng)

        out, caches = net.run(net.graph, inputs)
        out_ref, caches_ref = net.run(net.graph, {**inputs, "occ": table[ids]})
        assert max_rel_err(out, out_ref) <= 1e-12
        dout = rng.normal(size=out.shape)
        grads, _ = net.run_backward(net.graph, caches, dout)
        grads_ref, _ = net.run_backward(net.graph, caches_ref, dout)
        assert set(grads) == set(grads_ref) == set(net.params())
        for name in grads:
            assert max_rel_err(grads[name], grads_ref[name]) <= 1e-12, name

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        table = rng.integers(0, 4, size=(3, 343)).astype(np.uint8)
        rows = nn.Rows(table, np.array([2, 0, 2, 1, 0, 2]))
        net, inputs = desk_net_and_inputs("policy", rows, rng)
        out, caches = net.forward(inputs)
        w_out = rng.normal(size=out.shape)
        grads = net.backward(caches, w_out)

        def loss():
            return float((net.forward(inputs)[0] * w_out).sum())

        fd = fd_param_gradients(loss, net.params(), probes_per_array=6, rng=rng)
        assert len(fd) >= 100
        assert_grads_close(grads, fd)

    def test_indexing_keeps_the_table(self):
        table = np.arange(12, dtype=np.uint8).reshape(4, 3)
        rows = nn.Rows(table, np.array([3, 1, 1, 0]))
        sub = rows[np.array([2, 0])]
        assert isinstance(sub, nn.Rows) and sub.table is table and len(sub) == 2
        assert np.array_equal(np.asarray(sub), table[[1, 3]])


class TestSoftmax:
    def test_sums_to_one_and_positive(self):
        rng = np.random.default_rng(9)
        logits = rng.normal(scale=30.0, size=(50, 10))
        p = nn.softmax(logits)
        assert np.all(p > 0)
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)

    def test_matches_reference(self):
        logits = np.array([0.3, -2.0, 5.0, 0.0])
        assert np.allclose(nn.softmax(logits), softmax_ref(logits), atol=1e-12)


class TestAdam:
    def test_zero_gradient_no_move_from_init(self):
        params = {"w": np.ones((3, 3))}
        opt = nn.Adam(params, lr=0.1)
        opt.step({"w": np.zeros((3, 3))})
        assert opt.step_count == 1
        assert np.array_equal(params["w"], np.ones((3, 3)))

    def test_first_step_magnitude_is_lr(self):
        params = {"w": np.zeros(4)}
        opt = nn.Adam(params, lr=0.01)
        opt.step({"w": np.full(4, 0.7)})
        # bias-corrected first step is lr * g / (|g| + eps') ~= lr
        assert np.allclose(np.abs(params["w"]), 0.01, rtol=1e-6)

    def test_deterministic_repeat(self):
        def run():
            params = {"w": np.linspace(-1, 1, 6)}
            opt = nn.Adam(params, lr=0.05)
            rng = np.random.default_rng(0)
            for _ in range(20):
                opt.step({"w": rng.normal(size=6)})
            return params["w"]

        assert np.array_equal(run(), run())


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(10)
        params = {"a.w": rng.normal(size=(4, 5)), "b.table": rng.normal(size=(3, 2))}
        desc = {"net": "x", "layers": {"a": {"kind": "dense"}}}
        path = tmp_path / "p.vxnp"
        nn.save_params(path, desc, params)
        desc2, back = nn.load_params(path)
        assert desc2 == desc
        for k in params:
            assert np.array_equal(params[k], back[k])

    def test_descriptor_mismatch_rejected(self, tmp_path):
        path = tmp_path / "p.vxnp"
        nn.save_params(path, {"v": 1}, {"w": np.zeros(3)})
        with pytest.raises(nn.DescriptorMismatchError):
            nn.load_params(path, expected_descriptor={"v": 2})

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "p.vxnp"
        nn.save_params(path, {"v": 1}, {"w": np.zeros(16)})
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 24])
        with pytest.raises(nn.ParamsFormatError, match="truncated"):
            nn.load_params(path)

    def test_failed_replace_keeps_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "p.vxnp"
        nn.save_params(path, {"v": 1}, {"w": np.zeros(16)})
        before = path.read_bytes()

        def broken_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", broken_replace)
        with pytest.raises(OSError, match="disk full"):
            nn.save_params(path, {"v": 1}, {"w": np.ones(16)})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["p.vxnp"]

    def test_write_failing_midway_keeps_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "config.json"
        nn.write_atomic(path, '{"seed": 1}\n')
        before = path.read_bytes()

        class HalfWriter:
            def __init__(self, name, mode):
                self.f = open(name, mode)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, data):
                self.f.write(data[: len(data) // 2])
                raise OSError("device gone")

        monkeypatch.setattr(nn, "open", HalfWriter, raising=False)
        with pytest.raises(OSError, match="device gone"):
            nn.write_atomic(path, '{"seed": 2, "iterations": 60}\n')
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    def test_not_a_params_file(self, tmp_path):
        path = tmp_path / "p.vxnp"
        path.write_bytes(b"hello world, this is not binary params")
        with pytest.raises(nn.ParamsFormatError, match="magic"):
            nn.load_params(path)

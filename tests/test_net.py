import hashlib

import numpy as np
import pytest

from pinnrul import NormStats, PinnConfig, init_model
from pinnrul.graph import Graph
from pinnrul.net import GraphMlp, _chain, _chain_grad

from conftest import drawn_mlp, fd_tolerance_ok, layer_shapes

TANH_HALF = 0.46211715726000974


def given_mlp(hidden, weights, biases):
    """(hidden, layers) with these weights and biases and zero gradients."""
    return hidden, [(w, b, np.zeros_like(w), np.zeros_like(b)) for w, b in zip(weights, biases)]


def plain_forward(params, x):
    """Straight-line reference evaluation of (hidden, layers), independent of the graph."""
    hidden, layers = params
    h = np.asarray(x, dtype=np.float64).reshape(-1, 1)
    last = len(layers) - 1
    for i, (w, b, _, _) in enumerate(layers):
        z = w @ h + b
        if i < last:
            h = np.tanh(z) if hidden == "tanh" else np.maximum(z, 0.0)
        else:
            h = z
    return h


def d_in(params):
    """Input width of (hidden, layers): the columns of the first W."""
    return params[1][0][0].shape[1]


def eval_forward(params, x):
    g = Graph()
    mlp = GraphMlp(g, *params)
    xin = g.input()
    out = mlp.forward((xin, 0, d_in(params)))
    g.eval({xin: np.asarray(x, dtype=np.float64).reshape(-1, 1)})
    return g.value(out)


def eval_tangent(params, x, coord):
    """(output, tangent) blocks of a one-tangent mlp node's stacked value at ``x``."""
    g = Graph()
    mlp = GraphMlp(g, *params)
    xin = g.input()
    node = mlp.forward_tangents((xin, 0, d_in(params)), coords=[coord])
    g.eval({xin: np.asarray(x, dtype=np.float64).reshape(-1, 1)})
    value = g.value(node)
    m = params[1][-1][0].shape[0]  # d_out, the rows of the last W
    assert value.shape == (2 * m, 1)
    return value[:m], value[m:]


class TestSpecAndInit:
    def test_same_seed_same_bits(self):
        _, a = drawn_mlp((2, 3, 1), 99)
        _, b = drawn_mlp((2, 3, 1), 99)
        for (wa, ba, _, _), (wb, bb, _, _) in zip(a, b):
            assert np.array_equal(wa, wb)
            assert np.array_equal(ba, bb)

    def test_layer_shapes_2_3_1(self):
        _, layers = drawn_mlp((2, 3, 1), 0)
        assert layers[0][0].shape == (3, 2)
        assert layers[0][1].shape == (3, 1)
        assert layers[1][0].shape == (1, 3)
        assert layers[1][1].shape == (1, 1)

    def test_drawn_mlp_is_pinned(self):
        # the acceptance suite's criteria 3 and 4 draw their networks here, so their weights rest on these bits
        _, layers = drawn_mlp((15, 3, 3, 3, 3, 3, 1), 0)
        raw = b"".join(buf.tobytes() for w, b, _, _ in layers for buf in (w, b))
        assert hashlib.sha256(raw).hexdigest().startswith("000c479a09f394b0")

    def test_xavier_scale_and_zero_bias(self):
        norm = NormStats(np.zeros(7), np.ones(7), 100.0, [f"s{i}" for i in range(7)])
        layers = [layer for net in init_model(PinnConfig(d_oc=7), norm, 5)._layers.values() for layer in net]
        assert not any(b.any() for _, b, _, _ in layers)
        # each W over its own Xavier scale, pooled: about 900 draws of N(0, 1)
        pooled = np.concatenate([(w / np.sqrt(2 / sum(w.shape))).ravel() for w, _, _, _ in layers])
        assert abs(pooled.mean()) < 0.1
        assert 0.9 < pooled.std() < 1.1

    @pytest.mark.parametrize("scheme", ["orthogonal", "standard-normal"])
    def test_unknown_scheme(self, scheme):
        norm = NormStats(np.zeros(2), np.ones(2), 100.0, ["a", "b"])
        with pytest.raises(ValueError, match="init_scheme must be one of"):
            init_model(PinnConfig(d_oc=2), norm, 0, scheme)


class TestForward:
    def test_zero_params_zero_output(self):
        shapes = layer_shapes((3, 4, 4, 1))
        params = given_mlp("tanh", [np.zeros(ws) for ws, _ in shapes], [np.zeros(bs) for _, bs in shapes])
        out = eval_forward(params, [0.7, -2.0, 5.5])
        assert np.array_equal(out, np.zeros((1, 1)))

    def test_hand_evaluated_1_1_1(self):
        params = given_mlp("tanh", [np.array([[2.0]]), np.array([[1.0]])], [np.zeros((1, 1)), np.zeros((1, 1))])
        out = eval_forward(params, [0.25])
        assert float(out[0, 0]) == pytest.approx(TANH_HALF, abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_straight_line_reference(self, seed):
        params = drawn_mlp((2, 3, 1), seed)
        x = np.random.default_rng(seed).normal(size=2)
        assert np.abs(eval_forward(params, x) - plain_forward(params, x)).max() <= 1e-12

    def test_batched_forward_equals_per_column(self):
        params = drawn_mlp((3, 5, 2), 3)
        xs = np.random.default_rng(0).normal(size=(3, 4))
        g = Graph()
        mlp = GraphMlp(g, *params)
        xin = g.input()
        out = mlp.forward((xin, 0, 3))
        g.eval({xin: xs})
        batch = g.value(out)
        for j in range(4):
            assert np.abs(batch[:, j : j + 1] - plain_forward(params, xs[:, j])).max() <= 1e-12

    def test_reference_architecture_shapes(self):
        # latent net: five 3-unit hidden layers; regression net: five 10-unit layers
        x_params = drawn_mlp((15, 3, 3, 3, 3, 3, 1), 0)
        rul_params = drawn_mlp((2, 10, 10, 10, 10, 10, 1), 1)
        for params, n in ((x_params, 15), (rul_params, 2)):
            g = Graph()
            mlp = GraphMlp(g, *params)
            xin = g.input()
            out = mlp.forward((xin, 0, n))
            g.eval({xin: np.zeros((n, 7))})
            assert g.value(out).shape == (1, 7)
            assert len(params[1]) == 6


class TestForwardTangent:
    def test_linear_chain_at_zero(self):
        # tanh'(0) = 1, so the tangent collapses to the weight product
        a, b = 1.7, -0.6
        params = given_mlp("tanh", [np.array([[a]]), np.array([[b]])], [np.zeros((1, 1)), np.zeros((1, 1))])
        _, tan = eval_tangent(params, [0.0], 0)
        assert float(tan[0, 0]) == pytest.approx(a * b, abs=1e-15)

    def test_zero_weights_zero_tangent(self):
        shapes = layer_shapes((2, 3, 1))
        params = given_mlp(
            "tanh",
            [np.zeros(ws) for ws, _ in shapes],
            [np.random.default_rng(0).normal(size=bs) for _, bs in shapes],
        )
        _, tan = eval_tangent(params, [0.4, -0.2], 1)
        assert np.array_equal(tan, np.zeros((1, 1)))

    @pytest.mark.parametrize("widths", [(2, 3, 3, 1), (3, 3, 3, 3, 3, 3, 1)])
    def test_matches_finite_differences(self, widths):
        # 20 draws here; the acceptance suite runs the full 100 per spec
        h = 1e-6
        for seed in range(20):
            rng = np.random.default_rng((seed, widths[0]))
            params = drawn_mlp(widths, seed)
            x = rng.normal(size=widths[0])
            coord = int(rng.integers(widths[0]))
            _, tan = eval_tangent(params, x, coord)
            step = np.zeros(widths[0])
            step[coord] = h
            fd = (plain_forward(params, x + step) - plain_forward(params, x - step)) / (2 * h)
            assert fd_tolerance_ok(tan[0, 0], fd[0, 0], rel=1e-5, abs_tol=1e-8)

    def test_tangent_weight_gradient_matches_fd(self):
        # reverse-mode through the tangent output = mixed second derivative
        params = drawn_mlp((2, 3, 1), 11)
        layers = params[1]
        x = np.array([0.37, -0.81])

        def tangent_value():
            _, tan = eval_tangent(params, x, 0)
            return float(tan[0, 0])

        g = Graph()
        mlp = GraphMlp(g, *params)
        xin = g.input()
        node = mlp.forward_tangents((xin, 0, 2), coords=[0])
        g.eval({xin: x.reshape(2, 1)})
        g.grad({node: np.array([[0.0], [1.0]])})  # the adjoint of the tangent block alone

        h = 1e-6
        for buf, _, dw, _ in layers:
            it = np.nditer(buf, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                old = buf[idx]
                buf[idx] = old + h
                up = tangent_value()
                buf[idx] = old - h
                down = tangent_value()
                buf[idx] = old
                fd = (up - down) / (2 * h)
                assert fd_tolerance_ok(dw[idx], fd, rel=1e-4, abs_tol=1e-8)


class TestChainGrad:
    @pytest.mark.parametrize(
        "hidden, k, seeded",
        [("tanh", 0, False), ("tanh", 1, False), ("tanh", 2, False), ("tanh", 1, True), ("tanh", 2, True), ("relu", 0, False), ("linear", 2, True)],
    )
    def test_input_adjoint_matches_finite_differences(self, hidden, k, seeded):
        # the gradient of <a, output> w.r.t. the chain's input, which a graph asks for only
        # when the input itself depends on weights
        rng = np.random.default_rng((k, seeded))
        _, layers = drawn_mlp((3, 4, 4, 2), 7, hidden)
        seeds = [2, 0][:k] if seeded else None
        s = rng.normal(size=(3 if seeded else (1 + k) * 3, 5))
        values = _chain(hidden, layers, s, k, seeds)
        if hidden == "relu":
            assert min(np.abs(w @ h + b).min() for (w, b, _, _), h in zip(layers[:-1], values)) > 1e-3
        a = rng.normal(size=values[-1].shape)
        ds = _chain_grad(hidden, layers, values, a, k, seeds, True)
        weight_grads = [buf.copy() for layer in layers for buf in layer[2:]]
        assert _chain_grad(hidden, layers, values, a, k, seeds, False) is None
        assert all(np.array_equal(want, got) for want, got in zip(weight_grads, (buf for layer in layers for buf in layer[2:])))
        assert ds.shape == s.shape

        def pairing(s):
            return float((a * _chain(hidden, layers, s, k, seeds)[-1]).sum())

        h = 1e-6
        for idx in np.ndindex(s.shape):
            up, down = s.copy(), s.copy()
            up[idx] += h
            down[idx] -= h
            fd = (pairing(up) - pairing(down)) / (2 * h)
            assert fd_tolerance_ok(ds[idx], fd, rel=1e-5, abs_tol=1e-8), (idx, ds[idx], fd)

    def test_no_adjoint_writes_zeros(self):
        hidden, layers = drawn_mlp((3, 4, 2), 3)
        for _, _, dw, db in layers:
            dw.fill(np.nan)  # a stale gradient is overwritten, not kept
            db.fill(np.nan)
        values = _chain(hidden, layers, np.ones((3, 2)), 0, None)
        assert _chain_grad(hidden, layers, values, None, 0, None, True) is None
        assert not any(buf.any() for layer in layers for buf in layer[2:])

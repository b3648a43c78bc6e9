import numpy as np
import pytest

from pinnrul.graph import Graph, GraphError

from conftest import fd_tolerance_ok, random_graph, relu_inputs_safe

TANH_HALF = 0.46211715726000974  # tanh(0.5), frozen from direct evaluation


def scalar(g, nid):
    return float(g.value(nid)[0, 0])


def mlp(g, s, *layers, hidden="linear", k=0, seeds=None):
    """An ``mlp`` node over ``s``, one (node, start, stop) row range or a list of them whose
    rows it stacks, with these (W, b, dW, db) ``layers``; ``seeds``, if given, set k."""
    return g.build("mlp", s if isinstance(s, list) else [s], (hidden, list(layers), len(seeds) if seeds else k, seeds))


def buffers(w, b=None):
    """(W, b, dW, db) for a layer: float64 copies of ``w`` and ``b`` (zeros if None), zero gradients."""
    w = np.array(w, dtype=np.float64)
    b = np.zeros((w.shape[0], 1)) if b is None else np.array(b, dtype=np.float64)
    return w, b, np.zeros_like(w), np.zeros_like(b)


def bind(g, value, bindings):
    """A node whose value is ``value``: a one-layer linear mlp with weight ``value`` over an identity input.

    Adds the identity to ``bindings``; returns (id, weight gradient).
    """
    w, b, dw, db = buffers(value)
    eye = g.input()
    bindings[eye] = np.eye(w.shape[1])
    return mlp(g, (eye, 0, w.shape[1]), (w, b, dw, db)), dw


def seeded_sum(g, seeds):
    """sum_n <seeds[n], value of n>, the scalar whose gradient ``grad(seeds)`` writes."""
    return sum(float((seed * g.value(n)).sum()) for n, seed in seeds.items())


ONE = np.ones((1, 1))


def assert_matches_fd(g, bindings, seeds, params, h=1e-6):
    """Check each (label, value, grad) of ``params`` entrywise against central
    differences of ``seeded_sum``; ``grad`` must hold the gradients of the last ``eval``."""
    for p, buf, grad in params:
        for idx in np.ndindex(buf.shape):
            old = buf[idx]
            buf[idx] = old + h
            g.eval(bindings)
            up = seeded_sum(g, seeds)
            buf[idx] = old - h
            g.eval(bindings)
            down = seeded_sum(g, seeds)
            buf[idx] = old
            fd = (up - down) / (2 * h)
            assert fd_tolerance_ok(grad[idx], fd, rel=1e-5, abs_tol=1e-8), (
                f"node {p}{idx}: analytic {grad[idx]} vs fd {fd}"
            )
    g.eval(bindings)


def identity(rows):
    """(W, b, dW, db) of a layer that passes its ``rows`` inputs through unchanged."""
    return buffers(np.eye(rows))


def act(g, x, activation, rows=1):
    """``activation`` applied entrywise to the first ``rows`` rows of ``x``: a 2-layer
    mlp of identity weights and zero biases, whose hidden layer applies ``activation``."""
    return mlp(g, (x, 0, rows), identity(rows), identity(rows), hidden=activation)


class TestBuildAndEval:
    def test_tanh_of_half(self):
        g = Graph()
        x = g.input()
        y = act(g, x, "tanh")
        g.eval({x: [[0.5]]})
        assert scalar(g, y) == pytest.approx(TANH_HALF, abs=1e-12)

    def test_tanh_of_zero(self):
        g = Graph()
        x = g.input()
        y = act(g, x, "tanh")
        g.eval({x: [[0.0]]})
        assert scalar(g, y) == 0.0

    def test_relu_negative(self):
        g = Graph()
        x = g.input()
        y = act(g, x, "relu")
        g.eval({x: [[-1.0]]})
        assert scalar(g, y) == 0.0

    def test_mse_at_perfect_fit(self):
        g = Graph()
        x = g.input()
        target = g.input()
        residual = mlp(g, [(x, 0, 3), (target, 0, 3)], buffers(np.hstack([np.eye(3), -np.eye(3)])))  # x - target
        g.eval({x: [[0.3], [-1.2], [4.0]], target: [[0.3], [-1.2], [4.0]]})
        assert (g.value(residual) ** 2).mean() == 0.0

    def test_layer_shapes(self):
        g = Graph()
        wb = buffers(np.zeros((2, 3)))
        h, stacked = g.input(), g.input()
        plain = mlp(g, (h, 0, 3), wb)
        # two tangents: stacked input of 3 blocks, or seeded from h alone
        two_stacked = mlp(g, (stacked, 0, 9), wb, hidden="tanh", k=2)
        two_seeded = mlp(g, (h, 0, 3), wb, hidden="tanh", seeds=[0, 2])
        # a deeper mlp stacks its blocks at every layer; its value has its last layer's rows
        deep = mlp(g, (h, 0, 3), wb, identity(2), buffers(np.zeros((4, 2))), hidden="tanh", seeds=[1])
        for n in (1, 5):  # one graph for every width
            g.eval({h: np.ones((3, n)), stacked: np.ones((9, n))})
            assert g.value(plain).shape == (2, n)
            assert g.value(two_stacked).shape == (6, n)
            assert g.value(two_seeded).shape == (6, n)
            assert g.value(deep).shape == (8, n)

    def test_mlp_stacks_its_inputs(self):
        g = Graph()
        a = g.input()
        b = g.input()
        total = mlp(g, [(a, 0, 2), (b, 0, 1)], buffers(np.ones((1, 3))))  # sum of the three entries
        g.eval({a: [[1.0], [2.0]], b: [[3.0]]})
        assert np.array_equal(g._chains[total][0], [[1.0], [2.0], [3.0]])  # the chain's input
        assert scalar(g, total) == 6.0

    def test_width_free_inputs_share_one_width(self):
        g = Graph()
        a = g.input()
        b = g.input()
        total = mlp(g, [(a, 0, 2), (b, 0, 1)], buffers(np.ones((1, 3))))
        for n in (4, 1):
            g.eval({a: np.ones((2, n)), b: np.ones((1, n))})
            assert g.value(total).shape == (1, n)
            assert np.array_equal(g.value(total), np.full((1, n), 3.0))

    def test_deterministic_reeval_bit_identical(self):
        g, params, bindings, seeds = random_graph(7)
        first = [v.copy() for v in g.eval(bindings)]
        g.grad(seeds)
        grads1 = [grad.copy() for _, _, grad in params]
        second = g.eval(bindings)
        g.grad(seeds)
        for a, b in zip(first, second):
            assert np.array_equal(a, b)
        for (_, _, grad), before in zip(params, grads1):
            assert np.array_equal(before, grad)

    def test_layer_binds_caller_buffers(self):
        g = Graph()
        x = g.input()
        value, grad = np.array([[3.0]]), np.zeros((1, 1))
        p = mlp(g, (x, 0, 1), (value, np.zeros((1, 1)), grad, np.zeros((1, 1))))
        g.eval({x: ONE})
        (layer,) = g.nodes[p].payload[1]
        assert layer[0] is value and layer[2] is grad
        g.grad({p: 2.0 * g.value(p)})  # the adjoint of p^2
        assert grad[0, 0] == 6.0
        value[0, 0] = 2.0  # an in-place edit reaches the next eval and grad
        g.eval({x: ONE})
        g.grad({p: 2.0 * g.value(p)})
        assert grad[0, 0] == 4.0


class TestLayer:
    @pytest.mark.parametrize("activation", ["tanh", "linear"])
    def test_seeded_tangents_equal_stacked_basis_input(self, activation):
        # seeding tangent j from w[:, c_j] is w @ e_{c_j} without the product; an identity
        # last layer lets the first one apply ``activation``
        rng = np.random.default_rng(5)
        g = Graph()
        wb = buffers(rng.normal(size=(3, 4)), rng.normal(size=(3, 1)))
        h = g.input()
        basis = g.input()
        seeded = mlp(g, (h, 0, 4), wb, identity(3), hidden=activation, seeds=[2, 0])
        stacked = mlp(g, [(h, 0, 4), (basis, 0, 8)], wb, identity(3), hidden=activation, k=2)
        x = rng.normal(size=(4, 5))
        e = np.zeros((8, 5))
        e[2] = e[4] = 1.0
        g.eval({h: x, basis: e})
        assert np.array_equal(g.value(seeded), g.value(stacked))
        z = wb[0] @ x + wb[1]
        assert np.array_equal(g.value(seeded)[:3], np.tanh(z) if activation == "tanh" else z)

    def test_range_reads_one_block(self):
        # an mlp reads rows start..stop-1 of its input; an identity layer passes them through
        g = Graph()
        x = g.input()
        mid = mlp(g, (x, 2, 4), identity(2))
        g.eval({x: np.arange(18.0).reshape(6, 3)})
        assert g.value(mid).shape == (2, 3)
        assert np.array_equal(g.value(mid), np.arange(6.0, 12.0).reshape(2, 3))


class TestGrad:
    def test_tanh_grad_at_zero(self):
        g, bound = Graph(), {}
        p, dp = bind(g, [[0.0]], bound)
        root = act(g, p, "tanh")
        g.eval(bound)
        g.grad({root: ONE})
        assert float(dp[0, 0]) == 1.0

    def test_relu_subgradient_at_zero_is_zero(self):
        g, bound = Graph(), {}
        p, dp = bind(g, [[0.0]], bound)
        root = act(g, p, "relu")
        g.eval(bound)
        g.grad({root: ONE})
        assert float(dp[0, 0]) == 0.0

    def test_grad_before_eval_rejected(self):
        g, bound = Graph(), {}
        p, _ = bind(g, [[0.0]], bound)
        root = act(g, p, "tanh")
        with pytest.raises(GraphError, match="eval"):
            g.grad({root: ONE})

    def test_failed_eval_leaves_no_stale_pass(self):
        g = Graph()
        x = g.input()
        root = act(g, x, "tanh")
        g.eval({x: ONE})
        with pytest.raises(ValueError):
            g.eval({x: np.ones((0, 1))})  # a binding with too few rows for its range fails in the mlp
        with pytest.raises(GraphError, match="not been evaluated"):
            g.value(root)
        with pytest.raises(GraphError, match="eval before grad"):
            g.grad({root: ONE})

    def test_unreached_parameter_gets_zeros(self):
        g, bound = Graph(), {}
        p, dp = bind(g, [[1.0], [1.0]], bound)
        q, dq = bind(g, [[2.0]], bound)
        x = g.input()
        dp.fill(np.nan)  # a stale gradient is overwritten, not kept
        g.eval({**bound, x: [[5.0]]})
        g.grad({q: 2.0 * g.value(q), x: ONE})  # q's seed is the adjoint of q^2; an input's seed reaches no parameter
        assert np.array_equal(dp, np.zeros((2, 1)))
        assert float(dq[0, 0]) == 4.0
        g.grad({})
        assert not dp.any() and not dq.any()

    def test_non_finite_adjoint_is_written_unchecked(self):
        # the graph checks no finiteness in grad, as in eval; the buffers' owner does
        g, bound = Graph(), {}
        p, dp = bind(g, [[1e308]], bound)
        with np.errstate(over="ignore"):
            g.eval(bound)
            g.grad({p: 2.0 * g.value(p)})  # the adjoint of p^2 overflows
        assert not np.isfinite(dp).all()

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_central_finite_differences(self, seed):
        # the gradient of sum_n <seed_n, value_n> over random seeds on every
        # parameter-reaching node, so no entry is zero by construction
        g, params, bindings, seeds = random_graph(seed)
        g.eval(bindings)
        if not relu_inputs_safe(g)[0]:
            pytest.skip("relu pre-activation too close to 0 for finite differences")
        g.grad(seeds)
        assert_matches_fd(g, bindings, seeds, params)

    def test_linearity_of_gradients(self):
        g, bound = Graph(), {}
        p, dp = bind(g, [[0.3, -1.1], [0.7, 0.2]], bound)
        r2 = act(g, p, "tanh", rows=2)
        r1 = act(g, r2, "tanh", rows=2)  # tanh(tanh(p)), through r2
        rng = np.random.default_rng(3)
        s1, s2 = rng.normal(size=(2, 2, 2))
        a, b = 1.7, -0.4
        g.eval(bound)
        g.grad({r1: s1})
        g1 = dp.copy()
        g.grad({r2: s2})
        g2 = dp.copy()
        g.grad({r1: a * s1, r2: b * s2})
        gc = dp
        assert np.abs(gc - (a * g1 + b * g2)).max() <= 1e-12

import numpy as np
import pytest

from pinnrul import EvaluationError, Graph, GraphError

from conftest import fd_tolerance_ok, random_graph, relu_inputs_safe

TANH_HALF = 0.46211715726000974  # tanh(0.5), frozen from direct evaluation


def scalar(g, nid):
    return float(g.value(nid)[0, 0])


def bind(g, value):
    """A parameter bound to a float64 copy of ``value`` and a fresh gradient; returns (id, gradient)."""
    value = np.array(value, dtype=np.float64)
    grad = np.zeros_like(value)
    return g.parameter(value, grad), grad


def act(g, x, activation):
    """``activation`` applied entrywise to ``x``: a layer with identity weight and zero bias."""
    rows = g.shape_of(x)[0]
    w, _ = bind(g, np.eye(rows))
    b, _ = bind(g, np.zeros((rows, 1)))
    return g.layer(w, x, b, activation)


class TestBuildAndEval:
    def test_tanh_of_half(self):
        g = Graph()
        x = g.input((1, 1))
        y = act(g, x, "tanh")
        g.eval({x: [[0.5]]})
        assert scalar(g, y) == pytest.approx(TANH_HALF, abs=1e-12)

    def test_tanh_of_zero(self):
        g = Graph()
        x = g.input((1, 1))
        y = act(g, x, "tanh")
        g.eval({x: [[0.0]]})
        assert scalar(g, y) == 0.0

    def test_relu_negative(self):
        g = Graph()
        x = g.input((1, 1))
        y = act(g, x, "relu")
        g.eval({x: [[-1.0]]})
        assert scalar(g, y) == 0.0

    def test_mse_at_perfect_fit(self):
        g = Graph()
        x = g.input((3, 1))
        target = g.input((3, 1))
        loss = g.mean(g.square(g.subtract(x, target)))
        g.eval({x: [[0.3], [-1.2], [4.0]], target: [[0.3], [-1.2], [4.0]]})
        assert scalar(g, loss) == 0.0

    def test_layer_shapes(self):
        g = Graph()
        w, _ = bind(g, np.zeros((2, 3)))
        b, _ = bind(g, np.zeros((2, 1)))
        assert g.shape_of(g.layer(w, g.input((3, 1)), b)) == (2, 1)
        # two tangents: stacked input of 3 blocks, or seeded from h alone
        assert g.shape_of(g.layer(w, g.input((9, None)), b, "tanh", 2)) == (6, None)
        assert g.shape_of(g.layer(w, g.input((3, None)), b, "tanh", seeds=[0, 2])) == (6, None)
        with pytest.raises(GraphError, match="6 rows"):
            g.layer(w, g.input((3, 1)), b, "tanh", 1)
        with pytest.raises(GraphError, match="out of range"):
            g.layer(w, g.input((3, 1)), b, "tanh", seeds=[3])
        with pytest.raises(GraphError, match="bias"):
            g.layer(w, g.input((3, 1)), w)
        with pytest.raises(GraphError, match="relu"):
            g.layer(w, g.input((6, 1)), b, "relu", 1)
        with pytest.raises(GraphError, match="activation"):
            g.layer(w, g.input((3, 1)), b, "sigmoid")

    def test_add_shape_mismatch_names_both_shapes(self):
        g = Graph()
        a = g.input((2, 3))
        v = g.input((4, 1))
        with pytest.raises(GraphError, match=r"\(2, 3\).*\(4, 1\)"):
            g.add(a, v)

    def test_unknown_op_kind(self):
        g = Graph()
        with pytest.raises(GraphError, match="conv"):
            g.build("conv", ())

    def test_dangling_id(self):
        g = Graph()
        x = g.input((1, 1))
        with pytest.raises(GraphError, match="dangling"):
            g.square(x + 5)

    def test_unbound_input_named(self):
        g = Graph()
        x = g.input((1, 1))
        g.square(x)
        with pytest.raises(EvaluationError, match=f"node {x}"):
            g.eval({})

    def test_concat_and_sum(self):
        g = Graph()
        a = g.input((2, 1))
        b = g.input((1, 1))
        cat = g.concat([a, b])
        total = g.scale(g.mean(cat), 3.0)  # sum of the three entries
        g.eval({a: [[1.0], [2.0]], b: [[3.0]]})
        assert g.value(cat).shape == (3, 1)
        assert scalar(g, total) == 6.0

    def test_width_free_inputs_share_one_width(self):
        g = Graph()
        a = g.input((2, None))
        b = g.input((1, None))
        cat = g.concat([a, b])
        assert g.shape_of(cat) == (3, None)
        g.eval({a: np.ones((2, 4)), b: np.ones((1, 4))})
        assert g.value(cat).shape == (3, 4)
        with pytest.raises(EvaluationError, match=f"node {b}"):
            g.eval({a: np.ones((2, 4)), b: np.ones((1, 1))})

    def test_deterministic_reeval_bit_identical(self):
        g, params, bindings, root = random_graph(7)
        first = [v.copy() for v in g.eval(bindings)]
        g.grad(root)
        grads1 = [grad.copy() for _, _, grad in params]
        second = g.eval(bindings)
        g.grad(root)
        for a, b in zip(first, second):
            assert np.array_equal(a, b)
        for (_, _, grad), before in zip(params, grads1):
            assert np.array_equal(before, grad)

    def test_parameter_binds_caller_buffers(self):
        g = Graph()
        value, grad = np.array([[3.0]]), np.zeros((1, 1))
        p = g.parameter(value, grad)
        root = g.square(p)
        g.eval()
        assert g.value(p) is value
        g.grad(root)
        assert grad[0, 0] == 6.0
        value[0, 0] = 2.0  # an in-place edit reaches the next eval and grad
        g.eval()
        g.grad(root)
        assert grad[0, 0] == 4.0

    def test_parameter_buffers_checked(self):
        g = Graph()
        with pytest.raises(GraphError, match="float64"):
            g.parameter([[1.0]], np.zeros((1, 1)))
        with pytest.raises(GraphError, match="float64"):
            g.parameter(np.ones((1, 1), dtype=np.int64), np.zeros((1, 1)))
        with pytest.raises(GraphError, match="float64"):
            g.parameter(np.ones(2), np.zeros(2))
        with pytest.raises(GraphError, match=r"\(2, 1\).*\(1, 2\)"):
            g.parameter(np.ones((2, 1)), np.zeros((1, 2)))
        with pytest.raises(GraphError, match="nonempty"):
            g.parameter(np.ones((0, 1)), np.zeros((0, 1)))


class TestLayer:
    @pytest.mark.parametrize("activation", ["tanh", "linear"])
    def test_seeded_tangents_equal_stacked_basis_input(self, activation):
        # seeding tangent j from w[:, c_j] is w @ e_{c_j} without the product
        rng = np.random.default_rng(5)
        g = Graph()
        w, _ = bind(g, rng.normal(size=(3, 4)))
        b, _ = bind(g, rng.normal(size=(3, 1)))
        h = g.input((4, None))
        basis = g.input((8, None))
        seeded = g.layer(w, h, b, activation, seeds=[2, 0])
        stacked = g.layer(w, g.concat([h, basis]), b, activation, 2)
        x = rng.normal(size=(4, 5))
        e = np.zeros((8, 5))
        e[2] = e[4] = 1.0
        g.eval({h: x, basis: e})
        assert np.array_equal(g.value(seeded), g.value(stacked))
        z = g.value(w) @ x + g.value(b)
        assert np.array_equal(g.value(seeded)[:3], np.tanh(z) if activation == "tanh" else z)

    def test_rows_reads_one_block(self):
        g = Graph()
        x = g.input((6, None))
        mid = g.rows(x, 2, 4)
        assert g.shape_of(mid) == (2, None)
        g.eval({x: np.arange(18.0).reshape(6, 3)})
        assert np.array_equal(g.value(mid), np.arange(6.0, 12.0).reshape(2, 3))
        with pytest.raises(GraphError, match="out of range"):
            g.rows(x, 4, 7)


class TestGrad:
    def test_tanh_grad_at_zero(self):
        g = Graph()
        p, dp = bind(g, [[0.0]])
        root = act(g, p, "tanh")
        g.eval()
        g.grad(root)
        assert float(dp[0, 0]) == 1.0

    def test_square_grad(self):
        g = Graph()
        p, dp = bind(g, [[3.0]])
        root = g.square(p)
        g.eval()
        g.grad(root)
        assert float(dp[0, 0]) == 6.0

    def test_relu_subgradient_at_zero_is_zero(self):
        g = Graph()
        p, dp = bind(g, [[0.0]])
        root = act(g, p, "relu")
        g.eval()
        g.grad(root)
        assert float(dp[0, 0]) == 0.0

    def test_non_scalar_root_rejected(self):
        g = Graph()
        p, _ = bind(g, [[1.0], [2.0]])
        y = g.square(p)
        g.eval()
        with pytest.raises(GraphError, match="scalar"):
            g.grad(y)

    def test_grad_before_eval_rejected(self):
        g = Graph()
        p, _ = bind(g, [[0.0]])
        root = g.square(p)
        with pytest.raises(EvaluationError):
            g.grad(root)

    def test_unreached_parameter_gets_zeros(self):
        g = Graph()
        p, dp = bind(g, [[1.0], [1.0]])
        q, dq = bind(g, [[2.0]])
        dp.fill(np.nan)  # a stale gradient is overwritten, not kept
        root = g.square(q)
        g.eval()
        g.grad(root)
        assert np.array_equal(dp, np.zeros((2, 1)))
        assert float(dq[0, 0]) == 4.0

    def test_non_finite_adjoint_is_written_unchecked(self):
        # the graph checks no finiteness in grad, as in eval; the buffers' owner does
        g = Graph()
        p, dp = bind(g, [[1e308]])
        root = g.mean(g.square(g.square(p)))
        with np.errstate(over="ignore"):
            g.eval()
            g.grad(root)
        assert not np.isfinite(dp).all()

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_central_finite_differences(self, seed):
        g, params, bindings, root = random_graph(seed)
        assert g.nodes[root].reaches
        values = g.eval(bindings)
        if not relu_inputs_safe(g, values):
            pytest.skip("relu pre-activation too close to 0 for finite differences")
        g.grad(root)
        h = 1e-6
        for p, buf, grad in params:
            it = np.nditer(buf, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                old = buf[idx]
                buf[idx] = old + h
                g.eval(bindings)
                up = scalar(g, root)
                buf[idx] = old - h
                g.eval(bindings)
                down = scalar(g, root)
                buf[idx] = old
                fd = (up - down) / (2 * h)
                assert fd_tolerance_ok(grad[idx], fd, rel=1e-5, abs_tol=1e-8), (
                    f"node {p}{idx}: analytic {grad[idx]} vs fd {fd}"
                )
        g.eval(bindings)

    def test_linearity_of_gradients(self):
        g = Graph()
        p, dp = bind(g, [[0.3, -1.1], [0.7, 0.2]])
        r1 = g.mean(g.square(p))
        r2 = g.mean(act(g, p, "tanh"))
        a, b = 1.7, -0.4
        combined = g.add(g.scale(r1, a), g.scale(r2, b))
        g.eval()
        g.grad(r1)
        g1 = dp.copy()
        g.grad(r2)
        g2 = dp.copy()
        g.grad(combined)
        gc = dp
        assert np.abs(gc - (a * g1 + b * g2)).max() <= 1e-12

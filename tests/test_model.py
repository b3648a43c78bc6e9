import dataclasses
import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from pinnrul import (
    AugmentedSamples,
    EngineTrajectory,
    NormStats,
    NumericError,
    PinnConfig,
    PinnModel,
    augment,
    init_model,
    load_model,
    save_model,
    split_indices,
    train,
)
import pinnrul.graph
import pinnrul.model
from pinnrul.graph import Graph
from pinnrul.model import CHUNK, HIDDEN, _layout, _Pass, _residual
from pinnrul.net import GraphMlp, _chain, _chain_grad

from conftest import (
    dyn_preactivations_safe,
    fd_gradient,
    fd_tolerance_ok,
    grad_views,
    random_batch,
    random_samples,
    small_random_model,
)


def residual_inputs(model, oc, t):
    """(dx/dt, dRUL/dx, dRUL/dt) at one point, read from the model's forward-only pass and ``_residual``."""
    p = model._forward(model._inputs(oc, [t]))
    drul_dt, _ = _residual(p)
    return [float(row[0, 0]) for row in (p.dx_dt, p.drul_dx, drul_dt)]


def residual_at(model, oc, t):
    """The rate-law residual f at one point, in normalized units, from ``_residual``."""
    return float(_residual(model._forward(model._inputs(oc, [t])))[1][0, 0])


def readers(model, samples):
    """Calls of the three readers, ``sweep``, ``latent_map`` and ``rmse_eval``, on ``samples``."""
    engine = EngineTrajectory(1, samples.rows, model.norm.columns)
    return (
        lambda: model.sweep(samples.rows[0], [1.0]),
        lambda: model.latent_map(samples, np.arange(len(samples))),
        lambda: model.rmse_eval([engine], [1.0]),
    )


def fleet_samples(model, seed=0, engines=6):
    """The augmented samples of a few engines of 40-60 logged rows in the model's columns."""
    rng, columns = np.random.default_rng(seed), model.norm.columns
    lives = rng.integers(40, 61, engines)
    trajs = [EngineTrajectory(u, rng.normal(size=(life, len(columns))), columns) for u, life in enumerate(lives, start=1)]
    return augment(trajs, horizon=30, columns=columns)


def zeroed(model, net):
    """Zero every weight and bias of network ``net`` (x, rul or dyn) in place."""
    for name, view in model.parameter_items():
        if name.startswith(f"{net}."):
            view[...] = 0.0


def rate_network(model, g):
    """The model's rate network emitted into graph ``g``, on the same buffers."""
    return GraphMlp(g, HIDDEN["dyn"], model._layers["dyn"])


@pytest.fixture
def model():
    return small_random_model(2024, d_oc=2)


class TestConfig:
    def test_default_architecture(self):
        cfg = PinnConfig.default(14)
        assert cfg.widths["x"] == (15, 3, 3, 3, 3, 3, 1)
        assert cfg.widths["rul"] == (2, 10, 10, 10, 10, 10, 1)
        assert cfg.widths["dyn"] == (2, 10, 10, 10, 10, 10, 1)
        assert HIDDEN["dyn"] == "relu"
        assert cfg.pde_weight == 1.0 and cfg.t_scale == 30.0

    def test_needs_a_feature(self):
        with pytest.raises(ValueError, match="^d_oc must be >= 1$"):
            PinnConfig(d_oc=0)

    def test_negative_penalty_weight_rejected(self):
        with pytest.raises(ValueError):
            PinnConfig.default(2, pde_weight=-0.5)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["pde_weight", "t_scale"])
    def test_non_finite_cost_setting_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite and "):
            PinnConfig.default(2, **{name: value})


class TestPointOps:
    def test_latent_zero_net_is_zero(self, model):
        zeroed(model, "x")
        assert model.sweep([0.3, -0.7], [12.0])[0][1] == 0.0
        assert model.sweep([5.0, 5.0], [0.0])[0][1] == 0.0

    def test_latent_deterministic(self, model):
        oc = [0.4, 1.2]
        assert model.sweep(oc, [0.0])[0][1] == model.sweep(oc, [0.0])[0][1]

    def test_latent_hand_evaluation(self):
        # the paper's x net, (2, 3, 3, 3, 3, 3, 1): h = tanh(W h + b) five times, then x = W h + b
        rng = np.random.default_rng(5)
        config = PinnConfig(d_oc=1)
        widths = config.widths["x"]
        weights = [(rng.normal(size=(o, i)), rng.normal(size=(o, 1))) for i, o in zip(widths, widths[1:])]
        norm = NormStats(means=np.array([2.0]), stds=np.array([4.0]), rul_max=100.0, columns=["s1"])
        model = init_model(config, norm, 0)
        views = dict(model.parameter_items())
        for i, (w, b) in enumerate(weights, start=1):
            views[f"x.W{i}"][...] = w
            views[f"x.b{i}"][...] = b

        oc, t = 3.0, 15.0
        h = np.array([[(oc - 2.0) / 4.0], [t / 30.0]])
        for w, b in weights[:-1]:
            h = np.tanh(w @ h + b)
        expected = float((weights[-1][0] @ h + weights[-1][1])[0, 0])
        assert model.sweep([oc], [t])[0][1] == pytest.approx(expected, abs=1e-12)

    def test_wrong_oc_length(self, model):
        with pytest.raises(ValueError, match="2"):
            model.sweep([1.0, 2.0, 3.0], [0.0])

    @pytest.mark.parametrize("rows, t_list", [(1, [0.0]), (2, [0.0, 0.0])])
    def test_oc_of_more_than_two_dimensions_rejected(self, model, rows, t_list):
        with pytest.raises(ValueError, match=rf"shape \({rows}, 2, 1\)"):
            model.sweep(np.zeros((rows, 2, 1)), t_list)

    def test_oc_rows_must_match_time_values(self, model):
        # sweep repeats each oc row once per horizon: 2 rows and 3 horizons make 6 rows
        with pytest.raises(ValueError, match="6 oc rows vs 3 time values"):
            model.sweep(np.zeros((2, 2)), [0.0, 1.0, 2.0])

    @pytest.mark.parametrize("order", ["sorted", "shuffled"])
    @pytest.mark.parametrize("method", ["cost", "cost_values"])
    def test_labels_are_rul0_minus_t(self, model, method, order):
        # each sample is fitted to its logged row's RUL less its horizon, on either gather path
        samples = fleet_samples(model, engines=20)
        idx = np.arange(300, 364)
        if order == "shuffled":
            idx = np.random.default_rng(2).permutation(len(samples))[:64]
        row = samples.row[idx]
        assert (row.max() - row.min() + 1 <= len(idx)) == (order == "sorted")
        s = model._inputs(samples.rows[row], samples.t[idx])
        want = model._loss(samples.rul0[row] - samples.t[idx], model._forward(s))[2:]
        got = getattr(model, method)(samples, idx)
        assert (tuple(got) if method == "cost_values" else (got.mse, got.pde, got.total)) == want

    @pytest.mark.parametrize("delta", [-1, 1], ids=["fewer", "more"])
    @pytest.mark.parametrize("method", ["sweep", "cost", "cost_values", "latent_map", "mean_cost"])
    def test_feature_count_must_match_d_oc(self, model, method, delta):
        # checked before any gather, normalization or product, so it never fails inside numpy
        d = model.config.d_oc + delta
        samples = random_samples(model, 4, n=6)
        samples = dataclasses.replace(samples, rows=np.random.default_rng(4).normal(size=(6, d)))
        rows = np.arange(6)
        calls = {
            "sweep": lambda: model.sweep(samples.rows[0], [0.0, 1.0]),
            "cost": lambda: model.cost(samples, rows),
            "cost_values": lambda: model.cost_values(samples, rows),
            "latent_map": lambda: model.latent_map(samples, rows),
            "mean_cost": lambda: model.mean_cost(samples, rows),
        }
        with pytest.raises(ValueError, match=f"^oc has {d} features, model expects d_oc={model.config.d_oc}$"):
            calls[method]()

    @pytest.mark.parametrize("method", ["latent_map", "mean_cost"])
    def test_sample_set_times_must_be_nonnegative(self, model, method):
        samples = random_samples(model, 5, n=6)
        samples.t[3] = -1
        with pytest.raises(ValueError, match="^time horizons must be finite and >= 0$"):
            getattr(model, method)(samples, np.arange(6))

    def test_negative_horizon_rejected(self, model):
        with pytest.raises(ValueError):
            model.sweep([0.0, 0.0], [-1.0])

    def test_predict_zero_rul_net(self, model):
        zeroed(model, "rul")
        assert model.sweep([0.2, 0.9], [7.0])[0][3] == 0.0


class TestResidual:
    def test_zero_rul_net_reduces_to_dynamics_output(self, model):
        zeroed(model, "rul")
        oc, t = [0.4, 0.1], 5.0
        dx_dt, drul_dx, drul_dt = residual_inputs(model, oc, t)
        assert drul_dt == 0.0 and drul_dx == 0.0

        g = Graph()
        rate_network(model, g).forward((0, 0, 2))
        (out,) = g.eval(np.array([[dx_dt], [0.0]]))
        assert residual_at(model, oc, t) == pytest.approx(-float(out[0, 0]), abs=1e-12)

    def test_finite_difference_reconstruction(self, model):
        oc, t = [0.35, -0.6], 9.0
        h = 1e-4
        dx_dt, drul_dx, drul_dt = residual_inputs(model, oc, t)
        f = residual_at(model, oc, t)

        g = Graph()
        rate_network(model, g).forward((0, 0, 2))
        (out,) = g.eval(np.array([[dx_dt], [drul_dx]]))
        dyn_value = float(out[0, 0])

        fd_drul_dt = (
            (model.sweep(oc, [t + h])[0][3] - model.sweep(oc, [t - h])[0][3])
            / (2 * h * model.norm.rul_max)
            * model.config.t_scale
        )
        assert fd_tolerance_ok(f, fd_drul_dt - dyn_value, rel=1e-4, abs_tol=1e-8)
        assert drul_dt == pytest.approx(fd_drul_dt, rel=1e-4)

    def test_dyn_oracle_zeroes_residual_term(self, model):
        breakdown = model.cost(random_samples(model, 5, n=6), np.arange(6), dyn_oracle=True)
        assert abs(breakdown.pde) <= 1e-12

    def test_dyn_oracle_gradient_of_the_rate_network_is_zero(self, model):
        # the oracle cost does not depend on the rate network, even right after a cost that does
        samples, idx = random_samples(model, 5, n=6), np.arange(6)
        assert grad_views(model, model.cost(samples, idx).grad)["dyn.W1"].any()
        grads = grad_views(model, model.cost(samples, idx, dyn_oracle=True).grad)
        assert not any(view.any() for name, view in grads.items() if name.startswith("dyn."))
        assert grads["x.W1"].any() and grads["rul.W1"].any()

    def test_pure_bitwise(self, model):
        oc, t = [1.0, 2.0], 4.0
        assert residual_at(model, oc, t) == residual_at(model, oc, t)


class TestCost:
    def test_perfect_fit_is_zero(self, model):
        zeroed(model, "rul")
        samples = random_samples(model, 3, n=5)
        samples.rul0[...] = samples.t  # every label rul0 - t is 0
        breakdown = model.cost(samples, np.arange(5), dyn_oracle=True)
        assert breakdown.mse == 0.0 and breakdown.pde == 0.0 and breakdown.total == 0.0

    def test_lambda_zero_total_is_mse(self):
        model = small_random_model(77, d_oc=3, pde_weight=0.0)
        breakdown = model.cost(random_samples(model, 8, n=4), np.arange(4))
        assert abs(breakdown.total - breakdown.mse) <= 1e-12

    def test_lambda_scaling(self):
        base = small_random_model(31, d_oc=2, pde_weight=1.0)
        samples, idx = random_samples(base, 9, n=4), np.arange(4)
        b1 = base.cost(samples, idx)
        c = 3.5
        scaled = small_random_model(31, d_oc=2, pde_weight=c)
        s1 = scaled.cost(samples, idx)
        assert (s1.total - s1.mse) == pytest.approx(c * (b1.total - b1.mse), rel=1e-12)

    def test_total_is_mse_plus_weighted_pde(self, model):
        breakdown = model.cost(random_samples(model, 11, n=4), np.arange(4))
        assert breakdown.total == pytest.approx(
            breakdown.mse + model.config.pde_weight * breakdown.pde, abs=1e-12
        )

    def test_empty_batch_rejected(self, model):
        # before the gather's row.min(), whose numpy message names nothing
        samples = random_samples(model, 0, n=4)
        for cost in (model.cost, model.cost_values):
            with pytest.raises(ValueError, match="^no samples to gather$"):
                cost(samples, np.arange(0))

    def test_mean_cost_over_no_rows_rejected(self, model):
        samples = augment([EngineTrajectory(1, np.arange(8.0).reshape(4, 2), ["s1", "s2"])], horizon=0, columns=["s1", "s2"])
        with pytest.raises(ValueError, match="^mean_cost needs samples$"):
            model.mean_cost(samples, np.array([], dtype=np.intp))

    def test_gradients_cover_all_parameters(self, model):
        breakdown = model.cost(random_samples(model, 13, n=4), np.arange(4))
        names = [name for name, _ in model.parameter_items()]
        assert breakdown.grad.shape == model.theta.shape
        assert sorted(grad_views(model, breakdown.grad)) == sorted(names)
        assert any(name.startswith("dyn.") for name in names)

    def test_gradients_match_finite_differences(self):
        checked = 0
        seed = 0
        while checked < 3:
            seed += 1
            model = small_random_model(seed, d_oc=2)
            samples = random_samples(model, seed + 1000, n=4)
            if not dyn_preactivations_safe(model, samples):
                continue
            grads = grad_views(model, model.cost(samples, np.arange(4)).grad)
            for name, buf in model.parameter_items():
                it = np.nditer(buf, flags=["multi_index"])
                for _ in it:
                    idx = it.multi_index
                    fd = fd_gradient(model, samples, name, idx)
                    assert fd_tolerance_ok(grads[name][idx], fd), (
                        f"seed {seed} {name}{idx}: {grads[name][idx]} vs {fd}"
                    )
            checked += 1

    def test_cost_bitwise_identical(self, model):
        samples, idx = random_samples(model, 21, n=5), np.arange(5)
        a = model.cost(samples, idx)
        b = model.cost(samples, idx)
        assert a.total == b.total
        assert np.array_equal(a.grad, b.grad)

    def test_breakdowns_do_not_share_a_gradient(self, model):
        a = model.cost(random_samples(model, 24, n=5), np.arange(5))
        kept = a.grad.copy()
        b = model.cost(random_samples(model, 25, n=5), np.arange(5))
        assert not np.shares_memory(a.grad, b.grad)
        assert np.array_equal(a.grad, kept)
        assert not np.array_equal(a.grad, b.grad)

    def test_non_finite_gradient_names_its_buffer(self, model, monkeypatch):
        # poison two gradient buffers inside Graph.grad; cost's one check names the first
        samples = random_samples(model, 26, n=4)
        model._graph  # builds the graph and its gradient vector
        layers = _layout(model.config, model.theta, model._grad)
        bad = (layers["rul"][0][3], layers["dyn"][-1][2])  # gradients of rul.b1, the last dyn.W
        grad = Graph.grad

        def poisoned(graph, seeds):
            grad(graph, seeds)
            for buf in bad:
                buf[-1, -1] = np.nan

        monkeypatch.setattr(Graph, "grad", poisoned)
        with pytest.raises(NumericError, match=r"^non-finite gradient of rul\.b1$"):
            model.cost(samples, np.arange(4))

    def test_mean_cost_matches_single_batch(self, model, monkeypatch):
        monkeypatch.setattr("pinnrul.model.MEAN_CHUNK", 3)
        samples = random_samples(model, 22, n=10)
        rows = np.arange(len(samples))
        mse, pde, total = model.mean_cost(samples, rows)
        one = model.cost_values(samples, rows)
        assert mse == pytest.approx(one[0], rel=1e-12)
        assert pde == pytest.approx(one[1], rel=1e-12)
        assert total == pytest.approx(one[2], rel=1e-12)

    def test_non_finite_outputs_raise(self, model):
        # finite weights whose products overflow: no reader may hand back inf
        views, last = dict(model.parameter_items()), len(model.config.widths["rul"]) - 1
        views[f"rul.W{last}"][...] = 1e308
        views[f"rul.b{last}"][...] = 1e308
        samples = random_samples(model, 23, n=3)
        with np.errstate(over="ignore", invalid="ignore"):
            for read in readers(model, samples):
                with pytest.raises(NumericError, match=r"^non-finite rul output$"):
                    read()
            with pytest.raises(NumericError):
                model.mean_cost(samples, np.arange(len(samples)))

    def test_non_finite_latent_raises_in_every_reader(self, model):
        # the last hidden x layer outputs tanh(1) per unit, so x = 1e308 * (3 tanh(1) + 1) overflows;
        # dx/dt is 0 and the RUL stays finite, and rmse_eval, which prints only the RUL, still refuses
        views, last = dict(model.parameter_items()), len(model.config.widths["x"]) - 1
        views[f"x.W{last - 1}"][...] = 0.0
        views[f"x.b{last - 1}"][...] = 1.0
        views[f"x.W{last}"][...] = 1e308
        views[f"x.b{last}"][...] = 1e308
        samples = random_samples(model, 23, n=3)
        with np.errstate(over="ignore", invalid="ignore"):
            for read in readers(model, samples):
                with pytest.raises(NumericError, match=r"^non-finite x output$"):
                    read()


class TestParameterVector:
    def test_views_tile_theta_in_order(self, model):
        items = model.parameter_items()
        assert [name for name, _ in items[:4]] == ["x.W1", "x.b1", "x.W2", "x.b2"]
        assert items[-1][0] == f"dyn.b{len(model.config.widths['dyn']) - 1}"
        base = model.theta.__array_interface__["data"][0]
        offset = 0
        for name, view in items:
            assert np.shares_memory(view, model.theta), name
            assert view.__array_interface__["data"][0] - base == 8 * offset, name
            offset += view.size
        assert offset == model.theta.size == model.config.n_params

    def test_each_layer_binds_theta_and_gradient_views_at_one_offset(self, model):
        address = lambda a: a.__array_interface__["data"][0]
        layers = [bufs for _, payload in model._graph.nodes for bufs in payload[1]]
        theta, grad = model.theta, model._grad  # made with the graph, just above
        assert 2 * len(layers) == len(model.parameter_items())
        offsets = []
        for w, b, dw, db in layers:
            for value, gradient in ((w, dw), (b, db)):
                assert np.shares_memory(value, theta) and np.shares_memory(gradient, grad)
                assert gradient.shape == value.shape
                offsets.append(address(value) - address(theta))
                assert address(gradient) - address(grad) == offsets[-1]
        assert sorted(offsets) == [address(view) - address(theta) for _, view in model.parameter_items()]

    def test_buffer_at_names_each_buffer_at_its_first_and_last_offset(self, model):
        items = model.parameter_items()
        assert len(items) == 36
        start = 0
        for name, view in items:
            assert model._buffer_at(start) == name
            assert model._buffer_at(start + view.size - 1) == name
            start += view.size

    @pytest.mark.parametrize("name, last", [("x.W1", True), ("dyn.b6", False)])
    def test_non_finite_entry_at_a_buffer_edge_names_that_buffer(self, model, monkeypatch, name, last):
        # the entry next to a neighbouring buffer: the last of x.W1 (x.b1 follows), the first of dyn.b6
        names = [n for n, _ in model.parameter_items()]
        views = dict(model.parameter_items())
        offset = sum(views[n].size for n in names[: names.index(name)]) + (views[name].size - 1 if last else 0)
        bad = model.theta.copy()
        bad[offset] = np.nan
        with pytest.raises(ValueError) as exc:
            PinnModel(model.config, bad, model.norm)
        assert str(exc.value) == f"non-finite parameter {name}"

        grad = Graph.grad

        def poisoned(graph, seeds):
            grad(graph, seeds)
            model._grad[offset] = np.inf

        monkeypatch.setattr(Graph, "grad", poisoned)
        with pytest.raises(NumericError) as exc:
            model.cost(random_samples(model, 27, n=4), np.arange(4))
        assert str(exc.value) == f"non-finite gradient of {name}"

    @pytest.mark.parametrize("scheme, digest", [("xavier", "443d7b5bb72a86cd")])
    def test_init_draws_are_pinned(self, scheme, digest):
        # the seeded draws of init_model, and so every trained model.bin, rest on these bits
        norm = NormStats(np.zeros(14), np.ones(14), 100.0, [f"s{i}" for i in range(14)])
        model = init_model(PinnConfig.default(14), norm, 7, scheme)
        assert hashlib.sha256(model.theta.tobytes()).hexdigest().startswith(digest)

    def test_model_file_header_is_pinned(self, tmp_path):
        # perfbench/reference.py reads this header, specs included; the fixed architecture writes the same bytes
        norm = NormStats(np.zeros(14), np.ones(14), 100.0, [f"s{i}" for i in range(14)])
        save_model(init_model(PinnConfig.default(14), norm, 7, "xavier"), tmp_path / "m.bin")
        _, length, rest = (tmp_path / "m.bin").read_bytes().split(b"\n", 2)
        header = rest[: int(length)]
        assert json.loads(header)["model"]["x_spec"] == {"hidden": "tanh", "output": "linear", "widths": [15, 3, 3, 3, 3, 3, 1]}
        assert hashlib.sha256(header).hexdigest() == "65fbe505ce243a3a89812db2123f206492de677a19c9882702e8580c5ddf074c"

    def test_model_file_body_is_theta(self, model, tmp_path):
        save_model(model, tmp_path / "m.bin")
        _, length, rest = (tmp_path / "m.bin").read_bytes().split(b"\n", 2)
        assert rest[int(length) + 1 :] == model.theta.astype("<f8").tobytes()

    def test_in_place_edit_reaches_built_graph(self, model):
        samples, idx = random_samples(model, 41, n=5), np.arange(5)
        oc = samples.rows[0]
        before = (model.sweep(oc, [3.0])[0][3], model.cost(samples, idx).total)
        model.theta *= 0.5  # the graph exists now and holds views, not copies
        fresh = PinnModel(model.config, model.theta.copy(), model.norm)
        after = (model.sweep(oc, [3.0])[0][3], model.cost(samples, idx))
        assert after[0] != before[0] and after[1].total != before[1]
        assert after[0] == fresh.sweep(oc, [3.0])[0][3]
        want = fresh.cost(samples, idx)
        assert after[1].total == want.total
        assert np.array_equal(after[1].grad, want.grad)

    def test_replace_binds_the_new_vectors(self, model):
        samples, idx = random_samples(model, 42, n=5), np.arange(5)
        model.cost(samples, idx)  # builds the original's graph
        half = dataclasses.replace(model, theta=model.theta * 0.5)
        want = PinnModel(model.config, model.theta * 0.5, model.norm).cost(samples, idx)
        got = half.cost(samples, idx)
        assert got.total == want.total
        assert np.array_equal(got.grad, want.grad)

    @pytest.mark.parametrize("attr", ["theta"])
    def test_views_cannot_be_rebound(self, model, attr):
        with pytest.raises(AttributeError):
            setattr(model, attr, None)

    def test_theta_must_fit_the_architecture(self, model):
        with pytest.raises(ValueError, match="shape"):
            PinnModel(model.config, model.theta[:-1].copy(), model.norm)
        bad = model.theta.copy()
        bad[-1] = np.nan
        with pytest.raises(ValueError, match=r"non-finite parameter dyn\.b\d+$"):
            PinnModel(model.config, bad, model.norm)


class TestWiring:
    def test_one_graph_serves_every_batch_width(self, model, monkeypatch):
        built = []
        original = Graph.__init__

        def counting_init(self):
            built.append(self)
            original(self)

        monkeypatch.setattr(Graph, "__init__", counting_init)
        model = PinnModel(model.config, model.theta.copy(), model.norm)  # builds its graph at its first cost, and only then
        first = random_samples(model, 30, n=7)
        before = model.cost(first, np.arange(7))
        for n in (1, 7, 512, 4096):
            samples, rows = random_samples(model, 30 + n, n=n), np.arange(n)
            model.cost(samples, rows)
            model.cost(samples, rows, dyn_oracle=True)
            assert len(model.latent_map(samples, rows)) == n
            assert len(model.sweep(samples.rows[0], samples.t.astype(float))) == n
        assert len(built) == 1
        after = model.cost(first, np.arange(7))
        assert after.total == before.total
        assert np.array_equal(after.grad, before.grad)


    @pytest.mark.parametrize("source", ["batch", "snapshot", "range", "split", "permutation"])
    @pytest.mark.parametrize("n", [1, 7, 512])
    def test_x_network_input_is_fortran_ordered(self, model, n, source):
        # each sample's d_oc + 1 inputs lie side by side, the order the first layer's BLAS
        # products read; a C-ordered array of the same values changes cost's gradient bits
        d = model.config.d_oc
        rng = np.random.default_rng(n)
        if source in ("batch", "snapshot"):
            oc = rng.normal(size=d if source == "snapshot" else (n, d))
            t = rng.uniform(0.0, 50.0, n)
            x_in = model._inputs(oc, t, snapshot=source == "snapshot")
        else:
            # _gather stacks a sample set's rows as _inputs stacks the batch take gathers, bit for bit:
            # a canonical range, a sorted split chunk across engines, a permutation whose rows span the
            # table, each a single sample at n = 1; the buffer is made wider, as by an earlier chunk
            samples = fleet_samples(model)
            idx = {
                "range": np.arange(len(samples) // 3, len(samples) // 3 + n),
                "split": np.sort(rng.choice(len(samples), n, replace=False)).astype(np.int32),
                "permutation": rng.permutation(len(samples))[:n],
            }[source]
            bufs = {}
            model._gather(samples, np.arange(n + 5), bufs)
            x_in, rul = model._gather(samples, idx, bufs)
            batch = samples.take(idx)
            assert np.array_equal(x_in, model._inputs(batch.oc, batch.t))
            assert np.array_equal(rul, batch.rul)
            t = batch.t
            if source != "range" and n > 1:
                assert len(np.unique(samples.row_unit[samples.row.take(idx)])) > 1
        assert x_in.shape == (d + 1, n)
        assert x_in.flags.f_contiguous
        np.testing.assert_array_equal(x_in[d], t / model.config.t_scale)

    def test_readers_and_training_make_no_take_call(self, model, monkeypatch):
        # latent_map, mean_cost and each training batch's cost gather into the x network's input
        # themselves; the readers take several chunks each, the last one narrower, and the 64-sample
        # batches read rows from across the table
        monkeypatch.setattr("pinnrul.model.CHUNK", 500)
        monkeypatch.setattr("pinnrul.model.MEAN_CHUNK", 300)
        samples = fleet_samples(model)
        rows = np.arange(len(samples), dtype=np.int32)
        runs = (
            lambda: model.latent_map(samples, rows),
            lambda: model.mean_cost(samples, rows),
            lambda: train(model, samples, 3, 4, epochs=1, batch_size=64)[0].theta.tobytes(),
        )
        want = [run() for run in runs]

        def no_take(self, idx):
            raise AssertionError("AugmentedSamples.take called")

        monkeypatch.setattr(AugmentedSamples, "take", no_take)
        got = [run() for run in runs]
        assert np.array_equal(got[0], want[0]) and got[1:] == want[1:]

    def test_gather_normalizes_by_work(self, model, monkeypatch):
        # a set whose logged rows, smallest to largest, are no more than its samples normalizes that
        # span once, a view of the row table; any other set, such as a shuffled batch, only its own rows
        samples = fleet_samples(model, engines=20)
        normalized = []
        normalize = PinnModel._normalize

        def spy(self, oc, t):
            normalized.append((len(oc), np.shares_memory(oc, samples.rows)))
            return normalize(self, oc, t)

        def gather(idx):
            normalized.clear()
            model._gather(samples, idx, {})
            return normalized

        monkeypatch.setattr(PinnModel, "_normalize", spy)
        shuffled = np.random.default_rng(0).permutation(len(samples))[:512].astype(np.int32)
        assert gather(shuffled) == [(512, False)]
        chunk = np.sort(split_indices(len(samples), 3)[0])[1000:1512]
        span = int(samples.row[chunk[-1]] - samples.row[chunk[0]]) + 1
        assert span < 512 and gather(chunk) == [(span, True)]
        # the t = 0 samples of consecutive logged rows: a span of exactly n takes the span path, n + 1 does not
        firsts = np.flatnonzero(samples.t == 0)
        assert gather(firsts[10:50]) == [(40, True)]
        assert gather(np.delete(firsts[10:51], 20)) == [(40, False)]

    def test_shuffled_gather_makes_no_copy_of_the_row_table(self, model):
        # samples.rows is Fortran-ordered, and rows.take(row, axis=0) would first copy all of it to C order
        samples = fleet_samples(model, engines=300)
        idx = np.random.default_rng(1).permutation(len(samples))[:512]
        _, first, peak = traced_calls(lambda: model._gather(samples, idx, {}))
        assert max(first, peak) < samples.rows.nbytes / 2, f"a 512-sample gather peaked at {max(first, peak)} bytes"

    def test_model_graph_is_3_mlps_over_one_input(self, model):
        # node 0 is the input eval binds, the x network's stacked [oc; t], and then one mlp per
        # network, which reads row ranges of it and of earlier mlps; the graph has no other node kind
        graph, d = init_model(PinnConfig.default(model.config.d_oc), model.norm)._graph, model.config.d_oc
        assert len(graph.nodes) == 3
        assert [inputs for inputs, _ in graph.nodes] == [((0, 0, d + 1),), ((1, 0, 1), (0, d, d + 1)), ((1, 1, 2), (2, 1, 2))]
        assert [payload[0] for _, payload in graph.nodes] == [HIDDEN[net] for net in ("x", "rul", "dyn")]
        for name in ("OP_KINDS", "_Node"):
            assert not hasattr(pinnrul.graph, name)
        assert not hasattr(Graph, "input") and not hasattr(Graph, "value") and not hasattr(pinnrul.model, "_Wiring")

    @pytest.mark.parametrize("dyn_oracle", [False, True])
    @pytest.mark.parametrize("n", [1, 7, 512])
    def test_cost_gradient_equals_the_chain_backward(self, n, dyn_oracle):
        # the graph's reverse sweep against the three chains walked backward by hand from the
        # cost's adjoints: the rate network's input adjoint joins the dx/dt and dRUL/dx seeds,
        # then the RUL network's, whose x row and the dx/dt adjoint seed the x network
        for seed in range(30):
            model = small_random_model(seed)
            samples = random_samples(model, 100 + seed, n=n)
            want = np.zeros_like(model.theta)
            layers, d_oc = _layout(model.config, model.theta, want), model.config.d_oc
            s = model._inputs(samples.rows, samples.t)  # one logged row per sample
            xs = _chain(HIDDEN["x"], layers["x"], s, 1, (d_oc,))
            ruls = _chain(HIDDEN["rul"], layers["rul"], np.concatenate([xs[-1][:1], s[-1:]]), 2, (0, 1))
            dyns = _chain(HIDDEN["dyn"], layers["dyn"], np.concatenate([xs[-1][1:], ruls[-1][1:2]]), 0, None)
            p = _Pass(xs[-1][:1], xs[-1][1:], ruls[-1][:1], ruls[-1][1:2], ruls[-1][2:], dyns[-1])
            d = (samples.rul0 - samples.t).reshape(1, -1) / model.norm.rul_max - p.rul
            a_f = model.config.pde_weight / n * (2.0 * _residual(p, dyn_oracle)[1])
            a_dyn = _chain_grad(HIDDEN["dyn"], layers["dyn"], dyns, None if dyn_oracle else -a_f, 0, None, True)
            a_dx_dt, a_drul_dx = a_f * p.drul_dx, a_f * p.dx_dt
            if a_dyn is not None:
                a_dx_dt, a_drul_dx = a_dx_dt + a_dyn[:1], a_drul_dx + a_dyn[1:]
            a_rul = np.concatenate([-(1.0 / n * (2.0 * d)), a_drul_dx, a_f])
            a_x = _chain_grad(HIDDEN["rul"], layers["rul"], ruls, a_rul, 2, (0, 1), True)[:1]
            _chain_grad(HIDDEN["x"], layers["x"], xs, np.concatenate([a_x, a_dx_dt]), 1, (d_oc,), False)
            assert model.cost(samples, np.arange(n), dyn_oracle).grad.tobytes() == want.tobytes(), seed

    def test_outputs_equal_plain_recurrence_bitwise(self):
        # z = W h + b, y = tanh z, t' = (1 - y^2) (W t); last layer linear
        d_oc, n = 3, 9
        config = PinnConfig.default(d_oc)
        rng = np.random.default_rng(8)
        norm = NormStats(rng.normal(size=d_oc), rng.uniform(0.5, 2.0, d_oc), 90.0, ["a", "b", "c"])
        model = init_model(config, norm, 17, scheme="xavier")
        oc = rng.normal(size=(n, d_oc))
        t = rng.integers(0, 31, n).astype(float)

        views = dict(model.parameter_items())

        def chain(net, h, coords):
            tans = []
            for c in coords:
                tans.append(np.zeros(h.shape))
                tans[-1][c] = 1.0
            depth = sum(name.startswith(f"{net}.W") for name in views)
            for i in range(1, depth + 1):
                w, b = views[f"{net}.W{i}"], views[f"{net}.b{i}"]
                z = w @ h + b
                if i == depth:
                    h, tans = z, [w @ tan for tan in tans]
                else:
                    h = np.tanh(z)
                    tans = [(1.0 - h * h) * (w @ tan) for tan in tans]
            return h, tans

        t_n = (t / config.t_scale).reshape(1, n)
        x, (dx_dt,) = chain("x", np.vstack([((oc - norm.means) / norm.stds).T, t_n]), [d_oc])
        rul, _ = chain("rul", np.vstack([x, t_n]), [0, 1])
        p = model._eval_batch(model._inputs(oc, t))
        for got, want in ((p.x, x), (p.dx_dt, dx_dt), (p.rul, rul)):
            assert np.array_equal(got, want)

    def test_reads_equal_the_graph_bitwise(self, model):
        # _read runs the x and RUL chains without the graph; the cost's graph must give the same rows
        trained, _ = train(model, random_samples(model, 50, n=64), 1, 2, epochs=3, batch_size=16)
        for n in (1, 31, 4096):
            batch = random_batch(trained, 50 + n, n=n)
            s = trained._inputs(batch.oc, batch.t)
            rows = trained._read(s)
            p = trained._eval_batch(s)
            want = p.x[0], p.dx_dt[0], p.rul[0] * trained.norm.rul_max
            for got, row in zip(rows, want):
                assert np.array_equal(got, row), n

    def test_forward_only_costs_equal_the_graph_bitwise(self, model, monkeypatch):
        # cost_values and mean_cost run _forward, not the graph; the graph must give the same rows and cost's
        # graph the same (mse, pde, total)
        trained, _ = train(model, random_samples(model, 53, n=64), 1, 2, epochs=3, batch_size=16)
        for n in (1, 31, 4096):
            samples, idx = random_samples(trained, 53 + n, n=n), np.arange(n)
            s = trained._inputs(samples.rows, samples.t)
            for got, want in zip(trained._forward(s), trained._eval_batch(s)):
                assert np.array_equal(got, want), n
            graph = trained.cost(samples, idx)
            assert trained.cost_values(samples, idx) == (graph.mse, graph.pde, graph.total), n
        # chunks of 13, 13, 13 and 1 rows, in a shuffled order: the last reuses the buffers of a wider one
        monkeypatch.setattr("pinnrul.model.MEAN_CHUNK", 13)
        samples = random_samples(trained, 54, n=40)
        rows = np.random.default_rng(54).permutation(40).astype(np.int32)
        mse_sum = pde_sum = 0.0
        for start in range(0, 40, 13):
            part = rows[start : start + 13]
            graph = trained.cost(samples, part)
            mse_sum += graph.mse * len(part)
            pde_sum += graph.pde * len(part)
        mse, pde = mse_sum / 40, pde_sum / 40
        assert trained.mean_cost(samples, rows) == (mse, pde, mse + trained.config.pde_weight * pde)

    def test_reads_build_no_graph(self, model, tmp_path, monkeypatch):
        built = []
        original = Graph.__init__

        def counting_init(self):
            built.append(self)
            original(self)

        monkeypatch.setattr(Graph, "__init__", counting_init)
        save_model(model, tmp_path / "m.bin")
        loaded = load_model(tmp_path / "m.bin")
        samples, rows = random_samples(loaded, 51, n=9), np.arange(9)
        loaded.sweep(samples.rows[0], [0.0, 1.0, 2.0])
        loaded.latent_map(samples, rows)
        loaded.cost_values(samples, rows)
        loaded.mean_cost(samples, rows)
        assert "_graph" not in loaded.__dict__ and not built
        # nor a gradient: no layer holds a gradient view, and the first cost makes the vector
        assert "_grad" not in loaded.__dict__
        assert all(dw is None and db is None for layers in loaded._layers.values() for *_, dw, db in layers)
        grad = loaded.cost(samples, rows).grad
        assert loaded.__dict__["_grad"].shape == loaded.theta.shape
        graph = loaded.__dict__["_graph"]
        loaded.cost(samples, rows)
        assert loaded._graph is graph and len(built) == 1
        # the same bits as a model whose graph is built before any read
        want = PinnModel(loaded.config, loaded.theta.copy(), loaded.norm).cost(samples, rows).grad
        assert grad.tobytes() == want.tobytes()


def traced_calls(run):
    """(held, first peak, second peak) in bytes traced by two calls of ``run``, above what was traced before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run()
        held, first = (m - base for m in tracemalloc.get_traced_memory())
        tracemalloc.reset_peak()
        run()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return held, first, peak


class TestHeldPass:
    @pytest.mark.parametrize("method", ["_eval_batch", "cost_values", "_read"])
    def test_next_pass_releases_the_held_one_first(self, model, method):
        # the graph holds one width-CHUNK pass between calls, which grad reads; building the next beside it
        # would double it. A read or a forward-only cost holds nothing once its result is dropped.
        samples = random_samples(model, 52, n=CHUNK)
        runs = {
            "_eval_batch": lambda: model._eval_batch(model._inputs(samples.rows, samples.t)),
            "cost_values": lambda: model.cost_values(samples, np.arange(CHUNK)),
            "_read": lambda: model._read(model._inputs(samples.rows, samples.t)),
        }
        held, first, peak = traced_calls(runs[method])
        if method == "_eval_batch":
            assert peak < 1.5 * held, f"second pass peaked at {peak} bytes, {peak / held:.2f} x the {held} held"
            return
        assert held < first / 100, f"a dropped call left {held} of its {first} bytes traced"
        assert peak <= held + first, f"second call peaked at {peak} bytes, the first at {first}"
        if method == "cost_values":
            # its chains keep only their current layers, in reused buffers, so it peaks well below the graph's pass
            graph_held = traced_calls(runs["_eval_batch"])[0]
            assert first <= 0.6 * graph_held, f"cost_values peaked at {first} bytes, the graph holds {graph_held}"

    def test_read_writes_its_layers_into_two_buffers_per_network(self, model):
        # each chain's layers alternate between two buffers: about 1.3 MB above entry at CHUNK wide,
        # where a new array per layer took about 3.0 MB
        batch = random_batch(model, 58, n=CHUNK)
        _, first, peak = traced_calls(lambda: model._read(model._inputs(batch.oc, batch.t)))
        assert max(first, peak) < 2.5e6, f"_read peaked at {max(first, peak)} bytes above its entry"

    def test_mean_cost_peaks_near_one_chunk(self, model):
        # MEAN_CHUNK-sample chunks in one reused buffer set: about 2 MB above entry here, where
        # 4,096-sample chunks took about 4 MB
        samples = random_samples(model, 56, n=4 * 2048)
        rows = np.arange(len(samples), dtype=np.int32)
        _, first, peak = traced_calls(lambda: model.mean_cost(samples, rows))
        assert max(first, peak) < 3e6, f"mean_cost peaked at {max(first, peak)} bytes above its entry"


class TestInspection:
    def test_latent_map_empty(self, model):
        assert model.latent_map(random_samples(model, 1, n=2), np.array([], dtype=int)).shape == (0, 4)

    def test_latent_map_single_matches_predict(self, model):
        samples, rows = random_samples(model, 17, n=1), np.arange(1)
        table = model.latent_map(samples, rows)
        batch = samples.take(rows)
        assert table.shape == (1, 4)
        (_, x, _, rul), = model.sweep(batch.oc[0], [float(batch.t[0])])
        assert table[0, 2] == rul
        assert table[0, 3] == float(batch.rul[0])
        assert table[0, 0] == x

    def test_latent_map_preserves_order(self, model, monkeypatch):
        monkeypatch.setattr("pinnrul.model.CHUNK", 3)
        samples = random_samples(model, 18, n=7)
        rows = np.random.default_rng(18).permutation(7)
        table = model.latent_map(samples, rows)
        assert table.shape == (7, 4)
        assert np.array_equal(table[:, 3], samples.take(rows).rul)

    def test_horizon_sweep_entries(self, model):
        oc = [0.1, 0.2]
        rows = model.sweep(oc, [0.0, 1.0, 2.0])
        assert [r[0] for r in rows] == [0.0, 1.0, 2.0]
        assert rows == model.sweep(oc, [0.0, 1.0, 2.0])

    def test_horizon_sweep_validation(self, model):
        with pytest.raises(ValueError):
            model.sweep([0.0, 0.0], [])
        with pytest.raises(ValueError):
            model.sweep([0.0, 0.0], [-1.0])

    def test_rmse_eval_arithmetic(self, model):
        rng = np.random.default_rng(3)
        trajs = [EngineTrajectory(u, rng.normal(size=(5, 2)), ["s1", "s2"]) for u in (1, 2)]
        preds = [model.sweep(t.features[-1], [0.0])[0][3] for t in trajs]
        rmse0, pairs = model.rmse_eval(trajs, preds)
        assert rmse0 == pytest.approx(0.0, abs=1e-9)
        assert [p[0] for p in pairs] == [1, 2]

        rmse2, _ = model.rmse_eval(trajs, [preds[0], preds[1] + 2.0])
        assert rmse2 == pytest.approx(np.sqrt(2.0), abs=1e-9)

    def test_rmse_eval_count_mismatch(self, model):
        traj = EngineTrajectory(1, np.zeros((3, 2)), ["s1", "s2"])
        with pytest.raises(ValueError):
            model.rmse_eval([traj], [1.0, 2.0])

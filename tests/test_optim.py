import dataclasses
import math

import numpy as np
import pytest

from pinnrul import (
    NadamConfig,
    NadamState,
    NumericError,
    PinnConfig,
    SynthSpec,
    augment,
    fit_norm,
    init_model,
    nadam_step,
    select_features,
    split_indices,
    synth_generate,
    train,
)
from pinnrul.graph import Graph
from pinnrul.optim import BETA1, BETA2, EPS

from conftest import grad_views


@pytest.fixture(scope="module")
def tiny_dataset():
    trajectories, _ = synth_generate(SynthSpec(n_engines=4, min_life=36, max_life=44, seed=5))
    columns = select_features(trajectories)
    samples = augment(trajectories, horizon=30, columns=columns)
    norm = fit_norm(samples)
    return samples, norm


class TestNadamStep:
    def test_zero_gradient_no_motion(self):
        theta = np.array([1.0, -2.0, 0.5])
        state = NadamState(theta)
        nadam_step(state, theta, np.zeros(3), NadamConfig())
        assert np.array_equal(theta, np.array([1.0, -2.0, 0.5]))
        assert np.array_equal(state.m, np.zeros(3))
        assert np.array_equal(state.v, np.zeros(3))
        assert state.step == 1

    def test_hand_computed_first_step(self):
        # theta0=1, g=2, lr=0.1 and Nadam's constants: m=0.2, v=0.004, mhat=0.2/0.19, vhat=4
        assert (BETA1, BETA2, EPS) == (0.9, 0.999, 1e-7)
        theta = np.array([1.0])
        state = NadamState(theta)
        nadam_step(state, theta, np.array([2.0]), NadamConfig(lr=0.1))
        assert float(theta[0]) == pytest.approx(0.8526316, abs=1e-6)
        assert float(state.m[0]) == pytest.approx(0.2, abs=1e-15)
        assert float(state.v[0]) == pytest.approx(0.004, abs=1e-15)

    def test_two_runs_bit_identical(self):
        def run():
            rng = np.random.default_rng(8)
            theta = rng.normal(size=6)
            state = NadamState(theta)
            for _ in range(25):
                nadam_step(state, theta, theta * 0.1, NadamConfig())
            return theta

        assert np.array_equal(run(), run())

    def test_non_finite_gradient_named(self):
        theta = np.ones(5)
        state = NadamState(theta)
        with pytest.raises(NumericError, match="non-finite gradient"):
            nadam_step(state, theta, np.array([1.0, 1.0, 1.0, 1.0, np.nan]), NadamConfig())
        assert np.array_equal(theta, np.ones(5)) and state.step == 0

    def test_gradient_of_another_shape_rejected(self):
        theta = np.ones(5)
        with pytest.raises(ValueError, match=r"^gradient shape \(4,\) does not match parameters \(5,\)$"):
            nadam_step(NadamState(theta), theta, np.ones(4), NadamConfig())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            NadamConfig(lr=0.0)
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError, match=f"^lr must be finite and > 0, got {value}$"):
                NadamConfig(lr=value)


class TestSplit:
    def test_eight_samples(self):
        train_idx, val_idx = split_indices(8, split_seed=0)
        assert len(train_idx) == 6 and len(val_idx) == 2

    def test_reference_dataset_counts(self):
        train_idx, val_idx = split_indices(593061, split_seed=123)
        assert len(train_idx) == 444795
        assert len(val_idx) == 148266

    @pytest.mark.parametrize("n", [1, 4, 5, 101, 4096, 593061])
    def test_partition(self, n):
        train_idx, val_idx = split_indices(n, split_seed=n)
        merged = np.sort(np.concatenate([train_idx, val_idx]))
        assert np.array_equal(merged, np.arange(n))
        assert len(val_idx) == -(-n // 4)
        # int32 parts of the int64 permutation, value for value
        assert train_idx.dtype == val_idx.dtype == np.int32
        assert np.array_equal(np.concatenate([val_idx, train_idx]), np.random.default_rng([n, 0]).permutation(n))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="^cannot split an empty dataset$"):
            split_indices(0, 0)

    def test_deterministic(self):
        a = split_indices(1000, split_seed=9)
        b = split_indices(1000, split_seed=9)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


class TestTrain:
    def test_validation_errors(self, tiny_dataset):
        samples, norm = tiny_dataset
        model = init_model(PinnConfig.default(len(norm.columns)), norm, 0)
        with pytest.raises(ValueError):
            train(model, samples, 0, 0, epochs=1, batch_size=0)
        with pytest.raises(ValueError):
            train(model, samples, 0, 0, epochs=1, batch_size=len(samples) + 1)
        with pytest.raises(ValueError):
            train(model, samples, 0, 0, epochs=0, batch_size=64)

    def test_empty_dataset_rejected(self, tiny_dataset):
        samples, norm = tiny_dataset
        model = init_model(PinnConfig.default(len(norm.columns)), norm, 0)
        empty = dataclasses.replace(samples, row=samples.row[:0], t=samples.t[:0])
        with pytest.raises(ValueError, match="^training dataset is empty$"):
            train(model, empty, 0, 0, epochs=1, batch_size=1)

    def test_report_shape_and_determinism(self, tiny_dataset):
        samples, norm = tiny_dataset
        model = init_model(PinnConfig.default(len(norm.columns), pde_weight=0.2), norm, 0)

        def run():
            return train(
                model, samples, split_seed=4, init_seed=6, epochs=3, batch_size=256,
                config=NadamConfig(lr=5e-3), scheme="xavier",
            )

        m1, r1 = run()
        m2, r2 = run()
        assert len(r1.per_epoch) == 3
        assert r1.per_epoch == r2.per_epoch
        assert r1.final_rmse_val == r2.final_rmse_val
        for (_, a), (_, b) in zip(m1.parameter_items(), m2.parameter_items()):
            assert np.array_equal(a, b)

    def test_losses_decrease_and_mostly_monotone(self, tiny_dataset):
        samples, norm = tiny_dataset
        model = init_model(PinnConfig.default(len(norm.columns), pde_weight=0.2), norm, 0)
        _, report = train(
            model, samples, split_seed=1, init_seed=2, epochs=12, batch_size=256,
            config=NadamConfig(lr=3e-3), scheme="xavier",
        )
        train_totals = [row[0] for row in report.per_epoch]
        val_totals = [row[3] for row in report.per_epoch]
        assert train_totals[-1] < train_totals[0]
        assert val_totals[-1] < val_totals[0]
        drops = sum(1 for a, b in zip(train_totals, train_totals[1:]) if b <= a)
        assert drops / (len(train_totals) - 1) >= 0.8

    def test_final_rmse_consistent_with_val_mse(self, tiny_dataset):
        samples, norm = tiny_dataset
        model = init_model(PinnConfig.default(len(norm.columns)), norm, 0)
        _, report = train(
            model, samples, split_seed=2, init_seed=3, epochs=2, batch_size=512,
            config=NadamConfig(lr=3e-3), scheme="xavier",
        )
        val_mse = report.per_epoch[-1][4]
        assert report.final_rmse_val == pytest.approx(np.sqrt(val_mse) * norm.rul_max, rel=1e-12)

    def test_report_round_trips_to_dict(self, tiny_dataset):
        samples, norm = tiny_dataset
        model = init_model(PinnConfig.default(len(norm.columns)), norm, 0)
        _, report = train(
            model, samples, split_seed=1, init_seed=1, epochs=1, batch_size=512,
            config=NadamConfig(lr=1e-3),
        )
        payload = report.to_dict()
        assert payload["epochs"] == 1
        assert list(payload["per_epoch"][0]) == list(report.EPOCH_FIELDS)

    def test_flat_vector_matches_per_buffer_reference(self, tiny_dataset, monkeypatch):
        samples, norm = tiny_dataset
        monkeypatch.setattr("pinnrul.model.MEAN_CHUNK", 257)  # several chunks per split
        model = init_model(PinnConfig.default(len(norm.columns), pde_weight=0.2), norm, 0)
        config = NadamConfig(lr=5e-3)
        split_seed, init_seed, epochs, batch_size = 3, 9, 2, 40
        trained, report = train(
            model, samples, split_seed, init_seed, epochs, batch_size, config=config, scheme="xavier"
        )

        # reference: one nadam_step per buffer, each with its own state, over the 36 buffers per
        # batch, each batch the training rows at permutation(n_train)'s positions; the epoch-end
        # means read each split in dataset order
        ref = init_model(model.config, norm, init_seed, "xavier")
        names = [name for name, _ in ref.parameter_items()]
        params = [buf for _, buf in ref.parameter_items()]
        states = [NadamState(buf) for buf in params]
        train_idx, val_idx = split_indices(len(samples), split_seed)
        sorted_rows = [np.sort(idx) for idx in (train_idx, val_idx)]
        n_batches = 0
        for epoch in range(epochs):
            order = np.random.default_rng([split_seed, 1 + epoch]).permutation(len(train_idx))
            for start in range(0, len(train_idx), batch_size):
                grads = grad_views(ref, ref.cost(samples.take(train_idx[order[start : start + batch_size]])).grad)
                for name, buf, state in zip(names, params, states):
                    nadam_step(state, buf, grads[name], config)
                n_batches += 1
            (tr_mse, tr_pde, tr_total), (va_mse, va_pde, va_total) = (
                ref.mean_cost(samples, rows) for rows in sorted_rows
            )
            assert report.per_epoch[epoch] == (tr_total, tr_mse, tr_pde, va_total, va_mse, va_pde)
        assert n_batches >= 4
        assert len(sorted_rows[0]) > 2 * 257
        assert [name for name, _ in trained.parameter_items()] == names
        for (name, got), want in zip(trained.parameter_items(), params):
            assert np.array_equal(got, want), name

    def test_non_finite_gradient_names_epoch_batch_and_parameter(self, tiny_dataset, monkeypatch):
        samples, norm = tiny_dataset
        model = init_model(PinnConfig.default(len(norm.columns)), norm, 0)
        grad = Graph.grad
        rul_1 = len(model.config.widths["x"]) - 1  # the first rul layer, after x's layers

        def poisoned(graph, seeds):
            grad(graph, seeds)
            layers = [bufs for _, payload in graph.nodes for bufs in payload[1]]
            layers[rul_1][3][0, 0] = np.nan  # its db

        monkeypatch.setattr(Graph, "grad", poisoned)
        with pytest.raises(NumericError, match=r"^epoch 0 batch 0: non-finite gradient of rul\.b1$"):
            train(model, samples, 0, 0, epochs=1, batch_size=64)

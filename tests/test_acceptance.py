"""Acceptance criteria, one test per criterion, one PASS/FAIL line each.

Criteria that need the real FD001 files look for them in $PINNRUL_CMAPSS_DIR
(or ./data) and skip when absent. The full-scale reproduction run is
opt-in via PINNRUL_RUN_FD001=1 because it trains ten models on CPU.
"""

import dataclasses
import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from pinnrul import (
    EngineTrajectory,
    NadamConfig,
    NadamState,
    PinnConfig,
    SynthSpec,
    augment,
    fit_norm,
    init_model,
    nadam_step,
    parse_cmapss,
    parse_rul_truth,
    select_features,
    split_indices,
    synth_generate,
    train,
    truncate_for_eval,
)
from pinnrul import cli
from pinnrul.model import _residual
from pinnrul.optim import BETA1, BETA2, EPS

from conftest import (
    drawn_mlp,
    dyn_preactivations_safe,
    fd_gradient,
    fd_tolerance_ok,
    grad_views,
    random_samples,
    small_random_model,
)
from test_net import eval_tangent, plain_forward


def fd001_dir():
    for candidate in (os.environ.get("PINNRUL_CMAPSS_DIR"), "data"):
        if candidate and (Path(candidate) / "train_FD001.txt").is_file():
            return Path(candidate)
    return None


def report(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


# -- 1: augmentation oracle --------------------------------------------------


def test_criterion_1_augmentation_oracle():
    # the augmentation rule itself, on a constructed 192-cycle trajectory
    traj = EngineTrajectory(1, np.random.default_rng(0).normal(size=(192, 3)), ["s1", "s2", "s3"])
    samples = augment([traj], horizon=30, columns=traj.columns)
    at_100 = np.flatnonzero(samples.cycle == 100)
    assert (samples.t[at_100[0]], samples.rul[at_100[0]]) == (0, 92)
    assert (samples.t[at_100[1]], samples.rul[at_100[1]]) == (1, 91)

    data_dir = fd001_dir()
    if data_dir is None:
        report(1, True, "augmentation rule verified on constructed data; FD001 files absent, count check skipped")
        pytest.skip("FD001 files not available")

    started = time.perf_counter()
    trajectories = parse_cmapss((data_dir / "train_FD001.txt").read_text())
    raw = sum(t.length for t in trajectories)
    augmented = len(augment(trajectories, horizon=30, columns=trajectories[0].columns))
    elapsed = time.perf_counter() - started
    ok = (len(trajectories), raw, augmented) == (100, 20631, 593061) and elapsed < 10
    report(1, ok, f"{len(trajectories)} engines, {raw} rows, {augmented} augmented in {elapsed:.1f}s")
    assert len(trajectories) == 100
    assert raw == 20631
    assert augmented == 593061
    assert elapsed < 10
    engine1 = [t for t in trajectories if t.unit_id == 1][0]
    assert engine1.length == 192


def test_criterion_2_split_figures():
    train_idx, val_idx = split_indices(593061, split_seed=0)
    ok = (len(train_idx), len(val_idx)) == (444795, 148266)
    report(2, ok, f"593061 -> {len(train_idx)} / {len(val_idx)}")
    assert len(train_idx) == 444795
    assert len(val_idx) == 148266


def test_criterion_3_gradient_correctness():
    started = time.perf_counter()
    checked = 0
    seed = 0
    worst = 0.0
    while checked < 20:
        seed += 1
        d_oc = 2 + (seed % 2)
        lam = (0.5, 1.0, 2.0)[seed % 3]
        model = small_random_model(seed, d_oc=d_oc, pde_weight=lam)
        samples = random_samples(model, 10_000 + seed, n=4)
        if not dyn_preactivations_safe(model, samples):
            continue
        grads = grad_views(model, model.cost(samples, np.arange(4)).grad)
        for name, buf in model.parameter_items():
            it = np.nditer(buf, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                fd = fd_gradient(model, samples, name, idx, h=1e-5)
                analytic = grads[name][idx]
                assert fd_tolerance_ok(analytic, fd, rel=1e-4, abs_tol=1e-8), (
                    f"config seed {seed}, {name}{idx}: analytic {analytic} vs fd {fd}"
                )
                if abs(fd) > 1e-3:
                    worst = max(worst, abs(analytic - fd) / abs(fd))
        checked += 1
    elapsed = time.perf_counter() - started
    report(3, elapsed < 60, f"{checked} configurations, worst relative error {worst:.2e}, {elapsed:.1f}s")
    assert elapsed < 60


def test_criterion_4_tangent_correctness():
    started = time.perf_counter()
    h = 1e-6
    for widths in ((2, 3, 3, 1), (3, 3, 3, 3, 3, 3, 1)):
        for draw in range(100):
            rng = np.random.default_rng((widths[0], draw))
            params = drawn_mlp(widths, draw)
            x = rng.normal(size=widths[0])
            coord = int(rng.integers(widths[0]))
            _, tan = eval_tangent(params, x, coord)
            step = np.zeros(widths[0])
            step[coord] = h
            fd = (plain_forward(params, x + step) - plain_forward(params, x - step)) / (2 * h)
            assert fd_tolerance_ok(tan[0, 0], fd[0, 0], rel=1e-5, abs_tol=1e-8), (
                f"spec {widths} draw {draw}: tangent {tan[0, 0]} vs fd {fd[0, 0]}"
            )
    elapsed = time.perf_counter() - started
    report(4, elapsed < 30, f"100 draws x 2 specs, {elapsed:.1f}s")
    assert elapsed < 30


def test_criterion_5_hand_step():
    assert (BETA1, BETA2, EPS) == (0.9, 0.999, 1e-7)
    params = [np.array([[1.0]])]
    state = NadamState(params[0])
    nadam_step(state, params[0], np.array([[2.0]]), NadamConfig(lr=0.1))
    value = float(params[0][0, 0])
    ok = abs(value - 0.8526316) <= 1e-6
    report("5 (hand step)", ok, f"theta1 = {value:.7f}")
    assert value == pytest.approx(0.8526316, abs=1e-6)


def nadam_step_bound(t, config):
    """Largest |step| at step t while the gradient keeps its sign and never grows."""
    b1 = BETA1
    return config.lr * (b1 * (1 - b1**t) / (1 - b1 ** (t + 1)) + (1 - b1) / (1 - b1**t))


# Travel from theta=5 to 0.5 is 4.5. The bound allows 1.4737*lr at step 1,
# falling toward lr, so 2000 steps at lr=1e-3 cover at most 2.0009 and no
# budget under 4500 steps can pass; 10000 steps leave over twice that margin.
CONVERGENCE_STEPS = 10_000


def test_criterion_5_convergence_smoke():
    # quadratic cost theta^2/2, gradient theta, default configuration
    config = NadamConfig()
    params = [np.array([[5.0]])]
    state = NadamState(params[0])
    # the bound holds while every gradient so far is positive and no larger
    # than the one before; the gradient at each step is theta itself
    steady, previous, checked = True, float("inf"), 0
    for t in range(1, CONVERGENCE_STEPS + 1):
        before = float(params[0][0, 0])
        steady = steady and 0 < before <= previous
        previous = before
        nadam_step(state, params[0], params[0].copy(), config)
        if steady:
            moved = abs(before - float(params[0][0, 0]))
            bound = nadam_step_bound(t, config)
            assert moved <= bound + np.spacing(before), f"step {t}: |dtheta| = {moved:.6e} > bound {bound:.6e}"
            checked += 1
    final = abs(float(params[0][0, 0]))
    ok = final < 0.5
    report(
        "5 (convergence smoke)",
        ok,
        f"|theta| = {final:.3g} after {CONVERGENCE_STEPS} steps at defaults, "
        f"step bound held on {checked} steps",
    )
    assert final < 0.5, (
        f"|theta| = {final:.3f} >= 0.5 after {CONVERGENCE_STEPS} steps at default lr; "
        "the step bound needs at least 4500 steps for the 4.5 of travel"
    )


# -- 6: synthetic end-to-end --------------------------------------------------

SYNTH_SPEC = SynthSpec(n_engines=20, min_life=40, max_life=80, n_sensors=8, noise_std=0.01, seed=7)
SYNTH_TRAIN = dict(split_seed=21, init_seed=4, epochs=50, batch_size=256)


@pytest.fixture(scope="module")
def synthetic_run():
    trajectories, _ = synth_generate(SYNTH_SPEC)
    columns = select_features(trajectories)
    samples = augment(trajectories, horizon=30, columns=columns)
    norm = fit_norm(samples)
    model = init_model(PinnConfig.default(len(columns), pde_weight=0.2), norm, SYNTH_TRAIN["init_seed"])
    started = time.perf_counter()
    trained, rep = train(
        model, samples, config=NadamConfig(lr=6e-3), scheme="xavier", **SYNTH_TRAIN
    )
    elapsed = time.perf_counter() - started
    return trained, rep, samples, columns, elapsed


def test_criterion_6_synthetic_end_to_end(synthetic_run):
    trained, rep, samples, columns, elapsed = synthetic_run
    last = rep.per_epoch[-1]
    gap = abs(last[0] - last[3]) / abs(last[3])

    holdout, _ = synth_generate(dataclasses.replace(SYNTH_SPEC, seed=SYNTH_SPEC.seed + 1))
    truncated, truth = truncate_for_eval(holdout, seed=SYNTH_SPEC.seed + 2)
    holdout_rmse, _ = trained.rmse_eval(truncated, truth)

    ok = rep.final_rmse_val <= 2.0 and gap < 0.05 and holdout_rmse <= 2.0 and elapsed < 300
    report(
        6,
        ok,
        f"validation RMSE {rep.final_rmse_val:.2f}, train/val gap {gap:.2%}, "
        f"held-out-engine RMSE {holdout_rmse:.2f}, {elapsed:.0f}s",
    )
    assert rep.final_rmse_val <= 2.0
    assert gap < 0.05
    assert holdout_rmse <= 2.0
    assert elapsed < 300


def test_criterion_6_horizon_sweep_oracle(synthetic_run):
    # labels drop one cycle per unit horizon; the trained model must track that
    trained, _, samples, _, _ = synthetic_run
    worst = 0.0
    for i in (100, 5000, 15000):
        rows = trained.sweep(samples.oc[i], [0, 1, 2, 3, 4, 5])
        r0 = rows[0][3]
        for k, (_, _, _, rul) in enumerate(rows):
            worst = max(worst, abs(r0 - k - rul))
    report("6 (horizon sweep)", worst < 2.0, f"max |rul(0) - k - rul(k)| = {worst:.2f}")
    assert worst < 2.0


def test_criterion_6_latent_map_structure(synthetic_run):
    # the health map must track the labels and vary coherently with x
    trained, _, samples, _, _ = synthetic_run
    table = trained.latent_map(samples, np.arange(0, len(samples), 7))
    x = table[:, 0]
    pred = table[:, 2]
    true = table[:, 3]
    fidelity = float(np.corrcoef(pred, true)[0, 1])
    alignment = abs(float(np.corrcoef(x, pred)[0, 1]))
    ok = fidelity > 0.99 and alignment > 0.5
    report("6 (latent map)", ok, f"corr(pred, true) {fidelity:.4f}, |corr(x, pred)| {alignment:.3f}")
    assert fidelity > 0.99
    assert alignment > 0.5


def test_criterion_7_fd001_reproduction(tmp_path):
    data_dir = fd001_dir()
    if data_dir is None:
        print("criterion 7: SKIP - FD001 files not available")
        pytest.skip("FD001 files not available")
    if os.environ.get("PINNRUL_RUN_FD001") != "1":
        print("criterion 7: SKIP - set PINNRUL_RUN_FD001=1 to run the ten-seed CPU training")
        pytest.skip("full FD001 training is opt-in")

    trajectories = parse_cmapss((data_dir / "train_FD001.txt").read_text())
    columns = select_features(trajectories)
    samples = augment(trajectories, horizon=30, columns=columns)
    norm = fit_norm(samples)
    test_trajs = parse_cmapss((data_dir / "test_FD001.txt").read_text())
    truth = parse_rul_truth((data_dir / "RUL_FD001.txt").read_text())

    rmses = []
    for seed in range(10):
        model = init_model(PinnConfig.default(len(columns)), norm, seed)
        trained, _ = train(
            model, samples, split_seed=0, init_seed=seed, epochs=30, batch_size=512,
            config=NadamConfig(lr=1e-2), scheme="xavier",
        )
        rmse, _ = trained.rmse_eval(test_trajs, truth)
        rmses.append(rmse)
    mean_rmse = float(np.mean(rmses))
    ok = abs(mean_rmse - 17.8) <= 3.0
    report(7, ok, f"10-seed mean test RMSE {mean_rmse:.2f} cycles (individual: {np.round(rmses, 1)})")
    assert abs(mean_rmse - 17.8) <= 3.0


def test_criterion_8_training_determinism(tmp_path):
    config = {
        "dataset": "synthetic",
        "synth": {"n_engines": 3, "min_life": 36, "max_life": 42, "n_sensors": 6, "noise_std": 0.01, "seed": 9},
        "model": {"lambda": 0.2},
        "optimizer": {"lr": 5e-3},
        "epochs": 2,
        "batch_size": 256,
        "split_seed": 3,
        "init_seed": 4,
        "init_scheme": "xavier",
    }
    blobs = []
    for run in ("a", "b"):
        cfg = dict(config, output_dir=str(tmp_path / run))
        path = tmp_path / f"{run}.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["train", "--config", str(path)]) == 0
        blobs.append((tmp_path / run / "model.bin").read_bytes())
    ok = blobs[0] == blobs[1]
    report(8, ok, f"two runs, {len(blobs[0])}-byte model files {'identical' if ok else 'differ'}")
    assert blobs[0] == blobs[1]


def test_criterion_9_residual_identity():
    model = small_random_model(424242, d_oc=3, pde_weight=1.0)
    samples, idx = random_samples(model, 515151, n=16), np.arange(16)
    oracle = model.cost(samples, idx, dyn_oracle=True)
    lam_zero = small_random_model(424242, d_oc=3, pde_weight=0.0)
    plain = lam_zero.cost(samples, idx)
    ok = abs(oracle.pde) <= 1e-12 and abs(plain.total - plain.mse) <= 1e-12
    report(9, ok, f"oracle pde {oracle.pde:.2e}, lambda=0 |total-mse| {abs(plain.total - plain.mse):.2e}")
    assert abs(oracle.pde) <= 1e-12
    assert abs(plain.total - plain.mse) <= 1e-12


# -- 10: the discovered rate law ----------------------------------------------

LAW_BOUND = 0.05  # on |mean dRUL/dt + 1|, |mean dyn + 1| (cycles per cycle) and rms f / rms dRUL/dt


def test_criterion_10_discovered_law(synthetic_run):
    # the synthetic labels fall one cycle per cycle of look-ahead, so the true law is dRUL/dt = -1;
    # the rate network, trained only through the residual, must have learned it
    trained, _, samples, _, _ = synthetic_run
    part = samples.take(np.arange(0, len(samples), 7))
    p = trained._forward(trained._inputs(part.oc, part.t))
    drul_dt, f = _residual(p)
    cycles = trained.norm.rul_max / trained.config.t_scale  # normalized rate -> cycles per cycle
    mean_rate = float(drul_dt.mean()) * cycles
    mean_dyn = float(p.dyn.mean()) * cycles
    ratio = float(np.sqrt(np.mean(f * f) / np.mean(drul_dt * drul_dt)))
    ok = abs(mean_rate + 1) < LAW_BOUND and abs(mean_dyn + 1) < LAW_BOUND and ratio < LAW_BOUND
    report(10, ok, f"mean dRUL/dt {mean_rate:.4f}, mean dyn {mean_dyn:.4f}, rms f / rms dRUL/dt {ratio:.4f}")
    assert abs(mean_rate + 1) < LAW_BOUND
    assert abs(mean_dyn + 1) < LAW_BOUND
    assert ratio < LAW_BOUND

"""The three benchmark workloads: train, predict and map.

Each workload has a ``setup`` (timed as ``setup_s``), an ``op`` that runs
one operation a user would run and returns its timing, and a ``check``
that verifies every recorded operation's output after measuring. All
inputs derive from the workload seed. A workload drives one build of
the library, ``lib``: ``pinnrul`` from ``src`` or the frozen
``yardstick`` copy that run.py times it against. Calls go through module
attributes (``lib.cli.train``, ``lib.cli.main``, ...) so that the
tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import time
from dataclasses import dataclass

import numpy as np

import reference

HORIZON = 30
PDE_WEIGHT = 0.2
LR = 6e-3
SPLIT_SEED = 21
INIT_SEED = 4
INIT_SCHEME = "xavier"
FLEET_SEED = 7  # of the train fleet and the served model's fleet
# FD001's engine lives and sensors with a quarter of its 100 engines: at
# seed 7, 5,523 rows and 159,588 augmented samples (FD001: 20,631 and
# 593,061). A quarter keeps a training run or an export near a second, so
# that a run holds enough program/yardstick pairs (see run.end_to_end).
TRAIN_FLEET = dict(n_engines=25, min_life=128, max_life=285, n_sensors=14, noise_std=0.01)
TRAIN_BATCH = 512
TRAIN_EPOCHS = 1
# The README fleet with FD001's 14 informative sensors, so a model trained
# on it reads the train fleet's columns too.
SERVED_FLEET = dict(n_engines=20, min_life=40, max_life=80, n_sensors=14, noise_std=0.01)
SERVED_BATCH = 256
SERVED_EPOCHS = 3
MAX_K = 31
PREDICT_HEADER = "t,x,dx_dt,rul_pred"
MAP_HEADER = "x,dx_dt,rul_pred,rul_true"


@dataclass
class Op:
    start: float  # perf_counter stamps: [start, end] is what the caller waits for,
    end: float
    rate_end: float  # [start, rate_end] the time the units are divided by
    units: float  # work done: training samples, requests or exported rows


def run_config(lib, fleet: dict, seed: int, epochs: int, batch: int, out_dir, split_seed=SPLIT_SEED, init_seed=INIT_SEED):
    return lib.cli.RunConfig(
        dataset="synthetic",
        synth=lib.data.SynthSpec(**fleet, seed=seed),
        pde_weight=PDE_WEIGHT,
        optimizer=lib.optim.NadamConfig(lr=LR),
        epochs=epochs,
        batch_size=batch,
        split_seed=split_seed,
        init_seed=init_seed,
        init_scheme=INIT_SCHEME,
        horizon=HORIZON,
        output_dir=str(out_dir),
    )


def fresh_model(lib, cfg):
    """``cli.build_training_data`` then ``init_model``, as ``pinnrul train`` does."""
    samples, norm = lib.cli.build_training_data(cfg)
    config = lib.model.PinnConfig.default(len(norm.columns), pde_weight=cfg.pde_weight, t_scale=cfg.t_scale)
    return samples, lib.cli.init_model(config, norm, cfg.init_seed, cfg.init_scheme)


def fit(lib, cfg, samples, model):
    return lib.cli.train(
        model,
        samples,
        split_seed=cfg.split_seed,
        init_seed=cfg.init_seed,
        epochs=cfg.epochs,
        batch_size=cfg.batch_size,
        config=cfg.optimizer,
        scheme=cfg.init_scheme,
    )


def sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Workload:
    name = ""
    setup_in_path = False  # whether the traced run covers setup

    def __init__(self, seed: int, workdir, lib):
        self.seed = seed
        self.workdir = workdir
        self.lib = lib
        self.model_path = workdir / "model.bin"
        self.val_rmse_cycles = float("nan")
        self.notes: dict = {}

    def traced_ops(self, seconds: float) -> int:
        raise NotImplementedError


class Train(Workload):
    name = "train"
    setup_in_path = True

    def __init__(self, seed, workdir, lib):
        super().__init__(seed, workdir, lib)
        # The fleet is fixed and the seed draws the split and the initial
        # weights: pinnrul caches one graph per batch width, so the fleet's
        # size modulo 512 and 4096 moves peak RSS (143-178 MB over fleet
        # seeds 11-19, at equal sizes to 0.5%).
        self.cfg = run_config(lib, TRAIN_FLEET, FLEET_SEED, TRAIN_EPOCHS, TRAIN_BATCH, workdir, seed, seed + 1)
        self.runs: list[tuple[str, float]] = []

    def setup(self):
        self.samples, self.model = fresh_model(self.lib, self.cfg)

    def op(self) -> Op:
        gc.collect()
        start = time.perf_counter()
        trained, report = fit(self.lib, self.cfg, self.samples, self.model)
        trained_at = time.perf_counter()
        self.lib.cli.save_model(trained, self.model_path)
        done = time.perf_counter()
        self.runs.append((sha256(self.model_path), report.final_rmse_val))
        n_train = len(self.samples) - -(-len(self.samples) // 4)
        return Op(start, done, trained_at, n_train * self.cfg.epochs)

    def traced_ops(self, seconds):
        return 2

    def check(self) -> tuple[int, bool]:
        """(failed runs, self-test ok). Runs of the same code must agree bit for bit."""
        digest, rmse = self.runs[0]
        failed = sum(run != (digest, rmse) for run in self.runs)
        self.val_rmse_cycles = rmse
        ref = reference.read_model_bin(self.model_path)
        # the validation split, recomputed as documented: ceil(n/4) from a seeded permutation
        n = len(self.samples)
        val = np.random.default_rng([self.cfg.split_seed, 0]).permutation(n)[: -(-n // 4)]
        oc, t, rul = self.samples.oc[val], self.samples.t[val], self.samples.rul[val]
        ref_rmse = reference.val_rmse(ref, oc, t, rul)
        agrees = np.isfinite(rmse) and abs(ref_rmse - rmse) <= 1e-9 * abs(ref_rmse)
        if not (agrees and sha256(self.model_path) == digest):
            failed = len(self.runs)
        moved = reference.val_rmse(ref.perturbed(), oc, t, rul)
        self.notes.update(
            model_sha256=digest,
            val_rmse_cycles=rmse,
            reference_val_rmse_cycles=ref_rmse,
            rows=int(np.unique(self.samples.unit * 100_000 + self.samples.cycle).shape[0]),
            samples=n,
            training_runs=len(self.runs),
        )
        return failed, abs(moved - rmse) > 1e-9 * abs(rmse)


def train_served_model(lib, workdir) -> float:
    """Set-up for predict and map: train the model they serve, return its validation RMSE.

    The served model is one fixed artifact, the README fleet's model; the
    workload seed draws what is asked of it. Its training set size, and
    with it the graph widths it caches, then does not vary between seeds.
    """
    cfg = run_config(lib, SERVED_FLEET, FLEET_SEED, SERVED_EPOCHS, SERVED_BATCH, workdir)
    samples, model = fresh_model(lib, cfg)
    trained, report = fit(lib, cfg, samples, model)
    lib.cli.save_model(trained, workdir / "model.bin")
    return report.final_rmse_val


class Predict(Workload):
    name = "predict"
    check_every = 250

    def __init__(self, seed, workdir, lib):
        super().__init__(seed, workdir, lib)
        self.pending: list = []  # (oc, k, exit code, stdout), checked every check_every requests to bound memory
        self.requests = self.failed = self.rows = 0
        self.caught = True

    def setup(self):
        self.val_rmse_cycles = train_served_model(self.lib, self.workdir)
        self.ref = reference.read_model_bin(self.model_path)
        holdout, _ = self.lib.data.synth_generate(self.lib.data.SynthSpec(**SERVED_FLEET, seed=self.seed + 1))
        columns = self.ref.header["norm"]["columns"]
        self.snapshots = [self.lib.data.feature_matrix(tr, columns) for tr in holdout]
        self.rng = np.random.default_rng([self.seed, 1])

    def op(self) -> Op:
        feats = self.snapshots[self.rng.integers(len(self.snapshots))]
        oc = feats[self.rng.integers(feats.shape[0])]
        k = int(self.rng.integers(1, MAX_K + 1))
        argv = [
            "predict",
            "--model",
            str(self.model_path),
            # "--oc <v>" with a leading minus is read as an option by argparse
            "--oc=" + ",".join(repr(float(v)) for v in oc),
            "--t-list",
            ",".join(str(j) for j in range(k)),
            "--csv",
        ]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            start = time.perf_counter()
            try:
                code = self.lib.cli.main(argv)
            except (Exception, SystemExit) as exc:  # a crash or usage exit is a failed request
                code = repr(exc)
            end = time.perf_counter()
        self.pending.append((oc, k, code, out.getvalue()))
        if len(self.pending) == self.check_every:
            self._check_pending()
        return Op(start, end, end, 1)

    def traced_ops(self, seconds):
        return int(40 * seconds)

    def _check_pending(self):
        ok, ocs, ts, printed, owner = [], [], [], [], []
        for i, (oc, k, code, text) in enumerate(self.pending):
            lines = text.splitlines()
            good = code == 0 and len(lines) == k + 1 and lines[0] == PREDICT_HEADER
            if good:
                try:
                    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]]).reshape(k, 4)
                except ValueError:
                    good = False
                else:
                    good = np.array_equal(rows[:, 0], np.arange(k))
            ok.append(good)
            if good:
                ocs.append(np.repeat(oc[None, :], k, axis=0))
                ts.append(np.arange(k, dtype=np.float64))
                printed.append(rows[:, 1:])
                owner.append(np.full(k, i))
        if ts:
            oc, t, got, owner = np.vstack(ocs), np.concatenate(ts), np.vstack(printed), np.concatenate(owner)
            for i in np.unique(owner[reference.mismatched(got, self.ref.forward(oc, t))]):
                ok[i] = False
            self.caught &= bool(reference.mismatched(got, self.ref.perturbed().forward(oc, t)).any())
            self.rows += t.shape[0]
        else:
            self.caught = False
        self.requests += len(ok)
        self.failed += ok.count(False)
        self.pending.clear()

    def check(self) -> tuple[int, bool]:
        if self.pending:
            self._check_pending()
        self.notes.update(requests=self.requests, rows=self.rows, served_val_rmse_cycles=self.val_rmse_cycles)
        return self.failed, self.caught


class Map(Workload):
    name = "map"

    def __init__(self, seed, workdir, lib):
        super().__init__(seed, workdir, lib)
        self.cfg = run_config(lib, TRAIN_FLEET, seed, TRAIN_EPOCHS, TRAIN_BATCH, workdir)
        self.config_path = workdir / "map.json"
        self.csv_path = workdir / "latent_map_train.csv"
        self.exports: list[tuple[object, str]] = []  # (exit code, csv sha256)

    def setup(self):
        self.val_rmse_cycles = train_served_model(self.lib, self.workdir)
        self.config_path.write_text(json.dumps(self.cfg.to_dict()))

    def op(self) -> Op:
        argv = ["map", "--config", str(self.config_path), "--model", str(self.model_path), "--which", "train"]
        self.csv_path.unlink(missing_ok=True)  # an export that writes nothing must not pass on a stale file
        gc.collect()
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            try:
                code = self.lib.cli.main(argv)
            except (Exception, SystemExit) as exc:
                code = repr(exc)
            end = time.perf_counter()
        blob = self.csv_path.read_bytes() if self.csv_path.exists() else b""
        self.exports.append((code, hashlib.sha256(blob).hexdigest()))
        return Op(start, end, end, blob.count(b"\n") - 1)

    def traced_ops(self, seconds):
        return 2

    def check(self) -> tuple[int, bool]:
        trajectories, _ = self.lib.data.synth_generate(self.cfg.synth)
        ref = reference.read_model_bin(self.model_path)
        columns = ref.header["norm"]["columns"]
        oc_parts, t_parts, label_parts = [], [], []
        for tr in sorted(trajectories, key=lambda tr: tr.unit_id):
            feats = self.lib.data.feature_matrix(tr, columns)
            life = tr.length
            for c in range(1, life + 1):
                k = min(HORIZON, life - c) + 1
                oc_parts.append(np.repeat(feats[c - 1][None, :], k, axis=0))
                t_parts.append(np.arange(k, dtype=np.float64))
                label_parts.append(life - c - np.arange(k, dtype=np.float64))
        oc, t, labels = np.vstack(oc_parts), np.concatenate(t_parts), np.concatenate(label_parts)

        good, caught = self.csv_path.exists(), False
        if good:
            with open(self.csv_path, encoding="ascii") as fh:
                header = fh.readline().strip()
                table = np.loadtxt(fh, delimiter=",", ndmin=2)
            good = header == MAP_HEADER and table.shape == (t.shape[0], 4)
        if good:
            good = np.array_equal(table[:, 3], labels) and not reference.mismatched(table[:, :3], ref.forward(oc, t)).any()
            caught = bool(reference.mismatched(table[:, :3], ref.perturbed().forward(oc, t)).any())
        last_digest = self.exports[-1][1]
        failed = sum(not (good and code == 0 and digest == last_digest) for code, digest in self.exports)
        self.notes.update(exports=len(self.exports), rows=int(t.shape[0]), served_val_rmse_cycles=self.val_rmse_cycles)
        return failed, caught


WORKLOADS = {w.name: w for w in (Train, Predict, Map)}

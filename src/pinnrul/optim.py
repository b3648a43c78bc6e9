"""Nesterov-momentum Adam updates and the minibatch training loop.

The update rule, with step counter t starting at 1, moment estimates m,
v shaped like the parameters they follow, the constants b1 = ``BETA1``,
b2 = ``BETA2`` and eps = ``EPS``, and the learning rate lr, which is
``NadamConfig``'s one setting:

    m <- b1*m + (1-b1)*g          v <- b2*v + (1-b2)*g^2
    mhat = m / (1 - b1^(t+1))     vhat = v / (1 - b2^t)
    theta <- theta - lr * (b1*mhat + (1-b1)*g/(1-b1^t)) / (sqrt(vhat) + eps)

While a coordinate's gradient keeps its sign and its magnitude never
grows, step t moves that coordinate by at most

    lr * (b1*(1-b1^t)/(1-b1^(t+1)) + (1-b1)/(1-b1^t))

which is 1.4737*lr at t=1 and falls toward lr, so travel
grows at most about lr per step however large the gradient is.

Every operation of the rule is elementwise, so it gives the same bits
whether it runs per buffer or over one vector holding all of them.
``train`` uses the vector: each network in the model's graph binds one
(W, b, dW, db) tuple of views per layer, which ``model._layout`` cuts
from the parameter vector ``theta`` and from the one gradient vector
laid out like it that the first ``cost`` makes, and each step passes
``cost(dataset, idx).grad``, idx the batch's slice of the epoch's
shuffled indices, to one ``nadam_step`` call, with one m and one v
vector as its state.

Training splits the dataset 75/25 (validation gets ceil(N/4) samples),
reshuffles the training part with a fixed per-epoch seed, and evaluates
both splits after every epoch, so identical seeds give bit-identical
reports and final parameters. The splits are index arrays into the one
dataset, never copies of it, and ``model._gather`` is the one code that
turns either into the x network's input: a shuffled batch reads rows
from across the whole table, so its gather normalizes only its own rows,
and the epoch-end means read each split in dataset order (its sorted
indices), so each chunk reads a short range of logged rows, the only
ones its gather normalizes: at horizon 30, about 90 rows for a
2,048-sample chunk of the training split and 280 of the validation
split. Every index array (the split permutation, both splits, their
sorted copies and each epoch's shuffled rows) is int32, half the size of
int64 with the same values, since ``augment`` keeps a dataset's sample
count within int32.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .data import AugmentedSamples
from .model import NumericError, PinnModel, init_model

__all__ = [
    "NadamConfig",
    "NadamState",
    "nadam_step",
    "split_indices",
    "TrainingReport",
    "train",
]


# Dozat, "Incorporating Nesterov Momentum into Adam" (2016), at Keras's defaults
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-7


@dataclass(frozen=True)
class NadamConfig:
    lr: float = 1e-3

    def __post_init__(self):
        # `not 0 < x < inf` also holds for NaN and +inf
        if not 0 < self.lr < math.inf:
            raise ValueError(f"lr must be finite and > 0, got {self.lr!r}")


class NadamState:
    """First and second moment vectors shaped like ``theta``, plus the step count."""

    def __init__(self, theta):
        self.m = np.zeros_like(theta)
        self.v = np.zeros_like(theta)
        self.step = 0


def nadam_step(state: NadamState, theta, grad, config: NadamConfig) -> None:
    """Update ``theta`` in place; raises NumericError if ``grad`` is non-finite."""
    if grad.shape != theta.shape:
        raise ValueError(f"gradient shape {grad.shape} does not match parameters {theta.shape}")
    if not np.isfinite(grad).all():
        raise NumericError("non-finite gradient")
    b1, b2 = BETA1, BETA2
    t = state.step + 1
    c_m = 1.0 - b1 ** (t + 1)
    c_g = 1.0 - b1**t
    c_v = 1.0 - b2**t
    m, v = state.m, state.v
    m *= b1
    m += (1.0 - b1) * grad
    v *= b2
    v += (1.0 - b2) * grad * grad
    update = (b1 * (m / c_m) + (1.0 - b1) * grad / c_g) / (np.sqrt(v / c_v) + EPS)
    theta -= config.lr * update
    state.step = t


def split_indices(n: int, split_seed: int):
    """Deterministic 75/25 partition into int32 index arrays; validation
    count is ceil(n / 4)."""
    if n < 1:
        raise ValueError("cannot split an empty dataset")
    n_val = -(-n // 4)
    # the shuffle of permutation(n), over an int32 range: the same values at half the size
    perm = np.random.default_rng([split_seed, 0]).permutation(np.arange(n, dtype=np.int32))
    return perm[n_val:], perm[:n_val]


@dataclass
class TrainingReport:
    """Per-epoch losses on both splits plus run identity."""

    per_epoch: list[tuple[float, float, float, float, float, float]] = field(default_factory=list)
    final_rmse_val: float = float("nan")
    init_seed: int = 0
    split_seed: int = 0
    epochs: int = 0
    batch_size: int = 0
    wall_time: float = 0.0

    EPOCH_FIELDS = ("train_total", "train_mse", "train_pde", "val_total", "val_mse", "val_pde")

    def to_dict(self) -> dict:
        return {**asdict(self), "per_epoch": [dict(zip(self.EPOCH_FIELDS, row)) for row in self.per_epoch]}


def train(
    model: PinnModel,
    dataset: AugmentedSamples,
    split_seed: int,
    init_seed: int,
    epochs: int,
    batch_size: int,
    config: NadamConfig | None = None,
    scheme: str | None = None,
    log=None,
) -> tuple[PinnModel, TrainingReport]:
    """Train a freshly initialized copy of ``model`` on ``dataset``.

    The incoming model supplies the architecture and normalization; its
    weights are re-drawn by ``init_model`` from ``init_seed`` (``scheme``,
    like the model's own, can only be "xavier") so that the outcome depends
    only on the two seeds, the epoch/batch settings and the data. Returns
    the final-epoch model.
    """
    n = len(dataset)
    if n == 0:
        raise ValueError("training dataset is empty")
    if not 0 < batch_size <= n:
        raise ValueError(f"batch_size must be in 1..{n}, got {batch_size}")
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    config = config or NadamConfig()

    started = time.perf_counter()
    model = init_model(model.config, model.norm, init_seed, scheme or model.init_scheme)
    model.split_seed = int(split_seed)
    train_idx, val_idx = split_indices(n, split_seed)
    train_rows, val_rows = np.sort(train_idx), np.sort(val_idx)

    state = NadamState(model.theta)

    report = TrainingReport(
        init_seed=int(init_seed),
        split_seed=int(split_seed),
        epochs=int(epochs),
        batch_size=int(batch_size),
    )
    n_train = len(train_idx)
    for epoch in range(epochs):
        # equal to train_idx[permutation(n_train)], the batch order model.bin's bits rest on
        shuffled = np.random.default_rng([split_seed, 1 + epoch]).permutation(train_idx)
        for batch_no, start in enumerate(range(0, n_train, batch_size)):
            try:
                nadam_step(state, model.theta, model.cost(dataset, shuffled[start : start + batch_size]).grad, config)
            except NumericError as exc:
                raise NumericError(f"epoch {epoch} batch {batch_no}: {exc}") from exc

        tr = model.mean_cost(dataset, train_rows)
        va = model.mean_cost(dataset, val_rows)
        report.per_epoch.append((tr[2], tr[0], tr[1], va[2], va[0], va[1]))
        if log is not None:
            log(
                f"epoch {epoch + 1}/{epochs}  train total {tr[2]:.6g} (mse {tr[0]:.6g}, pde {tr[1]:.6g})"
                f"  val total {va[2]:.6g}"
            )

    report.final_rmse_val = float(np.sqrt(report.per_epoch[-1][4]) * model.norm.rul_max)
    report.wall_time = time.perf_counter() - started
    return model, report

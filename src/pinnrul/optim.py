"""Nesterov-momentum Adam updates and the minibatch training loop.

The update rule, with step counter t starting at 1 and moment estimates
m, v shaped like the parameters they follow:

    m <- b1*m + (1-b1)*g          v <- b2*v + (1-b2)*g^2
    mhat = m / (1 - b1^(t+1))     vhat = v / (1 - b2^t)
    theta <- theta - lr * (b1*mhat + (1-b1)*g/(1-b1^t)) / (sqrt(vhat) + eps)

While a coordinate's gradient keeps its sign and its magnitude never
grows, step t moves that coordinate by at most

    lr * (b1*(1-b1^t)/(1-b1^(t+1)) + (1-b1)/(1-b1^t))

which is 1.4737*lr at t=1 for b1=0.9 and falls toward lr, so travel
grows at most about lr per step however large the gradient is.

Every operation of the rule is elementwise, so it gives the same bits
whether it runs per buffer or over one vector holding all of them.
``train`` uses the vector: it lays the model's weight and bias buffers
(36 in the default architecture) end to end in
``PinnModel.parameter_items`` order (network x, rul, dyn; per layer W
row-major, then b), which is also the order of the ``model.bin`` body,
and makes each buffer a reshaped view of that vector. Each step copies
the batch gradients into views of one gradient vector of the same
layout and makes one ``nadam_step`` call on the pair, with one m and
one v vector as its state.

Training splits the dataset 75/25 (validation gets ceil(N/4) samples),
reshuffles the training part with a fixed per-epoch seed, and evaluates
both splits after every epoch, so identical seeds give bit-identical
reports and final parameters.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .data import AugmentedSamples
from .graph import NumericError
from .model import PinnModel, init_model

__all__ = [
    "NadamConfig",
    "NadamState",
    "nadam_step",
    "split_indices",
    "TrainingReport",
    "train",
]


@dataclass(frozen=True)
class NadamConfig:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-7

    def __post_init__(self):
        if self.lr <= 0 or self.eps <= 0:
            raise ValueError("lr and eps must be positive")
        if not (0 < self.beta1 < 1 and 0 < self.beta2 < 1):
            raise ValueError("beta1 and beta2 must lie in (0, 1)")


class NadamState:
    """First/second moment buffers, one pair per buffer passed to ``nadam_step``.

    ``train`` passes one buffer, the flat parameter vector, so its state
    is one m and one v vector in that vector's layout.
    """

    def __init__(self, m, v, step: int = 0):
        self.m = m
        self.v = v
        self.step = step

    @classmethod
    def for_params(cls, params) -> "NadamState":
        return cls([np.zeros_like(p) for p in params], [np.zeros_like(p) for p in params])


def nadam_step(state: NadamState, params, grads, config: NadamConfig):
    """Apply one update in place; returns (params, state).

    Raises NumericError naming the buffer's list position (``#k``) if its
    gradient is non-finite.
    """
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ValueError("params, grads and state must be parallel lists")
    b1, b2 = config.beta1, config.beta2
    t = state.step + 1
    c_m = 1.0 - b1 ** (t + 1)
    c_g = 1.0 - b1**t
    c_v = 1.0 - b2**t
    for k, (theta, g) in enumerate(zip(params, grads)):
        if not np.isfinite(g).all():
            raise NumericError(f"non-finite gradient for parameter #{k}")
        m, v = state.m[k], state.v[k]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        update = (b1 * (m / c_m) + (1.0 - b1) * g / c_g) / (np.sqrt(v / c_v) + config.eps)
        theta -= config.lr * update
    state.step = t
    return params, state


def split_indices(n: int, split_seed: int):
    """Deterministic 75/25 partition; validation count is ceil(n / 4)."""
    if n < 1:
        raise ValueError("cannot split an empty dataset")
    n_val = -(-n // 4)
    perm = np.random.default_rng([split_seed, 0]).permutation(n)
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
        return {
            "per_epoch": [dict(zip(self.EPOCH_FIELDS, row)) for row in self.per_epoch],
            "final_rmse_val": self.final_rmse_val,
            "init_seed": self.init_seed,
            "split_seed": self.split_seed,
            "epochs": self.epochs,
            "batch_size": self.batch_size,
            "wall_time": self.wall_time,
        }


def _flatten(model: PinnModel):
    """Move the model's buffers into one vector in ``parameter_items`` order.

    Each buffer of ``model`` is replaced by a reshaped view of the vector,
    so the graph, ``save_model`` and the caller all see its values.
    Returns the names, the vector, a gradient vector of the same layout
    and one view of it per buffer.
    """
    items = model.parameter_items()
    theta = np.concatenate([buf.ravel() for _, buf in items])
    grad = np.empty_like(theta)
    grad_views = []
    start = 0
    for params in (model.x_params, model.rul_params, model.dyn_params):  # parameter_items order
        for i in range(len(params.weights)):
            for bufs in (params.weights, params.biases):
                shape, stop = bufs[i].shape, start + bufs[i].size
                bufs[i] = theta[start:stop].reshape(shape)
                grad_views.append(grad[start:stop].reshape(shape))
                start = stop
    return [name for name, _ in items], theta, grad, grad_views


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
    weights are re-drawn from ``init_seed`` (scheme defaults to the
    model's own) so that the outcome depends only on the two seeds, the
    epoch/batch settings and the data. Returns the final-epoch model.
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
    train_set = dataset.take(train_idx)
    val_set = dataset.take(val_idx)

    names, theta, grad, grad_views = _flatten(model)
    state = NadamState.for_params([theta])

    report = TrainingReport(
        init_seed=int(init_seed),
        split_seed=int(split_seed),
        epochs=int(epochs),
        batch_size=int(batch_size),
    )
    n_train = len(train_set)
    for epoch in range(epochs):
        order = np.random.default_rng([split_seed, 1 + epoch]).permutation(n_train)
        for batch_no, start in enumerate(range(0, n_train, batch_size)):
            batch = train_set.take(order[start : start + batch_size])
            try:
                grads = model.cost(batch).grads
                for name, view in zip(names, grad_views):
                    view[...] = grads[name]
                try:
                    nadam_step(state, [theta], [grad], config)
                except NumericError:
                    first = np.flatnonzero(~np.isfinite(grad))[0]
                    ends = np.cumsum([view.size for view in grad_views])
                    name = names[np.searchsorted(ends, first, side="right")]
                    raise NumericError(f"non-finite gradient for parameter {name}") from None
            except NumericError as exc:
                raise NumericError(f"epoch {epoch} batch {batch_no}: {exc}") from exc

        tr = model.mean_cost(train_set)
        va = model.mean_cost(val_set)
        report.per_epoch.append((tr[2], tr[0], tr[1], va[2], va[0], va[1]))
        if log is not None:
            log(
                f"epoch {epoch + 1}/{epochs}  train total {tr[2]:.6g} (mse {tr[0]:.6g}, pde {tr[1]:.6g})"
                f"  val total {va[2]:.6g}"
            )

    report.final_rmse_val = float(np.sqrt(report.per_epoch[-1][4]) * model.norm.rul_max)
    report.wall_time = time.perf_counter() - started
    return model, report

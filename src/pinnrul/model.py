"""Three-stage degradation model with a residual-penalized cost.

The first network maps a feature snapshot plus a scaled look-ahead time
to a scalar latent health indicator x. The second maps (x, time) to the
normalized remaining life. The third learns the rate law: it receives
(dx/dt, dRUL/dx) and its output is pinned to the total time derivative
of the predicted RUL by a squared-residual penalty, so it trains without
labels. Both derivatives are forward-tangent blocks of the networks'
chains. A pass ends at the networks' outputs, which ``_Pass.cut`` cuts
into a ``_Pass`` of rows: x, dx/dt, the RUL, dRUL/dx, the explicit
partial dRUL/dt and the rate output dyn. In numpy, ``_residual`` joins
them into the residual f = dRUL/dx * dx/dt + partial dRUL/dt - dyn and
``_loss`` computes the cost, label MSE plus the weighted mean squared
residual. ``cost`` takes its pass from the graph and hands its
adjoints, stacked like each network's output, to one reverse sweep,
which differentiates the penalty w.r.t. all weights; ``cost_values``
and ``mean_cost`` take theirs from ``_forward``, which runs the three
chains without the graph and gives the same bits.

A model owns one float64 vector ``theta`` holding every weight and bias;
``_layout`` is the only code that knows its order, which is also the
order of the ``model.bin`` body. ``_layout`` cuts it into one (W, b, dW,
db) tuple of views per layer, so parameters change only in place; buffer
names are derived from the tuples on demand. The model's own tuples
have no gradient views (dW and db are None). A model builds its graph
once, the first time ``cost`` needs it, for any batch width, and with it
one gradient vector shaped like ``theta``, which ``_layout`` cuts
together with ``theta`` into the tuples the graph binds: one bound
input, node 0, and 3 mlps, one per network, which read row ranges of
the input and of each other. Each mlp binds its network's tuples, so the
graph sees every change without rebinding and its reverse sweep fills
the gradient vector, which ``cost`` checks once and returns as a copy. Nothing else needs a gradient, and nothing else
builds the graph or makes a gradient: a model that is only loaded and
read holds none. ``_eval_batch``, ``_forward`` and ``_read`` are stages
over one stacked input, the x network's (d_oc + 1, n) [oc; t], whose last
row is the RUL network's t: a raw batch gets it from ``_inputs``, a
sample set from ``_gather``. ``_forward`` and ``_read`` run each network
in ``_run``, the one chain runner, which runs ``net._chain``, the graph's
own forward walk, over the tuples, writes the layers into two buffers
per network and keeps only the output. ``_forward`` runs all three
networks; ``_read`` runs the x network, with its dx/dt tangent, and the
RUL network, without tangents, and never the rate network. Their rows
are views of those buffers, valid until the next pass on the same
buffers; ``mean_cost`` and ``latent_map`` each reuse one set for all
their chunks. The graph holds its last pass between calls and releases
it before computing the next, so a model never holds two; ``_forward``
and ``_read`` hold nothing once their rows are dropped. Whole sample
sets are read a chunk at a time, both readers taking the samples and an
index array ``rows`` and gathering with ``_gather``, which normalizes
only the logged rows a chunk reads, from its smallest row index to its
largest, and takes them straight into a buffer of the input, so a
logged row is normalized once per chunk that reads it, not per sample:
``mean_cost`` sums the cost terms MEAN_CHUNK samples at a time, and
``latent_map`` fills one C-order (n, 4) float64 table of x, dx/dt,
predicted RUL and true RUL CHUNK samples at a time; ``map`` hands it one
CHUNK-row range at a time, so no whole table exists there. Training
batches still gather with ``samples.take`` and stack with ``_inputs``:
a shuffled batch reads rows from across the whole table.
``_normalize`` is the one check of a batch's or sample set's feature
count and times and the one normalization; ``_inputs`` adds the oc shape
and row count checks, and ``_labeled`` a batch's label count, before
``_loss`` computes the cost from labels and a pass. ``_read`` is the one
reader of x, dx/dt and the RUL in cycles for ``sweep``, ``latent_map``
and ``rmse_eval``. ``NumericError``, defined here, reports a non-finite
output.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .data import AugmentedSamples, Batch, NormStats, feature_matrix
from .graph import Graph
from .net import GraphMlp, _chain

X_HIDDEN = (3, 3, 3, 3, 3)
RUL_HIDDEN = (10, 10, 10, 10, 10)
# each network's hidden activation; x and rul carry tangent chains, which need tanh
HIDDEN = {"x": "tanh", "rul": "tanh", "dyn": "relu"}
# the one weight draw, init_model's; a model, its file and a run config name it
INIT_SCHEMES = ("xavier",)
# Samples per whole-set read. CHUNK is latent_map's read block and the CSV's write block;
# mean_cost's forward-only passes take MEAN_CHUNK, whose RUL chain buffers (2 x 3 x 10 x 2,048
# float64, 0.98 MB) fit a core's 2 MB L2. On the benchmark's train fleet, interleaved in one
# process, a 2,048-sample epoch-end pair was as fast as a 4,096 one (min 95.6 against 98.3 ms)
# and 1,024 was slower (107.2 ms); in the benchmark, 2,048-row latent-map blocks slowed map by
# 8-9% (median throughput and p50 of 5 pairs).
CHUNK = 4096
MEAN_CHUNK = 2048


class NumericError(Exception):
    """A non-finite value or gradient appeared."""


@dataclass(frozen=True)
class PinnConfig:
    """Input width and cost settings. The architecture is the paper's and fixed:
    ``widths`` and ``HIDDEN`` state it, and every output is one linear unit."""

    d_oc: int
    pde_weight: float = 1.0
    t_scale: float = 30.0

    def __post_init__(self):
        if self.d_oc < 1:
            raise ValueError("d_oc must be >= 1")
        if not 0 <= self.pde_weight < math.inf:
            raise ValueError(f"pde_weight must be finite and >= 0, got {self.pde_weight!r}")
        if not 0 < self.t_scale < math.inf:
            raise ValueError(f"t_scale must be finite and > 0, got {self.t_scale!r}")

    @functools.cached_property
    def widths(self) -> dict[str, tuple[int, ...]]:
        """Layer widths [d_in, h1, ..., h5, 1] of each network, in ``_layout`` order."""
        return {"x": (self.d_oc + 1, *X_HIDDEN, 1), "rul": (2, *RUL_HIDDEN, 1), "dyn": (2, *RUL_HIDDEN, 1)}

    @functools.cached_property
    def n_params(self) -> int:
        """Length of a model's parameter vector ``theta``."""
        return sum(d_out * (d_in + 1) for w in self.widths.values() for d_in, d_out in zip(w, w[1:]))

    @classmethod
    def default(cls, d_oc: int, pde_weight: float = 1.0, t_scale: float = 30.0) -> "PinnConfig":
        return cls(d_oc, pde_weight, t_scale)


@dataclass
class CostBreakdown:
    """Cost terms of one batch plus the total's gradient, laid out like ``theta``."""

    mse: float
    pde: float
    total: float
    grad: np.ndarray


def _layout(config: PinnConfig, theta: np.ndarray, grad: np.ndarray | None = None):
    """Cut ``theta`` into each network's list (keyed ``x``, ``rul``, ``dyn``)
    of (W, b, dW, db) tuples of views, one per layer. dW and db are views
    of ``grad``, a gradient shaped like ``theta``, at the values' offsets,
    or None when no gradient is given.

    This is the one statement of the parameter order, which is also the
    order of the ``model.bin`` body: networks x, rul, dyn; per layer the
    weight matrix W (out x in, row-major), then the bias column b.
    ``parameter_items`` derives the buffers' names from it on demand.
    """
    if theta.dtype != np.float64 or theta.shape != (config.n_params,):
        raise ValueError(f"theta must be float64 of shape ({config.n_params},), got {theta.dtype} {theta.shape}")
    layers, start = {}, 0
    for prefix, widths in config.widths.items():
        layers[prefix] = []
        for d_in, d_out in zip(widths, widths[1:]):
            mid = start + d_out * d_in
            stop = mid + d_out
            dw = db = None
            if grad is not None:
                dw, db = grad[start:mid].reshape(d_out, d_in), grad[mid:stop].reshape(d_out, 1)
            layers[prefix].append((theta[start:mid].reshape(d_out, d_in), theta[mid:stop].reshape(d_out, 1), dw, db))
            start = stop
    return layers


class _Pass(NamedTuple):
    """The networks' output rows of one forward pass, each (1, n)."""

    x: np.ndarray
    dx_dt: np.ndarray
    rul: np.ndarray
    drul_dx: np.ndarray
    drul_dt_partial: np.ndarray  # the explicit partial dRUL/dt
    dyn: np.ndarray

    @classmethod
    def cut(cls, xs, ruls, dyn) -> "_Pass":
        """The rows of the networks' stacked outputs [x; dx/dt], [rul; dRUL/dx; partial dRUL/dt] and dyn."""
        return cls(xs[:1], xs[1:], ruls[:1], ruls[1:2], ruls[2:], dyn)


def _residual(p: _Pass, dyn_oracle: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """(dRUL/dt, f) rows of a pass, in numpy.

    dRUL/dt = dRUL/dx * dx/dt + partial dRUL/dt, the path through x plus
    the explicit one, and f = dRUL/dt - dyn. The oracle takes dRUL/dt for
    the rate output, so its f is exactly 0.
    """
    drul_dt = p.drul_dx * p.dx_dt + p.drul_dt_partial
    return drul_dt, drul_dt - (drul_dt if dyn_oracle else p.dyn)


@dataclass
class PinnModel:
    """Parameter vector plus architecture and normalization contract.

    ``theta`` holds every weight and bias in ``_layout`` order; the
    layer tuples, cut here without gradient views, and the graph bind
    views of it, so it cannot be rebound. Write through it, or the views
    of ``parameter_items``, in place. The gradient vector ``_grad`` and
    its views exist only once ``cost`` has built the graph.
    """

    config: PinnConfig
    theta: np.ndarray = field(repr=False)
    norm: NormStats
    init_scheme: str = "xavier"
    init_seed: int = 0
    split_seed: int | None = None  # set by training, None for a fresh model

    def __post_init__(self):
        self._layers = _layout(self.config, self.theta)
        finite = np.isfinite(self.theta)
        if not finite.all():
            raise ValueError(f"non-finite parameter {self._buffer_at(np.argmin(finite))}")

    def __setattr__(self, name, value):
        # ``model.theta *= c`` works in place and then rebinds the same array
        if name == "theta" and hasattr(self, "_layers") and value is not self.theta:
            raise AttributeError("theta is cut into the layers' views; change it in place")
        # the init fields' one check, for __init__, load_model and train's later split_seed; a
        # header holds an int64 seed, never a bool, and only split_seed may be None
        if name == "init_scheme" and value not in INIT_SCHEMES:
            raise ValueError(f"init_scheme must be one of {INIT_SCHEMES}, got {value!r}")
        if name in ("init_seed", "split_seed") and not (
            (value is None and name == "split_seed") or (type(value) is int and 0 <= value < 2**63)
        ):
            raise ValueError(f"{name} must be >= 0 and <= {2**63 - 1}, got {value!r}")
        super().__setattr__(name, value)

    @functools.cached_property
    def _graph(self) -> Graph:
        """The model's graph, built the first time ``cost`` needs it, with the
        gradient vector ``_grad`` that its reverse sweep fills.

        Node 0 is the input ``eval`` binds, ``_inputs``' [oc; t]; then one mlp
        per network: x, the stack [x; dx/dt], rul, the stack [rul; dRUL/dx;
        partial dRUL/dt] on the rows x and t, and dyn, the rate output on the
        rows dx/dt and dRUL/dx. ``_Pass.cut`` cuts their values into a pass.
        The graph has no widths, so it serves every batch.
        """
        self._grad = np.zeros_like(self.theta)
        layers, g, d = _layout(self.config, self.theta, self._grad), Graph(), self.config.d_oc
        x_mlp, rul_mlp, dyn_mlp = (GraphMlp(g, HIDDEN[net], layers[net]) for net in self.config.widths)
        x = x_mlp.forward_tangents((0, 0, d + 1), coords=[d])
        rul = rul_mlp.forward_tangents((x, 0, 1), (0, d, d + 1), coords=[0, 1])
        dyn_mlp.forward((x, 1, 2), (rul, 1, 2))
        return g

    # -- plumbing -----------------------------------------------------

    def parameter_items(self):
        """(name, view) of every buffer, e.g. ``rul.W1``, tiling ``theta`` in ``_layout`` order."""
        named = ((net, i, layer) for net, layers in self._layers.items() for i, layer in enumerate(layers, start=1))
        return [(f"{net}.{kind}{i}", view) for net, i, layer in named for kind, view in zip("Wb", layer)]

    def _buffer_at(self, offset) -> str:
        """Name of the buffer that holds entry ``offset`` of ``theta`` (and of a gradient)."""
        items = self.parameter_items()
        return items[np.searchsorted(np.cumsum([view.size for _, view in items]), offset, side="right")][0]

    def _normalize(self, oc, t) -> np.ndarray:
        """The one check of a batch's or sample set's feature count and times, and the one
        normalization: ``oc``'s rows z-scored by the model's norm."""
        if oc.shape[1] != self.config.d_oc:
            raise ValueError(f"oc has {oc.shape[1]} features, model expects d_oc={self.config.d_oc}")
        if not ((0 <= t) & (t < np.inf)).all():
            raise ValueError("time horizons must be finite and >= 0")
        return (oc - self.norm.means) / self.norm.stds

    def _inputs(self, oc, t, snapshot=False) -> np.ndarray:
        """Check a raw batch; return the x network's (d_oc + 1, n) input, the normalized
        features above the scaled times. With ``snapshot``, each oc row repeats once per time."""
        oc = np.atleast_2d(np.asarray(oc, dtype=np.float64))
        if oc.ndim > 2:
            raise ValueError(f"oc must be one snapshot or a 2-D batch, got shape {oc.shape}")
        t = np.asarray(t, dtype=np.float64).reshape(-1)
        z = self._normalize(oc, t)
        n = t.shape[0]
        if snapshot:
            z = np.repeat(z, n, axis=0)
        if z.shape[0] != n:
            raise ValueError(f"{z.shape[0]} oc rows vs {n} time values")
        # numpy lays this out in Fortran order, each sample's d_oc + 1 inputs side by side, and the
        # first layer's BLAS products read it so: the same values in C order change cost's gradient bits
        return np.concatenate([z.T, (t / self.config.t_scale)[None]])

    def _gather(self, samples: AugmentedSamples, idx, bufs) -> tuple[np.ndarray, np.ndarray]:
        """The samples at index array ``idx`` stacked as ``_inputs`` stacks their batch,
        bit for bit, after ``_normalize``'s checks, and their labels rul0[row] - t.

        Normalizes only the logged rows from the smallest to the largest that ``idx``
        reads, far fewer than its samples where ``idx`` is sorted, and takes them into an
        (n, d_oc + 1) C-order buffer, ``bufs["in"]``, made on the dict's first gather,
        which every caller makes its widest; its transpose is the Fortran-ordered input.
        """
        row, t = samples.row.take(idx), samples.t.take(idx)
        lo, hi, n, d = row.min(), row.max(), len(t), self.config.d_oc
        table = np.empty((hi - lo + 1, d + 1))  # the last column, t's, is written after the take
        table[:, :d] = self._normalize(samples.rows[lo : hi + 1], t)
        if "in" not in bufs:
            bufs["in"] = np.empty((n, d + 1))
        s = bufs["in"][:n]
        np.take(table, row - lo, axis=0, out=s, mode="clip")  # in range; "raise" would buffer the copy
        np.divide(t, self.config.t_scale, out=s[:, d])
        return s.T, samples.rul0.take(row) - t

    def _eval_batch(self, s) -> _Pass:
        """Evaluate the graph with the stacked input ``s`` bound as its one
        input; return its output rows, views of the pass it holds."""
        return _Pass.cut(*self._graph.eval(s))

    def _run(self, net: str, s, k: int, seeds, bufs) -> np.ndarray:
        """The one chain runner of passes without the graph: the output of
        network ``net`` on ``s`` (``_chain``'s k and seeds), its layers
        written into the two buffers ``bufs[net]``, made on the dict's first
        pass, which every caller makes its widest."""
        if net not in bufs:
            size = (1 + k) * max(self.config.widths[net][1:]) * s.shape[1]
            bufs[net] = (np.empty(size), np.empty(size))
        return _chain(HIDDEN[net], self._layers[net], s, k, seeds, bufs[net])[-1]

    def _forward(self, s, bufs=None) -> _Pass:
        """Evaluate the stacked input ``s`` of ``_inputs`` or ``_gather`` without
        the graph; its rows equal the graph's bit for bit.

        Runs the x chain with its dx/dt tangent, the RUL chain with its
        tangents along x and t, and the rate chain without tangents, on
        inputs joined by ``np.concatenate`` as the graph's mlps stack
        theirs. Each chain runs in ``_run``, in ``bufs``, a dict that a
        caller may reuse from pass to pass; the rows are views of the
        chains' outputs, valid until the next pass on the same ``bufs``.
        """
        bufs = {} if bufs is None else bufs
        xs = self._run("x", s, 1, (self.config.d_oc,), bufs)
        ruls = self._run("rul", np.concatenate([xs[:1], s[-1:]]), 2, (0, 1), bufs)
        dyn = self._run("dyn", np.concatenate([xs[1:], ruls[1:2]]), 0, None, bufs)
        return _Pass.cut(xs, ruls, dyn)

    def _read(self, s, bufs=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Evaluate the stacked input ``s`` of ``_inputs`` or ``_gather``
        without the graph; return its x, dx/dt and RUL rows, the RUL in cycles.

        Runs the x chain with its one tangent, along the time input, and
        the RUL chain without tangents, each in ``_run`` and ``bufs`` as
        ``_forward`` does; the rate network does not run. x and dx/dt are
        views of the x chain's output, valid until the next pass on the
        same ``bufs``. Raises NumericError naming the first non-finite row.
        """
        bufs = {} if bufs is None else bufs
        xs = self._run("x", s, 1, (self.config.d_oc,), bufs)
        ruls = self._run("rul", np.concatenate([xs[:1], s[-1:]]), 0, None, bufs)
        rows = xs[0], xs[1], ruls[0] * self.norm.rul_max
        for name, row in zip(("x", "dx_dt", "rul"), rows):
            if not np.isfinite(row).all():
                raise NumericError(f"non-finite {name} output")
        return rows

    # -- batch cost ------------------------------------------------------

    def _labeled(self, batch: Batch) -> tuple[np.ndarray, np.ndarray]:
        """Check a nonempty batch; return ``_inputs``' stacked input and its labels."""
        if len(batch) == 0:
            raise ValueError("cost needs a nonempty batch")
        rul = np.asarray(batch.rul, dtype=np.float64).reshape(-1)
        rows = len(np.atleast_2d(batch.oc))
        if rul.shape[0] != rows:  # numpy would broadcast one label over every row
            raise ValueError(f"{rows} oc rows vs {rul.shape[0]} rul labels")
        return self._inputs(batch.oc, batch.t), rul

    def _loss(self, rul, p: _Pass, dyn_oracle: bool = False):
        """(d, f, mse, pde, total) of pass ``p`` against labels ``rul`` in cycles.

        d = rul / rul_max - p.rul and f are the label error and residual rows,
        mse = mean(d^2), pde = mean(f^2), total = mse + pde_weight * pde.
        """
        d = rul.reshape(1, -1) / self.norm.rul_max - p.rul
        _, f = _residual(p, dyn_oracle)
        mse = float((d * d).mean())
        pde = float((f * f).mean())
        return d, f, mse, pde, mse + self.config.pde_weight * pde

    def cost(self, batch: Batch, dyn_oracle: bool = False) -> CostBreakdown:
        """Batch cost (label MSE + weighted mean squared residual) and its
        gradient, one vector laid out like ``theta``.

        The gradient is a fresh copy, so no breakdown aliases another.
        Raises NumericError naming the buffer of its first non-finite
        entry. ``dyn_oracle`` replaces the dynamics network output by the
        exact time derivative it is meant to learn (a test seam: the
        residual term and the rate network's gradient are then zero).
        """
        s, rul = self._labeled(batch)
        p = self._eval_batch(s)
        d, f, mse, pde, total = self._loss(rul, p, dyn_oracle)
        if not math.isfinite(total):
            raise NumericError(f"non-finite total cost (mse={mse}, pde={pde})")
        # d(total)/d(rul) and d(total)/d(f), then f's adjoint through f = drul_dx * dx_dt + partial - dyn,
        # stacked like each mlp's value, one per mlp; the factors multiply in this order, which fixes model.bin's bits
        n = d.shape[1]
        a_f = self.config.pde_weight / n * (2.0 * f)
        x_seed = np.concatenate([np.zeros_like(a_f), a_f * p.drul_dx])
        rul_seed = np.concatenate([-(1.0 / n * (2.0 * d)), a_f * p.dx_dt, a_f])
        self._graph.grad((x_seed, rul_seed, None if dyn_oracle else -a_f))
        finite = np.isfinite(self._grad)
        if not finite.all():
            raise NumericError(f"non-finite gradient of {self._buffer_at(np.argmin(finite))}")
        return CostBreakdown(mse=mse, pde=pde, total=total, grad=self._grad.copy())

    def cost_values(self, batch: Batch) -> tuple[float, float, float]:
        """(mse, pde, total) of ``_forward``'s pass: no graph, no gradient,
        and nothing held once it returns."""
        s, rul = self._labeled(batch)
        return self._loss(rul, self._forward(s))[2:]

    def mean_cost(self, samples: AugmentedSamples, rows) -> tuple[float, float, float]:
        """Exact cost means over the samples at index array ``rows``.

        Gathers MEAN_CHUNK rows at a time with ``_gather``, so no copy of
        the whole subset exists, and evaluates each chunk as ``cost_values``
        does, with one set of ``_gather`` and ``_forward`` buffers for all
        of them. The sums run in the order of ``rows``, grouped by chunk;
        sorted rows keep each chunk's range of logged rows small.
        """
        n = len(rows)
        if n == 0:
            raise ValueError("mean_cost needs samples")
        mse_sum = pde_sum = 0.0
        bufs = {}
        for start in range(0, n, MEAN_CHUNK):
            s, rul = self._gather(samples, rows[start : start + MEAN_CHUNK], bufs)
            mse, pde = self._loss(rul, self._forward(s, bufs))[2:4]
            mse_sum += mse * len(rul)
            pde_sum += pde * len(rul)
        mse = mse_sum / n
        pde = pde_sum / n
        total = mse + self.config.pde_weight * pde
        if not math.isfinite(total):
            raise NumericError(f"non-finite mean cost (mse={mse}, pde={pde})")
        return mse, pde, total

    # -- inspection ------------------------------------------------------

    def latent_map(self, samples: AugmentedSamples, rows) -> np.ndarray:
        """(n, 4) C-order table of x, dx/dt, predicted RUL and true RUL of the samples at
        index array ``rows``, in its order, gathered CHUNK at a time with ``_gather``."""
        table, bufs = np.empty((len(rows), 4)), {}
        for start in range(0, len(rows), CHUNK):
            s, rul = self._gather(samples, rows[start : start + CHUNK], bufs)
            block = table[start : start + CHUNK]
            block[:, 0], block[:, 1], block[:, 2] = self._read(s, bufs)
            block[:, 3] = rul
        return table

    def sweep(self, oc, t_list) -> list[tuple[float, float, float, float]]:
        """(t, x, dx/dt, predicted RUL) per horizon from one snapshot."""
        t_list = list(t_list)
        if not t_list:
            raise ValueError("need at least one horizon")
        xs, dxs, ruls = self._read(self._inputs(oc, t_list, snapshot=True))
        return list(zip(map(float, t_list), xs.tolist(), dxs.tolist(), ruls.tolist()))

    def rmse_eval(self, trajectories, truth) -> tuple[float, list[tuple[int, float, float]]]:
        """RMSE in cycles of t=0 predictions at each unit's last cycle.

        Returns (rmse, per-unit (unit, true, predicted) rows).
        """
        trajectories = list(trajectories)
        truth = [float(v) for v in truth]
        if len(trajectories) != len(truth):
            raise ValueError(f"{len(trajectories)} trajectories vs {len(truth)} truth values")
        ocs = np.vstack([feature_matrix(traj, self.norm.columns)[-1] for traj in trajectories])
        _, _, preds = self._read(self._inputs(ocs, np.zeros(len(trajectories))))
        pairs = [
            (traj.unit_id, tv, float(pv)) for traj, tv, pv in zip(trajectories, truth, preds)
        ]
        rmse = float(np.sqrt(np.mean((np.asarray(truth) - preds) ** 2)))
        return rmse, pairs


def init_model(config: PinnConfig, norm: NormStats, init_seed: int = 0, scheme: str = "xavier") -> PinnModel:
    """Fresh model with Xavier weights (Glorot & Bengio, 2010), the one weight draw.

    Each network draws from its own generator, seeded by one of three states
    of ``SeedSequence(init_seed)``, layer by layer: W ~ N(0, 2 / (fan_in +
    fan_out)); the biases stay zero. ``scheme`` must be one of INIT_SCHEMES.
    """
    seeds = np.random.SeedSequence(init_seed).generate_state(3, dtype=np.uint64)
    model = PinnModel(config, np.zeros(config.n_params), norm, init_scheme=scheme, init_seed=int(init_seed))
    for net, seed in zip(config.widths, seeds):
        rng = np.random.default_rng(int(seed))
        for w, *_ in model._layers[net]:
            w[...] = rng.normal(0.0, np.sqrt(2.0 / sum(w.shape)), w.shape)
    return model

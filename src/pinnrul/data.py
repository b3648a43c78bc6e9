"""Run-to-failure data handling: parsing, time augmentation, normalization.

The augmentation step turns every logged row into a fan of training
points: from the row at cycle c of an engine that lived L cycles, one
sample per integer look-ahead t = 0 .. min(horizon, L - c) is emitted
with label (L - c) - t. Labels run down to 0 at the failure cycle.
An ``AugmentedSamples`` stores each logged row once, in a per-row
table, and per sample only the row's index and t, so memory grows with
the rows logged, not with the up to horizon + 1 samples of each.
The model reads samples by index array and gathers them itself
(``PinnModel._gather``), so ``take``, which gathers a ``Batch`` of
features, look-aheads and labels into new arrays, has no caller in the
package: the benchmark's tracer wraps it and the tests call it.
``fit_norm`` reduces the row table, each row weighted by its sample
count, never gathering the features per sample.

The parsers reject any token that is not a finite number, unit ids and
cycles that are not integers and a negative true RUL, with a ValueError
naming the line, and a unit whose rows are not cycles 1..L with one
naming the unit.

A seeded synthetic generator provides a desk-scale stand-in for the real
turbofan files: linear sensor ramps whose snapshot determines remaining
life up to the injected noise, so trained-model error has a known floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# the feature columns of a C-MAPSS row, after its unit and cycle
CMAPSS_FEATURES = tuple(f"setting{i}" for i in range(1, 4)) + tuple(f"s{i}" for i in range(1, 22))
CMAPSS_COLUMNS = 2 + len(CMAPSS_FEATURES)

VARIANCE_FLOOR = 1e-12


@dataclass
class EngineTrajectory:
    """One unit's log: row i of ``features`` is cycle i + 1, its columns named by ``columns``."""

    unit_id: int
    features: np.ndarray
    columns: list[str]

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.columns = list(self.columns)
        if self.features.ndim != 2 or self.features.shape[1] != len(self.columns):
            raise ValueError(f"unit {self.unit_id}: features of shape {self.features.shape} for {len(self.columns)} columns")
        n = self.features.shape[0]
        if n < 2:
            raise ValueError(f"unit {self.unit_id}: need at least 2 rows, got {n}")

    @property
    def length(self) -> int:
        return int(self.features.shape[0])


def feature_matrix(trajectory: EngineTrajectory, columns) -> np.ndarray:
    """Rows x the features named by ``columns``, in their order."""
    try:
        idx = [trajectory.columns.index(c) for c in columns]
    except ValueError as exc:
        raise ValueError(f"unknown column in selection: {exc}") from None
    return trajectory.features[:, idx]


def _numeric_rows(text: str, width: int, what: str):
    """(line number, floats) of each non-blank line, which must hold ``width``
    finite numbers; ``what`` states that count in the error."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if not tokens:
            continue
        if len(tokens) != width:
            raise ValueError(f"line {lineno}: expected {what}, got {len(tokens)}")
        try:
            row = [float(tok) for tok in tokens]
        except ValueError:
            raise ValueError(f"line {lineno}: non-numeric token") from None
        if not all(map(math.isfinite, row)):
            raise ValueError(f"line {lineno}: non-finite token")
        yield lineno, row


def parse_cmapss(text: str) -> list[EngineTrajectory]:
    """Parse a 26-column whitespace-separated C-MAPSS unit log; each unit's
    rows, in any order, must be cycles 1..L."""
    per_unit: dict[int, list[list[float]]] = {}
    for lineno, row in _numeric_rows(text, CMAPSS_COLUMNS, f"{CMAPSS_COLUMNS} columns"):
        if not (row[0].is_integer() and row[1].is_integer() and abs(row[0]) < 2**63):
            raise ValueError(f"line {lineno}: unit and cycle must be integers")
        per_unit.setdefault(int(row[0]), []).append(row)

    trajectories = []
    for unit in sorted(per_unit):
        rows = np.asarray(sorted(per_unit[unit], key=lambda r: r[1]))
        trajectories.append(EngineTrajectory(unit, rows[:, 2:], CMAPSS_FEATURES))  # checks the row count first
        if not np.array_equal(rows[:, 1], np.arange(1, len(rows) + 1)):
            raise ValueError(f"unit {unit}: cycles must be 1..L consecutive ascending")
    return trajectories


def parse_rul_truth(text: str) -> list[float]:
    """Parse the one-value-per-line true-RUL file for a test set."""
    values = []
    for lineno, (value,) in _numeric_rows(text, 1, "a single value"):
        if value < 0:
            raise ValueError(f"line {lineno}: RUL must be >= 0, got {value:g}")
        values.append(value)
    return values


def select_features(trajectories) -> list[str]:
    """Keep columns whose variance over all rows is at least 1e-12."""
    if not trajectories:
        raise ValueError("no trajectories to select features from")
    variances = np.vstack([t.features for t in trajectories]).var(axis=0)
    selected = [c for c, v in zip(trajectories[0].columns, variances) if v >= VARIANCE_FLOOR]
    if not selected:
        raise ValueError("all columns are constant; nothing to train on")
    return selected


@dataclass
class Batch:
    """Samples as ``AugmentedSamples.take`` gathers them: features ``oc``, look-aheads ``t``, labels ``rul``."""

    oc: np.ndarray
    t: np.ndarray
    rul: np.ndarray

    def __len__(self):
        return int(self.t.shape[0])


@dataclass
class AugmentedSamples:
    """Augmented samples over a table of logged rows, each row stored once.

    ``rows`` holds every logged row's selected features (engines in unit
    order, then cycles), and ``rul0``, ``row_unit`` and ``row_cycle`` its
    RUL at that cycle, unit id and cycle. A sample is a row index ``row``
    and a look-ahead ``t``, both int32; its label is ``rul0[row] - t``.
    """

    rows: np.ndarray
    rul0: np.ndarray
    row_unit: np.ndarray
    row_cycle: np.ndarray
    row: np.ndarray
    t: np.ndarray
    columns: list[str]

    def __len__(self):
        return int(self.t.shape[0])

    def take(self, idx) -> Batch:
        """The samples at index array ``idx``, gathered into new arrays; a slice is refused."""
        row, t = self.row.take(idx), self.t.take(idx)
        return Batch(oc=self.rows[row], t=t, rul=self.rul0[row] - t)

    # the whole set, per sample; each read gathers a new array
    @property
    def oc(self) -> np.ndarray:
        return self.rows[self.row]

    @property
    def rul(self) -> np.ndarray:
        return self.rul0[self.row] - self.t

    @property
    def unit(self) -> np.ndarray:
        return self.row_unit[self.row]

    @property
    def cycle(self) -> np.ndarray:
        return self.row_cycle[self.row]


def augment(trajectories, horizon: int = 30, *, columns) -> AugmentedSamples:
    """Emit (oc at cycle c, t, RUL0 - t) for t = 0 .. min(horizon, RUL0),
    oc the features named by ``columns``, in their order.

    Output order is canonical: unit, then cycle, then t ascending. Each
    logged row is stored once; a sample holds its row's index and its t,
    both int32 (t < the sample count). A ValueError names a sample count
    beyond int32, before any per-sample array is allocated.
    """
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    trajs = sorted(trajectories, key=lambda tr: tr.unit_id)
    if not trajs:
        raise ValueError("no trajectories to augment")
    lengths = [traj.length for traj in trajs]
    rul0 = np.concatenate([np.arange(n - 1, -1, -1) for n in lengths])  # L - c at each row's cycle c
    counts = np.minimum(horizon, rul0) + 1
    n = int(counts.sum())
    if n > np.iinfo(np.int32).max:
        raise ValueError(f"{n} augmented samples exceed the int32 sample index range")
    row = np.repeat(np.arange(len(rul0), dtype=np.int32), counts)
    t = np.arange(n, dtype=np.int32)
    t -= np.repeat((np.cumsum(counts) - counts).astype(np.int32), counts)  # 0 .. counts - 1 per logged row
    return AugmentedSamples(
        rows=np.concatenate([feature_matrix(traj, columns) for traj in trajs]),
        rul0=rul0.astype(np.float64),
        row_unit=np.repeat(np.array([traj.unit_id for traj in trajs], dtype=np.int64), lengths),
        row_cycle=np.concatenate([np.arange(1, n + 1) for n in lengths]),
        row=row,
        t=t,
        columns=list(columns),
    )


@dataclass
class NormStats:
    """Training-set feature statistics plus the label scale."""

    means: np.ndarray
    stds: np.ndarray
    rul_max: float
    columns: list[str]

    def __post_init__(self):
        self.means = np.asarray(self.means, dtype=np.float64)
        self.stds = np.asarray(self.stds, dtype=np.float64)
        if not np.isfinite(self.means).all():
            raise ValueError("means must be finite")
        if not ((0 < self.stds) & (self.stds < np.inf)).all():
            raise ValueError("stds must be finite and > 0")
        if not 1 <= self.rul_max < math.inf:
            raise ValueError(f"rul_max must be finite and >= 1, got {self.rul_max!r}")


def fit_norm(samples: AugmentedSamples) -> NormStats:
    """Fit z-score statistics and the label scale on training samples.

    The means and stds are those of ``samples.oc``, reduced over the row
    table with each row weighted by the number of samples that read it;
    numpy, not BLAS, sums, so no BLAS build or thread count moves a bit.
    """
    n, rows = len(samples), samples.rows
    w = np.bincount(samples.row, minlength=len(rows))[:, None]
    means = (w * rows).sum(axis=0) / n
    stds = np.sqrt((w * np.square(rows - means)).sum(axis=0) / n)
    if (stds < 1e-12).any():
        bad = [c for c, s in zip(samples.columns, stds) if s < 1e-12]
        raise ValueError(f"zero-variance feature(s) after selection: {bad}")
    # every logged row has a t = 0 sample, whose label rul0 is that row's largest
    return NormStats(means=means, stds=stds, rul_max=float(samples.rul0.max()), columns=list(samples.columns))


@dataclass(frozen=True)
class SynthSpec:
    """Parameters of the synthetic linear-degradation generator."""

    n_engines: int = 20
    min_life: int = 40
    max_life: int = 80
    n_sensors: int = 8
    noise_std: float = 0.01
    seed: int = 7

    def __post_init__(self):
        if self.min_life < 35:
            raise ValueError("min_life must be >= 35 so full augmentation windows exist")
        if self.max_life < self.min_life:
            raise ValueError("max_life must be >= min_life")
        if self.n_engines < 1:
            raise ValueError(f"n_engines must be >= 1, got {self.n_engines!r}")
        if self.n_sensors < 2:
            raise ValueError(f"n_sensors must be >= 2, got {self.n_sensors!r}")
        if not 0 <= self.noise_std < math.inf:
            raise ValueError(f"noise_std must be finite and >= 0, got {self.noise_std!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed!r}")


def _synth_coeffs(n_sensors: int):
    """Fixed per-sensor gain and healthy-baseline offset.

    Deterministic constants, not seed-dependent: every generated fleet
    shares the same sensor physics, so models trained on one fleet
    transfer to engines from another seed.
    """
    j = np.arange(n_sensors)
    gains = (1.0 + 0.08 * j) * np.where(j % 2 == 0, 1.0, -1.0)
    offsets = 0.15 * j - 0.4
    return gains, offsets


def synth_generate(spec: SynthSpec):
    """Seeded synthetic fleet; returns (trajectories, truth-at-last-cycle).

    Sensor j of an engine with life L reads a_j + b_j * (c / L) + noise,
    with the per-engine coefficients set by the engine's life draw: even
    channels are health margins falling linearly to 0 at failure
    (gain * (L - c) / max_life), odd channels are age ramps
    (gain * c / max_life). A single snapshot therefore determines the
    remaining life up to the injected noise. Every engine is logged to
    failure, hence the truth entries are all 0.
    """
    rng = np.random.default_rng(spec.seed)
    d = spec.n_sensors
    gains, offsets = _synth_coeffs(d)
    even = np.arange(d) % 2 == 0

    names = [f"s{j + 1}" for j in range(d)]
    trajectories = []
    for unit in range(1, spec.n_engines + 1):
        life = int(rng.integers(spec.min_life, spec.max_life + 1))
        rel = life / spec.max_life
        a = np.where(even, offsets + gains * rel, offsets)
        b = np.where(even, -gains * rel, gains * rel)
        frac = np.arange(1, life + 1)[:, None] / life
        sensors = a[None, :] + b[None, :] * frac + rng.normal(0.0, spec.noise_std, (life, d))
        trajectories.append(EngineTrajectory(unit, sensors, names))
    truth = [0.0] * spec.n_engines
    return trajectories, truth


def truncate_for_eval(trajectories, seed: int):
    """Cut each trajectory at a seeded-random cycle, like a test fleet.

    Returns (truncated trajectories, true RUL at each new last cycle).
    """
    rng = np.random.default_rng(seed)
    out, truth = [], []
    for traj in trajectories:
        last = int(rng.integers(2, traj.length))
        out.append(EngineTrajectory(traj.unit_id, traj.features[:last], traj.columns))
        truth.append(float(traj.length - last))
    return out, truth

"""Shared helpers: random graph/model builders, finite-difference checks and
FD001-style data files."""

import json

import numpy as np
import pytest

from pinnrul import (
    AugmentedSamples,
    Batch,
    NormStats,
    PinnConfig,
    cli,
    init_model,
)
from pinnrul.graph import Graph

FD_H = 1e-5


def fd_tolerance_ok(analytic, numeric, rel=1e-4, abs_tol=1e-8):
    """Relative comparison away from zero, absolute near zero."""
    analytic = float(analytic)
    numeric = float(numeric)
    if max(abs(analytic), abs(numeric)) <= 1e-3:
        return abs(analytic - numeric) <= abs_tol or abs(analytic - numeric) <= rel * max(
            abs(analytic), abs(numeric)
        )
    return abs(analytic - numeric) <= rel * max(abs(analytic), abs(numeric))


def random_graph(seed):
    """Small random graph of mlps over one bound input, with random output adjoints.

    ``mlp`` nodes of depth 1 to 3, hidden tanh, relu or linear (the last
    layer is always linear), carry k in {0, 1, 2} tangent blocks (relu
    only k = 0) and take either a seeded input (h alone, tangents started
    at weight columns) or a stacked one (k + 1 blocks of rows). The
    leaves are the input, node 0, a random r x c array, and one-layer
    linear mlps over a range of its rows, so mlps get operands that
    depend on weights. Each mlp reads one or two row ranges of pool
    nodes, each range a whole value or a part of one, the same node
    possibly twice, and splits its input adjoint back into each range's
    rows. Every mlp gets a random seed shaped like its value, so each of
    them feeds the gradient of sum_n <seed_n, value_n>. Each layer has its
    own weight, bias and gradient arrays. Returns (graph, (mlp id, value,
    grad) per weight and bias buffer, the input, seeds in node order).
    Callers skip draws whose relu pre-activations come near 0
    (``relu_inputs_safe``) so finite differences stay valid.
    """
    rng = np.random.default_rng(seed)
    g = Graph()
    s = rng.uniform(0.5, 1.5, (int(rng.integers(2, 5)), int(rng.integers(1, 3))))
    pool = [0]
    rows_of = [s.shape[0]]  # rows of each node's value, by id
    params = []

    def new_buffer(shape):
        return rng.uniform(0.5, 1.5, shape) * rng.choice([-1.0, 1.0], shape)

    def new_mlp(ins, d_in, d_out, hidden="linear", k=0, seeds=None, depth=1):
        widths = [d_in, *(int(m) for m in rng.integers(1, 4, depth - 1)), d_out]
        layers = []
        for d, m in zip(widths, widths[1:]):
            w, b = new_buffer((m, d)), new_buffer((m, 1))
            layers.append((w, b, np.zeros_like(w), np.zeros_like(b)))
        nid = g.build(ins, (hidden, layers, k, seeds))
        for w, b, dw, db in layers:
            params.extend([(nid, w, dw), (nid, b, db)])
        pool.append(nid)
        rows_of.append((1 + k) * d_out)
        return nid

    def new_range(n):
        start, stop = 0, rows_of[n]
        if rng.random() < 0.5:  # a part of the value
            start = int(rng.integers(stop))
            stop = int(rng.integers(start + 1, stop + 1))
        return n, start, stop

    for _ in range(rng.integers(2, 4)):
        _, start, stop = ins = new_range(0)
        new_mlp((ins,), stop - start, int(rng.integers(1, 4)))

    for _ in range(rng.integers(4, 9)):
        picks = [pool[rng.integers(len(pool))]]
        if rng.random() < 0.5:  # a second range, of any pool node (the first among them)
            picks.append(pool[rng.integers(len(pool))])
        ins = [new_range(n) for n in picks]
        rows = sum(stop - start for _, start, stop in ins)
        hidden = str(rng.choice(["tanh", "linear", "relu"]))
        out, depth = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        if hidden != "relu" and rng.random() < 0.5:  # seeded: ins hold h, tangents start at weight columns
            seeds = [int(c) for c in rng.integers(0, rows, int(rng.integers(0, 3)))]
            new_mlp(ins, rows, out, hidden, len(seeds), seeds, depth)
        else:  # stacked: ins hold h and k tangent blocks; k = 0 also comes seeded
            ks = [k for k in (1, 2) if rows % (1 + k) == 0 and hidden != "relu"] or [0]
            k = ks[rng.integers(len(ks))]
            new_mlp(ins, rows // (1 + k), out, hidden, k, depth=depth)
    seeds = [rng.uniform(-1.0, 1.0, (rows, s.shape[1])) for rows in rows_of[1:]]
    return g, params, s, seeds


def relu_inputs_safe(g, margin=1e-3):
    """(safe, checked) over graph ``g``'s last ``eval``: whether no relu hidden
    layer's pre-activation W h + b, on the layer input h that its mlp holds,
    has an entry within ``margin`` of 0, and how many such layers there are.
    """
    safe, checked = True, 0
    for (_, (hidden, layers, _, _)), chain in zip(g.nodes, g._chains):
        if hidden == "relu":
            for (w, b, _, _), h in zip(layers[:-1], chain):
                safe = safe and np.abs(w @ h + b).min() >= margin
                checked += 1
    return safe, checked


def layer_shapes(widths):
    """Per-layer (W, b) shapes of an MLP of layer ``widths``; W is (out x in)."""
    return [((d_out, d_in), (d_out, 1)) for d_in, d_out in zip(widths, widths[1:])]


def drawn_mlp(widths, seed=0, hidden="tanh"):
    """(hidden, layers): one (W, b, dW, db) tuple per layer of an MLP of
    layer ``widths`` [d_in, h1, ..., d_out], every W and b entry i.i.d.
    N(0, 1) from ``np.random.default_rng(seed)``, per layer W then b, and
    the gradients zero, for ``GraphMlp(g, *mlp)`` or ``_chain(*mlp, ...)``.
    """
    rng = np.random.default_rng(seed)
    layers = []
    for w_shape, b_shape in layer_shapes(widths):
        w, b = rng.standard_normal(w_shape), rng.standard_normal(b_shape)
        layers.append((w, b, np.zeros_like(w), np.zeros_like(b)))
    return hidden, layers


def grad_views(model, grad):
    """Name -> view of a gradient vector, cut like ``model.theta``."""
    views, start = {}, 0
    for name, view in model.parameter_items():
        views[name] = grad[start : start + view.size].reshape(view.shape)
        start += view.size
    return views


def small_random_model(seed, d_oc=2, pde_weight=1.0):
    """Random model of the paper's three networks on a few features, with a fitted-looking norm."""
    rng = np.random.default_rng(seed)
    config = PinnConfig(d_oc, pde_weight)
    norm = NormStats(
        means=rng.normal(0, 1, d_oc),
        stds=rng.uniform(0.5, 2.0, d_oc),
        rul_max=float(rng.uniform(50, 150)),
        columns=[f"s{i + 1}" for i in range(d_oc)],
    )
    return init_model(config, norm, int(rng.integers(0, 2**32)), scheme="xavier")


def random_batch(model, seed, n=4):
    rng = np.random.default_rng(seed)
    d = model.config.d_oc
    return Batch(
        t=rng.integers(0, 31, n),
        rul=rng.uniform(0, model.norm.rul_max, n),
        oc=model.norm.means + model.norm.stds * rng.normal(0, 1, (n, d)),
    )


def random_samples(model, seed, n=4):
    """``random_batch``'s draws as an ``AugmentedSamples`` of one logged row per
    sample: its oc and t are the batch's, its labels rul0 - t only near its rul."""
    b = random_batch(model, seed, n)
    return AugmentedSamples(
        rows=b.oc,
        rul0=b.rul + b.t,
        row_unit=np.ones(n, dtype=np.int32),
        row_cycle=np.arange(1, n + 1, dtype=np.int32),
        row=np.arange(n, dtype=np.int32),
        t=b.t.astype(np.int32),
        columns=list(model.norm.columns),
    )


def fd_gradient(model, batch, name, index, h=FD_H):
    """Central finite difference of the total cost w.r.t. one entry."""
    buf = dict(model.parameter_items())[name]
    old = buf[index]
    buf[index] = old + h
    up = model.cost_values(batch)[2]
    buf[index] = old - h
    down = model.cost_values(batch)[2]
    buf[index] = old
    return (up - down) / (2 * h)


def dyn_preactivations_safe(model, batch, margin=1e-3):
    """Keep finite differences honest: no relu pre-activation near 0.

    Evaluates the model's graph on the batch and checks the pre-activation
    entries of each relu layer: the rate network's five hidden layers.
    """
    model._eval_batch(model._inputs(batch.oc, batch.t))
    safe, checked = relu_inputs_safe(model._graph, margin)
    assert checked == 5
    return safe


def write_fd001_style(tmp_path, n_units=2, length=40, test_length=25):
    """Tiny files in the 26-column format plus a truth file."""
    rng = np.random.default_rng(0)

    def rows(n_units, length):
        lines = []
        for unit in range(1, n_units + 1):
            for cycle in range(1, length + 1):
                settings = [0.0, 0.0, 100.0]
                sensors = [rng.normal(10 * j, 1.0) + 0.05 * cycle for j in range(21)]
                vals = [unit, cycle] + settings + sensors
                lines.append(" ".join(f"{v:.4f}" for v in vals))
        return "\n".join(lines) + "\n"

    (tmp_path / "train_FD001.txt").write_text(rows(n_units, length))
    (tmp_path / "test_FD001.txt").write_text(rows(n_units, test_length))
    (tmp_path / "RUL_FD001.txt").write_text("".join(f"{length - test_length}\n" for _ in range(n_units)))


def fd001_config(data_dir):
    """Path of a one-epoch ``fd001`` run config reading from ``data_dir``."""
    cfg = {"dataset": "fd001", "data_dir": str(data_dir), "epochs": 1, "batch_size": 128, "output_dir": str(data_dir / "out")}
    path = data_dir / "c.json"
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.fixture(scope="module")
def fd001_dir(tmp_path_factory):
    """FD001-style files and, under ``out/``, a model trained on them for one epoch."""
    path = tmp_path_factory.mktemp("fd001")
    write_fd001_style(path)
    assert cli.main(["train", "--config", fd001_config(path)]) == 0
    return path


@pytest.fixture
def rng():
    return np.random.default_rng(12345)

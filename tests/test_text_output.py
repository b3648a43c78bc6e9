"""The CLI's text tables are byte for byte what a per-row ``str.format``
writer gives.

``predict`` (``--csv`` and the plain table) and ``eval``'s
``pred_vs_true.csv`` fill one ``%`` template per chunk of rows;
``_write_latent_csv`` builds the digits of ``%.9g`` in bulk with numpy.
The reference writers below are the per-row formatting those tables had
before: property tests feed both the same numbers, edge cases included,
a fixed table covers every class of the bulk formatter, and a fixed
synthetic run compares each command's real output with the reference
rendering of the numbers the model gave it.
"""

import contextlib
import io
import json
import math
import types
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pinnrul import cli, load_model
from pinnrul.model import CHUNK, PinnModel

# -- reference writers: one str.format / f-string call per row -----------


def latent_reference(table) -> str:
    row = "{:.9g},{:.9g},{:.9g},{:.9g}\n".format
    return "x,dx_dt,rul_pred,rul_true\n" + "".join(row(*values) for values in np.asarray(table).tolist())


def predict_reference(rows, as_csv: bool) -> str:
    # each line was one print call
    if as_csv:
        lines = ["t,x,dx_dt,rul_pred"] + [f"{t:.9g},{x:.9g},{dx:.9g},{rul:.9g}" for t, x, dx, rul in rows]
    else:
        lines = [f"{'t':>8} {'x':>14} {'dx_dt':>14} {'rul_pred':>12}"]
        lines += [f"{t:8.2f} {x:14.6f} {dx:14.6f} {rul:12.3f}" for t, x, dx, rul in rows]
    return "".join(line + "\n" for line in lines)


def pred_vs_true_reference(pairs) -> str:
    return "engine,rul_true,rul_pred\n" + "".join(f"{unit},{true_v:.9g},{pred_v:.9g}\n" for unit, true_v, pred_v in pairs)


# -- property tests ------------------------------------------------------

# signed zeros, subnormal and normal extremes, values that round across a
# digit or a power of ten at 9 significant digits, integers, inf and nan;
# then the bulk latent-map formatter's boundaries: leading zeros after the
# point, the last fixed-notation exponents at each end, a mantissa that
# rounds up to e = 8, a tie, and digits on both sides of the point
EDGES = [
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    2.2250738585072014e-308,
    1e-300,
    1e300,
    -1e300,
    0.1234567895,
    999999999.5,
    -999999999.5,
    1e9,
    1e16,
    7.0,
    -3.0,
    math.inf,
    -math.inf,
    math.nan,
    0.0625,
    -0.000123456789,
    1e-4,
    float(np.nextafter(1e-4, 0)),
    99999999.995,
    123456789.5,
    1e8,
    12345.6789,
]
VALUE = st.sampled_from(EDGES) | st.floats() | st.integers(-(2**53), 2**53).map(float)
# sweep and rmse_eval return Python floats; a Python int must format the same too
SCALAR = VALUE | st.integers(-(2**63), 2**63 - 1)
UNIT = st.sampled_from([0, 1, 10**9 - 1, 10**9, 10**9 + 7, 2**63 - 1]) | st.integers(0, 2**63 - 1)
# every edge case, four to a row
EDGE_ROWS = [tuple(EDGES[i : i + 4]) for i in range(0, len(EDGES) - 3, 2)]


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.tuples(VALUE, VALUE, VALUE, VALUE), max_size=13), chunk=st.integers(1, 6))
@example(rows=EDGE_ROWS, chunk=3)
def test_latent_csv_bytes_equal_per_row_format(tmp_path_factory, rows, chunk):
    table = np.array(rows, dtype=np.float64).reshape(-1, 4)
    path = tmp_path_factory.getbasetemp() / "latent.csv"
    cli._write_latent_csv((table[a : a + chunk] for a in range(0, len(table), chunk)), path)
    assert path.read_bytes() == latent_reference(table).encode("ascii")


def test_latent_csv_covers_every_class(tmp_path):
    # 3 * CHUNK + 5 rows: every decimal exponent from -5 to 9 with every
    # count of significant digits from 1 to 9, of both signs, each many
    # times with seeded random digits; a nonzero first and last digit fix the count
    n = 4 * (3 * CHUNK + 5)
    i = np.arange(n)
    exponent, digits, sign = i % 15 - 5, i // 15 % 9 + 1, np.where(i // 135 % 2, -1.0, 1.0)
    rng = np.random.default_rng(28)
    lead = rng.integers(1, 10, n)
    middle = (rng.integers(0, 10**7, n) % 10 ** np.maximum(digits - 2, 0)) * 10
    last = np.where(digits > 1, rng.integers(1, 10, n), 0)
    mantissa = (lead * 10 ** np.maximum(digits - 1, 0) + middle + last) * 10 ** (9 - digits)
    # one decimal-to-binary rounding per value, as a parser gives it
    values = [s * float(f"{m}e{e - 8}") for s, m, e in zip(sign.tolist(), mantissa.tolist(), exponent.tolist())]
    table = np.array(values).reshape(-1, 4)
    path = tmp_path / "latent.csv"
    cli._write_latent_csv((table[a : a + CHUNK] for a in range(0, len(table), CHUNK)), path)
    assert path.read_bytes() == latent_reference(table).encode("ascii")


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.tuples(SCALAR, SCALAR, SCALAR, SCALAR), min_size=1, max_size=8), as_csv=st.booleans())
@example(rows=EDGE_ROWS, as_csv=True)
@example(rows=EDGE_ROWS, as_csv=False)
def test_predict_stdout_equals_per_row_print(rows, as_csv):
    model = types.SimpleNamespace(sweep=lambda oc, t_list: rows)
    stdout = io.StringIO()
    with mock.patch.object(cli, "load_model", lambda path: model), contextlib.redirect_stdout(stdout):
        assert cli.cmd_predict("model.bin", "0", "0", as_csv) == 0
    assert stdout.getvalue() == predict_reference(rows, as_csv)


@settings(max_examples=200, deadline=None)
@given(pairs=st.lists(st.tuples(UNIT, SCALAR, SCALAR), max_size=8))
@example(pairs=[(10**9 + 7, *row[:2]) for row in EDGE_ROWS] + [(10**9 + 7, *row[2:]) for row in EDGE_ROWS])
def test_pred_vs_true_csv_equals_per_row_format(tmp_path_factory, pairs):
    out = tmp_path_factory.getbasetemp() / "eval"
    model = types.SimpleNamespace(rmse_eval=lambda trajectories, truth: (0.0, pairs), init_seed=0, split_seed=0)
    with (
        mock.patch.object(cli, "load_model", lambda path: model),
        mock.patch.object(cli, "load_test_set", lambda cfg: ([], [])),
        contextlib.redirect_stdout(io.StringIO()),
    ):
        assert cli.cmd_eval(cli.RunConfig(output_dir=str(out)), str(out / "absent" / "model.bin")) == 0
    assert (out / "pred_vs_true.csv").read_bytes() == pred_vs_true_reference(pairs).encode("ascii")


# -- a fixed synthetic run, end to end -----------------------------------


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """A trained 4-engine fleet (lives 40-60, 6 sensors, seed 5, 2 epochs, batch 64)."""
    tmp = tmp_path_factory.mktemp("text")
    config = {
        "dataset": "synthetic",
        "synth": {"n_engines": 4, "min_life": 40, "max_life": 60, "n_sensors": 6, "seed": 5},
        "epochs": 2,
        "batch_size": 64,
        "output_dir": str(tmp / "out"),
    }
    path = tmp / "config.json"
    path.write_text(json.dumps(config))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["train", "--config", str(path)]) == 0
    return str(path), tmp / "out"


def recording(monkeypatch, name):
    """Wrap ``PinnModel.<name>`` so that each call's return value is kept."""
    returned = []
    method = getattr(PinnModel, name)

    def wrapper(self, *args):
        returned.append(method(self, *args))
        return returned[-1]

    monkeypatch.setattr(PinnModel, name, wrapper)
    return returned


@pytest.mark.parametrize("which", ["train", "test"])
def test_map_csv_equals_per_row_format(run, monkeypatch, capsys, which):
    config, out = run
    tables = recording(monkeypatch, "latent_map")
    assert cli.main(["map", "--config", config, "--model", str(out / "model.bin"), "--which", which]) == 0
    table = np.vstack(tables)  # one table per CHUNK-row block
    assert len(table) > 0
    assert (out / f"latent_map_{which}.csv").read_bytes() == latent_reference(table).encode("ascii")


def test_eval_csv_equals_per_row_format(run, monkeypatch, capsys):
    config, out = run
    results = recording(monkeypatch, "rmse_eval")
    assert cli.main(["eval", "--config", config, "--model", str(out / "model.bin")]) == 0
    ((_, pairs),) = results
    assert len(pairs) == 4
    assert (out / "pred_vs_true.csv").read_bytes() == pred_vs_true_reference(pairs).encode("ascii")


@pytest.mark.parametrize("as_csv", [True, False], ids=["csv", "table"])
def test_predict_stdout_equals_per_row_print_end_to_end(run, monkeypatch, capsys, as_csv):
    _, out = run
    model = str(out / "model.bin")
    oc = ",".join(map(str, np.linspace(-1.5, 1.5, load_model(model).config.d_oc)))
    sweeps = recording(monkeypatch, "sweep")
    argv = ["predict", "--model", model, f"--oc={oc}", "--t-list", "0,1,2.5,10,100,1000"]
    assert cli.main(argv + ["--csv"] * as_csv) == 0
    (rows,) = sweeps
    assert len(rows) == 6
    assert capsys.readouterr().out == predict_reference(rows, as_csv)

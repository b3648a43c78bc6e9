"""Command-line pipeline: check-data, train, eval, map, predict.

Runs are driven by a JSON config file; ``--out`` (on ``train``, ``eval``
and ``map``) and, on ``train``, the seeds, epochs and batch size
override it so experiments stay versionable. Exit codes are a stable
contract: 0 success, 1 count/assertion failure, 2 usage/config/data
error (a run too large to allocate included), 3 numeric failure.

Every bad input takes one path to exit 2: it raises ValueError (or
OSError, for a file that cannot be opened), and ``main`` prints
``error: <message>``. ``_parse`` reads each text input and puts the
file's path in front of any decode or parse error.

``_parser()`` is the one statement of the flags. ``main`` parses a
command line once, with the parser of the command its first token names,
so an unknown flag after a command is reported under that command's usage
line (``pinnrul predict: error: unrecognized arguments: ...``). The
top-level parser reads only a line with no command, an unknown one, an
option before the command, or ``-h``, whose help is written for users,
not taken from this docstring.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import reprlib
import sys
import time
from pathlib import Path

import numpy as np

from . import data as dat
from . import model as mdl
from .data import SynthSpec
from .model import INIT_SCHEMES, NumericError, PinnConfig, init_model
from .modelfile import json_is, json_loads, load_model, save_model
from .optim import NadamConfig, train

FD001_FILES = {"train": "train_FD001.txt", "test": "test_FD001.txt", "rul": "RUL_FD001.txt"}
FD001_RAW_ROWS = 20631
FD001_AUGMENTED = 593061
FD001_ENGINES = 100


# the "model" section's keys and the RunConfig fields they set
_MODEL_FIELDS = {"lambda": "pde_weight", "t_scale": "t_scale"}


@dataclasses.dataclass
class RunConfig:
    data_dir: str = "."
    dataset: str = "fd001"
    synth: SynthSpec = dataclasses.field(default_factory=SynthSpec)
    pde_weight: float = 1.0
    t_scale: float = 30.0
    optimizer: NadamConfig = dataclasses.field(default_factory=NadamConfig)
    epochs: int = 30
    batch_size: int = 512
    split_seed: int = 0
    init_seed: int = 0
    init_scheme: str = "xavier"
    horizon: int = 30
    output_dir: str = "out"

    def __post_init__(self):
        # every message begins with a field's name, which load_config turns into its JSON key
        if self.dataset not in ("fd001", "synthetic"):
            raise ValueError(f"dataset must be 'fd001' or 'synthetic', got {self.dataset!r}")
        for name, value in (("epochs", self.epochs), ("batch_size", self.batch_size)):
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value!r}")
        for name, value in (("horizon", self.horizon), ("split_seed", self.split_seed), ("init_seed", self.init_seed)):
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value!r}")
        if self.init_scheme not in INIT_SCHEMES:
            raise ValueError(f"init_scheme must be one of {INIT_SCHEMES}, got {self.init_scheme!r}")
        PinnConfig(1, self.pde_weight, self.t_scale)  # the model's own ranges

    def to_dict(self) -> dict:
        """The config file's only statement of its keys, nesting and JSON types (each default's)."""
        out = dataclasses.asdict(self)
        out["model"] = {key: out.pop(field) for key, field in _MODEL_FIELDS.items()}
        return out


_JSON_NAMES = {field: f"model.{key}" for key, field in _MODEL_FIELDS.items()}
_NOUNS = {int: "an integer in int64 range", float: "a number in float range", str: "a string", dict: "a JSON object"}


def _check_json(value, default, name: str = "") -> None:
    """Config error unless ``value`` has the JSON type of ``default`` (as
    ``json_is`` reads it), checked recursively into objects, whose keys
    must be among ``default``'s.
    """
    kind = type(default)
    if not json_is(value, kind):
        raise ValueError(f"config: {name or 'top level'} must be {_NOUNS[kind]}, got {reprlib.repr(value)}")
    if kind is dict:
        for key, item in value.items():
            dotted = f"{name}.{key}" if name else key
            if key not in default:
                raise ValueError(f"config: unknown key {dotted!r}")
            _check_json(item, default[key], dotted)


def _build(prefix: str, make, kwargs: dict):
    """``make(**kwargs)``; its ValueError, which begins with a field's name,
    is a config error naming that field's dotted JSON key."""
    try:
        return make(**kwargs)
    except ValueError as exc:
        field, _, rest = str(exc).partition(" ")
        raise ValueError(f"config: {_JSON_NAMES.get(prefix + field, prefix + field)} {rest}") from None


def _parse(path: Path, parse):
    """``parse`` of a UTF-8 text file (the config, a data file, an oc file);
    an undecodable or malformed file is a ValueError naming it (a missing or
    unreadable one is an OSError, whose message names it too)."""
    try:
        return parse(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def load_config(path: str | None, overrides: dict | None = None) -> RunConfig:
    """Read the JSON config, apply flag overrides and check the result against
    ``RunConfig().to_dict()``, so a flag's value is checked as its key's."""
    raw = {} if path is None else _parse(Path(path), json_loads)
    top = {**raw, **(overrides or {})} if isinstance(raw, dict) else raw
    _check_json(top, RunConfig().to_dict())
    synth = _build("synth.", SynthSpec, top.pop("synth", {}))
    optimizer = _build("optimizer.", NadamConfig, top.pop("optimizer", {}))
    top.update((_MODEL_FIELDS[key], value) for key, value in top.pop("model", {}).items())
    return _build("", RunConfig, {**top, "synth": synth, "optimizer": optimizer})


# -- data plumbing ------------------------------------------------------


def _engines(cfg: RunConfig, which: str):
    """Trajectories of one FD001-style file; a file with no engine rows is a data error."""
    path = Path(cfg.data_dir) / FD001_FILES[which]
    trajectories = _parse(path, dat.parse_cmapss)
    if not trajectories:
        raise ValueError(f"{path}: no engine rows")
    return trajectories


def load_train_trajectories(cfg: RunConfig):
    if cfg.dataset == "fd001":
        return _engines(cfg, "train")
    trajectories, _ = dat.synth_generate(cfg.synth)
    return trajectories


def load_test_set(cfg: RunConfig):
    """Test trajectories plus the true RUL at each one's last cycle."""
    if cfg.dataset == "fd001":
        trajectories = _engines(cfg, "test")
        path = Path(cfg.data_dir) / FD001_FILES["rul"]
        truth = _parse(path, dat.parse_rul_truth)
        if len(truth) != len(trajectories):
            raise ValueError(f"{path}: {len(truth)} truth values for {len(trajectories)} test engines")
        return trajectories, truth
    # held-out fleet: fresh engines, truncated mid-life like a test set
    holdout = dataclasses.replace(cfg.synth, seed=cfg.synth.seed + 1)
    trajectories, _ = dat.synth_generate(holdout)
    return dat.truncate_for_eval(trajectories, seed=cfg.synth.seed + 2)


def build_training_data(cfg: RunConfig):
    """(samples, norm) for the configured dataset."""
    trajectories = load_train_trajectories(cfg)
    columns = dat.select_features(trajectories)
    samples = dat.augment(trajectories, horizon=cfg.horizon, columns=columns)
    norm = dat.fit_norm(samples)
    return samples, norm


def _training_report(model_path: str) -> dict | None:
    """The ``training_report.json`` next to the model, or None if there is none."""
    path = Path(model_path).parent / "training_report.json"
    if not path.is_file():
        return None
    try:
        report = json_loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ValueError(f"training report {path} is not valid JSON: {exc}") from None
    if not isinstance(report, dict) or not {"final_rmse_val", "per_epoch"} <= report.keys():
        raise ValueError(f"training report {path} is not a JSON object with final_rmse_val and per_epoch")
    return report


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _flat(rows) -> tuple:
    """The values of ``rows`` (tuples of numbers) in row-major order, for a ``%`` template."""
    return tuple(value for row in rows for value in row)


# -- commands -----------------------------------------------------------


def cmd_check_data(cfg: RunConfig) -> int:
    trajectories = load_train_trajectories(cfg)
    raw_rows = sum(t.length for t in trajectories)
    columns = dat.select_features(trajectories)
    samples = dat.augment(trajectories, horizon=cfg.horizon, columns=columns)
    print(f"{len(trajectories)} engines, {raw_rows} rows, {len(samples)} augmented")
    print(f"selected features ({len(columns)}): {','.join(columns)}")

    if cfg.dataset != "fd001" or cfg.horizon != 30:
        return 0
    checks = (
        ("engines", len(trajectories), FD001_ENGINES),
        ("raw rows", raw_rows, FD001_RAW_ROWS),
        ("augmented", len(samples), FD001_AUGMENTED),
    )
    problems = [f"{name}: got {got}, expected {want}" for name, got, want in checks if got != want]
    for p in problems:
        print(f"MISMATCH: {p}", file=sys.stderr)
    return 1 if problems else 0


def cmd_train(cfg: RunConfig) -> int:
    out = _out_dir(cfg)  # before any epoch, so an unusable --out fails at once
    samples, norm = build_training_data(cfg)
    config = PinnConfig(len(norm.columns), pde_weight=cfg.pde_weight, t_scale=cfg.t_scale)
    model = init_model(config, norm, cfg.init_seed, cfg.init_scheme)
    trained, report = train(
        model,
        samples,
        split_seed=cfg.split_seed,
        init_seed=cfg.init_seed,
        epochs=cfg.epochs,
        batch_size=cfg.batch_size,
        config=cfg.optimizer,
        scheme=cfg.init_scheme,
        log=print,
    )
    save_model(trained, out / "model.bin")
    payload = {"config": cfg.to_dict(), **report.to_dict()}
    (out / "training_report.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"validation RMSE {report.final_rmse_val:.3f} cycles")
    print(f"wrote {out / 'model.bin'} and {out / 'training_report.json'}")
    return 0


def _check_columns(model_path: str, model, trajectories) -> None:
    """Every feature column the model reads must be in each trajectory; a missing one names the model file."""
    for traj in trajectories:
        missing = [c for c in model.norm.columns if c not in traj.columns]
        if missing:
            raise ValueError(f"{model_path}: model needs column {missing[0]!r}, which the data lacks")


def cmd_eval(cfg: RunConfig, model_path: str) -> int:
    model = load_model(model_path)
    training = _training_report(model_path)
    trajectories, truth = load_test_set(cfg)
    _check_columns(model_path, model, trajectories)
    started = time.perf_counter()
    rmse, pairs = model.rmse_eval(trajectories, truth)

    out = _out_dir(cfg)
    with open(out / "pred_vs_true.csv", "w", encoding="ascii") as fh:
        # %d, not %.9g: a unit id of 10**9 or more prints in full
        fh.write("engine,rul_true,rul_pred\n" + "%d,%.9g,%.9g\n" * len(pairs) % _flat(pairs))

    metrics = {
        "rmse_test": rmse,
        "rmse_val": None if training is None else training["final_rmse_val"],
        "per_epoch": None if training is None else training["per_epoch"],
        "config": cfg.to_dict(),
        "seeds": {"init": model.init_seed, "split": model.split_seed},
        "wall_time": time.perf_counter() - started,
    }
    (out / "eval.json").write_text(json.dumps(metrics, indent=2, sort_keys=True) + "\n")
    print(f"test RMSE {rmse:.3f} cycles over {len(pairs)} engines")
    return 0


# The latent map's CSV. Each value's text is cut from 24 one-byte slots,
# three 8-byte words filled by table lookups:
#   "-0.000" d0 "."  |  d1 "." d2 "." d3 "." d4 "."  |  d5 "." d6 "." d7 "." d8 sep
# so the mantissa d0..d8 splits into d0 and two groups of four digits.
_POW10 = np.array([float(10**k) for k in range(14)])  # exact: every power of ten up to 1e22 is a double
_SEP_OFFSET = np.array([0, 0, 0, 10_000])  # the row's last value takes the newline words


def _digit_words(last: bytes) -> np.ndarray:
    """The 8-byte words of "d.d.d.d" and one byte of ``last``, for
    0000..9999 and each such byte in turn: ``len(last)`` * 10,000 words."""
    pairs = np.frombuffer("".join(f"{k:02d}" for k in range(100)).encode(), np.uint8).reshape(100, 2)
    words = np.full((len(last), 100, 100, 8), ord("."), np.uint8)
    words[..., 0:3:2] = pairs[:, None]
    words[..., 4:7:2] = pairs
    words[..., 7] = np.frombuffer(last, np.uint8)[:, None, None]
    return words.reshape(-1).view(np.uint64)


@functools.cache
def _csv_tables() -> tuple[np.ndarray, ...]:
    """The bulk formatter's tables, built by the first export so that the
    other commands neither build nor hold them (~0.3 MB):

    - the first word for each d0, and for d0 = 10, a mantissa rounded up
      to 1e9, which prints as 1 then zeros;
    - the second and third words for each group of four digits;
    - the significant digits of each group of four: 4 less its trailing zeros;
    - (300, 3) words of byte masks, 0xff for a slot printed by class
      (e + 5) * 20 + 2 * s + negative and 0 for the rest, for decimal
      exponent e in -5..9 and s significant digits. Only e in -4..8 prints
      in fixed notation; the classes of e = -5 and 9 keep just the
      separator, and mark a value that ``%`` formats;
    - the number of slots each class prints.
    """
    lead = np.frombuffer(b"".join(b"-0.000%c." % d for d in b"01234567891"), np.uint64)
    significant = 4 - sum(np.arange(10_000) % 10**k == 0 for k in range(1, 5))
    keep = np.zeros((15, 10, 2, 24), bool)
    keep[..., 23] = True
    digit = np.arange(6, 23, 2)
    for e in range(-4, 9):
        for s in range(1, 10):
            k = keep[e + 5, s]
            k[1, 0] = True
            if e < 0:  # "0." then -e - 1 zeros, then the digits
                k[:, 1 : 2 - e] = True
                k[:, digit[:s]] = True
            else:  # the digits through d_e, then the dot and the rest if any remain
                k[:, digit[: max(s, e + 1)]] = True
                if s > e + 1:
                    k[:, digit[e] + 1] = True
    keep = keep.reshape(300, 24)
    masks = np.where(keep, np.uint8(0xFF), np.uint8(0)).view(np.uint64)
    return lead, _digit_words(b"."), _digit_words(b",\n"), significant, masks, keep.sum(axis=1)


def _csv_text(part: np.ndarray) -> bytes:
    """``b"%.9g,%.9g,%.9g,%.9g\\n" * len(part) % tuple(part.ravel())`` for an
    (m, 4) float64 array, built in bulk (``_write_latent_csv`` says why
    its digits are exact). Each value's 24 slots are masked by its class,
    so a dropped slot becomes a 0 byte, which no printed byte is, and one
    ``translate`` pass deletes them all."""
    lead_words, mid_words, last_words, significant, keep_words, kept = _csv_tables()
    v = part.ravel()
    a = np.abs(v)
    inrange = (a >= 1e-5) & (a < 1e9)  # false for inf and nan
    a = np.where(inrange, a, 1.0)  # the rest are zeros or print through %
    e = np.floor(np.log10(a)).astype(np.intp)
    np.clip(e, -5, 8, out=e)
    q = a * _POW10[8 - e]
    off = (q >= 1e9) | (q < 1e8)  # log10 missed by one next to a power of ten
    if off.any():
        (i,) = np.nonzero(off)
        e[i] += np.where(q[i] >= 1e9, 1, -1)
        inrange[i] &= (e[i] >= -5) & (e[i] <= 8)
        np.clip(e, -5, 8, out=e)
        q[i] = a[i] * _POW10[8 - e[i]]
    m = np.rint(q)
    fixed = inrange & (np.abs(q - m) < 0.5 - 1e-6)
    mantissa = np.where(fixed, m, 0.0).astype(np.intp)
    fixed |= v == 0  # mantissa 0 at e = 0 prints "0"
    lead = mantissa // 10**8
    low = mantissa - lead * 10**8
    mid = low // 10**4
    low -= mid * 10**4
    words = np.empty((len(v), 3), np.uint64)
    words[:, 0] = lead_words[lead]
    words[:, 1] = mid_words[mid]
    words[:, 2] = last_words[(low.reshape(-1, 4) + _SEP_OFFSET).reshape(-1)]
    digits = np.where(low > 0, 5 + significant[low], 1 + significant[mid])
    cls = ((e + 5 + lead // 10) * 10 + digits) * 2 + np.signbit(v)
    cls *= fixed  # class 0 (e = -5) marks the rest
    words &= np.take(keep_words, cls, axis=0)  # np.take, not keep_words[cls], which took 3.6 x as long
    text = words.tobytes().translate(None, b"\0")
    lengths = kept[cls]
    (others,) = np.nonzero(lengths == 1)
    if not len(others):
        return text
    # each of the rest gets its text in front of its separator
    ends = (np.cumsum(lengths)[others] - 1).tolist()
    pieces, start = [], 0
    for end, word in zip(ends, (b"%.9g " * len(others) % tuple(v[others].tolist())).split()):
        pieces += text[start:end], word
        start = end
    pieces.append(text[start:])
    return b"".join(pieces)


def _write_latent_csv(blocks, path) -> None:
    """Write the latent map from ``blocks``, an iterable of (m, 4) arrays,
    formatting and writing each block as it arrives.

    The file is written as ``<path>.part`` and renamed to ``path`` after
    the last block, so an export that fails part way (a ``NumericError``
    in a later block, say) removes the part file and leaves any earlier
    file at ``path`` as it was.

    The text is that of ``"%.9g,%.9g,%.9g,%.9g\\n"``, built in bulk by
    ``_csv_text``, and its digits are exact. A value v whose decimal
    exponent e lies in -5..8 gets the mantissa q = |v| * 10**(8 - e). The
    power of ten is an exact double, so q is the exact product rounded
    once: within 6e-8 of it, half an ulp below 2**30. Where q lies more
    than 1e-6 from a half-integer, rint(q) is therefore the correctly
    rounded 9-digit mantissa that ``%.9g`` prints; a mantissa rounded up
    to 1e9 moves e up one. The values in that band, those that print in
    exponent notation (e outside -4..8), inf and nan go through one ``%``
    call per block.
    """
    part = Path(f"{path}.part")
    try:
        with open(part, "wb") as fh:
            fh.write(b"x,dx_dt,rul_pred,rul_true\n")
            for block in blocks:
                fh.write(_csv_text(block))
        os.replace(part, path)
    except BaseException:
        part.unlink(missing_ok=True)
        raise


def cmd_map(cfg: RunConfig, model_path: str, which: str) -> int:
    model = load_model(model_path)
    if which == "train":
        trajectories, truth = load_train_trajectories(cfg), None
    else:
        trajectories, truth = load_test_set(cfg)
    _check_columns(model_path, model, trajectories)
    samples = dat.augment(trajectories, horizon=cfg.horizon if truth is None else 0, columns=model.norm.columns)
    if truth is not None:  # one t = 0 sample per logged row, labelled with the engine's true RUL there
        samples.rul0 += np.repeat(truth, [traj.length for traj in trajectories])

    out = _out_dir(cfg)
    path = out / f"latent_map_{which}.csv"
    # one CHUNK-row block of the map at a time, so no (n, 4) table and no whole-set index array exists
    n = len(samples)
    blocks = (model.latent_map(samples, np.arange(a, min(a + mdl.CHUNK, n))) for a in range(0, n, mdl.CHUNK))
    _write_latent_csv(blocks, path)
    print(f"wrote {path} ({len(samples)} rows)")
    return 0


def _numbers(flag: str, arg: str, text: str | None = None) -> list[float]:
    """The finite numbers that ``arg``, the value of ``--oc`` or ``--t-list`` (``flag``), lists,
    or that ``text`` lists where ``arg`` names the file it was read from; -0 reads as 0, so a
    horizon of -0 prints as 0.

    Commas and/or whitespace separate the items, and each item is ASCII text that ``float``
    reads, such as ``-0.5`` or ``1e-05``. An empty item (before, after or between commas), a
    ``_`` or a non-ASCII character, all of which ``float`` or a plain split would let through,
    and an item that is not a number or not finite are errors naming the flag and ``arg``.
    """
    text = arg if text is None else text
    # without its whitespace, a list with an empty item has a comma at an end or two commas together
    empty = ",," in f",{''.join(text.split())},"
    problem = "a non-ASCII character" if not text.isascii() else "a '_'" if "_" in text else "an empty item" if empty else None
    if problem:
        raise ValueError(f"{flag} has {problem}, got {arg!r}")
    name = "oc values" if flag == "--oc" else "t-list"
    try:
        values = [float(tok) + 0.0 for tok in text.replace(",", " ").split()]
    except ValueError:
        raise ValueError(f"{name} must be numeric, got {arg!r}") from None
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{name} must be finite, got {arg!r}")
    return values


def cmd_predict(model_path: str, oc_text: str, t_text: str, as_csv: bool) -> int:
    model = load_model(model_path)
    oc = _numbers("--oc", oc_text, _parse(Path(oc_text[1:]), str) if oc_text.startswith("@") else None)
    t_list = _numbers("--t-list", t_text)
    rows = model.sweep(oc, t_list)  # checks the oc width and the horizons
    if as_csv:
        head, row = "t,x,dx_dt,rul_pred\n", "%.9g,%.9g,%.9g,%.9g\n"
    else:
        head, row = f"{'t':>8} {'x':>14} {'dx_dt':>14} {'rul_pred':>12}\n", "%8.2f %14.6f %14.6f %12.3f\n"
    sys.stdout.write(head + row * len(rows) % _flat(rows))
    return 0


# -- entry point ----------------------------------------------------------


def _parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each command's own, by name; a command's parser sets ``command``."""
    # the user's help, not this module's docstring, which is written for the code's readers
    parser = argparse.ArgumentParser(
        prog="pinnrul",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        description=(
            "Train a physics-informed model of engine degradation on run-to-failure sensor logs\n"
            "(C-MAPSS FD001 files or a synthetic fleet), then read from it each engine's RUL, the\n"
            "cycles it has left, and a latent health indicator. A JSON config file (--config)\n"
            "drives check-data, train, eval and map. The five commands are listed below;\n"
            "'pinnrul COMMAND -h' gives a command's flags."
        ),
        epilog=(
            "exit codes:\n"
            "  0  success\n"
            "  1  a count check failed (check-data)\n"
            "  2  usage, config or data error\n"
            "  3  numeric failure: a non-finite output or gradient"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, model_flag=False):
        p.add_argument("--config", help="JSON run config")
        p.add_argument("--out", dest="output_dir", help="output directory (overrides config)")
        if model_flag:
            p.add_argument("--model", required=True, help="path to model.bin")
        return p

    p_check = sub.add_parser("check-data", help="parse, augment and verify counts")
    p_check.add_argument("--config", help="JSON run config")  # it writes nothing, so it takes no --out
    p_train = common(sub.add_parser("train", help="run the training pipeline"))
    p_train.add_argument("--seed-init", dest="init_seed", type=int, help="weight init seed")
    p_train.add_argument("--seed-split", dest="split_seed", type=int, help="train/validation split seed")
    p_train.add_argument("--epochs", type=int, help="training epochs (overrides config)")
    p_train.add_argument("--batch", dest="batch_size", type=int, help="samples per training batch (overrides config)")
    common(sub.add_parser("eval", help="score the test set"), model_flag=True)
    p_map = common(sub.add_parser("map", help="export the latent map CSV"), model_flag=True)
    p_map.add_argument("--which", choices=("train", "test"), default="test", help="map the training or the test engines (default test)")
    p_pred = sub.add_parser("predict", help="sweep RUL over future horizons")
    p_pred.add_argument("--model", required=True, help="path to model.bin")
    p_pred.add_argument("--oc", required=True, help="comma-separated values or @file")
    p_pred.add_argument("--t-list", default="0", help="comma-separated horizons in cycles (default 0)")
    p_pred.add_argument("--csv", action="store_true", help="print full-precision CSV rows under a header, not a table")
    for name, p in sub.choices.items():
        p.set_defaults(command=name)
    return parser, sub.choices


# built once per process: parse_args keeps no state between calls. _PARSER, the
# top-level parser, reads only what _arguments does not hand to a command's parser.
_PARSER, _COMMANDS = _parser()


def _glue_values(argv) -> list[str]:
    """Join each ``--oc``/``--t-list`` flag with the token after it.

    argparse reads a token that starts with "-" and is not a plain number as
    an option, so "--oc -0.5,1.2" would lose its value; "--oc=-0.5,1.2" keeps
    it. argparse also takes any unambiguous prefix of a long option ("--o",
    "--t"); no other flag of ``predict`` shares one of these, and if a later
    one did, argparse would reject the joined "--o=v" as ambiguous.
    """
    out = []
    tokens = iter(argv)
    for tok in tokens:
        glue = len(tok) >= 3 and ("--oc".startswith(tok) or "--t-list".startswith(tok))
        value = next(tokens, None) if glue else None
        out.append(tok if value is None else f"{tok}={value}")
    return out


def _arguments(argv) -> argparse.Namespace:
    """The namespace ``_PARSER`` gives ``_glue_values(argv)``, parsed once: a line
    whose first token is a command goes to that command's parser alone, so the
    top-level parser never scans it first."""
    argv = _glue_values(argv)
    command = _COMMANDS.get(argv[0]) if argv else None
    return _PARSER.parse_args(argv) if command is None else command.parse_args(argv[1:])


def _overrides(args) -> dict:
    """The ``RunConfig`` fields given as flags: each flag's ``dest`` is its field's name."""
    return {f.name: getattr(args, f.name) for f in dataclasses.fields(RunConfig) if getattr(args, f.name, None) is not None}


def main(argv=None) -> int:
    args = _arguments(sys.argv[1:] if argv is None else argv)
    try:
        # every output is checked for finiteness, so numpy's float warnings would only repeat it
        with np.errstate(all="ignore"):
            if args.command == "predict":
                return cmd_predict(args.model, args.oc, args.t_list, args.csv)
            cfg = load_config(args.config, _overrides(args))
            if args.command == "check-data":
                return cmd_check_data(cfg)
            if args.command == "train":
                return cmd_train(cfg)
            if args.command == "eval":
                return cmd_eval(cfg, args.model)
            return cmd_map(cfg, args.model, args.which)
    except (ValueError, OSError) as exc:  # each message names its key or file (OSError's its path)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # e.g. a synthetic fleet too large to allocate
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Sectioned binary model file with an ASCII header.

Layout:

    line 1   magic  b"PINNRUL-BIN 1\n"
    line 2   byte length of the JSON header, ASCII digits, no leading 0, "\n"
    header   JSON (sorted keys, compact separators): format version,
             architecture, init scheme/seed, cost settings, normalization,
             then "\n"
    body     the model's parameter vector ``theta`` as raw little-endian
             float64, in the order set by ``model._layout``

Header serialization is deterministic and float values round-trip via
repr, so save -> load -> save reproduces the bytes exactly.
"""

from __future__ import annotations

import dataclasses
import json
import reprlib
import sys

import numpy as np

from .data import NormStats
from .model import HIDDEN, PinnConfig, PinnModel

MAGIC = b"PINNRUL-BIN 1\n"
FORMAT_VERSION = 1


def json_is(value, kind) -> bool:
    """True if the JSON ``value`` reads as a ``kind`` (int, float, str, list, dict).

    true and false are never numbers, an int must fit int64, and a float
    may also be an integer within float range. NaN and the infinities are
    floats; the range checks of the fields that take them reject them.
    """
    if isinstance(value, bool) and kind in (int, float):
        return False
    if kind is float and isinstance(value, int):
        return abs(value) <= sys.float_info.max
    return isinstance(value, kind) and (kind is not int or -(2**63) <= value < 2**63)


def json_loads(text):
    """``json.loads``; JSON nested too deeply for the parser's recursion is a ValueError too."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


def _typed(value, kind):
    """``value`` if ``json_is(value, kind)``."""
    if not json_is(value, kind):
        raise TypeError(f"expected {kind.__name__}, got {reprlib.repr(value)}")
    return value


def _typed_list(values, kind) -> list:
    """``values``, a JSON list, if each of its items reads as a ``kind``; the
    items of exactly that type pass without a ``_typed`` call."""
    return [v if type(v) is kind else _typed(v, kind) for v in _typed(values, list)]


def _same_json(value, spec) -> bool:
    """True if the JSON value ``value`` is ``spec``: dicts with the same keys, in
    any order, lists item by item, and leaves of the same type that are ==, so
    true is not 1 and 1.0 is not 1. For a ``spec`` of ints, strings, lists and
    dicts it accepts what equal ``json.dumps(v, sort_keys=True)`` texts accept."""
    if type(value) is not type(spec):
        return False
    if type(spec) is dict:
        return value.keys() == spec.keys() and all(_same_json(value[k], v) for k, v in spec.items())
    if type(spec) is list:
        return len(value) == len(spec) and all(map(_same_json, value, spec))
    return value == spec


def _specs(config: PinnConfig) -> dict:
    """The header's statement of the fixed architecture, one ``<net>_spec`` per network."""
    return {
        f"{net}_spec": {"hidden": HIDDEN[net], "output": "linear", "widths": list(widths)}
        for net, widths in config.widths.items()
    }


def _header(model: PinnModel) -> dict:
    return {
        "format": FORMAT_VERSION,
        "model": {**dataclasses.asdict(model.config), **_specs(model.config)},
        "init": {"scheme": model.init_scheme, "seed": model.init_seed, "split_seed": model.split_seed},
        "norm": {
            "columns": list(model.norm.columns),
            "means": [float(v) for v in model.norm.means],
            "stds": [float(v) for v in model.norm.stds],
            "rul_max": float(model.norm.rul_max),
        },
    }


def save_model(model: PinnModel, path) -> None:
    header = json.dumps(_header(model), sort_keys=True, separators=(",", ":")).encode("ascii")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(f"{len(header)}\n".encode("ascii"))
        fh.write(header)
        fh.write(b"\n")
        fh.write(np.asarray(model.theta, dtype="<f8").tobytes())


def load_model(path) -> PinnModel:
    with open(path, "rb") as fh:
        blob = fh.read()
    if not blob.startswith(MAGIC):
        raise ValueError(f"{path}: not a model file (bad magic)")
    rest = blob[len(MAGIC) :]
    try:
        newline = rest.index(b"\n")
        digits = rest[:newline]
        if not digits.isdigit() or digits.startswith(b"0"):
            raise ValueError(f"header length {digits!r} is not a decimal byte count")
        end = newline + 1 + int(digits)
        header = json_loads(rest[newline + 1 : end].decode("ascii"))
        if rest[end : end + 1] != b"\n":
            raise ValueError("no newline after the header")
        body = rest[end + 1 :]
    except ValueError as exc:
        raise ValueError(f"{path}: corrupt header ({exc})") from None
    if not isinstance(header, dict):
        raise ValueError(f"{path}: header is not a JSON object")
    if not json_is(header.get("format"), int) or header["format"] != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported format {header.get('format')!r}")

    try:
        m = header["model"]
        config = PinnConfig(
            d_oc=_typed(m["d_oc"], int),
            pde_weight=float(_typed(m["pde_weight"], float)),
            t_scale=float(_typed(m["t_scale"], float)),
        )
        for key, spec in _specs(config).items():
            if not _same_json(m[key], spec):  # compared as JSON values of the same types, so true is not 1
                raise ValueError(f"model.{key} must be {json.dumps(spec, sort_keys=True)}, got {reprlib.repr(m[key])}")
        nd = header["norm"]
        norm = NormStats(
            means=np.asarray(_typed_list(nd["means"], float), dtype=np.float64),
            stds=np.asarray(_typed_list(nd["stds"], float), dtype=np.float64),
            rul_max=float(_typed(nd["rul_max"], float)),
            columns=_typed_list(nd["columns"], str),
        )
        if not len(norm.means) == len(norm.stds) == len(norm.columns) == config.d_oc:
            counts = f"{len(norm.means)} means, {len(norm.stds)} stds and {len(norm.columns)} columns"
            raise ValueError(f"norm has {counts}, model has d_oc={config.d_oc}")
        init = _typed(header["init"], dict)
        split_seed = init.get("split_seed")
        init_fields = {
            "init_scheme": _typed(init["scheme"], str),
            "init_seed": _typed(init["seed"], int),
            "split_seed": None if split_seed is None else _typed(split_seed, int),
        }
    except KeyError as exc:
        raise ValueError(f"{path}: header lacks key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: bad header ({exc})") from None

    size = 8 * config.n_params
    if len(body) < size:
        raise ValueError(f"{path}: truncated parameter section")
    if len(body) > size:
        raise ValueError(f"{path}: {len(body) - size} trailing bytes")
    try:
        model = PinnModel(config, np.frombuffer(body, dtype="<f8").astype(np.float64), norm)
    except ValueError as exc:  # a non-finite parameter, named by its buffer
        raise ValueError(f"{path}: {exc}") from None
    try:  # PinnModel checks each init field as it is set
        for name, value in init_fields.items():
            setattr(model, name, value)
    except ValueError as exc:
        raise ValueError(f"{path}: bad header ({exc})") from None
    return model

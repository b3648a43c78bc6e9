"""Sectioned binary model file with an ASCII header.

Layout:

    line 1   magic  b"PINNRUL-BIN 1\n"
    line 2   decimal byte length of the JSON header, then "\n"
    header   JSON (sorted keys, compact separators): format version,
             architecture, init scheme/seed, cost settings, normalization
    body     raw little-endian float64 buffers, row-major, in canonical
             order (x, rul, dyn networks; per layer W then b)

Header serialization is deterministic and float values round-trip via
repr, so save -> load -> save reproduces the bytes exactly.
"""

from __future__ import annotations

import json

import numpy as np

from .data import NormStats
from .model import PinnConfig, PinnModel
from .net import MlpParams, MlpSpec

MAGIC = b"PINNRUL-BIN 1\n"
FORMAT_VERSION = 1


class ModelFileError(ValueError):
    """Unreadable or inconsistent model file."""


def _spec_to_dict(spec: MlpSpec) -> dict:
    return {"widths": list(spec.widths), "hidden": spec.hidden, "output": spec.output}


def _spec_from_dict(d: dict) -> MlpSpec:
    return MlpSpec(tuple(d["widths"]), hidden=d["hidden"], output=d["output"])


def _header(model: PinnModel) -> dict:
    cfg = model.config
    return {
        "format": FORMAT_VERSION,
        "model": {
            "d_oc": cfg.d_oc,
            "pde_weight": cfg.pde_weight,
            "t_scale": cfg.t_scale,
            "x_spec": _spec_to_dict(cfg.x_spec),
            "rul_spec": _spec_to_dict(cfg.rul_spec),
            "dyn_spec": _spec_to_dict(cfg.dyn_spec),
        },
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
        for _, buf in model.parameter_items():
            fh.write(np.ascontiguousarray(buf, dtype="<f8").tobytes())


def load_model(path) -> PinnModel:
    with open(path, "rb") as fh:
        blob = fh.read()
    if not blob.startswith(MAGIC):
        raise ModelFileError(f"{path}: not a model file (bad magic)")
    rest = blob[len(MAGIC) :]
    try:
        newline = rest.index(b"\n")
        header_len = int(rest[:newline])
        header_raw = rest[newline + 1 : newline + 1 + header_len]
        header = json.loads(header_raw.decode("ascii"))
        body = rest[newline + 1 + header_len + 1 :]
    except (ValueError, IndexError) as exc:
        raise ModelFileError(f"{path}: corrupt header ({exc})") from None
    if header.get("format") != FORMAT_VERSION:
        raise ModelFileError(f"{path}: unsupported format {header.get('format')!r}")

    m = header["model"]
    config = PinnConfig(
        d_oc=int(m["d_oc"]),
        x_spec=_spec_from_dict(m["x_spec"]),
        rul_spec=_spec_from_dict(m["rul_spec"]),
        dyn_spec=_spec_from_dict(m["dyn_spec"]),
        pde_weight=float(m["pde_weight"]),
        t_scale=float(m["t_scale"]),
    )
    nd = header["norm"]
    norm = NormStats(
        means=np.asarray(nd["means"], dtype=np.float64),
        stds=np.asarray(nd["stds"], dtype=np.float64),
        rul_max=float(nd["rul_max"]),
        columns=list(nd["columns"]),
    )

    offset = 0

    def read_params(spec: MlpSpec) -> MlpParams:
        nonlocal offset
        weights, biases = [], []
        for w_shape, b_shape in spec.layer_shapes():
            for shape, sink in ((w_shape, weights), (b_shape, biases)):
                count = shape[0] * shape[1]
                raw = body[offset : offset + 8 * count]
                if len(raw) != 8 * count:
                    raise ModelFileError(f"{path}: truncated parameter section")
                sink.append(np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape))
                offset += 8 * count
        return MlpParams(spec, weights, biases)

    x_params = read_params(config.x_spec)
    rul_params = read_params(config.rul_spec)
    dyn_params = read_params(config.dyn_spec)
    if offset != len(body):
        raise ModelFileError(f"{path}: {len(body) - offset} trailing bytes")

    split_seed = header["init"].get("split_seed")
    return PinnModel(
        config=config,
        x_params=x_params,
        rul_params=rul_params,
        dyn_params=dyn_params,
        norm=norm,
        init_scheme=header["init"]["scheme"],
        init_seed=int(header["init"]["seed"]),
        split_seed=None if split_seed is None else int(split_seed),
    )

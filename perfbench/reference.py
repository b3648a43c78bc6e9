"""Independent numpy reference for what a pinnrul model file predicts.

The reader parses ``model.bin`` itself (magic line, header length, JSON
header, raw little-endian float64 buffers) instead of calling
``pinnrul.modelfile.load_model``, and the forward pass is written out in
plain numpy, so a fault in the program's loader, graph or tangent chain
shows up as a mismatch here.

``dx_dt`` is the Jacobian-vector product of the latent network along its
last input, the normalized time ``t / t_scale``, exactly what the
program's forward-tangent nodes compute.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

MAGIC = b"PINNRUL-BIN 1\n"
NETS = ("x", "rul", "dyn")
# A printed value may differ from the reference by its 9-significant-digit
# rounding plus summation-order noise, which is far below that rounding for
# every value that is not itself a cancellation residue near zero.
ABS_SLACK = 1e-12
REL_SLACK = 1e-13


@dataclass
class Reference:
    header: dict
    layers: dict  # net name -> [(W, b), ...]

    @property
    def d_oc(self) -> int:
        return int(self.header["model"]["d_oc"])

    def normalize(self, oc: np.ndarray, t: np.ndarray):
        norm = self.header["norm"]
        means = np.asarray(norm["means"], dtype=np.float64)
        stds = np.asarray(norm["stds"], dtype=np.float64)
        oc_n = ((np.asarray(oc, dtype=np.float64) - means) / stds).T
        t_n = np.asarray(t, dtype=np.float64).reshape(1, -1) / float(self.header["model"]["t_scale"])
        return oc_n, t_n

    def forward(self, oc: np.ndarray, t: np.ndarray, chunk: int = 65536) -> np.ndarray:
        """Rows of (x, dx/dt, rul in cycles) for raw snapshots ``oc`` and horizons ``t``."""
        out = np.empty((len(t), 3))
        for start in range(0, len(t), chunk):
            stop = min(start + chunk, len(t))
            oc_n, t_n = self.normalize(oc[start:stop], t[start:stop])
            x, dx = _mlp(self.layers["x"], self.header["model"]["x_spec"], np.vstack([oc_n, t_n]), self.d_oc)
            rul, _ = _mlp(self.layers["rul"], self.header["model"]["rul_spec"], np.vstack([x, t_n]), None)
            out[start:stop, 0] = x[0]
            out[start:stop, 1] = dx[0]
            out[start:stop, 2] = rul[0] * float(self.header["norm"]["rul_max"])
        return out

    def perturbed(self, delta: float = 1e-6) -> "Reference":
        """Copy with one weight moved: the latent network's first-layer weight on t."""
        layers = {net: [(w.copy(), b.copy()) for w, b in self.layers[net]] for net in NETS}
        layers["x"][0][0][0, self.d_oc] += delta
        return Reference(self.header, layers)


def _mlp(layers, spec: dict, h: np.ndarray, tangent_row: int | None):
    """Primal output and, if ``tangent_row`` is set, its JVP along that input row."""
    if spec["hidden"] != "tanh" or spec["output"] != "linear":
        raise ValueError(f"reference covers tanh hidden / linear output layers, got {spec}")
    dot = None
    if tangent_row is not None:
        dot = np.zeros_like(h)
        dot[tangent_row, :] = 1.0
    last = len(layers) - 1
    for i, (w, b) in enumerate(layers):
        h = w @ h + b
        if dot is not None:
            dot = w @ dot
        if i < last:
            h = np.tanh(h)
            if dot is not None:
                dot = (1.0 - h * h) * dot
    return h, dot


def read_model_bin(path) -> Reference:
    with open(path, "rb") as fh:
        blob = fh.read()
    if not blob.startswith(MAGIC):
        raise ValueError(f"{path}: bad magic")
    rest = blob[len(MAGIC) :]
    newline = rest.index(b"\n")
    header_len = int(rest[:newline])
    header = json.loads(rest[newline + 1 : newline + 1 + header_len].decode("ascii"))
    if rest[newline + 1 + header_len : newline + 2 + header_len] != b"\n":
        raise ValueError(f"{path}: header not newline-terminated")
    body = np.frombuffer(rest[newline + 2 + header_len :], dtype="<f8").astype(np.float64)
    layers, offset = {}, 0
    for net in NETS:
        widths = header["model"][f"{net}_spec"]["widths"]
        layers[net] = []
        for d_in, d_out in zip(widths[:-1], widths[1:]):
            w = body[offset : offset + d_out * d_in].reshape(d_out, d_in)
            offset += d_out * d_in
            b = body[offset : offset + d_out].reshape(d_out, 1)
            offset += d_out
            layers[net].append((w, b))
    if offset != body.shape[0]:
        raise ValueError(f"{path}: {body.shape[0]} float64 values, architecture needs {offset}")
    return Reference(header, layers)


def mismatched(printed: np.ndarray, expected: np.ndarray) -> np.ndarray:
    """Per-row mask: a printed value is non-finite or not ``expected`` to 9 significant digits."""
    printed = np.asarray(printed, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    mag = np.maximum(np.maximum(np.abs(printed), np.abs(expected)), 1e-300)
    half_digit = 0.5 * 10.0 ** (np.floor(np.log10(mag)) - 8)
    tol = half_digit + ABS_SLACK + REL_SLACK * np.abs(expected)
    with np.errstate(invalid="ignore"):
        bad = ~np.isfinite(printed) | ~(np.abs(printed - expected) <= tol)
    return bad.reshape(bad.shape[0], -1).any(axis=1)


def val_rmse(ref: Reference, oc: np.ndarray, t: np.ndarray, rul: np.ndarray) -> float:
    """Validation RMSE in cycles, as the trainer defines it: sqrt(mean normalized MSE) * rul_max."""
    rul_max = float(ref.header["norm"]["rul_max"])
    pred = ref.forward(oc, t)[:, 2] / rul_max
    return float(np.sqrt(np.mean((np.asarray(rul) / rul_max - pred) ** 2)) * rul_max)

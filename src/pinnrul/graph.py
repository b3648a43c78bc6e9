"""Computation graph with exact reverse-mode gradients.

Nodes are appended in construction order, so index order is already a
topological order: every node's inputs have smaller indices. The value
store is populated by ``eval``; ``grad`` sweeps the nodes in fixed
reverse index order so repeated runs are bit-identical.

All buffers are 2-D float64 arrays; scalars have shape (1, 1). An input
may leave its column count open (``None``): the graph is then built once
for any batch width and every op acts column by column. ``build`` checks
every node; ``eval`` checks no binding, so binding each input to a 2-D
array of its rows, the width-free ones with one column count, is the
caller's contract.

A ``layer`` node is one MLP layer, act(W h + b), together with k
forward-tangent chains through it (vector forward mode). It binds four
caller-owned buffers by reference, W, b and their gradients dW and db,
which ``build`` checks once (2-D float64, shapes that agree): ``eval``
reads W and b as they are then, ``grad`` overwrites dW and db, and
neither checks finiteness; the owner of the buffers does. Its value
stacks k + 1 blocks of m rows along the rows: the primal block act(z),
then each tangent block act'(z) * (W t_j). Its one graph input is
stacked the same way, h then t_1..t_k, so the width stays n and one
batched product makes every block. A first layer instead takes h alone
and seeds tangent j with the weight column W[:, c_j], the derivative
along input coordinate c_j. ``rows`` reads a block back out. Reverse
mode through a tangent block gives exact mixed second derivatives.

There are four op kinds: ``input``, ``layer``, ``rows`` and ``concat``.
The graph ends at a model's network outputs; arithmetic that joins them,
such as a residual or a loss, is the caller's. ``grad`` takes the
caller's adjoints at those outputs (seeds, each shaped like its node's
value) and writes the vector-Jacobian product over every layer's own dW
and db; the caller binds no buffer into two layers. A node reaches the
weights iff it is a layer or one of its inputs does; adjoints propagate
only into such nodes, so inputs (and anything computed only from them)
get none, and a layer that no seed reaches gets zeros.

A graph instance is single-writer. Distinct instances are independent and
may be used from different threads.
"""

from __future__ import annotations

import operator

import numpy as np

__all__ = [
    "Graph",
    "GraphError",
    "OP_KINDS",
]

# arity per op kind; None = variadic (>= 1)
OP_KINDS = {
    "input": 0,
    "layer": 1,
    "rows": 1,
    "concat": None,
}

ACTIVATIONS = ("tanh", "relu", "linear")


class GraphError(Exception):
    """Misuse of a graph: a node with a bad shape, buffer, op kind or input
    id at build, a seed with a bad id or shape, or a read before ``eval``."""


class _Node:
    __slots__ = ("kind", "inputs", "shape", "payload", "reaches")

    def __init__(self, kind, inputs, shape, payload, reaches):
        self.kind = kind
        self.inputs = inputs
        self.shape = shape  # (rows, cols); cols is None for a width-free node
        self.payload = payload  # rows range or layer (activation, k, seeds, w, b, dw, db)
        self.reaches = reaches  # its value depends on a layer's weights


def _layer_buffers(w, b, dw, db) -> tuple:
    """Check a layer's weight and bias and their gradient buffers; return the four."""
    for name, value, grad in (("weight", w, dw), ("bias", b, db)):
        arrays = isinstance(value, np.ndarray) and isinstance(grad, np.ndarray)
        if not (arrays and value.dtype == grad.dtype == np.float64 and value.ndim == 2):
            raise GraphError(f"layer {name} and its gradient must be 2-D float64 arrays")
        if grad.shape != value.shape or not value.size:
            raise GraphError(f"layer {name} {value.shape} and its gradient {grad.shape} need one nonempty shape")
    if b.shape != (w.shape[0], 1):
        raise GraphError(f"layer bias must have shape {(w.shape[0], 1)}, got {b.shape}")
    return w, b, dw, db


def _layer_shape(shape, payload):
    """Check a layer's input shape and payload; return (payload, value shape)."""
    activation, k, seeds, *buffers = payload
    k = int(k)
    w, b, dw, db = _layer_buffers(*buffers)
    (m, d), (rows, n) = w.shape, shape
    if activation not in ACTIVATIONS:
        raise GraphError(f"layer activation must be one of {ACTIVATIONS}, got {activation!r}")
    if k < 0 or (k and activation == "relu"):
        raise GraphError(f"a {activation} layer cannot carry {k} tangents")
    if seeds is not None and not all(0 <= c < d for c in seeds):
        raise GraphError(f"tangent seeds {seeds} out of range for {d} inputs")
    want = d if seeds is not None else (1 + k) * d
    if rows != want:
        raise GraphError(f"layer input must have {want} rows for weight {(m, d)} and {k} tangents, got {rows}")
    return (activation, k, seeds if k else None, w, b, dw, db), ((1 + k) * m, n)


def _layer_value(payload, s):
    """Blocks act(z) and act'(z) * u_j of z = w @ h + b, u_j = w @ t_j (or w[:, c_j])."""
    activation, k, seeds, w, b, _, _ = payload
    m, n = w.shape[0], s.shape[1]
    if seeds is None:
        z = np.matmul(w, s.reshape(1 + k, -1, n))
    else:
        z = np.empty((1 + k, m, n))
        np.matmul(w, s, out=z[0])
        z[1:] = w.T[list(seeds), :, None]
    y = z[0]
    y += b
    if activation == "tanh":
        np.tanh(y, out=y)
        if k:
            z[1:] *= 1.0 - y * y
    elif activation == "relu":
        np.maximum(y, 0.0, out=y)
    return z.reshape((1 + k) * m, n)


def _layer_adjoints(payload, a, v, s, reach_s):
    """(dW, dS, db) of a layer node whose adjoint is ``a``; dS is None unless ``reach_s``.

    The second-order term: a tanh tangent block t_j = (1 - y^2) u_j moves
    with z too, dt_j/dz = -2 y t_j, so dz = (1 - y^2) a_0 - 2 y sum_j a_j t_j.
    """
    activation, k, seeds, w, _, _, _ = payload
    m, n = w.shape[0], a.shape[1]
    a = a.reshape(1 + k, m, n)
    y = v[:m]
    if activation == "tanh":
        dz = a * (1.0 - y * y)
        if k:
            dz[0] -= 2.0 * y * (a[1:] * v[m:].reshape(k, m, n)).sum(axis=0)
    elif activation == "relu":
        dz = a * (y > 0.0)  # subgradient at exactly 0 is defined as 0
    else:
        dz = a
    if seeds is None:
        dw = np.matmul(dz, s.reshape(1 + k, -1, n).transpose(0, 2, 1)).sum(axis=0)
    else:
        dw = dz[0] @ s.T
        for j, c in enumerate(seeds, start=1):
            dw[:, c] += dz[j].sum(axis=1)
    ds = None
    if reach_s:
        ds = w.T @ dz[0] if seeds is not None else np.matmul(w.T, dz).reshape(-1, n)
    db = dz[0].sum(axis=1, keepdims=True)
    return dw, ds, db


class Graph:
    """Append-only computation graph over float64 matrix buffers."""

    def __init__(self):
        self.nodes: list[_Node] = []
        self._values: list[np.ndarray] | None = None

    # -- construction -------------------------------------------------

    def build(self, kind: str, inputs=(), payload=None) -> int:
        """Append a node and return its id.

        ``payload`` is the shape for ``input`` (its column count may be
        None), the half-open range (start, stop) for ``rows`` and
        (activation, k, seeds, w, b, dw, db) for ``layer``, where seeds
        is None or a first layer's k input coordinates.
        """
        if kind not in OP_KINDS:
            raise GraphError(f"unknown op kind {kind!r}")
        inputs = tuple(int(i) for i in inputs)
        arity = OP_KINDS[kind]
        if arity is None:
            if not inputs:
                raise GraphError(f"{kind} needs at least one input")
        elif len(inputs) != arity:
            raise GraphError(f"{kind} takes {arity} inputs, got {len(inputs)}")
        for i in inputs:
            if not 0 <= i < len(self.nodes):
                raise GraphError(f"dangling node id {i} (graph has {len(self.nodes)} nodes)")

        shapes = [self.nodes[i].shape for i in inputs]
        if kind == "input":
            if payload is None or len(tuple(payload)) != 2:
                raise GraphError("input needs an explicit 2-D shape")
            rows, cols = payload
            shape = (int(rows), None if cols is None else int(cols))
            if shape[0] < 1 or (shape[1] is not None and shape[1] < 1):
                raise GraphError(f"input shape must be positive, got {shape}")
            payload = None
        elif kind == "layer":
            payload, shape = _layer_shape(shapes[0], payload)
        elif kind == "rows":
            start, stop = (int(i) for i in payload)
            if not 0 <= start < stop <= shapes[0][0]:
                raise GraphError(f"rows {start}:{stop} out of range for {shapes[0][0]} rows")
            payload, shape = (start, stop), (stop - start, shapes[0][1])
        elif kind == "concat":
            cols = {s[1] for s in shapes}
            if len(cols) != 1:
                raise GraphError(f"concat needs equal column counts, got {shapes}")
            shape = (sum(s[0] for s in shapes), shapes[0][1])
        else:  # pragma: no cover - kinds are exhaustive
            raise GraphError(f"unhandled op kind {kind!r}")

        reaches = kind == "layer" or any(self.nodes[i].reaches for i in inputs)
        self.nodes.append(_Node(kind, inputs, shape, payload, reaches))
        self._values = None
        return len(self.nodes) - 1

    def input(self, shape) -> int:
        """Input of shape (rows, cols); cols None leaves the width to ``eval``."""
        return self.build("input", payload=shape)

    def layer(self, s, w, b, dw, db, activation="linear", k=0, seeds=None) -> int:
        """act(w @ h + b) and k tangent blocks, stacked along rows.

        ``w`` (m x d), ``b`` (m x 1) and their gradient buffers ``dw`` and
        ``db`` are the caller's arrays, bound by reference. ``s`` stacks h
        and the k incoming tangent blocks, ((1 + k) d x n). With
        ``seeds``, k input coordinates, ``s`` is h alone (d x n) and
        tangent j starts at the weight column w[:, seeds[j]]. relu takes
        no tangents.
        """
        if seeds is not None:
            seeds = tuple(operator.index(c) for c in seeds)  # an index, never a truncated float
            k = len(seeds)
        return self.build("layer", (s,), (activation, k, seeds, w, b, dw, db))

    def rows(self, a, start, stop) -> int:
        """Rows start..stop-1 of ``a``, e.g. one block of a ``layer``."""
        return self.build("rows", (a,), (start, stop))

    def concat(self, parts) -> int:
        return self.build("concat", tuple(parts))

    # -- values -------------------------------------------------------

    def eval(self, bindings: dict[int, np.ndarray]) -> list[np.ndarray]:
        """Compute every node value in index (= topological) order.

        ``bindings`` maps every input node to its value, a 2-D array with
        the node's rows and, if it is width-free, the one column count of
        all width-free inputs; the caller ensures this, eval checks none
        of it. Layers read their bound weight and bias buffers.
        """
        values: list[np.ndarray] = []
        for nid, node in enumerate(self.nodes):
            k = node.kind
            if k == "input":
                v = np.asarray(bindings[nid], dtype=np.float64)
            else:
                ins = [values[i] for i in node.inputs]
                if k == "layer":
                    v = _layer_value(node.payload, ins[0])
                elif k == "rows":
                    v = ins[0][node.payload[0] : node.payload[1]]
                else:  # concat
                    v = np.concatenate(ins, axis=0)
            values.append(v)
        self._values = values
        return values

    def value(self, nid: int) -> np.ndarray:
        if self._values is None:
            raise GraphError("graph has not been evaluated")
        return self._values[nid]

    # -- gradients ----------------------------------------------------

    def grad(self, seeds: dict[int, np.ndarray]) -> None:
        """Write sum_n <seeds[n], d(value n)/d(p)> into the gradient buffer of
        every layer weight and bias p.

        ``seeds`` maps node ids to adjoints, each shaped like the node's
        value from the last ``eval``, which must have run. Each layer's
        gradient overwrites its own dW and db, zeros if no seed reaches it.
        """
        nodes = self.nodes
        values = self._values
        if values is None:
            raise GraphError("call eval before grad")
        # adjoints are never updated in place, so pass-through ops and seeds may share buffers
        adjoint: dict[int, np.ndarray] = {}
        for nid, seed in seeds.items():
            if not 0 <= nid < len(nodes):
                raise GraphError(f"dangling node id {nid} (graph has {len(nodes)} nodes)")
            seed = np.asarray(seed, dtype=np.float64)
            if seed.shape != values[nid].shape:
                raise GraphError(f"seed of node {nid} has shape {seed.shape}, its value {values[nid].shape}")
            if nodes[nid].reaches:
                adjoint[nid] = seed

        def acc(nid, delta):
            cur = adjoint.get(nid)
            adjoint[nid] = delta if cur is None else cur + delta

        for nid in range(len(nodes) - 1, -1, -1):
            a = adjoint.get(nid)
            node = nodes[nid]
            k = node.kind
            ins = node.inputs
            if k == "layer":
                if a is None:  # no seed reaches this layer
                    dw, ds, db = 0.0, None, 0.0
                else:
                    dw, ds, db = _layer_adjoints(node.payload, a, values[nid], values[ins[0]], nodes[ins[0]].reaches)
                np.copyto(node.payload[5], dw)
                np.copyto(node.payload[6], db)
                if ds is not None:
                    acc(ins[0], ds)
            elif a is None:
                continue
            elif k == "rows":
                delta = np.zeros(values[ins[0]].shape)
                delta[node.payload[0] : node.payload[1]] = a
                acc(ins[0], delta)
            else:  # concat
                row = 0
                for i in ins:
                    h = nodes[i].shape[0]
                    if nodes[i].reaches:
                        acc(i, a[row : row + h, :])
                    row += h

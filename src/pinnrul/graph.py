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

An ``mlp`` node is one whole network and its k forward-tangent chains,
stacked along the rows as ``net`` describes; ``rows`` reads a block back
out. It binds the network's (W, b, dW, db) tuples by reference, which
``build`` checks once (2-D float64, shapes that agree). ``eval`` runs
``net._chain`` and holds every layer's value, ``grad`` runs
``net._chain_grad``, which overwrites dW and db. Neither checks
finiteness; the owner of the buffers does.

There are four op kinds: ``input``, ``mlp``, ``rows`` and ``concat``.
The graph ends at a model's network outputs; arithmetic that joins them,
such as a residual or a loss, is the caller's. A model evaluates it only
for ``cost``, whose gradient reads the held pass; its forward-only
passes run ``net._chain`` without a graph. ``grad`` takes the
caller's adjoints at those outputs (seeds, each shaped like its node's
value) and writes the vector-Jacobian product over every layer's own dW
and db; the caller binds no buffer into two layers. A node reaches the
weights iff it is an mlp or one of its inputs does; adjoints propagate
only into such nodes, so inputs (and anything computed only from them)
get none, and an mlp that no seed reaches gets zeros.

A graph instance is single-writer. Distinct instances are independent and
may be used from different threads.
"""

from __future__ import annotations

import operator

import numpy as np

from .net import _chain, _chain_grad

__all__ = [
    "Graph",
    "GraphError",
    "OP_KINDS",
]

# arity per op kind; None = variadic (>= 1)
OP_KINDS = {
    "input": 0,
    "mlp": 1,
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
        self.payload = payload  # rows range or mlp (hidden, layers, k, seeds)
        self.reaches = reaches  # its value depends on an mlp's weights


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


def _mlp_shape(shape, payload):
    """Check an mlp node's input shape and payload; return (payload, value shape)."""
    hidden, layers, k, seeds = payload
    k, layers = int(k), tuple(_layer_buffers(*bufs) for bufs in layers)
    if seeds is not None:
        seeds = tuple(operator.index(c) for c in seeds)  # an index, never a truncated float
        k = len(seeds)
    if hidden not in ACTIVATIONS:
        raise GraphError(f"hidden activation must be one of {ACTIVATIONS}, got {hidden!r}")
    if not layers:
        raise GraphError("an mlp needs at least one layer")
    if k < 0 or (k and hidden == "relu"):
        raise GraphError(f"a {hidden} mlp cannot carry {k} tangents")
    d = layers[0][0].shape[1]
    if seeds is not None and not all(0 <= c < d for c in seeds):
        raise GraphError(f"tangent seeds {seeds} out of range for {d} inputs")
    rows = shape[0]
    for i, (w, *_) in enumerate(layers, start=1):
        want = w.shape[1] if i == 1 and seeds is not None else (1 + k) * w.shape[1]
        if rows != want:
            raise GraphError(f"layer {i} input must have {want} rows for weight {w.shape} and {k} tangents, got {rows}")
        rows = (1 + k) * w.shape[0]
    return (hidden, layers, k, seeds if k else None), (rows, shape[1])


class Graph:
    """Append-only computation graph over float64 matrix buffers."""

    def __init__(self):
        self.nodes: list[_Node] = []
        self._values: list[np.ndarray] | None = None
        self._chains: dict[int, list[np.ndarray]] = {}  # each mlp's layer values, input first

    # -- construction -------------------------------------------------

    def build(self, kind: str, inputs=(), payload=None) -> int:
        """Append a node and return its id.

        ``payload`` is the shape for ``input`` (its column count may be
        None), the half-open range (start, stop) for ``rows`` and
        (hidden, layers, k, seeds) for ``mlp``, where layers are the
        network's (W, b, dW, db) tuples and seeds is None or the first
        layer's k input coordinates.
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
        elif kind == "mlp":
            payload, shape = _mlp_shape(shapes[0], payload)
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

        reaches = kind == "mlp" or any(self.nodes[i].reaches for i in inputs)
        self.nodes.append(_Node(kind, inputs, shape, payload, reaches))
        self._values = None
        return len(self.nodes) - 1

    def input(self, shape) -> int:
        """Input of shape (rows, cols); cols None leaves the width to ``eval``."""
        return self.build("input", payload=shape)

    def rows(self, a, start, stop) -> int:
        """Rows start..stop-1 of ``a``, e.g. one block of an ``mlp``."""
        return self.build("rows", (a,), (start, stop))

    def concat(self, parts) -> int:
        return self.build("concat", tuple(parts))

    # -- values -------------------------------------------------------

    def eval(self, bindings: dict[int, np.ndarray]) -> list[np.ndarray]:
        """Compute every node value in index (= topological) order.

        ``bindings`` maps every input node to its value, a 2-D array with
        the node's rows and, if it is width-free, the one column count of
        all width-free inputs; the caller ensures this, eval checks none
        of it. An mlp reads its bound weight and bias buffers and holds
        its layer values for ``grad``.

        The last pass is released first, so at most one pass exists at a
        time, and after an eval that raises, ``value`` and ``grad`` raise
        GraphError rather than read a stale pass.
        """
        self._values, self._chains = None, {}
        values: list[np.ndarray] = []
        chains = {}
        for nid, node in enumerate(self.nodes):
            kind = node.kind
            if kind == "input":
                v = np.asarray(bindings[nid], dtype=np.float64)
            else:
                ins = [values[i] for i in node.inputs]
                if kind == "mlp":
                    hidden, layers, k, seeds = node.payload
                    chains[nid] = _chain(hidden, layers, ins[0], k, seeds)
                    v = chains[nid][-1]
                elif kind == "rows":
                    v = ins[0][node.payload[0] : node.payload[1]]
                else:  # concat
                    v = np.concatenate(ins, axis=0)
            values.append(v)
        self._values, self._chains = values, chains
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
        gradient overwrites its own dW and db, zeros if no seed reaches
        its mlp.
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
            kind = node.kind
            ins = node.inputs
            if kind == "mlp":
                hidden, layers, k, seeds = node.payload
                ds = _chain_grad(hidden, layers, self._chains[nid], a, k, seeds, nodes[ins[0]].reaches)
                if ds is not None:
                    acc(ins[0], ds)
            elif a is None:
                continue
            elif kind == "rows":
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

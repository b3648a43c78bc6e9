"""Computation graph with exact reverse-mode gradients.

Nodes are appended in construction order, so index order is already a
topological order: every node's inputs have smaller indices. The value
store is populated by ``eval`` and the gradient store by ``grad``, which
sweeps the nodes in fixed reverse index order so repeated runs are
bit-identical.

All buffers are 2-D float64 arrays; scalars have shape (1, 1). An input
may leave its column count open (``None``): the graph is then built once
for any batch width, every op except ``mean`` acts column by column,
and ``eval`` requires all width-free inputs to be bound with the same
number of columns. ``affine`` adds its bias column to every column.

Each node records at build time whether it reaches a parameter. ``grad``
propagates adjoints only into such nodes, so inputs and ``basis``
tangent seeds (and anything computed only from them) get none.

A graph instance is single-writer. Distinct instances are independent and
may be used from different threads.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Graph",
    "GraphError",
    "EvaluationError",
    "NumericError",
    "OP_KINDS",
]

# arity per op kind; None = variadic (>= 1)
OP_KINDS = {
    "parameter": 0,
    "input": 0,
    "matmul": 2,
    "affine": 3,
    "add": 2,
    "subtract": 2,
    "multiply": 2,
    "scale": 1,
    "tanh": 1,
    "dtanh": 1,
    "relu": 1,
    "square": 1,
    "basis": 1,
    "mean": 1,
    "concat": None,
}

_SAME_SHAPE = ("add", "subtract", "multiply")
_ELEMENTWISE = ("scale", "tanh", "dtanh", "relu", "square", "basis")


class GraphError(Exception):
    """Malformed construction: bad shape, unknown op kind, dangling node id."""


class EvaluationError(Exception):
    """Evaluation cannot proceed, e.g. an input node was left unbound."""


class NumericError(Exception):
    """A non-finite value or adjoint appeared; ``node`` is the offending id."""

    def __init__(self, message, node=None):
        super().__init__(message)
        self.node = node


class _Node:
    __slots__ = ("kind", "inputs", "shape", "payload", "reaches")

    def __init__(self, kind, inputs, shape, payload, reaches):
        self.kind = kind
        self.inputs = inputs
        self.shape = shape  # (rows, cols); cols is None for a width-free node
        self.payload = payload  # scale factor or basis row
        self.reaches = reaches  # its value depends on a parameter


def _as_buffer(value, shape=None):
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise GraphError(f"buffers must be at most 2-D, got ndim={arr.ndim}")
    if shape is not None and (arr.shape[0] != shape[0] or shape[1] not in (None, arr.shape[1])):
        raise GraphError(f"buffer shape {arr.shape} does not match declared {tuple(shape)}")
    return arr


class Graph:
    """Append-only computation graph over float64 matrix buffers."""

    def __init__(self):
        self.nodes: list[_Node] = []
        self.parameters: set[int] = set()
        self._param_values: dict[int, np.ndarray] = {}
        self._values: list[np.ndarray] | None = None

    def shape_of(self, nid: int) -> tuple[int, int | None]:
        return self.nodes[nid].shape

    # -- construction -------------------------------------------------

    def build(self, kind: str, inputs=(), payload=None) -> int:
        """Append a node and return its id.

        ``payload`` is the shape for ``parameter``/``input`` (an input's
        column count may be None), the factor for ``scale`` and the row
        index for ``basis``.
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
        if kind in ("parameter", "input"):
            if payload is None or len(tuple(payload)) != 2:
                raise GraphError(f"{kind} needs an explicit 2-D shape")
            rows, cols = payload
            shape = (int(rows), None if cols is None and kind == "input" else int(cols))
            if shape[0] < 1 or (shape[1] is not None and shape[1] < 1):
                raise GraphError(f"{kind} shape must be positive, got {shape}")
            payload = None
        elif kind in ("matmul", "affine"):
            (m, k1), (k2, n) = shapes[:2]
            if k1 is None or k1 != k2:
                raise GraphError(f"matmul shapes do not compose: {shapes[0]} x {shapes[1]}")
            if kind == "affine" and shapes[2] != (m, 1):
                raise GraphError(f"affine bias must have shape {(m, 1)}, got {shapes[2]}")
            shape = (m, n)
        elif kind in _SAME_SHAPE:
            if shapes[0] != shapes[1]:
                raise GraphError(f"{kind} needs equal shapes, got {shapes[0]} and {shapes[1]}")
            shape = shapes[0]
        elif kind in _ELEMENTWISE:
            shape = shapes[0]
            if kind == "scale":
                payload = float(payload)
            elif kind == "basis":
                payload = int(payload)
                if not 0 <= payload < shape[0]:
                    raise GraphError(f"basis row {payload} out of range for {shape[0]} rows")
        elif kind == "mean":
            shape = (1, 1)
        elif kind == "concat":
            cols = {s[1] for s in shapes}
            if len(cols) != 1:
                raise GraphError(f"concat needs equal column counts, got {shapes}")
            shape = (sum(s[0] for s in shapes), shapes[0][1])
        else:  # pragma: no cover - kinds are exhaustive
            raise GraphError(f"unhandled op kind {kind!r}")

        reaches = kind == "parameter" or (kind != "basis" and any(self.nodes[i].reaches for i in inputs))
        self.nodes.append(_Node(kind, inputs, shape, payload, reaches))
        self._values = None
        return len(self.nodes) - 1

    def parameter(self, shape) -> int:
        nid = self.build("parameter", payload=shape)
        self.parameters.add(nid)
        return nid

    def input(self, shape) -> int:
        """Input of shape (rows, cols); cols None leaves the width to ``eval``."""
        return self.build("input", payload=shape)

    def matmul(self, a, b) -> int:
        return self.build("matmul", (a, b))

    def affine(self, w, x, b) -> int:
        """w @ x plus the bias column b added to every column."""
        return self.build("affine", (w, x, b))

    def add(self, a, b) -> int:
        return self.build("add", (a, b))

    def subtract(self, a, b) -> int:
        return self.build("subtract", (a, b))

    def multiply(self, a, b) -> int:
        return self.build("multiply", (a, b))

    def scale(self, a, factor) -> int:
        return self.build("scale", (a,), factor)

    def tanh(self, a) -> int:
        return self.build("tanh", (a,))

    def dtanh(self, y) -> int:
        """1 - y^2: the tanh derivative written in terms of y = tanh(z)."""
        return self.build("dtanh", (y,))

    def relu(self, a) -> int:
        return self.build("relu", (a,))

    def square(self, a) -> int:
        return self.build("square", (a,))

    def basis(self, a, row) -> int:
        """Ones in ``row`` and zeros elsewhere, shaped like ``a``.

        A forward-tangent seed: it takes only its width from ``a``, so
        it is constant and gets no adjoint.
        """
        return self.build("basis", (a,), row)

    def mean(self, a) -> int:
        return self.build("mean", (a,))

    def concat(self, parts) -> int:
        return self.build("concat", tuple(parts))

    # -- values -------------------------------------------------------

    def set_param(self, nid: int, value) -> None:
        node = self.nodes[nid]
        if node.kind != "parameter":
            raise GraphError(f"node {nid} is {node.kind}, not a parameter")
        self._param_values[nid] = _as_buffer(value, node.shape)

    def eval(self, bindings: dict[int, np.ndarray] | None = None) -> list[np.ndarray]:
        """Compute every node value in index (= topological) order.

        ``bindings`` maps each input node to its value; parameters take
        theirs from ``set_param``.
        """
        bindings = bindings or {}
        values: list[np.ndarray] = []
        width = None  # shared column count of the width-free inputs
        for nid, node in enumerate(self.nodes):
            k = node.kind
            if k == "parameter":
                v = self._param_values.get(nid)
                if v is None:
                    raise EvaluationError(f"parameter node {nid} has no value")
            elif k == "input":
                if nid not in bindings:
                    raise EvaluationError(f"input node {nid} is unbound")
                v = _as_buffer(bindings[nid], node.shape)
                if node.shape[1] is None:
                    if v.shape[1] == 0:
                        raise EvaluationError(f"input node {nid} is bound to zero columns")
                    if width is None:
                        width = v.shape[1]
                    elif v.shape[1] != width:
                        raise EvaluationError(
                            f"input node {nid} has {v.shape[1]} columns, other inputs have {width}"
                        )
            else:
                ins = [values[i] for i in node.inputs]
                if k == "matmul":
                    v = ins[0] @ ins[1]
                elif k == "affine":
                    v = ins[0] @ ins[1]
                    v += ins[2]
                elif k == "add":
                    v = ins[0] + ins[1]
                elif k == "subtract":
                    v = ins[0] - ins[1]
                elif k == "multiply":
                    v = ins[0] * ins[1]
                elif k == "scale":
                    v = node.payload * ins[0]
                elif k == "tanh":
                    v = np.tanh(ins[0])
                elif k == "dtanh":
                    v = ins[0] * ins[0]
                    np.subtract(1.0, v, out=v)
                elif k == "relu":
                    v = np.maximum(ins[0], 0.0)
                elif k == "square":
                    v = ins[0] * ins[0]
                elif k == "basis":
                    v = np.zeros(ins[0].shape)
                    v[node.payload] = 1.0
                elif k == "mean":
                    v = np.array([[ins[0].mean()]])
                else:  # concat
                    v = np.concatenate(ins, axis=0)
            values.append(v)
        self._values = values
        return values

    def value(self, nid: int) -> np.ndarray:
        if self._values is None:
            raise EvaluationError("graph has not been evaluated")
        return self._values[nid]

    # -- gradients ----------------------------------------------------

    def grad(self, root: int) -> dict[int, np.ndarray]:
        """Return d(root)/d(p) for every parameter node p.

        ``root`` must be scalar-shaped and ``eval`` must have run. The
        returned map has an entry for every parameter, zero-filled when
        the parameter does not influence the root. The returned buffers
        are read-only by contract: two entries may share one array.

        Raises NumericError when a parameter gradient is non-finite,
        naming the first node in sweep order whose adjoint is.
        """
        if self._values is None:
            raise EvaluationError("call eval before grad")
        if not 0 <= root < len(self.nodes):
            raise GraphError(f"dangling node id {root}")
        if self.nodes[root].shape != (1, 1):
            raise GraphError(f"grad root must be scalar-shaped, got {self.nodes[root].shape}")

        nodes = self.nodes
        values = self._values
        # adjoints are never updated in place, so pass-through ops may share buffers
        adjoint: dict[int, np.ndarray] = {root: np.ones((1, 1))} if nodes[root].reaches else {}

        def acc(nid, delta):
            cur = adjoint.get(nid)
            adjoint[nid] = delta if cur is None else cur + delta

        for nid in range(root, -1, -1):
            a = adjoint.get(nid)
            if a is None:
                continue
            node = nodes[nid]
            k = node.kind
            if k == "parameter":
                continue
            ins = node.inputs
            reach = [nodes[i].reaches for i in ins]
            if k == "matmul" or k == "affine":
                if reach[0]:
                    acc(ins[0], a @ values[ins[1]].T)
                if reach[1]:
                    acc(ins[1], values[ins[0]].T @ a)
                if k == "affine" and reach[2]:
                    acc(ins[2], a.sum(axis=1, keepdims=True))
            elif k == "add":
                if reach[0]:
                    acc(ins[0], a)
                if reach[1]:
                    acc(ins[1], a)
            elif k == "subtract":
                if reach[0]:
                    acc(ins[0], a)
                if reach[1]:
                    acc(ins[1], -a)
            elif k == "multiply":
                if reach[0]:
                    acc(ins[0], a * values[ins[1]])
                if reach[1]:
                    acc(ins[1], a * values[ins[0]])
            elif k == "scale":
                acc(ins[0], node.payload * a)
            elif k == "tanh":
                y = values[nid]
                acc(ins[0], a * (1.0 - y * y))
            elif k == "dtanh":
                acc(ins[0], a * (-2.0 * values[ins[0]]))
            elif k == "relu":
                # subgradient at exactly 0 is defined as 0
                acc(ins[0], a * (values[ins[0]] > 0.0))
            elif k == "square":
                acc(ins[0], a * (2.0 * values[ins[0]]))
            elif k == "mean":
                src = values[ins[0]]
                acc(ins[0], np.full(src.shape, a[0, 0] / src.size))
            else:  # concat
                row = 0
                for i, r in zip(ins, reach):
                    h = nodes[i].shape[0]
                    if r:
                        acc(i, a[row : row + h, :])
                    row += h

        out = {}
        for p in self.parameters:
            g = adjoint.get(p)
            out[p] = np.zeros(nodes[p].shape) if g is None else g
        if not all(np.isfinite(g).all() for g in out.values()):
            for nid in sorted(adjoint, reverse=True):
                if not np.isfinite(adjoint[nid]).all():
                    raise NumericError(f"non-finite adjoint at node {nid}", node=nid)
        return out

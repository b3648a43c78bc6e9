"""Computation graph with exact reverse-mode gradients.

Nodes are appended in construction order, so index order is already a
topological order: every node's inputs have smaller indices. The value
store is populated by ``eval``; ``grad`` sweeps the nodes in fixed
reverse index order so repeated runs are bit-identical.

All buffers are 2-D float64 arrays; scalars have shape (1, 1). An input
may leave its column count open (``None``): the graph is then built once
for any batch width and every op acts column by column. The graph
trusts ``model._Wiring``, its one client: ``build`` records each node's
shape and checks nothing, and ``eval`` checks no binding, so well-formed
nodes, and binding each input to a 2-D array of its rows, the
width-free ones with one column count, are the caller's contract.

There are three op kinds. An ``input`` is bound by ``eval``. An ``mlp``
node is one whole network and its k forward-tangent chains, stacked along
the rows as ``net`` describes, on its inputs' rows stacked in order;
``rows`` reads a block back out. An mlp binds the network's (W, b, dW,
db) tuples by reference, which ``_layout`` cuts as 2-D float64 views of
shapes that agree. ``eval`` runs ``net._chain`` and holds every layer's
value, ``grad`` runs ``net._chain_grad``, which overwrites dW and db.
Neither checks finiteness; the owner of the buffers does.

The graph ends at a model's network outputs; arithmetic that joins them,
such as a residual or a loss, is the caller's. A model evaluates it only
for ``cost``, whose gradient reads the held pass; its forward-only
passes run ``net._chain`` without a graph. ``grad`` takes the caller's
adjoints at those outputs (seeds, each a float64 array shaped like its
node's value) and writes the vector-Jacobian product over every layer's
own dW and db; the caller binds no buffer into two layers. A node
reaches the weights iff it is an mlp or one of its inputs does; adjoints
propagate only into such nodes, so inputs (and anything computed only
from them) get none, and an mlp that no seed reaches gets zeros.

A graph instance is single-writer. Distinct instances are independent and
may be used from different threads.
"""

from __future__ import annotations

import numpy as np

from .net import _chain, _chain_grad

__all__ = [
    "Graph",
    "GraphError",
    "OP_KINDS",
]

OP_KINDS = ("input", "mlp", "rows")


class GraphError(Exception):
    """A ``value`` or ``grad`` with no successful ``eval`` before it. The
    graph trusts ``model._Wiring``, its one client, for everything else."""


class _Node:
    __slots__ = ("kind", "inputs", "shape", "payload", "reaches")

    def __init__(self, kind, inputs, shape, payload, reaches):
        self.kind = kind
        self.inputs = inputs
        self.shape = shape  # (rows, cols); cols is None for a width-free node
        self.payload = payload  # rows range or mlp (hidden, layers, k, seeds)
        self.reaches = reaches  # its value depends on an mlp's weights


class Graph:
    """Append-only computation graph over float64 matrix buffers."""

    def __init__(self):
        self.nodes: list[_Node] = []
        self._values: list[np.ndarray] | None = None
        self._chains: dict[int, list[np.ndarray]] = {}  # each mlp's layer values, input first

    # -- construction -------------------------------------------------

    def build(self, kind: str, inputs=(), payload=None) -> int:
        """Append a node and return its id. It trusts ``model._Wiring``,
        its one client, and checks nothing.

        ``payload`` is the shape for ``input`` (its column count may be
        None), the half-open range (start, stop) for ``rows`` and
        (hidden, layers, k, seeds) for ``mlp``, where layers are the
        network's (W, b, dW, db) tuples and seeds is None or the first
        layer's k input coordinates; an mlp's inputs are its network's
        input rows stacked in order. Every other node takes its first
        input's column count.
        """
        shapes = [self.nodes[i].shape for i in inputs]
        if kind == "input":
            shape, payload = payload, None
        elif kind == "mlp":  # 1 + k blocks of the last layer's rows
            shape = ((1 + payload[2]) * payload[1][-1][0].shape[0], shapes[0][1])
        else:  # rows
            shape = (payload[1] - payload[0], shapes[0][1])
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
                    s = ins[0] if len(ins) == 1 else np.concatenate(ins, axis=0)
                    chains[nid] = _chain(hidden, layers, s, k, seeds)
                    v = chains[nid][-1]
                else:  # rows
                    v = ins[0][node.payload[0] : node.payload[1]]
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

        ``seeds`` maps node ids to float64 adjoints, each shaped like the
        node's value from the last ``eval``; grad trusts its caller for
        this and checks only that ``eval`` has run. Each layer's gradient
        overwrites its own dW and db, zeros if no seed reaches its mlp.
        """
        nodes = self.nodes
        values = self._values
        if values is None:
            raise GraphError("call eval before grad")
        # adjoints are never updated in place, so pass-through ops and seeds may share buffers
        adjoint = {nid: seed for nid, seed in seeds.items() if nodes[nid].reaches}

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
                ds = _chain_grad(hidden, layers, self._chains[nid], a, k, seeds, any(nodes[i].reaches for i in ins))
                if ds is None:
                    continue
                row = 0
                for i in ins:  # each input takes its own rows of the stacked input's adjoint
                    h = nodes[i].shape[0]
                    if nodes[i].reaches:
                        acc(i, ds[row : row + h, :])
                    row += h
            elif a is not None and kind == "rows":
                delta = np.zeros(values[ins[0]].shape)
                delta[node.payload[0] : node.payload[1]] = a
                acc(ins[0], delta)

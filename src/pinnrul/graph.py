"""Computation graph with exact reverse-mode gradients.

Nodes are appended in construction order, so index order is already a
topological order: every node's inputs have smaller indices. The value
store is populated by ``eval``; ``grad`` sweeps the nodes in fixed
reverse index order so repeated runs are bit-identical.

All buffers are 2-D float64 arrays. The graph has no shapes: an input
takes whatever 2-D array ``eval`` binds to it, so one graph serves every
batch width, and every op acts column by column. The graph trusts
``model._Wiring``, its one client: ``build`` checks nothing and ``eval``
checks no binding, so well-formed nodes, each stacking ranges of one
column count, and bindings with the rows those ranges read, are the
caller's contract.

There are two op kinds. An ``input`` is bound by ``eval``. An ``mlp``
node is one whole network and its k forward-tangent chains, stacked along
the rows as ``net`` describes; its inputs are row ranges of earlier
nodes, stacked in order, and its one value stacks its output and tangent
blocks, which the caller cuts. An mlp binds the network's (W, b, dW, db)
tuples by reference, which ``_layout`` cuts as 2-D float64 views of
shapes that agree. ``eval`` runs ``net._chain`` and holds every layer's
value, ``grad`` runs ``net._chain_grad``, which overwrites dW and db.
Neither checks finiteness; the owner of the buffers does.

The graph ends at a model's network outputs; arithmetic that joins them,
such as a residual or a loss, is the caller's. A model evaluates it only
for ``cost``, whose gradient reads the held pass; its forward-only
passes run ``net._chain`` without a graph. ``grad`` takes the caller's
adjoints at mlp nodes (seeds, each a float64 array shaped like its
node's stacked value) and writes the vector-Jacobian product over every
layer's own dW and db; the caller binds no buffer into two layers. Only
an mlp's value depends on weights, so an mlp passes each input range's
rows of its input adjoint back to the range's node only if that node is
an mlp, and an mlp that no seed reaches gets zeros.

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

OP_KINDS = ("input", "mlp")


class GraphError(Exception):
    """A ``value`` or ``grad`` with no successful ``eval`` before it. The
    graph trusts ``model._Wiring``, its one client, for everything else."""


class _Node:
    __slots__ = ("kind", "inputs", "payload")

    def __init__(self, kind, inputs, payload):
        self.kind = kind
        self.inputs = inputs  # an mlp's (node, start, stop) row ranges
        self.payload = payload  # an mlp's (hidden, layers, k, seeds)


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

        An ``input`` takes neither inputs nor payload. An ``mlp``'s inputs
        are (node, start, stop) ranges, rows start..stop-1 of an earlier
        node's value, which stack in order to its network's input, and
        its payload is (hidden, layers, k, seeds), where layers are the
        network's (W, b, dW, db) tuples and seeds is None or the first
        layer's k input coordinates.
        """
        self.nodes.append(_Node(kind, tuple(inputs), payload))
        self._values = None
        return len(self.nodes) - 1

    def input(self) -> int:
        """An input; ``eval`` binds its value, of any width."""
        return self.build("input")

    # -- values -------------------------------------------------------

    def eval(self, bindings: dict[int, np.ndarray]) -> list[np.ndarray]:
        """Compute every node value in index (= topological) order.

        ``bindings`` maps every input node to its value, a 2-D array with
        the rows its readers' ranges take and the column count of the
        ranges they stack with; the caller ensures this, eval checks none
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
            if node.kind == "input":
                v = np.asarray(bindings[nid], dtype=np.float64)
            else:  # mlp
                hidden, layers, k, seeds = node.payload
                ins = [values[i][start:stop] for i, start, stop in node.inputs]
                s = ins[0] if len(ins) == 1 else np.concatenate(ins, axis=0)
                chains[nid] = _chain(hidden, layers, s, k, seeds)
                v = chains[nid][-1]
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

        ``seeds`` maps mlp node ids to float64 adjoints, each shaped like
        the node's stacked value from the last ``eval``; grad trusts its
        caller for this, reads the seeds without changing them and checks
        only that ``eval`` has run. Each layer's gradient overwrites its
        own dW and db, zeros if no seed reaches its mlp.
        """
        nodes = self.nodes
        values = self._values
        if values is None:
            raise GraphError("call eval before grad")
        adjoint = dict(seeds)
        owned = set()  # adjoints made here, which input adjoints are added into in place

        for nid in range(len(nodes) - 1, -1, -1):
            node = nodes[nid]
            if node.kind != "mlp":
                continue
            hidden, layers, k, chain_seeds = node.payload
            need_input = any(nodes[i].kind == "mlp" for i, _, _ in node.inputs)
            ds = _chain_grad(hidden, layers, self._chains[nid], adjoint.get(nid), k, chain_seeds, need_input)
            if ds is None:
                continue
            row = 0
            for i, start, stop in node.inputs:  # each range takes its own rows of the stacked input's adjoint
                if nodes[i].kind == "mlp":
                    if i not in owned:
                        cur = adjoint.get(i)
                        adjoint[i] = np.zeros(values[i].shape) if cur is None else cur.copy()
                        owned.add(i)
                    adjoint[i][start:stop] += ds[row : row + stop - start]
                row += stop - start

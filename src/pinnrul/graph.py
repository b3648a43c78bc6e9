"""Computation graph with exact reverse-mode gradients.

A graph is one input and the ``mlp`` nodes after it. The input is node
0, which ``eval`` binds; the mlps are nodes 1, 2, … in construction
order, so every mlp reads only nodes with smaller ids, and index order
is a topological order. ``grad`` sweeps the mlps in fixed reverse order
so repeated runs are bit-identical.

All buffers are 2-D float64 arrays. The graph has no shapes: the input
takes whatever 2-D float64 array ``eval`` binds to it, so one graph
serves every batch width, and every op acts column by column. The graph
trusts ``model.PinnModel._graph``, its one client: ``build`` checks
nothing and ``eval`` checks no binding, so well-formed nodes, each
stacking ranges of one column count, and an input with the rows those
ranges read, are the caller's contract.

An mlp node is one whole network and its k forward-tangent chains,
stacked along the rows as ``net`` describes; its inputs are row ranges
of earlier nodes, stacked in order, and its one value stacks its output
and tangent blocks, which the caller cuts. An mlp binds the network's
(W, b, dW, db) tuples by reference, which ``_layout`` cuts as 2-D
float64 views of shapes that agree. ``eval`` runs ``net._chain`` and
holds every layer's value, ``grad`` runs ``net._chain_grad``, which
overwrites dW and db. Neither checks finiteness; the owner of the
buffers does.

The graph ends at a model's network outputs; arithmetic that joins them,
such as a residual or a loss, is the caller's. A model evaluates it only
for ``cost``, whose gradient reads the held pass; its forward-only
passes run ``net._chain`` without a graph. ``grad`` takes the caller's
adjoints, one per mlp in order (a float64 array shaped like the mlp's
stacked value, or None), and writes the vector-Jacobian product over
every layer's own dW and db; the caller binds no buffer into two
layers. Only an mlp's value depends on weights, so an mlp passes each
input range's rows of its input adjoint back to the range's node only
if that node is an mlp, not the input, and an mlp that no adjoint
reaches gets zeros.

A graph instance is single-writer. Distinct instances are independent and
may be used from different threads.
"""

from __future__ import annotations

import numpy as np

from .net import _chain, _chain_grad

__all__ = [
    "Graph",
    "GraphError",
]


class GraphError(Exception):
    """A ``grad`` with no successful ``eval`` before it. The graph trusts
    ``model.PinnModel._graph``, its one client, for everything else."""


class Graph:
    """Append-only computation graph over float64 matrix buffers: one bound
    input, node 0, and the mlp nodes after it."""

    def __init__(self):
        self.nodes: list[tuple] = []  # mlp node i + 1's (inputs, payload)
        self._chains: list[list[np.ndarray]] | None = None  # each mlp's layer values, input first

    def build(self, inputs, payload) -> int:
        """Append an mlp node and return its id. It trusts
        ``model.PinnModel._graph``, its one client, and checks nothing.

        Its inputs are (node, start, stop) ranges, rows start..stop-1 of
        an earlier node's value (node 0 is the input), which stack in
        order to its network's input, and its payload is (hidden, layers,
        k, seeds), where layers are the network's (W, b, dW, db) tuples
        and seeds is None or the first layer's k input coordinates.
        """
        self.nodes.append((tuple(inputs), payload))
        self._chains = None
        return len(self.nodes)

    def eval(self, s: np.ndarray) -> list[np.ndarray]:
        """Bind the 2-D float64 array ``s`` as node 0 and return each mlp's
        value, in node order.

        ``s`` has the rows its readers' ranges take and the column count
        of the ranges they stack with; the caller ensures this, eval
        checks none of it. An mlp reads its bound weight and bias buffers
        and holds its layer values for ``grad``.

        The last pass is released first, so at most one pass exists at a
        time, and after an eval that raises, ``grad`` raises GraphError
        rather than read a stale pass.
        """
        self._chains = None
        values, chains = [s], []
        for inputs, (hidden, layers, k, seeds) in self.nodes:
            ins = [values[i][start:stop] for i, start, stop in inputs]
            chains.append(_chain(hidden, layers, ins[0] if len(ins) == 1 else np.concatenate(ins, axis=0), k, seeds))
            values.append(chains[-1][-1])
        self._chains = chains
        return values[1:]

    def grad(self, seeds) -> None:
        """Write sum_n <seeds[n], d(value of mlp n + 1)/d(p)> into the gradient
        buffer of every layer weight and bias p.

        ``seeds`` holds one adjoint per mlp, in node order: None, or a
        float64 array shaped like the mlp's stacked value from the last
        ``eval``. grad trusts its caller for this, reads the seeds without
        changing them and checks only that ``eval`` has run. Each layer's
        gradient overwrites its own dW and db, zeros if no seed reaches
        its mlp.
        """
        chains = self._chains
        if chains is None:
            raise GraphError("call eval before grad")
        adjoint = [None, *seeds]  # by node id; the input's stays None
        owned = set()  # adjoints made here, which input adjoints are added into in place

        for nid in range(len(self.nodes), 0, -1):
            inputs, (hidden, layers, k, chain_seeds) = self.nodes[nid - 1]
            need_input = any(i for i, _, _ in inputs)
            ds = _chain_grad(hidden, layers, chains[nid - 1], adjoint[nid], k, chain_seeds, need_input)
            if ds is None:
                continue
            row = 0
            for i, start, stop in inputs:  # each range takes its own rows of the stacked input's adjoint
                if i:
                    if i not in owned:
                        cur = adjoint[i]
                        adjoint[i] = np.zeros(chains[i - 1][-1].shape) if cur is None else cur.copy()
                        owned.add(i)
                    adjoint[i][start:stop] += ds[row : row + stop - start]
                row += stop - start

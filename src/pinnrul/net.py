"""Multilayer perceptrons emitted as computation-graph nodes.

``GraphMlp`` holds one (W, b, dW, db) tuple per MLP layer, the weight,
the bias and their gradient buffers, and emits one graph ``layer`` node
per tuple, which binds those four arrays; ``init_params`` draws into
the W and b arrays in place. Besides the plain
chain it can carry forward-tangent chains for directional input
derivatives: each layer's value stacks the primal block and one tangent
block per input coordinate along its rows, the first layer seeds the
tangents from its weight columns, and ``rows`` nodes read the output
blocks back out. Reverse-mode ``grad`` through a tangent output yields
exact mixed second derivatives. ``Graph.build`` checks each emitted
layer: its buffers, its input's rows, its tangent coordinates and that
relu carries no tangents. ``_chain`` runs the same layer kernel over a
network's tuples without a graph, for reads that need no gradient.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph, _layer_value

INIT_SCHEMES = ("standard-normal", "xavier")


def init_params(layers, scheme: str = "standard-normal", seed: int = 0) -> None:
    """Draw each layer's W and b into the arrays themselves from a seeded
    generator, in layer order, W before b; same inputs, same bits.

    ``layers`` are (W, b, dW, db) tuples; the gradients are not touched.
    standard-normal: every weight and bias i.i.d. N(0, 1).
    xavier: W ~ N(0, 2 / (fan_in + fan_out)), biases zero.
    ``scheme`` is one of ``INIT_SCHEMES``, which ``PinnModel`` checks.
    """
    rng = np.random.default_rng(seed)
    for w, b, *_ in layers:
        if scheme == "standard-normal":
            w[...] = rng.standard_normal(w.shape)
            b[...] = rng.standard_normal(b.shape)
        else:
            w[...] = rng.normal(0.0, np.sqrt(2.0 / sum(w.shape)), w.shape)
            b[...] = 0.0


def _chain(hidden: str, layers, s: np.ndarray, k: int, seeds) -> list[np.ndarray]:
    """Values of one network's layers on ``s``, input first, without a graph.

    ``layers`` are (W, b, dW, db) tuples; every layer but the last applies
    ``hidden``, the last is linear. ``k`` and ``seeds`` are the first
    layer's as for a graph ``layer`` node (seeds None when k is 0), and
    each value stacks the primal block and k tangent blocks along its rows.
    """
    values = [s]
    last = len(layers) - 1
    for i, bufs in enumerate(layers):
        values.append(_layer_value(("linear" if i == last else hidden, k, seeds, *bufs), values[-1]))
        seeds = None  # later layers take the stacked blocks
    return values


class GraphMlp:
    """One MLP's layers, emitted into a graph as trainable layer nodes.

    ``layers`` holds one (W, b, dW, db) tuple per layer: the weight, the
    bias and their gradient buffers. Every layer but the last applies
    ``hidden`` (tanh or relu); the last is linear. Each layer node binds
    the arrays themselves, not copies, so each ``eval`` reads the current
    weights and each ``grad`` writes the gradients in place. The graph
    checks each tuple and the input it acts on when it builds the node.
    """

    def __init__(self, graph: Graph, hidden: str, layers):
        self.graph = graph
        self.hidden = hidden
        self.layers = list(layers)

    def forward(self, input_id: int) -> int:
        """Emit the layer chain for ``input_id`` of shape (d_in, n); n may be None."""
        out, _ = self._chain(input_id, ())
        return out

    def forward_tangents(self, input_id: int, coords) -> tuple[int, list[int]]:
        """Emit the layer chain plus one directional-derivative chain per coordinate.

        ``coords`` are input coordinate indices. Returns the output node
        and, in the order of ``coords``, the node of the output's derivative
        along each coordinate; all of them share one primal chain.
        Requires a smooth hidden activation: a relu layer takes no tangents.
        """
        return self._chain(input_id, tuple(coords))

    def _chain(self, input_id, coords):
        g = self.graph
        h, seeds = input_id, coords
        last = len(self.layers) - 1
        for li, bufs in enumerate(self.layers):
            h = g.layer(h, *bufs, "linear" if li == last else self.hidden, len(coords), seeds)
            seeds = None  # later layers take the stacked blocks
        if not coords:
            return h, []
        m = self.layers[-1][0].shape[0]  # d_out, the rows of the last W
        blocks = [g.rows(h, j * m, (j + 1) * m) for j in range(1 + len(coords))]
        return blocks[0], blocks[1:]

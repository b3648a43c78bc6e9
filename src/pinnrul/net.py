"""Multilayer perceptrons: the layer kernels, the walks over a network's
layers and their emission as one computation-graph node.

A network is one (W, b, dW, db) tuple per layer: the weight, the bias
and their gradient buffers. Every layer but the last applies the hidden
activation; the last is linear. With k forward-tangent chains (vector
forward mode, for directional input derivatives) a layer's value stacks
k + 1 blocks of m rows: act(z), then each tangent block act'(z) * (W t_j).
Its input stacks h, t_1..t_k the same way, so one batched product makes
every block; the first layer takes h alone and seeds tangent j with the
weight column W[:, c_j], the derivative along input coordinate c_j.
Reverse mode through a tangent block gives exact mixed second derivatives.

``_chain`` is the one forward walk over a network's layers and
``_chain_grad`` the one backward walk. The model's reads and its
forward-only cost pass call ``_chain`` into two reused buffers per
network; ``GraphMlp`` emits a network as one graph ``mlp`` node on row
ranges of the graph's input and of earlier mlps, whose value stacks the
output and tangent blocks and which the graph runs with the same two
walkers. Nothing here draws weights: ``model.init_model`` does.
"""

from __future__ import annotations

import numpy as np

def _layer_value(activation, k, seeds, w, b, s, out=None):
    """Blocks act(z) and act'(z) * u_j of z = w @ h + b, u_j = w @ t_j (or w[:, c_j]).

    The value is a new array, or with ``out``, a flat float64 array of at
    least (1 + k) * m * n entries, a view of its head.
    """
    m, n = w.shape[0], s.shape[1]
    z = None if out is None else out[: (1 + k) * m * n].reshape(1 + k, m, n)
    if seeds is None:
        z = np.matmul(w, s.reshape(1 + k, -1, n), out=z)
    else:
        if z is None:
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


def _layer_adjoints(activation, k, seeds, w, a, v, s, need_s):
    """(dW, dS, db) of a layer with value ``v`` on input ``s`` whose adjoint is ``a``;
    dS is None unless ``need_s``.

    The second-order term: a tanh tangent block t_j = (1 - y^2) u_j moves
    with z too, dt_j/dz = -2 y t_j, so dz = (1 - y^2) a_0 - 2 y sum_j a_j t_j.
    """
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
    if need_s:
        ds = w.T @ dz[0] if seeds is not None else np.matmul(w.T, dz).reshape(-1, n)
    db = dz[0].sum(axis=1, keepdims=True)
    return dw, ds, db


def _chain(hidden: str, layers, s: np.ndarray, k: int, seeds, bufs=None) -> list[np.ndarray]:
    """Values of the network ``layers`` on ``s``, input first. ``seeds`` is None
    when ``s`` stacks h and k tangent blocks, or the first layer's k input
    coordinates when ``s`` is h alone.

    With ``bufs``, two flat float64 arrays each large enough for any layer's
    value, layer i writes its value into ``bufs[i % 2]``, so no layer value
    is allocated and only the last two stay current: a forward-only caller
    reads the output, the last value, and nothing else.
    """
    values = [s]
    last = len(layers) - 1
    for i, (w, b, _, _) in enumerate(layers):
        out = None if bufs is None else bufs[i % 2]
        values.append(_layer_value("linear" if i == last else hidden, k, seeds, w, b, values[-1], out))
        seeds = None  # later layers take the stacked blocks
    return values


def _chain_grad(hidden: str, layers, values, a, k: int, seeds, need_input: bool):
    """Backward walk of ``_chain`` over its ``values``: overwrite each layer's
    dW and db with the vector-Jacobian product of the output adjoint ``a``
    (zeros if ``a`` is None) and return the input's adjoint, None unless
    ``need_input``.
    """
    last = len(layers) - 1
    for i in range(last, -1, -1):
        w, _, dw, db = layers[i]
        if a is None:
            dw.fill(0.0)
            db.fill(0.0)
            continue
        dw_i, a, db_i = _layer_adjoints(
            "linear" if i == last else hidden, k, seeds if i == 0 else None, w, a, values[i + 1], values[i], i > 0 or need_input
        )
        np.copyto(dw, dw_i)
        np.copyto(db, db_i)
    return a


class GraphMlp:
    """One network, ``hidden`` (tanh or relu) and its ``layers``, emitted into
    a graph as one trainable ``mlp`` node on row ranges of node 0, the
    graph's bound input, and of earlier mlps. It binds the arrays
    themselves, not copies, so each ``eval`` reads the current weights and
    each ``grad`` writes the gradients in place.
    """

    def __init__(self, graph, hidden: str, layers):
        self.graph = graph
        self.hidden = hidden
        self.layers = list(layers)

    def forward(self, *inputs) -> int:
        """Emit the network on ``inputs``, (node, start, stop) row ranges that
        stack to its (d_in, n) input; the node's value is the output."""
        return self.graph.build(inputs, (self.hidden, self.layers, 0, None))

    def forward_tangents(self, *inputs, coords) -> int:
        """Emit the network plus one directional-derivative chain per coordinate.

        ``inputs`` are row ranges as for ``forward`` and ``coords`` coordinate
        indices of their stack. The node's value stacks 1 + len(coords) blocks
        of d_out rows: the output, then, in the order of ``coords``, its
        derivative along each coordinate; all of them share one primal chain.
        Requires a smooth hidden activation: a relu network takes no tangents.
        """
        coords = tuple(coords)
        return self.graph.build(inputs, (self.hidden, self.layers, len(coords), coords or None))

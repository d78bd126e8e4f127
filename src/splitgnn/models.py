"""Participant-local graph encoders: heterogeneous attention plus baselines.

The heterogeneous-attention encoder ("hat") runs, per layer, a type-specific
node transform, a relation-specific edge transform fused into each neighbor
message, multi-head dot-product attention within every relation channel
(original relations and metapath channels alike), and a learned path
attention that mixes the per-channel embeddings into one vector per node.
"gcn" and "gat" are relation-agnostic baselines over the merged edge set.
The three share one skeleton, :class:`_Encoder`: its ``forward`` finds the
batch's receptive field, runs the layers over it and gathers the batch's
rows, and each encoder adds only its parameters and its layer.  Encoders
have no dropout and draw nothing at random after their parameters' init, so
a forward is the same function of (parameters, batch) with or without a
tape; the server's layers hold a run's only dropout.

Node-level attention is one kernel, :func:`_attention_layer`, scored at
the fixed scale 1/sqrt(hidden); every head projects to the full hidden
width, and the heads are summed before the ELU, which the layer applies.
"gat" calls it once over the merged edges.  "hat" calls it once per
channel, stacks the channels' outputs channel by channel into one
(channels·k) × d tensor and applies the ELU once to the stack, and its
path attention scores and mixes the channels with products over the whole
stack, not one channel at a time.  Attention is linear in its values, so
the heads share their message rows: head m keys a target's own row h by
h P_m P_mᵀ, scores and sums the unprojected messages with
:func:`~splitgnn.tensor.segment_attention`, and projects the sum by P_m once
per target, not every message once per head.  Attention returns its output
only and no encoder keeps α or β, so an evaluation holds no per-edge
coefficients.

Encoders bind to a participant view at construction and only ever touch
that view's edges, so stacking layers is exactly multi-hop aggregation over
private edge information.  An isolated node keeps propagating its own
transformed features through every layer via its self-loop.

A metapath channel keeps its instances as indexes: target, endpoint and the
edge id of each hop.  A layer builds the feature rows,
[x_target, e_1, x_1, ..., e_L, x_L], of its block's instances only, from
the node and edge features the participant holds, as MAGNN encodes
metapath instances (Fu et al., 2020).  So set-up keeps no row per instance,
and the rows a layer reads are the ones a table built up front would give.
A row's two ends are its target's and its endpoint's features, so
:func:`_fusion` projects them once per node, and a layer builds only the
middle [e_1, x_1, ..., e_L] per instance.
HAT fuses each edge's source row with its edge latent one way,
``[h_src, latent] @ W + b``: any map affine in the node row and the edge
latent separately has that form for some ``W``.  With ``A`` and ``B`` the
row blocks of ``W``, :func:`_fusion` projects the node rows once per node
and the edge transform and fusion weights once per channel:
``(h @ A)[src] + rows @ (We @ B) + (be @ B + b)``.

What a training tape keeps of a layer's edges is what builds them again.  A
HAT tape keeps the block's edge ids, not its rows, and builds the rows again
in backward for the gradient of ``We @ B``; it builds a metapath's gathered
end features again too.  Attention keeps each channel's unprojected
messages, HAT's fused ones or GAT's gathered rows, once for all heads, and
forms the heads' keys again in backward.  So no tape keeps an edge latent,
a concatenated edge row, a gathered feature row, a key per edge or a head's
projected value rows.

Every encoder runs each layer over the batch's receptive field only: the
layer-wise mini-batching of GraphSAGE (Hamilton et al., 2017).  The nodes
and edges each layer needs are found top-down from the batch through the
graph's :class:`~splitgnn.graph.TargetCsr` edge indexes (one per channel for
"hat", one over the merged edges for "gcn" and "gat"), so a round costs what
its batch touches, not what the graph holds.  "gcn" and "gat" compute every
output row as the whole-graph layers would.  "hat" scores its path
attention over each layer's target frontier, as mini-batch HAN does (Wang et
al., 2019), so its rows are the whole-graph layers' when the batch is every
node.  Every product rounds a row as a product of many rows does
(:func:`~splitgnn.tensor.matmul`), so "gcn" and "gat" rows are the same
whatever else is in the call, and "hat" rows depend on the call only
through β's frontier.  Backward products are numpy's own: a parameter's
gradient sums over rows, so it may move in its last bits with the ranges.

GCN's first layer runs over no block.  Its mean over a node's raw neighbour
features depends on no parameter, so :class:`GcnEncoder` keeps it in a memo
with one row per node, as SGC precomputes its propagation (Wu et al.,
2019), and the layer is ``elu(M0[targets] @ W0 + b0)``.  A forward computes
only the rows it reads that are still missing, by the same segment sum over
the same edges in the same order as a block layer, so every row, output and
gradient is the one a first-layer block gives, and a GCN batch's blocks are
one hop shallower.  The memo, n × f floats allocated by the first forward,
is the only thing an encoder keeps of a forward.

A layer's edge work, in training and inference alike, runs in consecutive
target ranges of at most ``EDGE_BUDGET`` edges each, or one target that has
more (:func:`_target_ranges`): per channel for "hat", over the merged edges
for "gcn" and "gat".  Without a tape a range drops its edge arrays before
the next, so an evaluation's edge-sized memory is one range's, not the
whole split's; a tape records each range's ops, and backward sums the
ranges' gradients.  Each target's rows are computed from the same edges in
the same order, and "hat" scores its path attention over the whole
frontier after the ranges, so β is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import tensor as T
from .errors import ContractError, ShapeError
from .graph import (HetGraph, Metapath, ParticipantView, TargetCsr, metapath_edges,
                    metapath_feature_dim)
from .seeding import stable_rng

# the most edges a range of a layer works on at once
EDGE_BUDGET = 4096


@dataclass
class EncoderConfig:
    """The encoder fields that ``ExperimentConfig.encoder_config`` derives
    from a checked config; the view itself checks nothing.  Every head
    projects to ``hidden`` columns and the heads are summed, and attention
    scores are scaled by ``lam``, 1/sqrt(hidden)."""

    kind: str                    # a key of ENCODERS
    layers: int                  # hop count K
    hidden: int                  # embedding dim d
    heads: int

    @property
    def lam(self) -> float:
        return 1.0 / math.sqrt(self.hidden)


def init_param(params: dict, name: str, shape, seed, zeros: bool = False) -> T.Tensor:
    """Glorot-uniform (or zero) parameter whose values depend only on
    (seed, name), never on creation order."""
    if zeros:
        values = np.zeros(shape)
    else:
        fan_in = shape[0]
        fan_out = shape[1] if len(shape) > 1 else shape[0]
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        values = stable_rng(seed, "init", name).uniform(-bound, bound, size=shape)
    p = T.Tensor(values, requires_grad=True, name=name)
    params[name] = p
    return p


def _fusion(tape, h, We, be, W, b, ends=None):
    """The message function ``fuse(src, seg, rows)`` of a channel whose
    layer reads the rows ``h``: each edge's source row ``h[src]`` fused with
    its edge latent ``r @ We + be``, where ``r`` is the edge's feature row,
    as ``[h_src, latent] @ W + b``.  That is affine in both, so it is
    computed as

        (h @ A)[src] + r @ (We @ B) + (be @ B + b)

    with A and B the row blocks of W.  The node part is projected once per
    node and the weights once per channel, not per edge or per range of
    edges, and no edge latent or concatenated edge row is built.

    For a relation, ``rows()`` builds the edges' feature rows.  For a
    metapath, ``ends`` is ``(X, targets, inputs)``: the graph's node
    features and the node ids of the layer's targets and inputs.  An
    instance's row [x_target, e_1, x_1, ..., e_L, x_L] ends in its target's
    and its endpoint's features, so those two blocks of ``We @ B`` are
    projected once per node, ``X[targets]`` and ``X[inputs]``, gathered by
    ``seg`` (each edge's target) and added to the node part, and ``rows()``
    builds the middle [e_1, x_1, ..., e_L] only.  Every feature product is a
    :func:`~splitgnn.tensor.rebuilt_matmul`, so the tape keeps no edge rows
    and no gathered feature rows.
    """
    d = h.shape[1]
    A = T.gather_rows(tape, W, np.arange(d))
    B = T.gather_rows(tape, W, np.arange(d, 2 * d))
    node = T.matmul(tape, h, A)
    edge_w = T.matmul(tape, We, B)
    bias = T.add(tape, T.matmul(tape, be, B), b)
    own = None
    if ends is not None:
        X, targets, inputs = ends
        f, width = X.shape[1], edge_w.shape[0]
        block = partial(T.gather_rows, tape, edge_w)
        node = T.add(tape, node, T.rebuilt_matmul(tape, lambda: X[inputs],
                                                  block(np.arange(width - f, width))))
        own = T.rebuilt_matmul(tape, lambda: X[targets], block(np.arange(f)))
        edge_w = block(np.arange(f, width - f))

    def fuse(src, seg, rows):
        msg = T.add(tape, T.gather_rows(tape, node, src),
                    T.add(tape, T.rebuilt_matmul(tape, rows, edge_w), bias))
        return msg if own is None else T.add(tape, msg, T.gather_rows(tape, own, seg))

    return fuse


def _target_ranges(seg, k: int):
    """The consecutive ranges ``(t0, t1, e0, e1)`` in which a layer's edge
    work runs, on a tape or not: targets ``t0 .. t1-1`` and their edges
    ``e0 .. e1-1``, where ``seg``, ascending, is each edge's target among
    ``k``.  A range holds at most ``EDGE_BUDGET`` edges, or one target that
    has more, so an op works on one range's edge arrays, as GraphSAGE's
    layer-wise inference does (Hamilton et al., 2017).  A one-edge range
    rounds as a larger one, as every product does."""
    if len(seg) <= EDGE_BUDGET:
        return [(0, k, 0, len(seg))]
    ends = np.cumsum(np.bincount(seg, minlength=k))
    ranges, t0, e0 = [], 0, 0
    while t0 < k:
        t1 = max(int(np.searchsorted(ends, e0 + EDGE_BUDGET, side="right")), t0 + 1)
        e1 = int(ends[t1 - 1])
        ranges.append((t0, t1, e0, e1))
        t0, e0 = t1, e1
    return ranges


def _row_range(tape, x, t0: int, t1: int):
    """Rows ``t0 .. t1-1`` of ``x``: ``x`` itself when they are all of it."""
    return x if t1 - t0 == x.shape[0] else T.gather_rows(tape, x, np.arange(t0, t1))


def _attention_layer(tape, edge_seg, own, projs, lam: float, messages):
    """Multi-head attention of the targets whose own rows are ``own`` over
    their edges, whose targets are ``edge_seg``, range by range
    (:func:`_target_ranges`), on ``tape`` or not.  ``messages(e0, e1)``
    builds the unprojected message rows of edges ``e0 .. e1-1``.  In a
    range each target attends over its edges, in edge order, then its self
    entry, for each head projection of ``projs``, with scores scaled by
    ``lam`` (:func:`~splitgnn.tensor.segment_attention`).  Returns
    ``S @ [P_0; …; P_{H−1}]``: the sum of the heads' outputs, each head's
    weighted sum projected once per target after the ranges.  The caller
    applies the ELU."""
    qk = T.grams(tape, projs)
    sums = [T.segment_attention(tape, _row_range(tape, own, t0, t1), qk, messages(e0, e1),
                                edge_seg[e0:e1] - t0, lam)
            for t0, t1, e0, e1 in _target_ranges(edge_seg, own.shape[0])]
    return T.matmul(tape, T.concat_rows(tape, sums), T.concat_rows(tape, projs))


def path_attention(tape, z, channels: int, q, Wp, bp):
    """Softmax mix over relation channels, scored over the rows given.

    ``z`` stacks the channels' embeddings of the same k rows, channel by
    channel: (channels·k) × d.  Each channel's score is the mean over its
    rows of <q, tanh(Wp z + bp)>; the resulting weights β sum to one and
    are shared by every row.  Every step is one product over all channels:
    the scores of every row at once, their per-channel means as the (C, k)
    scores times a vector of 1/k, and the mix as β times z viewed as
    C × (k·d).  ``HatEncoder`` passes a layer's target frontier, so β is a
    mean over the nodes that layer computes, not over the whole graph.
    Returns the mixed rows only (k × d).
    """
    rows = z.shape[0] if z.ndim == 2 else 0
    if channels < 1 or rows == 0 or rows % channels:
        raise ShapeError(f"path attention needs a positive multiple of {channels} "
                         f"channels' rows, got z of shape {z.shape}")
    k, d = rows // channels, z.shape[1]
    s = T.matmul(tape, T.tanh(tape, T.linear(tape, z, Wp, bp)), q)
    beta = T.softmax(tape, T.matmul(tape, T.reshape(tape, s, (channels, k)),
                                    np.full(k, 1.0 / k)))
    return T.reshape(tape, T.matmul(tape, beta, T.reshape(tape, z, (channels, k * d))), (k, d))


@dataclass
class _Channel:
    """One channel of ``graph``: its edge e runs from ``nbr[e]`` into
    ``tgt[e]``.  A relation's channel (``metapath`` None) is that relation's
    edge list.  A metapath's channel keeps, per instance e, ``hops[k][e]``:
    the id of its k-th edge in the metapath's k-th relation.  An edge's
    feature row is built from the graph when a layer reads it, so no
    channel keeps a row per metapath instance."""
    name: str
    tgt: np.ndarray
    nbr: np.ndarray
    graph: HetGraph
    metapath: Metapath | None = None
    hops: list[np.ndarray] | None = None

    @property
    def edge_dim(self) -> int:
        if self.metapath is None:
            return self.graph.relations[self.name].edge_dim
        return metapath_feature_dim(self.graph, self.metapath)

    def rows(self, eid: np.ndarray) -> np.ndarray:
        """The per-edge part of the feature rows of edges ``eid``, in order,
        as one C-contiguous float64 matrix: a relation's edge features, or
        the middle [e_1, x_1, ..., e_L] of an instance's row [x_target, e_1,
        x_1, ..., e_L, x_L] (x a node's features, e_k its k-th edge's), whose
        two ends :func:`_fusion` projects per node."""
        g = self.graph
        if self.metapath is None:
            return g.relations[self.name].feat[eid]
        parts = []
        for k, (rname, hop) in enumerate(zip(self.metapath.relations, self.hops)):
            rel = g.relations[rname]
            edge = hop[eid]
            parts.append((rel.feat, edge))
            if k + 1 < len(self.hops):
                parts.append((g.features, rel.dst[edge]))
        # filled part by part: a concatenate of gathered parts takes about
        # twice as long at desk scale
        out = np.empty((len(eid), self.edge_dim - 2 * g.feature_dim))
        col = 0
        for table, idx in parts:
            out[:, col:col + table.shape[1]] = table[idx]
            col += table.shape[1]
        return out


def _build_channels(view: ParticipantView) -> list[_Channel]:
    g = view.graph
    channels = [_Channel(name, g.relations[name].src, g.relations[name].dst, g)
                for name in g.relation_names()]
    for mp in view.metapaths:
        tgt, nbr, hops = metapath_edges(g, mp)
        channels.append(_Channel(f"path:{mp.name}", tgt, nbr, g, mp, hops))
    return channels


class _Encoder:
    """The skeleton of every encoder, bound to one participant's view.

    ``forward`` finds the batch's receptive-field blocks through the edge
    indexes ``csrs``, one per layer after the first ``memo_layers``.
    ``_inputs(tape, rows)`` gives the first block's input rows: the raw
    features, or, for GCN, its first layer's rows from its memo.  Then,
    layer by layer, it runs the encoder's ``_layer(tape, x, l, blk)``, which
    maps the block's input rows to its target rows.  It returns the batch's
    rows in batch order.  With ``self_entry`` a layer's inputs include its
    targets, as an attention layer's self entry reads them.  An encoder has
    no dropout, so a forward with a tape computes the rows one without
    computes.  It keeps nothing of a forward but GCN's parameter-free
    first-layer memo, so no α or β outlives the ops that use them.
    """

    self_entry = True
    # the first layers, which ``_inputs`` computes from a memo, with no block
    memo_layers = 0
    csrs: list[TargetCsr]

    def __init__(self, view: ParticipantView, config: EncoderConfig, seed, scope: str):
        self.graph = view.graph
        self.config = config
        self.seed = seed
        self.scope = scope
        self.params: dict[str, T.Tensor] = {}

    def _new_param(self, layer: int, name: str, shape, zeros: bool = False) -> None:
        init_param(self.params, f"{self.scope}/l{layer}/{name}", shape, self.seed, zeros)

    def _param(self, layer: int, name: str) -> T.Tensor:
        return self.params[f"{self.scope}/l{layer}/{name}"]

    def _inputs(self, tape, rows: np.ndarray):
        """The rows of nodes ``rows`` that the first block's layer reads:
        their raw features."""
        return T.Tensor(self.graph.features[rows])

    def forward(self, tape, batch_ids):
        batch = np.asarray(batch_ids, dtype=np.int64)
        targets = np.unique(batch)
        blocks = _receptive_blocks(self.csrs, targets, self.config.layers - self.memo_layers,
                                   self.graph.num_nodes, self.self_entry)
        x = self._inputs(tape, blocks[0].inputs if blocks else targets)
        for l, blk in enumerate(blocks, start=self.memo_layers):
            x = self._layer(tape, x, l, blk)
        return T.gather_rows(tape, x, np.searchsorted(targets, batch))


class HatEncoder(_Encoder):
    """K stacked heterogeneous-attention layers over one participant's view.

    Each channel keeps its edges in a :class:`~splitgnn.graph.TargetCsr`.
    Path attention weighs a channel by its mean score over the layer's target
    frontier, so an output row depends on which nodes the batch's layers
    reach; with every node in the batch it is the whole-graph row.
    """

    kind = "hat"

    def __init__(self, view: ParticipantView, config: EncoderConfig, seed, scope: str):
        super().__init__(view, config, seed, scope)
        self.channels = _build_channels(view)
        if not self.channels:
            raise ContractError("path attention needs at least one channel")
        self.csrs = [TargetCsr(ch.tgt, ch.nbr, self.graph.num_nodes) for ch in self.channels]
        self.type_names = sorted(set(self.graph.node_types.tolist()))
        d = config.hidden
        for l in range(config.layers):
            in_dim = self.graph.feature_dim if l == 0 else d
            for tname in self.type_names:
                self._new_param(l, f"type:{tname}/W", (in_dim, d))
                self._new_param(l, f"type:{tname}/b", (d,), zeros=True)
            for ch in self.channels:
                base = f"rel:{ch.name}"
                self._new_param(l, f"{base}/We", (ch.edge_dim, d))
                self._new_param(l, f"{base}/be", (d,), zeros=True)
                self._new_param(l, f"{base}/fuse/W", (2 * d, d))
                self._new_param(l, f"{base}/fuse/b", (d,), zeros=True)
                for m in range(config.heads):
                    self._new_param(l, f"{base}/head{m}", (d, d))
            self._new_param(l, "path/q", (d,))
            self._new_param(l, "path/W", (d, d))
            self._new_param(l, "path/b", (d,), zeros=True)

    def _type_transform(self, tape, x, rows: np.ndarray, layer: int):
        """Each row of ``x``, the node ``rows[i]``, through its type's map:
        the rows of a type are mapped together, and one gather puts the
        stacked results back in the order of ``rows``."""
        types = self.graph.node_types[rows]
        groups = [np.flatnonzero(types == tname) for tname in self.type_names]
        pieces = [T.linear(tape, T.gather_rows(tape, x, idx),
                           self._param(layer, f"type:{tname}/W"),
                           self._param(layer, f"type:{tname}/b"))
                  for tname, idx in zip(self.type_names, groups)]
        return T.gather_rows(tape, T.concat_rows(tape, pieces), np.argsort(np.concatenate(groups)))

    def _channel_attention(self, tape, h, h_own, layer: int, ch: _Channel, blk: _Block,
                           edges):
        """One channel's attention for the targets of ``blk``: ``h`` holds its
        input rows, ``h_own`` the targets' own rows, ``edges`` the channel's
        (seg, src, eid) in the block."""
        edge_seg, src, eid = edges
        base = f"rel:{ch.name}"
        ends = None if ch.metapath is None else (self.graph.features, blk.targets, blk.inputs)
        fuse = _fusion(tape, h, *(self._param(layer, f"{base}/{name}")
                                  for name in ("We", "be", "fuse/W", "fuse/b")), ends)
        projs = [self._param(layer, f"{base}/head{m}") for m in range(self.config.heads)]
        return _attention_layer(
            tape, edge_seg, h_own, projs, self.config.lam,
            lambda e0, e1: fuse(src[e0:e1], edge_seg[e0:e1], partial(ch.rows, eid[e0:e1])))

    def _layer(self, tape, x, l: int, blk: _Block):
        h = self._type_transform(tape, x, blk.inputs, l)
        h_own = T.gather_rows(tape, h, np.searchsorted(blk.inputs, blk.targets))
        # the list goes straight into the stack, so no channel's rows outlive it
        z = T.elu(tape, T.concat_rows(tape, [
            self._channel_attention(tape, h, h_own, l, ch, blk, edges)
            for ch, edges in zip(self.channels, blk.edges)]))
        return path_attention(tape, z, len(self.channels), self._param(l, "path/q"),
                              self._param(l, "path/W"), self._param(l, "path/b"))


def _merged_edges(g: HetGraph) -> tuple[np.ndarray, np.ndarray]:
    """(target, neighbor) over every relation, in relation-name order."""
    empty = [np.zeros(0, dtype=np.int64)]
    tgt = np.concatenate([g.relations[r].src for r in g.relation_names()] or empty)
    nbr = np.concatenate([g.relations[r].dst for r in g.relation_names()] or empty)
    return tgt, nbr


@dataclass
class _Block:
    """One layer's share of a batch's receptive field, in node ids sorted
    ascending: the layer reads the rows ``inputs`` and writes the rows
    ``targets``.  ``edges[c]`` is ``(seg, src, eid)`` for the edges of the
    c-th edge index into the targets: edge e runs from ``inputs[src[e]]``
    into ``targets[seg[e]]`` and is edge ``eid[e]`` of that index's list."""
    inputs: np.ndarray
    targets: np.ndarray
    edges: list[tuple[np.ndarray, np.ndarray, np.ndarray]]


def _receptive_blocks(csrs: list[TargetCsr], batch: np.ndarray, layers: int,
                      num_nodes: int, self_entry: bool) -> list[_Block]:
    """The blocks of a ``layers``-deep encoder for ``batch``, first layer
    first.  They are found top-down: the last layer's targets are the batch,
    and each layer's inputs are the sources of the edges into its targets in
    every index of ``csrs`` (plus the targets themselves with
    ``self_entry``), which are the layer below's targets.  A layer's inputs
    are marked over the graph's ``num_nodes`` nodes, and ``pos`` maps a
    marked node id to its row in them."""
    targets = np.unique(batch)
    pos = np.empty(num_nodes, dtype=np.int64)
    blocks = []
    for _ in range(layers):
        found = [csr.edges_into(targets) for csr in csrs]
        mark = np.zeros(num_nodes, dtype=bool)
        for _, nbr, _ in found:
            mark[nbr] = True
        if self_entry:
            mark[targets] = True
        inputs = np.flatnonzero(mark)
        pos[inputs] = np.arange(len(inputs))
        edges = [(seg, pos[nbr], eid) for seg, nbr, eid in found]
        blocks.append(_Block(inputs, targets, edges))
        targets = inputs
    return blocks[::-1]


class GcnEncoder(_Encoder):
    """Mean-over-neighbors aggregation, linear map, ELU; relations merged.
    The first layer's means, which depend on no parameter, are kept per
    node as forwards compute them."""

    kind = "gcn"
    self_entry = False
    memo_layers = 1

    def __init__(self, view: ParticipantView, config: EncoderConfig, seed, scope: str):
        super().__init__(view, config, seed, scope)
        g = self.graph
        tgt, nbr = _merged_edges(g)
        deg = np.bincount(tgt, minlength=g.num_nodes).astype(np.float64)
        isolated = np.flatnonzero(deg == 0)
        # isolated nodes average over themselves so features keep flowing
        tgt = np.concatenate([tgt, isolated])
        nbr = np.concatenate([nbr, isolated])
        deg[isolated] = 1.0
        self.csrs = [TargetCsr(tgt, nbr, g.num_nodes)]
        self.inv_deg = (1.0 / deg)[:, None]
        # the first layer's neighbour means and which rows hold one; both
        # are allocated by the first forward, so a session that never runs
        # one holds neither
        self.mean0: np.ndarray | None = None
        self.filled: np.ndarray | None = None
        d = config.hidden
        for l in range(config.layers):
            self._new_param(l, "W", (g.feature_dim if l == 0 else d, d))
            self._new_param(l, "b", (d,), zeros=True)

    def _neighbour_means(self, rows: np.ndarray) -> np.ndarray:
        """Rows ``rows`` of the memo M0: M0[t] is ``inv_deg[t]`` times the
        sum of the raw features of t's neighbours over its merged edges, in
        ``TargetCsr`` order.  Only the rows still missing are computed, range
        by range, by the same segment sum in the same edge order as a block
        layer's, so each row is the one that layer would compute."""
        g = self.graph
        if self.mean0 is None:
            self.mean0 = np.empty((g.num_nodes, g.feature_dim))
            self.filled = np.zeros(g.num_nodes, dtype=bool)
        missing = rows[~self.filled[rows]]
        if len(missing):
            seg, nbr, _ = self.csrs[0].edges_into(missing)
            for t0, t1, e0, e1 in _target_ranges(seg, len(missing)):
                summed = T.segment_sum(None, g.features[nbr[e0:e1]], seg[e0:e1] - t0, t1 - t0)
                self.mean0[missing[t0:t1]] = summed.values * self.inv_deg[missing[t0:t1]]
            self.filled[missing] = True
        return self.mean0[rows]

    def _inputs(self, tape, rows: np.ndarray):
        """The first layer's rows for nodes ``rows``, ``elu(M0[rows] @ W0 +
        b0)``: the mean depends on no parameter, so it comes from the memo
        and the layer reads no edge."""
        mean = T.Tensor(self._neighbour_means(rows))
        return T.elu(tape, T.linear(tape, mean, self._param(0, "W"), self._param(0, "b")))

    def _layer(self, tape, x, l: int, blk: _Block):
        seg, src, _ = blk.edges[0]
        summed = T.concat_rows(tape, [
            T.segment_sum(tape, T.gather_rows(tape, x, src[e0:e1]), seg[e0:e1] - t0, t1 - t0)
            for t0, t1, e0, e1 in _target_ranges(seg, len(blk.targets))])
        mean = T.mul(tape, summed, T.Tensor(self.inv_deg[blk.targets]))
        return T.elu(tape, T.linear(tape, mean, self._param(l, "W"), self._param(l, "b")))


class GatEncoder(_Encoder):
    """Single-relation multi-head attention without edge features."""

    kind = "gat"

    def __init__(self, view: ParticipantView, config: EncoderConfig, seed, scope: str):
        super().__init__(view, config, seed, scope)
        g = self.graph
        self.csrs = [TargetCsr(*_merged_edges(g), g.num_nodes)]
        d = config.hidden
        for l in range(config.layers):
            self._new_param(l, "W", (g.feature_dim if l == 0 else d, d))
            self._new_param(l, "b", (d,), zeros=True)
            for m in range(config.heads):
                self._new_param(l, f"head{m}", (d, d))

    def _layer(self, tape, x, l: int, blk: _Block):
        h = T.linear(tape, x, self._param(l, "W"), self._param(l, "b"))
        projs = [self._param(l, f"head{m}") for m in range(self.config.heads)]
        edge_seg, edge_src, _ = blk.edges[0]
        own = T.gather_rows(tape, h, np.searchsorted(blk.inputs, blk.targets))
        return T.elu(tape, _attention_layer(
            tape, edge_seg, own, projs, self.config.lam,
            lambda e0, e1: T.gather_rows(tape, h, edge_src[e0:e1])))


ENCODERS = {"hat": HatEncoder, "gcn": GcnEncoder, "gat": GatEncoder}


def make_encoder(view, config: EncoderConfig, seed, scope: str):
    return ENCODERS[config.kind](view, config, seed, scope)

"""Participant-local graph encoders: heterogeneous attention plus baselines.

The heterogeneous-attention encoder ("hat") runs, per layer, a type-specific
node transform, a relation-specific edge transform fused into each neighbor
message, multi-head dot-product attention within every relation channel
(original relations and metapath channels alike), and a learned path
attention that mixes the per-channel embeddings into one vector per node.
"gcn" and "gat" are relation-agnostic baselines over the merged edge set.
The three share one skeleton, :class:`_Encoder`: its ``forward`` finds the
batch's receptive field, applies each layer's dropout and gathers the
batch's rows, and each encoder adds only its parameters and its layer.

Node-level attention is one kernel, :func:`attend`, with one head merge,
:func:`merge_heads`: "hat" calls them once per channel and head, "gat" once
per head over the merged edges.

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
Each fusion of a node row with an edge latent is affine in both, so
:func:`_fusion` projects the node rows once per node and the edge transform
and fusion weights once per channel:
``(h @ A)[src] + rows @ (We @ B) + (be @ B + c)``.  One learned fusion,
"concat", is enough: any map affine in the node row and the edge latent
separately is ``[h_src, latent] @ W + b`` for some ``W``.

What a training tape keeps of a layer's edges is what builds them again.  A
HAT tape keeps the block's edge ids, not its rows, and builds the rows again
in backward for the gradient of ``We @ B``.  It keeps each channel's fused
messages, each head's projection and the targets' projected rows, and
:func:`attend` builds the head's value rows from them again in backward.
A GAT tape keeps the projected rows and the edge sources, from which the
value rows are gathered again.  Attention reads its anchors from a table by
index.  So no tape keeps an edge latent, a concatenated edge row, a
gathered copy of the anchors or a head's value rows.

Every encoder runs each layer over the batch's receptive field only: the
layer-wise mini-batching of GraphSAGE (Hamilton et al., 2017).  The nodes
and edges each layer needs are found top-down from the batch through the
graph's :class:`~splitgnn.graph.TargetCsr` edge indexes (one per channel for
"hat", one over the merged edges for "gcn" and "gat"), so a round costs what
its batch touches, not what the graph holds.  "gcn" and "gat" compute every
output row as the whole-graph layers would.  "hat" scores its path
attention over each layer's target frontier, as mini-batch HAN does (Wang et
al., 2019), so its rows are the whole-graph layers' when the batch is every
node.  A BLAS product may round a row differently when fewer rows share the
call, so rows of a smaller block can differ from the whole-graph ones in
their last bits.

Without a tape (``predict``, ``evaluate``), a layer's edge work runs in
consecutive target ranges of at most ``EDGE_BUDGET`` edges each, two more
where a range of one edge joins one, or a target that has more
(:func:`_target_ranges`): per channel for "hat", over
the merged edges for "gcn" and "gat".  A range keeps its targets' rows and
drops its edge arrays before the next, so an evaluation's edge-sized memory
is one range's, not the whole split's.  Each target's rows are computed
from the same edges in the same order, and "hat" scores its path attention
over the whole frontier after the ranges, so β is exact.  numpy computes a
one-row product with a matrix-vector kernel that rounds differently, so no
range holds exactly one edge unless its layer does.  A recording tape gets
one range, so training is the same loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import tensor as T
from .errors import ContractError
from .graph import (HetGraph, Metapath, ParticipantView, TargetCsr, metapath_edges,
                    metapath_feature_dim)
from .seeding import stable_rng

FUSIONS = ("concat", "add")
HEAD_MODES = ("sum", "concat")
# the most edges an inference range of a layer works on at once
EDGE_BUDGET = 4096


@dataclass
class EncoderConfig:
    """The encoder fields that ``ExperimentConfig.encoder_config`` derives
    from a checked config; the view itself checks nothing."""

    kind: str                    # a key of ENCODERS
    layers: int                  # hop count K
    hidden: int                  # embedding dim d
    heads: int
    fusion: str
    dropout: float
    head_mode: str               # sum heads inside the activation, or concat
    temperature: float | None    # None -> 1/sqrt(hidden)

    @property
    def lam(self) -> float:
        return self.temperature if self.temperature is not None else 1.0 / math.sqrt(self.hidden)

    @property
    def head_dim(self) -> int:
        return self.hidden // self.heads if self.head_mode == "concat" else self.hidden


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


def _fusion(tape, h, We, be, fusion, fparams):
    """The message function ``fuse(src, rows)`` of a channel whose layer
    reads the rows ``h``: each edge's source row ``h[src]`` fused with its
    edge latent ``rows() @ We + be``, where ``rows`` builds the edges'
    feature rows.  Every fusion is affine in both, so it is computed as

        (h @ A)[src] + rows() @ (We @ B) + (be @ B + c)

    "concat", [h_src, latent] @ W + b, has A and B the row blocks of W and
    c = b; "add", h_src + latent, has A = B = I and c = 0.  The node part is
    projected once per node and the weights once per channel, not per edge
    or per range of edges, and no edge latent or concatenated edge row is
    built.  The rows are built again in backward for the gradient of
    We @ B, so the tape keeps none of them.
    """
    if fusion == "add":
        node, edge_w, bias = h, We, be
    else:
        d = h.shape[1]
        A = T.gather_rows(tape, fparams["W"], np.arange(d))
        B = T.gather_rows(tape, fparams["W"], np.arange(d, 2 * d))
        node = T.matmul(tape, h, A)
        edge_w = T.matmul(tape, We, B)
        bias = T.add(tape, T.matmul(tape, be, B), fparams["b"])

    def fuse(src, rows):
        return T.add(tape, T.gather_rows(tape, node, src),
                     T.add(tape, T.rebuilt_matmul(tape, rows, edge_w), bias))

    return fuse


def _head_values(tape, fused, proj, hp):
    """A HAT head's value rows: its channel's fused messages through the
    head projection, then the targets' own projected rows."""
    return T.concat_rows(tape, [T.matmul(tape, fused, proj), hp])


def attend(tape, keys, anchor, values, inputs, seg, n: int, lam: float):
    """Node-level attention over segments.

    ``values(tape, *inputs)`` builds the value rows.  Row i of them is
    scored by its dot product with row ``anchor[i]`` of ``keys``, scaled by
    ``lam`` and softmaxed among the rows of its segment ``seg[i]``.  Returns
    the coefficients α and, per segment of ``n``, the α-weighted sum of its
    value rows.  The tape keeps the arrays of ``inputs``, not the value
    rows, and ``values`` builds the rows from them again in backward; the
    anchors are read from ``keys`` by index, so no gathered copy of them is
    kept either.
    """
    arrays = [x.values if isinstance(x, T.Tensor) else x for x in inputs]
    return T.segment_attention(tape, keys, anchor, values(tape, *inputs),
                               lambda: values(None, *arrays).values, seg, n, lam)


def _target_ranges(seg, k: int, tape):
    """The consecutive ranges ``(t0, t1, e0, e1)`` in which a layer's edge
    work runs: targets ``t0 .. t1-1`` and their edges ``e0 .. e1-1``, where
    ``seg``, ascending, is each edge's target among ``k``.  A recording tape
    gets one range.  Without one, a range holds at most ``EDGE_BUDGET``
    edges, or a single target that has more, so inference keeps one range's
    edge arrays at a time, as GraphSAGE's layer-wise inference does
    (Hamilton et al., 2017).  A range of one edge would send its products
    to numpy's matrix-vector kernel, which rounds differently, so it joins
    the range before it (the first range joins the one after it), and a
    range within the budget may grow by two edges."""
    if tape is not None or len(seg) <= EDGE_BUDGET:
        return [(0, k, 0, len(seg))]
    ends = np.cumsum(np.bincount(seg, minlength=k))
    ranges, t0, e0 = [], 0, 0
    while t0 < k:
        t1 = max(int(np.searchsorted(ends, e0 + EDGE_BUDGET, side="right")), t0 + 1)
        e1 = int(ends[t1 - 1])
        if ranges and 1 in (e1 - e0, ranges[-1][3] - ranges[-1][2]):
            t0, _, e0, _ = ranges.pop()
        ranges.append((t0, t1, e0, e1))
        t0, e0 = t1, e1
    return ranges


def _row_range(tape, x, t0: int, t1: int):
    """Rows ``t0 .. t1-1`` of ``x``: ``x`` itself when they are all of it."""
    return x if t1 - t0 == x.shape[0] else T.gather_rows(tape, x, np.arange(t0, t1))


def _stacked(tape, parts):
    """The rows of ``parts``, in order: the part itself when there is one."""
    return parts[0] if len(parts) == 1 else T.concat_rows(tape, parts)


def _attention_layer(tape, edge_seg, targets, config: EncoderConfig, heads):
    """Multi-head attention of ``targets`` over their edges, whose targets
    are ``edge_seg``, range by range (:func:`_target_ranges`).  In a range,
    each target attends over its edges, in edge order, then its self entry;
    ``heads(t0, t1, e0, e1, seg)`` gives each head's ``(keys, anchor,
    values, inputs)`` for :func:`attend`, with ``seg`` the range's segment
    ids.  Returns the targets' merged rows and, per head, α and the node id
    of each α's segment."""
    rows, alphas = [], [[] for _ in range(config.heads)]
    for t0, t1, e0, e1 in _target_ranges(edge_seg, len(targets), tape):
        seg = np.concatenate([edge_seg[e0:e1] - t0, np.arange(t1 - t0)])
        ids = targets[t0 + seg]
        head_outs = []
        for m, (keys, anchor, values, inputs) in enumerate(heads(t0, t1, e0, e1, seg)):
            alpha, out = attend(tape, keys, anchor, values, inputs, seg, t1 - t0, config.lam)
            alphas[m].append((alpha, ids))
            head_outs.append(out)
        rows.append(merge_heads(tape, head_outs, config.head_mode))
    return _stacked(tape, rows), [tuple(map(np.concatenate, zip(*a))) for a in alphas]


def merge_heads(tape, head_outs, head_mode: str):
    """Per-head outputs summed (``"sum"``) or concatenated, then ELU."""
    if head_mode == "concat":
        agg = T.concat_cols(tape, head_outs)
    else:
        agg = head_outs[0]
        for other in head_outs[1:]:
            agg = T.add(tape, agg, other)
    return T.elu(tape, agg)


def path_attention(tape, channel_embeddings, q, Wp, bp):
    """Softmax mix over relation channels, scored over the rows given.

    Each channel's score is the mean over the rows of ``z`` of
    <q, tanh(Wp z + bp)>; the resulting weights sum to one and are shared by
    every row.  ``HatEncoder`` passes a layer's target frontier, so β is a
    mean over the nodes that layer computes, not over the whole graph.
    """
    if not channel_embeddings:
        raise ContractError("path attention needs at least one channel")
    scores = []
    for z in channel_embeddings:
        t = T.tanh(tape, T.linear(tape, z, Wp, bp))
        scores.append(T.mean_all(tape, T.matmul(tape, t, q)))
    beta = T.softmax(tape, T.stack_scalars(tape, scores), temperature=1.0)
    out = None
    for k, z in enumerate(channel_embeddings):
        term = T.mul(tape, T.take(tape, beta, k), z)
        out = term if out is None else T.add(tape, out, term)
    return out, beta.values.copy()


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
        """The feature rows of edges ``eid``, in order, as one C-contiguous
        float64 matrix: a relation's edge features, or an instance's
        [x_target, e_1, x_1, ..., e_L, x_L] (x a node's features, e_k its
        k-th edge's)."""
        g = self.graph
        if self.metapath is None:
            return g.relations[self.name].feat[eid]
        parts = [(g.features, self.tgt[eid])]
        for rname, hop in zip(self.metapath.relations, self.hops):
            rel = g.relations[rname]
            edge = hop[eid]
            parts += [(rel.feat, edge), (g.features, rel.dst[edge])]
        # filled part by part: a concatenate of gathered parts takes about
        # twice as long at desk scale
        out = np.empty((len(eid), self.edge_dim))
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
    indexes ``csrs``, then, layer by layer, applies dropout to the block's
    input rows and runs the encoder's ``_layer(tape, x, l, blk)``, which
    maps them to the block's target rows.  It returns the batch's rows in
    batch order.  With ``self_entry`` a layer's inputs include its targets,
    as an attention layer's self entry reads them.  ``diagnostics`` holds
    what the last forward recorded, with α's segments in node ids.
    """

    self_entry = True
    csrs: list[TargetCsr]

    def __init__(self, view: ParticipantView, config: EncoderConfig, seed, scope: str):
        self.graph = view.graph
        self.config = config
        self.seed = seed
        self.scope = scope
        self.params: dict[str, T.Tensor] = {}
        self.diagnostics: dict = {}

    def _new_param(self, layer: int, name: str, shape, zeros: bool = False) -> None:
        init_param(self.params, f"{self.scope}/l{layer}/{name}", shape, self.seed, zeros)

    def _param(self, layer: int, name: str) -> T.Tensor:
        return self.params[f"{self.scope}/l{layer}/{name}"]

    def forward(self, tape, batch_ids, step: int = 0, training: bool = False):
        cfg = self.config
        n = self.graph.num_nodes
        batch = np.asarray(batch_ids, dtype=np.int64)
        blocks = _receptive_blocks(self.csrs, batch, cfg.layers, n, self.self_entry)
        x = T.Tensor(self.graph.features[blocks[0].inputs])
        self.diagnostics = {}
        for l, blk in enumerate(blocks):
            x = T.dropout(tape, x, cfg.dropout,
                          seed=(self.seed, "dropout", self.scope, l, step), training=training,
                          rows=blk.inputs, n_rows=n)
            x = self._layer(tape, x, l, blk)
        return T.gather_rows(tape, x, np.searchsorted(blocks[-1].targets, batch))


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
                if config.fusion == "concat":
                    self._new_param(l, f"{base}/fuse/W", (2 * d, d))
                    self._new_param(l, f"{base}/fuse/b", (d,), zeros=True)
                for m in range(config.heads):
                    self._new_param(l, f"{base}/head{m}", (d, config.head_dim))
            self._new_param(l, "path/q", (d,))
            self._new_param(l, "path/W", (d, d))
            self._new_param(l, "path/b", (d,), zeros=True)

    def _fusion_params(self, layer: int, channel: _Channel) -> dict:
        if self.config.fusion == "add":
            return {}
        base = f"rel:{channel.name}/fuse"
        return {"W": self._param(layer, f"{base}/W"), "b": self._param(layer, f"{base}/b")}

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
        return T.gather_rows(tape, _stacked(tape, pieces), np.argsort(np.concatenate(groups)))

    def _channel_attention(self, tape, h, h_own, layer: int, ch: _Channel, blk: _Block,
                           edges):
        """One channel's attention for the targets of ``blk``: ``h`` holds its
        input rows, ``h_own`` the targets' own rows, ``edges`` the channel's
        (seg, src, eid) in the block."""
        cfg = self.config
        edge_seg, src, eid = edges
        base = f"rel:{ch.name}"
        fuse = _fusion(tape, h, self._param(layer, f"{base}/We"),
                       self._param(layer, f"{base}/be"), cfg.fusion,
                       self._fusion_params(layer, ch))
        projs = [self._param(layer, f"{base}/head{m}") for m in range(cfg.heads)]
        hps = [T.matmul(tape, h_own, proj) for proj in projs]

        def heads(t0, t1, e0, e1, seg):
            fused = fuse(src[e0:e1], partial(ch.rows, eid[e0:e1]))
            for proj, hp in zip(projs, hps):
                hp = _row_range(tape, hp, t0, t1)
                yield hp, seg, _head_values, (fused, proj, hp)

        z, alphas = _attention_layer(tape, edge_seg, blk.targets, cfg, heads)
        for m, alpha in enumerate(alphas):
            self.diagnostics.setdefault("alpha", {})[(layer, ch.name, m)] = alpha
        return z

    def _layer(self, tape, x, l: int, blk: _Block):
        h = self._type_transform(tape, x, blk.inputs, l)
        h_own = T.gather_rows(tape, h, np.searchsorted(blk.inputs, blk.targets))
        zs = [self._channel_attention(tape, h, h_own, l, ch, blk, edges)
              for ch, edges in zip(self.channels, blk.edges)]
        x, beta = path_attention(tape, zs, self._param(l, "path/q"), self._param(l, "path/W"),
                                 self._param(l, "path/b"))
        self.diagnostics.setdefault("beta", {})[l] = beta
        return x


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
    """Mean-over-neighbors aggregation, linear map, ELU; relations merged."""

    kind = "gcn"
    self_entry = False

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
        d = config.hidden
        for l in range(config.layers):
            self._new_param(l, "W", (g.feature_dim if l == 0 else d, d))
            self._new_param(l, "b", (d,), zeros=True)

    def _layer(self, tape, x, l: int, blk: _Block):
        seg, src, _ = blk.edges[0]
        summed = _stacked(tape, [
            T.segment_sum(tape, T.gather_rows(tape, x, src[e0:e1]), seg[e0:e1] - t0, t1 - t0)
            for t0, t1, e0, e1 in _target_ranges(seg, len(blk.targets), tape)])
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
                self._new_param(l, f"head{m}", (d, config.head_dim))

    def _layer(self, tape, x, l: int, blk: _Block):
        h = T.linear(tape, x, self._param(l, "W"), self._param(l, "b"))
        hps = [T.matmul(tape, h, self._param(l, f"head{m}")) for m in range(self.config.heads)]
        edge_seg, edge_src, _ = blk.edges[0]
        own = np.searchsorted(blk.inputs, blk.targets)

        def heads(t0, t1, e0, e1, seg):
            src = np.concatenate([edge_src[e0:e1], own[t0:t1]])
            return [(hp, own[t0 + seg], T.gather_rows, (hp, src)) for hp in hps]

        x, alphas = _attention_layer(tape, edge_seg, blk.targets, self.config, heads)
        for m, alpha in enumerate(alphas):
            self.diagnostics.setdefault("alpha", {})[(l, m)] = alpha
        return x


ENCODERS = {"hat": HatEncoder, "gcn": GcnEncoder, "gat": GatEncoder}


def make_encoder(view, config: EncoderConfig, seed, scope: str):
    return ENCODERS[config.kind](view, config, seed, scope)

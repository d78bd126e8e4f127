import copy
import math
import tracemalloc
from functools import partial

import numpy as np
import pytest

from conftest import (add_at_segment_sum, concat_cols, encoder_config, finite_diff_check,
                      loop_metapath_edges, reshape_col, rowwise_dot, scatter_rows)
from splitgnn import graph as G
from splitgnn import models as M
from splitgnn import tensor as T
from splitgnn.errors import ContractError
from splitgnn.seeding import stable_rng


def fixture_bundle(seed=0, n_u=12, n_v=8, feature_dim=5):
    spec = G.SyntheticSpec(
        node_counts={"u": n_u, "v": n_v},
        relations=[
            G.RelationSpec("uu", "u", "u", edge_dim=2, avg_degree=2.0, symmetric=True),
            G.RelationSpec("uv", "u", "v", edge_dim=1, avg_degree=1.5),
            G.RelationSpec("vu", "v", "u", edge_dim=1, avg_degree=1.5),
        ],
        feature_dim=feature_dim,
        num_classes=2,
        homophily=0.7,
    )
    return G.generate_synthetic(spec, seed=seed)


def graph_view(g):
    """One participant's view of all of ``g``, without metapath channels."""
    no_ids = np.array([], dtype=np.int64)
    return G.ParticipantView(0, g, [], (0, g.feature_dim), True, no_ids, no_ids, no_ids)


def oracle_rows(enc, ch):
    """Every edge's feature row of the encoder's channel ``ch``, built up
    front: a relation's edge features, or the loop oracle's table of a
    metapath's instance rows."""
    if not ch.name.startswith("path:"):
        return enc.graph.relations[ch.name].feat
    metapath = G.Metapath(tuple(ch.name[len("path:"):].split("+")))
    return loop_metapath_edges(enc.graph, metapath)[3]


class TableChannel:
    """A channel that reads its rows from a table built up front, as HAT's
    metapath channels did before they built rows from hop ids."""

    def __init__(self, name, tgt, nbr, table):
        self.name, self.tgt, self.nbr, self.table = name, tgt, nbr, table

    @property
    def edge_dim(self):
        return self.table.shape[1]

    def rows(self, eid):
        return self.table[eid]


def table_encoder(enc):
    """``enc`` with every channel reading the oracle's table; the two share
    their parameters."""
    oracle = copy.copy(enc)
    oracle.channels = [TableChannel(ch.name, ch.tgt, ch.nbr, oracle_rows(enc, ch))
                       for ch in enc.channels]
    return oracle


def edge_fusion(tape, h, We, be, W, b):
    """The fusion as HAT computed it per edge before it projected node rows
    per node: ``fuse(src, rows)`` concatenates ``h[src]`` with the edge
    latent ``rows() @ We + be`` and maps the row through ``W`` and ``b``."""
    def fuse(src, rows):
        hs = T.gather_rows(tape, h, src)
        r = T.linear(tape, T.Tensor(rows()), We, be)
        return T.linear(tape, concat_cols(tape, [hs, r]), W, b)

    return fuse


class TestTransformAndFuse:
    def setup_method(self):
        rng = stable_rng("taf")
        self.node = rng.standard_normal((5, 3))
        self.edge = rng.standard_normal((7, 2))
        self.src = np.array([4, 0, 0, 2, 1, 4, 3])

    def fuse_params(self, seed, zero_bias=True):
        """Node transform, edge transform and fusion weights, d = 4; the
        biases are drawn like the weights unless ``zero_bias``."""
        params = {}
        for name, shape in [("Wt", (3, 4)), ("bt", (4,)), ("We", (2, 4)), ("be", (4,)),
                            ("fuse/W", (8, 4)), ("fuse/b", (4,))]:
            M.init_param(params, name, shape, seed,
                         zeros=zero_bias and len(shape) == 1)
            if len(shape) == 1 and not zero_bias:
                params[name].values[:] = stable_rng(seed, name).standard_normal(shape)
        return params

    @staticmethod
    def fusion_weights(params):
        return params["We"], params["be"], params["fuse/W"], params["fuse/b"]

    def test_concat_width_before_projection(self):
        """The fusion projects the 2d-wide row [h_src, latent]: the first d
        rows of W act on h, the last d on the edge latent."""
        params = self.fuse_params(3, zero_bias=False)
        W, b = params["fuse/W"].values.copy(), params["fuse/b"].values
        assert W.shape == (8, 4)
        h = T.linear(None, self.node, params["Wt"], params["bt"]).values
        latent = self.edge @ params["We"].values + params["be"].values
        for zero, want in [(slice(4, 8), h[self.src] @ W[:4] + b),
                           (slice(0, 4), latent @ W[4:] + b)]:
            params["fuse/W"].values[zero] = 0.0
            out = M._fusion(None, T.Tensor(h), *self.fusion_weights(params))(
                self.src, lambda: self.edge)
            np.testing.assert_allclose(out.values, want, rtol=1e-12)
            params["fuse/W"].values[:] = W

    def test_matches_per_edge_formula(self):
        """Projecting per node reassociates the sums of the per-edge
        formula, so values and every gradient agree to rounding."""
        params = self.fuse_params(2, zero_bias=False)
        seed = stable_rng("taf-seed").standard_normal((7, 4))
        results = []
        for fusion_of in (M._fusion, edge_fusion):
            for p in params.values():
                p.zero_grad()
            tape = T.Tape()
            h = T.linear(tape, self.node, params["Wt"], params["bt"])
            out = fusion_of(tape, h, *self.fusion_weights(params))(
                self.src, lambda: self.edge)
            tape.backward(out, seed_grad=seed)
            results.append((out.values, {name: p.grad for name, p in params.items()}))
        (got, got_grads), (want, want_grads) = results
        np.testing.assert_allclose(got, want, rtol=1e-12)
        for name, grad in want_grads.items():
            if grad is None:
                assert got_grads[name] is None, name
            else:
                np.testing.assert_allclose(got_grads[name], grad, rtol=1e-12, err_msg=name)

    def test_gradient_wrt_node_weight(self):
        params = self.fuse_params(1, zero_bias=False)

        def forward():
            tape = T.Tape()
            h = T.linear(tape, self.node, params["Wt"], params["bt"])
            out = M._fusion(tape, h, *self.fusion_weights(params))(
                self.src, lambda: self.edge)
            return T.mean_all(tape, T.mul(tape, out, out)), tape

        assert finite_diff_check(forward, [params["Wt"]]) < 1e-4


def node_attention(target, neighbors, head_projs, temperature):
    """Attention of one target over its neighbor latents (self included),
    one node at a time: the oracle for the encoders' segment attention.

    Returns the embedding, ELU of the heads' sum, and the per-head attention
    coefficients.
    ``neighbors`` must already contain the self entry; an empty set is a
    contract violation.
    """
    target = np.asarray(target, dtype=np.float64)
    neighbors = np.asarray(neighbors, dtype=np.float64)
    if neighbors.shape[0] < 1:
        raise ContractError("attention needs at least the target itself")
    outs, alphas = [], []
    for proj in head_projs:
        proj = proj.values if isinstance(proj, T.Tensor) else proj
        nproj = neighbors @ proj
        scores = temperature * (nproj @ (target @ proj))
        weights = np.exp(scores - scores.max())
        alpha = weights / weights.sum()
        outs.append(alpha @ nproj)
        alphas.append(alpha)
    z = sum(outs)
    return np.where(z > 0, z, np.expm1(z)), alphas


class TestNodeAttention:
    def _projs(self, d, m, seed=3):
        params = {}
        return [M.init_param(params, f"p{i}", (d, d), seed) for i in range(m)]

    def test_identical_neighbors_uniform(self):
        d = 4
        projs = self._projs(d, 2)
        rng = stable_rng("na-uniform")
        latent = rng.standard_normal(d)
        neighbors = np.stack([latent, latent])
        _, alphas = node_attention(latent, neighbors, projs, 0.5)
        for alpha in alphas:
            np.testing.assert_allclose(alpha, [0.5, 0.5], atol=1e-12)

    def test_single_neighbor(self):
        d = 3
        projs = self._projs(d, 2)
        rng = stable_rng("na-single")
        target = rng.standard_normal(d)
        nbr = rng.standard_normal(d)
        z, alphas = node_attention(target, nbr[None, :], projs, 1.0)
        for alpha in alphas:
            np.testing.assert_allclose(alpha, [1.0])
        expected = sum(nbr @ p.values for p in projs)
        expected = np.where(expected > 0, expected, np.expm1(expected))
        np.testing.assert_allclose(z, expected, rtol=1e-12)

    def test_matches_hand_loop(self):
        # Straight-line scalar recomputation of the attention equations.
        d, lam = 3, 0.8
        projs = self._projs(d, 1, seed=9)
        rng = stable_rng("na-loop")
        target = rng.standard_normal(d)
        neighbors = rng.standard_normal((3, d))
        z, _ = node_attention(target, neighbors, projs, lam)

        P = projs[0].values
        t = target @ P
        hs = [nb @ P for nb in neighbors]
        raw = [math.exp(lam * sum(t[k] * h[k] for k in range(d))) for h in hs]
        alpha = [r / sum(raw) for r in raw]
        acc = np.zeros(d)
        for a, h in zip(alpha, hs):
            acc += a * h
        expected = np.where(acc > 0, acc, np.expm1(acc))
        np.testing.assert_allclose(z, expected, rtol=1e-10)

    def test_empty_neighbors_rejected(self):
        with pytest.raises(ContractError):
            node_attention(np.ones(3), np.zeros((0, 3)), self._projs(3, 1), 1.0)

    def test_permutation_invariance(self):
        d = 4
        projs = self._projs(d, 2, seed=5)
        rng = stable_rng("na-perm")
        target = rng.standard_normal(d)
        neighbors = rng.standard_normal((5, d))
        z1, _ = node_attention(target, neighbors, projs, 0.6)
        perm = rng.permutation(5)
        z2, _ = node_attention(target, neighbors[perm], projs, 0.6)
        np.testing.assert_allclose(z1, z2, atol=1e-12)

    def test_matches_hat_channels(self, attention):
        # every HAT channel's output and alphas over a block's targets, node by node
        bundle = fixture_bundle(seed=9)
        g = bundle.graph
        cfg = encoder_config(layers=1)
        enc = M.HatEncoder(_single_view(bundle), cfg, seed=3, scope="e")
        blk, = M._receptive_blocks(enc.csrs, np.arange(0, g.num_nodes, 3), 1, g.num_nodes,
                                   self_entry=True)
        assert len(blk.targets) < len(blk.inputs) < g.num_nodes
        h = enc._type_transform(None, T.Tensor(g.features[blk.inputs]), blk.inputs, 0)
        h_own = T.gather_rows(None, h, np.searchsorted(blk.inputs, blk.targets))
        hv = np.full((g.num_nodes, cfg.hidden), np.nan)  # rows by node id
        hv[blk.inputs] = h.values
        assert any(ch.name.startswith("path:") for ch in enc.channels)
        for c, (ch, edges) in enumerate(zip(enc.channels, blk.edges)):
            z = enc._channel_attention(None, h, h_own, 0, ch, blk, edges).values

            def p(name):
                return enc.params[f"e/l0/rel:{ch.name}/{name}"].values

            r = oracle_rows(enc, ch) @ p("We") + p("be")
            msg = np.concatenate([hv[ch.nbr], r], axis=1) @ p("fuse/W") + p("fuse/b")
            projs = [p(f"head{m}") for m in range(cfg.heads)]
            for j, i in enumerate(blk.targets):
                neighbors = np.vstack([msg[ch.tgt == i], hv[i:i + 1]])
                want, alphas = node_attention(hv[i], neighbors, projs, cfg.lam)
                np.testing.assert_allclose(z[j], want, rtol=1e-10, atol=1e-12)
                for m, alpha in enumerate(alphas):
                    got, seg = attention.alpha[(0, c, m)]
                    np.testing.assert_allclose(got[seg == i], alpha, rtol=1e-10)


class TestPathAttention:
    def _params(self, d, seed=7):
        params = {}
        q = M.init_param(params, "pa/q", (d,), seed)
        Wp = M.init_param(params, "pa/W", (d, d), seed)
        bp = M.init_param(params, "pa/b", (d,), seed, zeros=True)
        return q, Wp, bp

    def test_single_channel_identity(self, attention):
        q, Wp, bp = self._params(3)
        z = stable_rng("pa-one").standard_normal((6, 3))
        out = M.path_attention(None, [T.Tensor(z)], q, Wp, bp)
        beta, = attention.beta
        np.testing.assert_allclose(beta, [1.0])
        np.testing.assert_allclose(out.values, z)

    def test_identical_channels_half_half(self, attention):
        q, Wp, bp = self._params(3)
        z = stable_rng("pa-two").standard_normal((6, 3))
        out = M.path_attention(None, [T.Tensor(z), T.Tensor(z.copy())], q, Wp, bp)
        beta, = attention.beta
        np.testing.assert_allclose(beta, [0.5, 0.5], atol=1e-12)
        np.testing.assert_allclose(out.values, z, atol=1e-12)

    def test_three_channels_convex_combination(self, attention):
        q, Wp, bp = self._params(4)
        rng = stable_rng("pa-three")
        zs = [rng.standard_normal((5, 4)) for _ in range(3)]
        out = M.path_attention(None, [T.Tensor(z) for z in zs], q, Wp, bp)
        beta, = attention.beta
        assert abs(beta.sum() - 1.0) <= 1e-12
        assert np.all(beta > 0)
        recomputed = sum(b * z for b, z in zip(beta, zs))
        np.testing.assert_allclose(out.values, recomputed, rtol=1e-12)
        upper = np.maximum.reduce(zs)
        lower = np.minimum.reduce(zs)
        assert np.all(out.values <= upper + 1e-12)
        assert np.all(out.values >= lower - 1e-12)


class TestEncoders:
    def test_isolated_participant_transforms_own_features(self):
        # no edges at all: embedding is the K-fold nodewise transform
        g = G.HetGraph(
            ["u"] * 4, stable_rng("iso").standard_normal((4, 3)),
            {"r": G.Relation("r", [], [], np.zeros((0, 2)), "u", "u")},
        )
        cfg = encoder_config(heads=1)
        enc = M.HatEncoder(graph_view(g), cfg, seed=0, scope="enc")
        out = enc.forward(None, [0, 1, 2, 3])
        x = g.features
        for l in range(cfg.layers):
            W = enc.params[f"enc/l{l}/type:u/W"].values
            b = enc.params[f"enc/l{l}/type:u/b"].values
            h = x @ W + b
            # self-loop only: alpha=[1]; heads=1 so z = elu(h P)
            P = enc.params[f"enc/l{l}/rel:r/head0"].values
            z = h @ P
            z = np.where(z > 0, z, np.expm1(z))
            x = z  # single channel: path attention returns it unchanged
        np.testing.assert_allclose(out.values, x, rtol=1e-10)

    def test_alpha_and_beta_normalized(self, attention):
        bundle = fixture_bundle()
        enc = M.HatEncoder(
            _single_view(bundle), encoder_config(), seed=1, scope="enc")
        enc.forward(None, [0, 1, 2])
        assert attention.alpha
        for (layer, channel, head), (alpha, seg) in attention.alpha.items():
            sums = np.zeros(bundle.graph.num_nodes)
            np.add.at(sums, seg, alpha)
            present = np.unique(seg)
            np.testing.assert_allclose(sums[present], 1.0, atol=1e-12)
            assert np.all(alpha >= 0)
        assert len(attention.beta) == enc.config.layers
        for beta in attention.beta:
            assert abs(beta.sum() - 1.0) <= 1e-12

    def test_neighbor_permutation_leaves_embeddings(self):
        bundle = fixture_bundle(seed=3)
        view = _single_view(bundle)
        enc1 = M.HatEncoder(view, encoder_config(), seed=2, scope="enc")
        out1 = enc1.forward(None, list(range(10)))

        # permute every relation's edge list; same graph, different order
        g = bundle.graph
        rng = stable_rng("perm-edges")
        rels = {}
        for name, rel in g.relations.items():
            p = rng.permutation(len(rel))
            rels[name] = G.Relation(name, rel.src[p], rel.dst[p], rel.feat[p],
                                    rel.src_type, rel.dst_type)
        g2 = G.HetGraph(g.node_types, g.features, rels, g.labels, g.num_classes)
        bundle2 = G.DatasetBundle(g2, bundle.metapaths, bundle.train_ids,
                                  bundle.val_ids, bundle.test_ids)
        enc2 = M.HatEncoder(_single_view(bundle2), encoder_config(), seed=2, scope="enc")
        out2 = enc2.forward(None, list(range(10)))
        np.testing.assert_allclose(out1.values, out2.values, atol=1e-12)

    def test_gcn_mean_identity_weights(self):
        # scalar features; node 0 has neighbors carrying 1.0 and 3.0
        g = G.HetGraph(
            ["u"] * 3, np.array([[5.0], [1.0], [3.0]]),
            {"r": G.Relation("r", [0, 0], [1, 2], np.zeros((2, 0)), "u", "u")},
        )
        cfg = encoder_config(kind="gcn", layers=1, hidden=1, heads=1)
        enc = M.GcnEncoder(graph_view(g), cfg, seed=0, scope="g")
        enc.params["g/l0/W"].values[:] = 1.0
        enc.params["g/l0/b"].values[:] = 0.0
        out = enc.forward(None, [0])
        assert out.values[0, 0] == pytest.approx(2.0)  # mean(1, 3), self excluded

    def test_gcn_two_layer_hand_computation(self):
        bundle = G.load_dataset(__import__("pathlib").Path(__file__).parent / "fixtures" / "toy_dataset")
        g = bundle.graph
        cfg = encoder_config(kind="gcn", layers=2, hidden=2, heads=1)
        enc = M.GcnEncoder(graph_view(g), cfg, seed=4, scope="g")
        out = enc.forward(None, [0, 1, 2])

        def elu(v):
            return np.where(v > 0, v, np.expm1(v))

        x = g.features
        for l in range(2):
            W = enc.params[f"g/l{l}/W"].values
            b = enc.params[f"g/l{l}/b"].values
            agg = np.stack([x[1], x[2], x[2]])  # a<-b, b<-c, c isolated -> self
            x = elu(agg @ W + b)
        np.testing.assert_allclose(out.values, x, rtol=1e-12)

    def test_gat_equal_latents_uniform_attention(self, attention):
        g = G.HetGraph(
            ["u"] * 3, np.ones((3, 2)),
            {"r": G.Relation("r", [0, 0], [1, 2], np.zeros((2, 0)), "u", "u")},
        )
        cfg = encoder_config(kind="gat", layers=1, hidden=2, heads=1)
        enc = M.GatEncoder(graph_view(g), cfg, seed=1, scope="g")
        enc.forward(None, [0])
        alpha, seg = attention.alpha[(0, 0, 0)]
        np.testing.assert_allclose(alpha[seg == 0], 1.0 / 3.0, atol=1e-12)

    def test_full_graph_forward_deterministic(self):
        bundle = fixture_bundle(seed=6)
        view = _single_view(bundle)
        enc1 = M.make_encoder(view, encoder_config(), seed=5, scope="e")
        enc2 = M.make_encoder(view, encoder_config(), seed=5, scope="e")
        o1 = enc1.forward(None, [0, 5, 9], step=3, training=True)
        o2 = enc2.forward(None, [0, 5, 9], step=3, training=True)
        assert np.array_equal(o1.values, o2.values)


def _single_view(bundle):
    spec = G.PartitionSpec.from_ratio([1.0], bundle.graph.feature_dim,
                                      bundle.graph.relation_names())
    return G.vertical_partition(bundle, spec, seed=0)[0]


def layout_ids(*layout):
    """Case ids naming an encoder kind with its layout: ``layout_ids("concat",
    "sum")`` gives "hat-concat-sum", the concatenation HAT fuses an edge's
    source row and latent with and the sum its heads merge by."""
    return lambda kind: "-".join([kind, *layout])


class TestEncoderGradients:
    @pytest.mark.parametrize("kind", ["hat", "gcn", "gat"], ids=layout_ids("concat"))
    def test_finite_differences(self, kind):
        bundle = fixture_bundle(seed=8, n_u=8, n_v=5, feature_dim=3)
        cfg = encoder_config(kind=kind, hidden=3, heads=2, layers=2)
        enc = M.make_encoder(_single_view(bundle), cfg, seed=11, scope="e")
        batch = np.arange(6)
        labels = bundle.graph.labels[batch]
        params = {}
        head_w = M.init_param(params, "head/W", (3, 2), 11)
        head_b = M.init_param(params, "head/b", (2,), 11, zeros=True)

        def forward():
            tape = T.Tape()
            emb = enc.forward(tape, batch)
            logits = T.linear(tape, emb, head_w, head_b)
            return T.cross_entropy(tape, logits, labels), tape

        all_params = list(enc.params.values()) + [head_w, head_b]
        err = finite_diff_check(forward, all_params)
        assert err < 1e-4, f"{kind}: max rel err {err}"


# ---------------------------------------------------------------------------
# receptive-field blocks against the whole-graph layers


def merged_edges(g):
    tgt = np.concatenate([g.relations[r].src for r in g.relation_names()])
    nbr = np.concatenate([g.relations[r].dst for r in g.relation_names()])
    return tgt, nbr


def whole_graph_gcn(enc, tape, batch_ids, step=0, training=False):
    """GCN with every layer over every node and the batch rows gathered at
    the end: the oracle for the encoder's receptive-field blocks."""
    cfg, g = enc.config, enc.graph
    n = g.num_nodes
    tgt, nbr = merged_edges(g)
    deg = np.bincount(tgt, minlength=n).astype(np.float64)
    isolated = np.flatnonzero(deg == 0)
    tgt = np.concatenate([tgt, isolated])
    nbr = np.concatenate([nbr, isolated])
    deg[isolated] = 1.0
    x = T.Tensor(g.features)
    for l in range(cfg.layers):
        x = T.dropout(tape, x, cfg.dropout,
                      seed=(enc.seed, "dropout", enc.scope, l, step), training=training)
        summed = T.segment_sum(tape, T.gather_rows(tape, x, nbr), tgt, n)
        mean = T.mul(tape, summed, T.Tensor((1.0 / deg)[:, None]))
        x = T.elu(tape, T.linear(tape, mean, enc.params[f"{enc.scope}/l{l}/W"],
                                 enc.params[f"{enc.scope}/l{l}/b"]))
    return T.gather_rows(tape, x, np.asarray(batch_ids, dtype=np.int64)), {}


def whole_graph_gat(enc, tape, batch_ids, step=0, training=False):
    """GAT with every layer over every node; also returns its attention
    coefficients by (layer, head), with their segments in node ids."""
    cfg, g = enc.config, enc.graph
    n = g.num_nodes
    tgt, nbr = merged_edges(g)
    seg = np.concatenate([tgt, np.arange(n)])
    x = T.Tensor(g.features)
    alphas = {}
    for l in range(cfg.layers):
        x = T.dropout(tape, x, cfg.dropout,
                      seed=(enc.seed, "dropout", enc.scope, l, step), training=training)
        h = T.linear(tape, x, enc.params[f"{enc.scope}/l{l}/W"],
                     enc.params[f"{enc.scope}/l{l}/b"])
        head_outs = []
        for m in range(cfg.heads):
            hp = T.matmul(tape, h, enc.params[f"{enc.scope}/l{l}/head{m}"])
            vals = T.concat_rows(tape, [T.gather_rows(tape, hp, nbr), hp])
            anchors = T.concat_rows(tape, [T.gather_rows(tape, hp, tgt), hp])
            alpha = T.segment_softmax(tape, rowwise_dot(tape, anchors, vals),
                                      seg, n, cfg.lam)
            alphas[(l, m)] = (alpha.values.copy(), seg)
            weighted = T.mul(tape, reshape_col(tape, alpha), vals)
            head_outs.append(T.segment_sum(tape, weighted, seg, n))
        agg = head_outs[0]
        for other in head_outs[1:]:
            agg = T.add(tape, agg, other)
        x = T.elu(tape, agg)
    return T.gather_rows(tape, x, np.asarray(batch_ids, dtype=np.int64)), alphas


def whole_graph_hat(enc, tape, batch_ids, step=0, training=False, beta_rows=None):
    """HAT with every layer over every node and the batch rows gathered at
    the end; also returns its attention coefficients by (layer, channel,
    head), with their segments in node ids.  Layer l's path attention scores
    its channels over the rows ``beta_rows[l]``, or over every node when
    ``beta_rows`` is None, which is HAT as it ran before its blocks."""
    cfg, g = enc.config, enc.graph
    n = g.num_nodes

    def prm(name):
        return enc.params[f"{enc.scope}/{name}"]

    x = T.Tensor(g.features)
    alphas = {}
    for l in range(cfg.layers):
        x = T.dropout(tape, x, cfg.dropout,
                      seed=(enc.seed, "dropout", enc.scope, l, step), training=training)
        h = None
        for tname in enc.type_names:
            idx = np.flatnonzero(g.node_types == tname)
            piece = T.linear(tape, T.gather_rows(tape, x, idx), prm(f"l{l}/type:{tname}/W"),
                             prm(f"l{l}/type:{tname}/b"))
            piece = scatter_rows(tape, piece, idx, n)
            h = piece if h is None else T.add(tape, h, piece)
        zs = []
        for ch in enc.channels:
            base = f"l{l}/rel:{ch.name}"
            fused = M._fusion(tape, h, prm(f"{base}/We"), prm(f"{base}/be"),
                              prm(f"{base}/fuse/W"), prm(f"{base}/fuse/b"))(
                ch.nbr, partial(oracle_rows, enc, ch))
            seg = np.concatenate([ch.tgt, np.arange(n)])
            head_outs = []
            for m in range(cfg.heads):
                proj = prm(f"{base}/head{m}")
                hp = T.matmul(tape, h, proj)
                vals = T.concat_rows(tape, [T.matmul(tape, fused, proj), hp])
                anchors = T.concat_rows(tape, [T.gather_rows(tape, hp, ch.tgt), hp])
                alpha = T.segment_softmax(tape, rowwise_dot(tape, anchors, vals),
                                          seg, n, cfg.lam)
                alphas[(l, ch.name, m)] = (alpha.values.copy(), seg)
                weighted = T.mul(tape, reshape_col(tape, alpha), vals)
                head_outs.append(T.segment_sum(tape, weighted, seg, n))
            agg = head_outs[0]
            for other in head_outs[1:]:
                agg = T.add(tape, agg, other)
            zs.append(T.elu(tape, agg))
        scored = zs if beta_rows is None else [T.gather_rows(tape, z, beta_rows[l]) for z in zs]
        scores = [
            T.mean_all(tape, T.matmul(tape, T.tanh(tape, T.linear(
                tape, z, prm(f"l{l}/path/W"), prm(f"l{l}/path/b"))), prm(f"l{l}/path/q")))
            for z in scored
        ]
        beta = T.softmax(tape, T.stack_scalars(tape, scores))
        x = None
        for k, z in enumerate(zs):
            term = T.mul(tape, T.take(tape, beta, k), z)
            x = term if x is None else T.add(tape, x, term)
    return T.gather_rows(tape, x, np.asarray(batch_ids, dtype=np.int64)), alphas


WHOLE_GRAPH = {"gcn": whole_graph_gcn, "gat": whole_graph_gat}


def with_isolated(g, count):
    """``g`` plus ``count`` nodes of its first type that no edge touches."""
    extra = stable_rng("isolated", count).standard_normal((count, g.feature_dim))
    return G.HetGraph(
        np.concatenate([g.node_types, np.repeat(g.node_types[:1], count)]),
        np.concatenate([g.features, extra]), g.relations,
        np.concatenate([g.labels, np.zeros(count, dtype=np.int64)]), g.num_classes)


def hat_view(seed=12, isolated=3):
    """A single participant's view, metapath channels included, of the
    fixture graph plus ``isolated`` nodes that no edge touches."""
    bundle = fixture_bundle(seed=seed)
    g = with_isolated(bundle.graph, isolated)
    return _single_view(G.DatasetBundle(g, bundle.metapaths, bundle.train_ids,
                                        bundle.val_ids, bundle.test_ids))


def param_grads(enc, forward):
    """Gradients of mean(out^2) for every encoder parameter."""
    for p in enc.params.values():
        p.zero_grad()
    tape = T.Tape()
    out = forward(tape)
    tape.backward(T.mean_all(tape, T.mul(tape, out, out)))
    return {name: p.grad for name, p in enc.params.items()}


def unique_receptive_blocks(csrs, batch, layers, self_entry):
    """The receptive-field blocks found with ``np.unique`` and
    ``np.searchsorted``: the oracle for the node-marking build."""
    targets = np.unique(batch)
    blocks = []
    for _ in range(layers):
        found = [csr.edges_into(targets) for csr in csrs]
        sources = [nbr for _, nbr, _ in found] + ([targets] if self_entry else [])
        inputs = np.unique(np.concatenate(sources))
        edges = [(seg, np.searchsorted(inputs, nbr), eid) for seg, nbr, eid in found]
        blocks.append((inputs, targets, edges))
        targets = inputs
    return blocks[::-1]


class TestReceptiveBlocks:
    @pytest.mark.parametrize("index", ["merged", "channels"])
    @pytest.mark.parametrize("self_entry", [False, True])
    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("batch", [[], [5], [17, 3, 3, 21, 0, 17, 9], list(range(23))],
                             ids=["empty", "one", "repeated", "all"])
    def test_blocks_match_unique_oracle(self, batch, layers, self_entry, index):
        # node 21 of the 23 is isolated; "channels" are HAT's, metapaths included
        view = hat_view()
        n = view.graph.num_nodes
        if index == "merged":
            csrs = [G.TargetCsr(*merged_edges(view.graph), n)]
        else:
            csrs = M.make_encoder(view, encoder_config(kind="hat"), seed=3, scope="e").csrs
        batch = np.asarray(batch, dtype=np.int64)
        got = M._receptive_blocks(csrs, batch, layers, n, self_entry=self_entry)
        want = unique_receptive_blocks(csrs, batch, layers, self_entry)
        assert len(got) == len(want) == layers
        for blk, (inputs, targets, edges) in zip(got, want):
            assert np.array_equal(blk.inputs, inputs) and blk.inputs.dtype == inputs.dtype
            assert np.array_equal(blk.targets, targets)
            assert len(blk.edges) == len(edges)
            for got_edges, want_edges in zip(blk.edges, edges):
                for a, b in zip(got_edges, want_edges):
                    assert np.array_equal(a, b) and a.dtype == b.dtype

    @pytest.mark.parametrize("kind", ["gcn", "gat"])
    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_matches_whole_graph(self, kind, layers):
        g = with_isolated(fixture_bundle(seed=12).graph, 3)
        n = g.num_nodes
        isolated = n - 2
        assert not any(np.isin(isolated, r.src) or np.isin(isolated, r.dst)
                       for r in g.relations.values())
        # unsorted, with duplicates and an isolated node
        batch = [17, 3, 3, isolated, 0, 17, 9]
        cfg = encoder_config(kind=kind, layers=layers, hidden=4, heads=2, dropout=0.3)
        enc = M.make_encoder(graph_view(g), cfg, seed=3, scope="e")
        oracle = WHOLE_GRAPH[kind]
        for training in (False, True):
            got = enc.forward(None, batch, step=2, training=training)
            want, _ = oracle(enc, None, batch, step=2, training=training)
            assert np.array_equal(got.values, want.values)

        got = param_grads(enc, lambda tape: enc.forward(tape, batch, step=2, training=True))
        want = param_grads(enc, lambda tape: oracle(enc, tape, batch, step=2, training=True)[0])
        assert got.keys() == want.keys()
        for name in got:
            np.testing.assert_allclose(got[name], want[name], rtol=0, atol=1e-12,
                                       err_msg=name)

    def test_gat_alpha_segments_are_node_ids(self, attention):
        g = fixture_bundle(seed=12).graph
        enc = M.make_encoder(graph_view(g), encoder_config(kind="gat", layers=2), seed=3, scope="e")
        batch = [15, 4, 4, 11]
        enc.forward(None, batch)
        alphas = attention.alpha
        _, want = whole_graph_gat(enc, None, batch)
        assert {(layer, head) for layer, _, head in alphas} == want.keys()
        for (layer, _, head), (alpha, seg) in alphas.items():
            full_alpha, full_seg = want[(layer, head)]
            present = np.unique(seg)
            for v in present:
                assert np.array_equal(alpha[seg == v], full_alpha[full_seg == v])

    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_hat_all_nodes_matches_whole_graph(self, layers):
        view = hat_view()
        n = view.graph.num_nodes
        batch = stable_rng("all-nodes").permutation(n)
        cfg = encoder_config(kind="hat", layers=layers, dropout=0.3)
        enc = M.make_encoder(view, cfg, seed=3, scope="e")
        assert any(ch.name.startswith("path:") for ch in enc.channels)
        for training in (False, True):
            got = enc.forward(None, batch, step=2, training=training)
            want, _ = whole_graph_hat(enc, None, batch, step=2, training=training)
            assert np.array_equal(got.values, want.values)

        got = param_grads(enc, lambda tape: enc.forward(tape, batch, step=2, training=True))
        want = param_grads(
            enc, lambda tape: whole_graph_hat(enc, tape, batch, step=2, training=True)[0])
        assert got.keys() == want.keys()
        for name in got:
            np.testing.assert_allclose(got[name], want[name], rtol=0, atol=1e-12,
                                       err_msg=name)

    def test_hat_beta_over_frontiers(self):
        view = hat_view()
        n = view.graph.num_nodes
        isolated = n - 2
        cfg = encoder_config(kind="hat", dropout=0.3)
        enc = M.make_encoder(view, cfg, seed=3, scope="e")
        assert not any(np.isin(isolated, [ch.tgt, ch.nbr]).any() for ch in enc.channels)
        # unsorted, with duplicates and an isolated node
        batch = [17, 3, 3, isolated, 0, 17, 9]
        blocks = M._receptive_blocks(enc.csrs, np.asarray(batch), cfg.layers, n,
                                     self_entry=True)
        frontiers = [blk.targets for blk in blocks]
        assert len(frontiers[0]) < n
        for training in (False, True):
            got = enc.forward(None, batch, step=2, training=training).values
            want, _ = whole_graph_hat(enc, None, batch, step=2, training=training,
                                      beta_rows=frontiers)
            # BLAS rounds a row of a product differently with fewer rows in the call
            np.testing.assert_allclose(got, want.values, rtol=1e-12, atol=1e-15)
            everywhere, _ = whole_graph_hat(enc, None, batch, step=2, training=training)
            assert not np.allclose(got, everywhere.values)

    def test_hat_alpha_segments_are_node_ids(self, attention):
        enc = M.make_encoder(hat_view(), encoder_config(kind="hat", layers=2), seed=3, scope="e")
        batch = [15, 4, 4, 11]
        enc.forward(None, batch)
        alphas = {(layer, enc.channels[c].name, head): alpha
                  for (layer, c, head), alpha in attention.alpha.items()}
        blocks = M._receptive_blocks(enc.csrs, np.asarray(batch), 2, enc.graph.num_nodes,
                                     self_entry=True)
        _, want = whole_graph_hat(enc, None, batch,
                                  beta_rows=[blk.targets for blk in blocks])
        assert alphas.keys() == want.keys()
        for key, (alpha, seg) in alphas.items():
            full_alpha, full_seg = want[key]
            present = np.unique(seg)
            for v in present:
                np.testing.assert_allclose(alpha[seg == v], full_alpha[full_seg == v],
                                           rtol=1e-12)

    @pytest.mark.parametrize("kind", ["gcn", "gat", "hat"])
    def test_work_independent_of_graph_size(self, kind, monkeypatch):
        seen = []
        segment_sum = T.segment_sum

        def counted(tape, x, seg, n_segments):
            seen.append((len(seg), n_segments))
            return segment_sum(tape, x, seg, n_segments)

        monkeypatch.setattr(T, "segment_sum", counted)
        g = fixture_bundle(seed=12).graph
        batch = [15, 4, 4, 11]
        cfg = encoder_config(kind=kind, layers=2)
        runs = []
        for graph in (g, with_isolated(g, 10_000)):
            seen.clear()
            M.make_encoder(graph_view(graph), cfg, seed=3, scope="e").forward(T.Tape(), batch)
            runs.append(list(seen))
        assert runs[0] and runs[0] == runs[1]


def test_hat_unchanged_by_segment_kernel(monkeypatch):
    """HAT's block layers sum through the bincount kernel; their forward and
    gradients must be bit-identical to the ones computed on np.add.at sums."""
    bundle = fixture_bundle(seed=5)
    cfg = encoder_config(kind="hat", layers=2, dropout=0.2)
    batch = [6, 1, 1, 13]

    def run():
        enc = M.HatEncoder(_single_view(bundle), cfg, seed=4, scope="e")
        out = enc.forward(None, batch, step=1, training=True).values
        grads = param_grads(enc, lambda tape: enc.forward(tape, batch, step=1, training=True))
        return out, grads

    out, grads = run()
    monkeypatch.setattr(T, "_segment_add", add_at_segment_sum)
    want_out, want_grads = run()
    assert np.array_equal(out, want_out)
    assert grads.keys() == want_grads.keys()
    for name in grads:
        assert np.array_equal(grads[name], want_grads[name]), name


class TestRowsOnDemand:
    """HAT builds a block's metapath rows from hop ids; its results must be
    the ones it got when every instance's row was built up front."""

    def test_bit_identical_to_table(self, attention):
        view = hat_view()
        n = view.graph.num_nodes
        isolated = n - 2
        cfg = encoder_config(kind="hat", dropout=0.3)
        enc = M.make_encoder(view, cfg, seed=3, scope="e")
        assert {len(ch.metapath.relations) for ch in enc.channels if ch.metapath} == {2}
        assert not any(np.isin(isolated, [ch.tgt, ch.nbr]).any() for ch in enc.channels)
        oracle = table_encoder(enc)
        # unsorted, with duplicates and an isolated node
        batch = [17, 3, 3, isolated, 0, 17, 9]
        for training in (False, True):
            got = enc.forward(None, batch, step=2, training=training)
            alphas = attention.alpha
            want = oracle.forward(None, batch, step=2, training=training)
            want_alphas = attention.alpha
            assert np.array_equal(got.values, want.values)
            assert alphas.keys() == want_alphas.keys()
            for key, (alpha, seg) in alphas.items():
                want_alpha, want_seg = want_alphas[key]
                assert np.array_equal(alpha, want_alpha) and np.array_equal(seg, want_seg)

            got = param_grads(enc, lambda tape: enc.forward(tape, batch, step=2,
                                                            training=training))
            want = param_grads(enc, lambda tape: oracle.forward(tape, batch, step=2,
                                                                training=training))
            assert got.keys() == want.keys() == enc.params.keys()
            for name in got:
                assert np.array_equal(got[name], want[name]), (training, name)


def float_arrays(obj):
    """The float arrays an object holds in its attributes, directly or in
    lists, tuples and dicts; the graph and its relations are the
    participant's own data and are not searched."""
    stack = list(vars(obj).values())
    while stack:
        value = stack.pop()
        if isinstance(value, np.ndarray) and value.dtype.kind == "f":
            yield value
        elif isinstance(value, (list, tuple)):
            stack.extend(value)
        elif isinstance(value, dict):
            stack.extend(value.values())


def test_hat_keeps_no_row_per_metapath_instance():
    """A channel holds index arrays: no float array with one row per edge or
    instance, and building the encoder keeps far less than the metapath
    instances' rows would take."""
    bundle = fixture_bundle(seed=12, n_u=200, n_v=100, feature_dim=16)
    view = _single_view(bundle)
    cfg = encoder_config(kind="hat", hidden=2, heads=1, layers=1)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        enc = M.make_encoder(view, cfg, seed=3, scope="e")
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    paths = [ch for ch in enc.channels if ch.name.startswith("path:")]
    assert paths
    for ch in enc.channels:
        assert not [a.shape for a in float_arrays(ch) if len(a) == len(ch.tgt)], ch.name
    table_bytes = sum(len(ch.tgt) * ch.edge_dim * 8 for ch in paths)
    assert table_bytes > 100_000
    assert kept < table_bytes / 2, (kept, table_bytes)


@pytest.mark.parametrize("kind", ["hat", "gat"])
def test_forward_keeps_no_edge_sized_array(kind):
    """An encoder keeps nothing of a forward: after one over every node, no
    float array it holds has one entry per edge of a block, or per edge
    and target of a block, as a channel's α does."""
    view = hat_view()
    n = view.graph.num_nodes
    enc = M.make_encoder(view, encoder_config(kind=kind), seed=3, scope="e")
    enc.forward(None, np.arange(n))
    blocks = M._receptive_blocks(enc.csrs, np.arange(n), enc.config.layers, n,
                                 self_entry=True)
    sizes = {len(eid) + extra for blk in blocks for _, _, eid in blk.edges if len(eid)
             for extra in (0, len(blk.targets))}
    assert sizes
    assert not [a.shape for a in float_arrays(enc) if a.ndim and len(a) in sizes]


def kept_attend(tape, keys, anchor, values, inputs, seg, n, lam):
    """``attend`` as the composition of recorded ops it was before it read
    anchors by index and built its value rows again in backward: the value
    rows built once, the anchors gathered into a matrix of their own, and
    both kept on the tape."""
    values = values(tape, *inputs)
    anchors = T.gather_rows(tape, keys, anchor)
    alpha = T.segment_softmax(tape, rowwise_dot(tape, anchors, values), seg, n, lam)
    weighted = T.mul(tape, reshape_col(tape, alpha), values)
    return T.segment_sum(tape, weighted, seg, n)


def kept_matmul(tape, build, w):
    """``rebuilt_matmul`` as a plain product whose left operand is built once
    and kept on the tape for ``w``'s gradient."""
    return T.matmul(tape, T.Tensor(build()), w)


def keep_rebuildable_arrays(monkeypatch):
    """Make encoders keep the gathered anchors, the value rows and the edge
    rows on the tape, as they did before they rebuilt them in backward."""
    monkeypatch.setattr(M, "attend", kept_attend)
    monkeypatch.setattr(T, "rebuilt_matmul", kept_matmul)


@pytest.mark.parametrize("kind", ["hat", "gat"], ids=layout_ids("concat", "sum"))
def test_rebuilt_in_backward_is_bit_identical(kind, monkeypatch, attention):
    """Reading anchors by index and building edge rows again in backward
    change what the tape keeps, not a bit of the forward, α or any gradient."""
    view = hat_view()
    isolated = view.graph.num_nodes - 2
    cfg = encoder_config(kind=kind, dropout=0.3)
    enc = M.make_encoder(view, cfg, seed=3, scope="e")
    # unsorted, with duplicates and an isolated node
    batch = [17, 3, 3, isolated, 0, 17, 9]

    def run():
        runs = []
        for training in (False, True):
            out = enc.forward(None, batch, step=2, training=training).values
            alphas = attention.alpha
            grads = param_grads(enc, lambda tape: enc.forward(tape, batch, step=2,
                                                              training=training))
            runs.append((out, alphas, grads))
        return runs

    got = run()
    keep_rebuildable_arrays(monkeypatch)
    want = run()
    for (out, alphas, grads), (want_out, want_alphas, want_grads) in zip(got, want):
        assert np.array_equal(out, want_out)
        assert alphas.keys() == want_alphas.keys()
        for key, (alpha, seg) in alphas.items():
            assert np.array_equal(alpha, want_alphas[key][0])
            assert np.array_equal(seg, want_alphas[key][1])
        assert grads.keys() == want_grads.keys() == enc.params.keys()
        for name in grads:
            assert np.array_equal(grads[name], want_grads[name]), name


def closure_arrays(fn):
    """The float arrays a function's closure holds, looking into lists,
    tuples, ``functools.partial`` arguments and nested functions' closures,
    but not into other objects."""
    stack = [fn]
    while stack:
        value = stack.pop()
        if isinstance(value, np.ndarray):
            if value.dtype.kind == "f":
                yield value
        elif isinstance(value, (list, tuple)):
            stack.extend(value)
        elif isinstance(value, partial):
            stack.extend(value.args)
        elif callable(value) and getattr(value, "__closure__", None):
            stack.extend(c.cell_contents for c in value.__closure__)


def record_value_rows(monkeypatch):
    """The value rows of every ``attend`` call that follows, each built from
    the call's inputs: HAT's fused messages @ head projection, then the
    targets' projected rows; GAT's projected rows gathered by source."""
    seen = []
    attend = M.attend

    def recorded(tape, keys, anchor, values, inputs, seg, n, lam):
        seen.append(values(None, *inputs).values)
        return attend(tape, keys, anchor, values, inputs, seg, n, lam)

    monkeypatch.setattr(M, "attend", recorded)
    return seen


def rebuildable_arrays(enc, batch, tape, value_rows):
    """The arrays on ``tape``, after ``enc``'s forward for ``batch``, that an
    encoder can rebuild from indexes, by the kind found: a channel's edge
    rows, a float array shaped (block edges, edge_dim); for HAT, an edge
    latent, equal to its rows @ We + be, or a concatenated edge row, shaped
    (block edges, 2 * hidden); an anchor copy, whose every row is its
    segment's self row, as the gathered anchors ``keys[anchor]`` are; and
    value rows, shaped (block edges + targets, hidden), whose edge rows
    are those of one of ``value_rows``."""
    cfg = enc.config
    channels = enc.channels if enc.kind == "hat" else [None]
    blocks = M._receptive_blocks(enc.csrs, np.asarray(batch), cfg.layers, enc.graph.num_nodes,
                                 self_entry=True)
    held = [a for node in tape._nodes for a in closure_arrays(node.backfn)]
    assert held
    found = set()
    for l, blk in enumerate(blocks):
        k = len(blk.targets)
        for ch, (edge_seg, _, eid) in zip(channels, blk.edges):
            e = len(eid)
            if e == 0:
                continue
            self_row = e + np.concatenate([edge_seg, np.arange(k)])
            if ch is not None:
                base = f"{enc.scope}/l{l}/rel:{ch.name}"
                latent = (ch.rows(eid) @ enc.params[f"{base}/We"].values
                          + enc.params[f"{base}/be"].values)
            values = [v for v in value_rows if v.shape == (e + k, cfg.hidden)]
            assert values, (l, ch)
            for a in held:
                if ch is not None and a.shape == (e, ch.edge_dim):
                    found.add("edge rows")
                elif ch is not None and a.shape == (e, 2 * cfg.hidden):
                    found.add("concatenation")
                elif ch is not None and a.shape == latent.shape and np.allclose(a, latent):
                    found.add("edge latent")
                elif a.ndim and len(a) == e + k and np.array_equal(a, a[self_row]):
                    found.add("anchors")
                elif any(a.shape == v.shape and np.array_equal(a[:e], v[:e]) for v in values):
                    found.add("value rows")
    return found


@pytest.mark.parametrize("kind", ["hat", "gat"], ids=layout_ids("concat"))
def test_tape_keeps_no_rebuildable_edge_array(kind, monkeypatch):
    view = hat_view()
    cfg = encoder_config(kind=kind, hidden=4, heads=2, dropout=0.3)
    enc = M.make_encoder(view, cfg, seed=3, scope="e")
    if kind == "hat":
        assert any(ch.metapath for ch in enc.channels)
        assert {cfg.hidden, 2 * cfg.hidden}.isdisjoint(ch.edge_dim for ch in enc.channels)
    batch = [17, 3, 0, 9]
    with monkeypatch.context() as patched:
        value_rows = record_value_rows(patched)
        tape = T.Tape()
        enc.forward(tape, batch, step=1, training=True)
    assert rebuildable_arrays(enc, batch, tape, value_rows) == set()
    # the check finds what the tape kept before
    keep_rebuildable_arrays(monkeypatch)
    monkeypatch.setattr(M, "_fusion", edge_fusion)
    value_rows = record_value_rows(monkeypatch)
    tape = T.Tape()
    enc.forward(tape, batch, step=1, training=True)
    want = {"anchors", "value rows"}
    if kind == "hat":
        want |= {"edge rows", "concatenation"}
    assert rebuildable_arrays(enc, batch, tape, value_rows) == want


@pytest.mark.parametrize("budget", [2, 3, 4, 7])
@pytest.mark.parametrize("kind", ["hat", "gat", "gcn"], ids=layout_ids("concat", "sum"))
def test_chunked_inference_equals_one_range(kind, budget, monkeypatch, attention):
    """Inference in many small target ranges gives the logits, α and β of
    one range over the whole layer, bit for bit.  A range of one edge would
    send its products to numpy's matrix-vector kernel, which rounds
    differently, so no range of a layer with more edges has one."""
    view = hat_view()
    n = view.graph.num_nodes
    cfg = encoder_config(kind=kind, layers=2)
    enc = M.make_encoder(view, cfg, seed=3, scope="e")
    head = M.init_param({}, "head/W", (cfg.hidden, 3), 3)
    # every node, unsorted and with a repeat; nodes n - 3 .. n - 1 have no edge
    batch = np.concatenate([stable_rng("chunks").permutation(n), [4]])

    def infer():
        emb = enc.forward(None, batch).values
        alphas = {key: {v: alpha[seg == v] for v in np.unique(seg)}
                  for key, (alpha, seg) in attention.alpha.items()}
        return emb @ head.values, alphas, attention.beta

    ranges = []
    target_ranges = M._target_ranges

    def recorded(seg, k, tape):
        out = target_ranges(seg, k, tape)
        ranges.append((seg, k, out))
        return out

    monkeypatch.setattr(M, "_target_ranges", recorded)
    want_logits, want_alphas, want_betas = infer()
    assert all(len(out) == 1 for _, _, out in ranges)
    ranges.clear()
    monkeypatch.setattr(M, "EDGE_BUDGET", budget)
    logits, alphas, betas = infer()

    assert np.array_equal(logits, want_logits)
    assert alphas.keys() == want_alphas.keys()
    for key, by_node in alphas.items():
        assert by_node.keys() == want_alphas[key].keys()
        for v, alpha in by_node.items():
            assert np.array_equal(alpha, want_alphas[key][v]), (key, v)
    assert len(betas) == len(want_betas)
    for beta, want_beta in zip(betas, want_betas):
        assert np.array_equal(beta, want_beta)

    counts = [e1 - e0 for _, _, out in ranges for _, _, e0, e1 in out]
    assert len(counts) > 2 * len(ranges)
    for seg, k, out in ranges:
        # consecutive ranges that cover every target and edge once
        assert [r[0] for r in out[1:]] == [r[1] for r in out[:-1]]
        assert [r[2] for r in out[1:]] == [r[3] for r in out[:-1]]
        assert out[0][:3:2] == (0, 0) and (out[-1][1], out[-1][3]) == (k, len(seg))
        per_target = np.bincount(seg, minlength=k)
        for t0, t1, e0, e1 in out:
            assert np.array_equal(seg[e0:e1], np.repeat(np.arange(t0, t1), per_target[t0:t1]))
            # the budget, plus a joined one-edge range on either side, unless
            # the range holds a target with more edges than the budget
            assert e1 - e0 <= budget + 2 or per_target[t0:t1].max() > budget
            assert e1 - e0 != 1 or len(seg) == 1
    # a target with more edges than the budget was in some range, and a
    # target with no edge was in some range (GCN gives it a self edge)
    assert max(counts) > budget
    assert kind == "gcn" or any((np.bincount(seg, minlength=k) == 0).any()
                                for seg, k, _ in ranges)


def test_one_edge_range_joins_a_neighbour(monkeypatch):
    """At budget 2, targets with 1, 2, 1, 2, 0, 3 and 1 edges would run in
    the ranges [0], [1], [2], [3, 4], [5] and [6], three of one edge.  The
    first joins the range after it, the others the range before."""
    monkeypatch.setattr(M, "EDGE_BUDGET", 2)
    seg = np.repeat(np.arange(7), [1, 2, 1, 2, 0, 3, 1])
    assert M._target_ranges(seg, 7, None) == [(0, 3, 0, 4), (3, 5, 4, 6), (5, 7, 6, 10)]
    assert M._target_ranges(seg, 7, T.Tape()) == [(0, 7, 0, 10)]

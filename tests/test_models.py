import copy
import math
import tracemalloc
from functools import partial

import numpy as np
import pytest

from conftest import (AttentionRecorder, add_at_segment_sum, concat_cols, encoder_config,
                      finite_diff_check, loop_metapath_edges, mean_all,
                      per_channel_path_attention, per_head_attention_layer, scatter_rows)
from splitgnn import graph as G
from splitgnn import models as M
from splitgnn import tensor as T
from splitgnn.errors import ContractError, ShapeError
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
    return G.ParticipantView(0, g, [], True, no_ids, no_ids, no_ids)


def oracle_rows(enc, ch):
    """Every edge's feature row of the encoder's channel ``ch``, built up
    front: a relation's edge features, or the loop oracle's table of a
    metapath's instance rows."""
    if not ch.name.startswith("path:"):
        return enc.graph.relations[ch.name].feat
    metapath = G.Metapath(tuple(ch.name[len("path:"):].split("+")))
    return loop_metapath_edges(enc.graph, metapath)[3]


def channel_part(enc, ch, table):
    """The columns of whole edge rows ``table`` that ``ch.rows`` builds: all
    of them for a relation, the middle [e_1, x_1, ..., e_L] for a metapath,
    whose target and endpoint features HAT projects per node."""
    if ch.metapath is None:
        return table
    f = enc.graph.feature_dim
    return table[:, f:table.shape[1] - f]


def whole_rows(enc, ch, eid):
    """The whole feature rows of edges ``eid`` of ``ch``: a metapath
    channel's ``rows`` with the target's and the endpoint's features put
    back at its ends."""
    rows = ch.rows(eid)
    if ch.metapath is None:
        return rows
    X = enc.graph.features
    return np.concatenate([X[ch.tgt[eid]], rows, X[ch.nbr[eid]]], axis=1)


class TableChannel:
    """A channel that reads its rows from a table built up front, as HAT's
    metapath channels did before they built rows from hop ids."""

    def __init__(self, name, tgt, nbr, metapath, table):
        self.name, self.tgt, self.nbr, self.metapath, self.table = \
            name, tgt, nbr, metapath, table

    @property
    def edge_dim(self):
        return self.table.shape[1]

    def rows(self, eid):
        return self.table[eid]


def table_encoder(enc):
    """``enc`` with every channel reading the oracle's table, cut to the
    columns the channel builds; the two share their parameters."""
    oracle = copy.copy(enc)
    oracle.channels = [TableChannel(ch.name, ch.tgt, ch.nbr, ch.metapath,
                                    channel_part(enc, ch, oracle_rows(enc, ch)))
                       for ch in enc.channels]
    return oracle


def edge_fusion(tape, h, We, be, W, b, ends=None):
    """The fusion as HAT computed it per edge before it projected node rows
    per node: ``fuse(src, seg, rows)`` concatenates ``h[src]`` with the edge
    latent ``r @ We + be`` and maps the row through ``W`` and ``b``.  ``r``
    is ``rows()``, or with a metapath's ``ends``, ``(X, targets, inputs)``,
    the whole row [X[targets[seg]], rows(), X[inputs[src]]]."""
    def fuse(src, seg, rows):
        r = rows()
        if ends is not None:
            X, targets, inputs = ends
            r = np.concatenate([X[targets[seg]], r, X[inputs[src]]], axis=1)
        hs = T.gather_rows(tape, h, src)
        latent = T.linear(tape, T.Tensor(r), We, be)
        return T.linear(tape, concat_cols(tape, [hs, latent]), W, b)

    return fuse


class TestTransformAndFuse:
    def setup_method(self):
        rng = stable_rng("taf")
        self.node = rng.standard_normal((5, 3))
        self.edge = rng.standard_normal((7, 2))
        self.src = np.array([4, 0, 0, 2, 1, 4, 3])
        self.seg = np.zeros(7, dtype=np.int64)  # a relation's fusion does not read it

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
                self.src, self.seg, lambda: self.edge)
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
                self.src, self.seg, lambda: self.edge)
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
                self.src, self.seg, lambda: self.edge)
            return mean_all(tape, T.mul(tape, out, out)), tape

        assert finite_diff_check(forward, [params["Wt"]]) < 1e-4

    def test_metapath_ends_projected_per_node(self):
        """A metapath's target and endpoint features are projected once per
        node and gathered: the values and every gradient of the fusion of
        whole rows [x_target, middle, x_end], to rounding, with a tape that
        keeps neither the middle rows nor a gathered feature row."""
        rng = stable_rng("taf-ends")
        X = rng.standard_normal((6, 2))
        targets, inputs = np.array([1, 4]), np.array([0, 2, 3, 4, 5])
        seg = np.array([0, 1, 1, 0, 1, 0, 0])
        params = self.fuse_params(4, zero_bias=False)
        M.init_param(params, "We", (2 + 2 + 2, 4), 4)
        seed = rng.standard_normal((7, 4))
        builds = []

        def middle():
            builds.append(1)
            return self.edge.copy()

        results = []
        for fusion_of in (M._fusion, edge_fusion):
            for p in params.values():
                p.zero_grad()
            tape = T.Tape()
            h = T.linear(tape, self.node, params["Wt"], params["bt"])
            out = fusion_of(tape, h, *self.fusion_weights(params), (X, targets, inputs))(
                self.src, seg, middle)
            held = [a for node in tape._nodes for a in closure_arrays(node.backfn)]
            tape.backward(out, seed_grad=seed)
            results.append((out.values, {name: p.grad for name, p in params.items()}, held))
        (got, got_grads, held), (want, want_grads, _) = results
        np.testing.assert_allclose(got, want, rtol=1e-12)
        assert got_grads.keys() == want_grads.keys()
        for name, grad in want_grads.items():
            np.testing.assert_allclose(got_grads[name], grad, rtol=1e-12, err_msg=name)
        # built in forward and again in backward, by the per-node fusion, and
        # once by the per-edge one
        assert len(builds) == 3
        assert not [a.shape for a in held if a.shape in {self.edge.shape, (2, 2), (5, 2)}]


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
            # the layer applies the ELU, once over its stacked channels
            z = T.elu(None, enc._channel_attention(None, h, h_own, 0, ch, blk, edges)).values

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
        out = M.path_attention(None, T.Tensor(z), 1, q, Wp, bp)
        beta, = attention.beta
        np.testing.assert_allclose(beta, [1.0])
        np.testing.assert_allclose(out.values, z)

    def test_identical_channels_half_half(self, attention):
        q, Wp, bp = self._params(3)
        z = stable_rng("pa-two").standard_normal((6, 3))
        out = M.path_attention(None, T.Tensor(np.concatenate([z, z])), 2, q, Wp, bp)
        beta, = attention.beta
        np.testing.assert_allclose(beta, [0.5, 0.5], atol=1e-12)
        np.testing.assert_allclose(out.values, z, atol=1e-12)

    def test_three_channels_convex_combination(self, attention):
        q, Wp, bp = self._params(4)
        rng = stable_rng("pa-three")
        zs = [rng.standard_normal((5, 4)) for _ in range(3)]
        out = M.path_attention(None, T.Tensor(np.concatenate(zs)), 3, q, Wp, bp)
        beta, = attention.beta
        assert abs(beta.sum() - 1.0) <= 1e-12
        assert np.all(beta > 0)
        recomputed = sum(b * z for b, z in zip(beta, zs))
        np.testing.assert_allclose(out.values, recomputed, rtol=1e-12)
        upper = np.maximum.reduce(zs)
        lower = np.minimum.reduce(zs)
        assert np.all(out.values <= upper + 1e-12)
        assert np.all(out.values >= lower - 1e-12)

    @pytest.mark.parametrize("shape, channels", [
        ((5, 2), 2),   # a 1-row channel next to a 4-row one
        ((6, 2), 0),
        ((0, 2), 2),
        ((6,), 2),
    ], ids=["uneven-channels", "no-channel", "no-row", "one-dimensional"])
    def test_rows_not_split_evenly_rejected(self, shape, channels):
        q, Wp, bp = self._params(2)
        z = T.Tensor(stable_rng("pa-uneven").standard_normal(shape))
        with pytest.raises(ShapeError):
            M.path_attention(None, z, channels, q, Wp, bp)


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

    def test_hat_without_channels_rejected(self):
        g = G.HetGraph(["u"] * 3, np.ones((3, 2)), {})
        with pytest.raises(ContractError, match="at least one channel"):
            M.HatEncoder(graph_view(g), encoder_config(), seed=0, scope="enc")

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
        o1 = enc1.forward(None, [0, 5, 9])
        o2 = enc2.forward(None, [0, 5, 9])
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


def encoder_fd_error(kind, layers=2):
    """The finite-difference check's largest relative error for every
    parameter of a small encoder under a linear label head."""
    bundle = fixture_bundle(seed=8, n_u=8, n_v=5, feature_dim=3)
    cfg = encoder_config(kind=kind, hidden=3, heads=2, layers=layers)
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

    return finite_diff_check(forward, list(enc.params.values()) + [head_w, head_b])


class TestEncoderGradients:
    @pytest.mark.parametrize("kind", ["hat", "gcn", "gat"], ids=layout_ids("concat"))
    def test_finite_differences(self, kind):
        err = encoder_fd_error(kind)
        assert err < 1e-4, f"{kind}: max rel err {err}"

    @pytest.mark.parametrize("kind", ["hat", "gcn", "gat"])
    def test_finite_differences_in_ranges(self, kind, monkeypatch):
        """The check with a training forward's edges in ranges of about two,
        whose gradients backward sums; one layer keeps HAT's check short."""
        counts = []
        target_ranges = M._target_ranges

        def recorded(seg, k):
            counts.append(len(target_ranges(seg, k)))
            return target_ranges(seg, k)

        monkeypatch.setattr(M, "EDGE_BUDGET", 2)
        monkeypatch.setattr(M, "_target_ranges", recorded)
        err = encoder_fd_error(kind, layers=1)
        assert err < 1e-4, f"{kind}: max rel err {err}"
        assert max(counts) > 2


# ---------------------------------------------------------------------------
# receptive-field blocks against the whole-graph layers


def merged_edges(g):
    tgt = np.concatenate([g.relations[r].src for r in g.relation_names()])
    nbr = np.concatenate([g.relations[r].dst for r in g.relation_names()])
    return tgt, nbr


def whole_graph_gcn(enc, tape, batch_ids):
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
        summed = T.segment_sum(tape, T.gather_rows(tape, x, nbr), tgt, n)
        mean = T.mul(tape, summed, T.Tensor((1.0 / deg)[:, None]))
        x = T.elu(tape, T.linear(tape, mean, enc.params[f"{enc.scope}/l{l}/W"],
                                 enc.params[f"{enc.scope}/l{l}/b"]))
    return T.gather_rows(tape, x, np.asarray(batch_ids, dtype=np.int64)), {}


def whole_graph_attention(tape, seg, own, projs, lam, msgs):
    """Every target's attention over every edge in one call of the
    encoders' kernel, ``T.segment_attention``, then the heads' projection
    as ``models._attention_layer`` applies it; the caller applies the ELU.
    Also returns each head's α, over the messages and then the self
    entries."""
    alphas = []
    segment_softmax = T.segment_softmax

    def recorded(*args):
        out = segment_softmax(*args)
        alphas.append(out.values)
        return out

    T.segment_softmax = recorded
    try:
        sums = T.segment_attention(tape, own, T.grams(tape, projs), msgs, seg, lam)
    finally:
        T.segment_softmax = segment_softmax
    return T.matmul(tape, sums, T.concat_rows(tape, projs)), alphas


def whole_graph_gat(enc, tape, batch_ids):
    """GAT with every layer over every node; also returns its attention
    coefficients by (layer, head), with their segments in node ids."""
    cfg, g = enc.config, enc.graph
    n = g.num_nodes
    tgt, nbr = merged_edges(g)
    seg = np.concatenate([tgt, np.arange(n)])
    x = T.Tensor(g.features)
    alphas = {}
    for l in range(cfg.layers):
        h = T.linear(tape, x, enc.params[f"{enc.scope}/l{l}/W"],
                     enc.params[f"{enc.scope}/l{l}/b"])
        projs = [enc.params[f"{enc.scope}/l{l}/head{m}"] for m in range(cfg.heads)]
        x, head_alphas = whole_graph_attention(tape, tgt, h, projs, cfg.lam,
                                               T.gather_rows(tape, h, nbr))
        x = T.elu(tape, x)
        alphas.update({(l, m): (alpha, seg) for m, alpha in enumerate(head_alphas)})
    return T.gather_rows(tape, x, np.asarray(batch_ids, dtype=np.int64)), alphas


def whole_graph_hat(enc, tape, batch_ids, beta_rows=None):
    """HAT with every layer over every node and the batch rows gathered at
    the end; also returns its attention coefficients by (layer, channel,
    head), with their segments in node ids.  Layer l's path attention scores
    its channels over the rows ``beta_rows[l]``, through the per-channel
    oracle, or over every node when ``beta_rows`` is None, which is HAT as
    it ran before its blocks, through ``models.path_attention`` over the
    stacked channels."""
    cfg, g = enc.config, enc.graph
    n = g.num_nodes

    def prm(name):
        return enc.params[f"{enc.scope}/{name}"]

    x = T.Tensor(g.features)
    alphas = {}
    for l in range(cfg.layers):
        h = None
        for tname in enc.type_names:
            idx = np.flatnonzero(g.node_types == tname)
            piece = T.linear(tape, T.gather_rows(tape, x, idx), prm(f"l{l}/type:{tname}/W"),
                             prm(f"l{l}/type:{tname}/b"))
            piece = scatter_rows(tape, piece, idx, n)
            h = piece if h is None else T.add(tape, h, piece)
        zs = []
        everyone = np.arange(n)
        for ch in enc.channels:
            base = f"l{l}/rel:{ch.name}"
            ends = None if ch.metapath is None else (g.features, everyone, everyone)
            fused = M._fusion(tape, h, prm(f"{base}/We"), prm(f"{base}/be"),
                              prm(f"{base}/fuse/W"), prm(f"{base}/fuse/b"), ends)(
                ch.nbr, ch.tgt, lambda ch=ch: channel_part(enc, ch, oracle_rows(enc, ch)))
            seg = np.concatenate([ch.tgt, everyone])
            projs = [prm(f"{base}/head{m}") for m in range(cfg.heads)]
            z, head_alphas = whole_graph_attention(tape, ch.tgt, h, projs, cfg.lam, fused)
            alphas.update({(l, ch.name, m): (alpha, seg) for m, alpha in enumerate(head_alphas)})
            zs.append(z)
        path = prm(f"l{l}/path/q"), prm(f"l{l}/path/W"), prm(f"l{l}/path/b")
        if beta_rows is None:
            x = M.path_attention(tape, T.elu(tape, T.concat_rows(tape, zs)), len(zs), *path)
        else:
            zs = [T.elu(tape, z) for z in zs]
            x = per_channel_path_attention(
                tape, zs, *path, scored=[T.gather_rows(tape, z, beta_rows[l]) for z in zs])
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
    tape.backward(mean_all(tape, T.mul(tape, out, out)))
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
        cfg = encoder_config(kind=kind, layers=layers, hidden=4, heads=2)
        enc = M.make_encoder(graph_view(g), cfg, seed=3, scope="e")
        oracle = WHOLE_GRAPH[kind]
        got = enc.forward(None, batch)
        want, _ = oracle(enc, None, batch)
        assert np.array_equal(got.values, want.values)

        got = param_grads(enc, lambda tape: enc.forward(tape, batch))
        want = param_grads(enc, lambda tape: oracle(enc, tape, batch)[0])
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
        cfg = encoder_config(kind="hat", layers=layers)
        enc = M.make_encoder(view, cfg, seed=3, scope="e")
        assert any(ch.name.startswith("path:") for ch in enc.channels)
        got = enc.forward(None, batch)
        want, _ = whole_graph_hat(enc, None, batch)
        assert np.array_equal(got.values, want.values)

        got = param_grads(enc, lambda tape: enc.forward(tape, batch))
        want = param_grads(enc, lambda tape: whole_graph_hat(enc, tape, batch)[0])
        assert got.keys() == want.keys()
        for name in got:
            np.testing.assert_allclose(got[name], want[name], rtol=0, atol=1e-12,
                                       err_msg=name)

    def test_hat_beta_over_frontiers(self):
        view = hat_view()
        n = view.graph.num_nodes
        isolated = n - 2
        cfg = encoder_config(kind="hat")
        enc = M.make_encoder(view, cfg, seed=3, scope="e")
        assert not any(np.isin(isolated, [ch.tgt, ch.nbr]).any() for ch in enc.channels)
        # unsorted, with duplicates and an isolated node
        batch = [17, 3, 3, isolated, 0, 17, 9]
        blocks = M._receptive_blocks(enc.csrs, np.asarray(batch), cfg.layers, n,
                                     self_entry=True)
        frontiers = [blk.targets for blk in blocks]
        assert len(frontiers[0]) < n
        got = enc.forward(None, batch).values
        want, _ = whole_graph_hat(enc, None, batch, beta_rows=frontiers)
        # BLAS rounds a row of a product differently with fewer rows in the call
        np.testing.assert_allclose(got, want.values, rtol=1e-12, atol=1e-15)
        everywhere, _ = whole_graph_hat(enc, None, batch)
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
    cfg = encoder_config(kind="hat", layers=2)
    batch = [6, 1, 1, 13]

    def run():
        enc = M.HatEncoder(_single_view(bundle), cfg, seed=4, scope="e")
        out = enc.forward(None, batch).values
        grads = param_grads(enc, lambda tape: enc.forward(tape, batch))
        return out, grads

    out, grads = run()
    monkeypatch.setattr(T, "_segment_add", add_at_segment_sum)
    want_out, want_grads = run()
    assert np.array_equal(out, want_out)
    assert grads.keys() == want_grads.keys()
    for name in grads:
        assert np.array_equal(grads[name], want_grads[name]), name


def neighbour_mean_oracle(g):
    """Every node's mean over its merged edges' raw features, an isolated
    node's over itself, summed by the ``np.add.at`` oracle in edge order and
    scaled by 1/degree: the rows GCN's first-layer memo must hold."""
    n = g.num_nodes
    tgt, nbr = merged_edges(g)
    deg = np.bincount(tgt, minlength=n).astype(np.float64)
    isolated = np.flatnonzero(deg == 0)
    tgt, nbr = np.concatenate([tgt, isolated]), np.concatenate([nbr, isolated])
    deg[isolated] = 1.0
    return add_at_segment_sum(g.features[nbr], tgt, n) * (1.0 / deg)[:, None]


def block_gcn_forward(enc, tape, batch):
    """GCN's forward with its first layer run over a receptive-field block,
    as every layer is: the oracle for the first layer's memo."""
    n, batch = enc.graph.num_nodes, np.asarray(batch, dtype=np.int64)
    blocks = M._receptive_blocks(enc.csrs, batch, enc.config.layers, n, self_entry=False)
    x = T.Tensor(enc.graph.features[blocks[0].inputs])
    for l, blk in enumerate(blocks):
        x = enc._layer(tape, x, l, blk)
    return T.gather_rows(tape, x, np.searchsorted(blocks[-1].targets, batch))


class TestGcnFirstLayerMemo:
    """GCN's first layer reads its parameter-free neighbour mean from a
    per-node memo that forwards fill on demand, and no block of edges."""

    @pytest.mark.parametrize("budget", [2, M.EDGE_BUDGET])
    def test_rows_are_the_add_at_mean(self, budget, monkeypatch):
        monkeypatch.setattr(M, "EDGE_BUDGET", budget)
        view = hat_view()
        g = view.graph
        enc = M.make_encoder(view, encoder_config(kind="gcn", layers=1), seed=3, scope="e")
        assert enc.mean0 is None
        enc.forward(None, np.arange(g.num_nodes)[::-1])
        assert enc.filled.all()
        assert np.array_equal(enc.mean0, neighbour_mean_oracle(g))

    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_a_forward_fills_only_the_rows_it_reads(self, layers):
        view = hat_view()
        g = view.graph
        enc = M.make_encoder(view, encoder_config(kind="gcn", layers=layers), seed=3,
                             scope="e")
        batch = np.array([17, 3, 3, g.num_nodes - 1, 0])
        enc.forward(None, batch)
        # the nodes the batch reaches in layers - 1 hops over merged edges
        tgt, nbr = merged_edges(g)
        reached = np.unique(batch)
        for _ in range(layers - 1):
            reached = np.union1d(nbr[np.isin(tgt, reached)],
                                 reached[~np.isin(reached, tgt)])
        assert np.array_equal(np.flatnonzero(enc.filled), reached)
        assert len(reached) < g.num_nodes
        assert np.array_equal(enc.mean0[reached], neighbour_mean_oracle(g)[reached])

    def test_second_forward_sums_no_first_layer_row(self, monkeypatch):
        view = hat_view()
        f = view.graph.feature_dim
        enc = M.make_encoder(view, encoder_config(kind="gcn", layers=2, hidden=3), seed=3,
                             scope="e")
        assert f != enc.config.hidden
        widths = []
        segment_add = T._segment_add

        def recorded(values, seg, n):
            widths.append(np.shape(values)[1])
            return segment_add(values, seg, n)

        monkeypatch.setattr(T, "_segment_add", recorded)
        batch = [15, 4, 4, 11]
        first = enc.forward(None, batch).values
        assert f in widths
        widths.clear()
        again = enc.forward(T.Tape(), batch).values
        assert widths and f not in widths
        assert np.array_equal(again, first)

    def test_gcn_blocks_are_one_hop_shallower_than_gat(self, monkeypatch):
        view = hat_view()
        batch = [15, 4, 4, 11]
        seen = []
        receptive_blocks = M._receptive_blocks

        def recorded(*args, **kwargs):
            seen.append(receptive_blocks(*args, **kwargs))
            return seen[-1]

        monkeypatch.setattr(M, "_receptive_blocks", recorded)
        for kind in ("gcn", "gat"):
            enc = M.make_encoder(view, encoder_config(kind=kind, layers=2), seed=3, scope="e")
            enc.forward(None, batch)
        gcn, gat = seen
        assert (len(gcn), len(gat)) == (1, 2)
        assert np.array_equal(gcn[0].targets, np.unique(batch))
        assert np.array_equal(gcn[0].targets, gat[1].targets)

    @pytest.mark.parametrize("layers", [1, 2])
    def test_bit_identical_to_a_first_layer_block(self, layers):
        """The memo's rows are the ones a block layer sums, so a forward and
        every parameter's gradient are the block path's bit for bit, with
        the memo empty, part-filled and full."""
        view = hat_view()
        n = view.graph.num_nodes
        enc = M.make_encoder(view, encoder_config(kind="gcn", layers=layers), seed=3,
                             scope="e")
        for batch in ([15, 4, 4, 11], [6, 1, 13], np.arange(n)[::-1]):
            want = block_gcn_forward(enc, None, batch).values
            assert np.array_equal(enc.forward(None, batch).values, want)
            got = param_grads(enc, lambda tape: enc.forward(tape, batch))
            expect = param_grads(enc, lambda tape: block_gcn_forward(enc, tape, batch))
            assert got.keys() == expect.keys() == enc.params.keys()
            for name in got:
                assert np.array_equal(got[name], expect[name]), name


class TestRowsOnDemand:
    """HAT builds a block's metapath rows from hop ids; its results must be
    the ones it got when every instance's row was built up front."""

    def test_bit_identical_to_table(self, attention):
        view = hat_view()
        n = view.graph.num_nodes
        isolated = n - 2
        cfg = encoder_config(kind="hat")
        enc = M.make_encoder(view, cfg, seed=3, scope="e")
        assert {len(ch.metapath.relations) for ch in enc.channels if ch.metapath} == {2}
        assert not any(np.isin(isolated, [ch.tgt, ch.nbr]).any() for ch in enc.channels)
        oracle = table_encoder(enc)
        # unsorted, with duplicates and an isolated node
        batch = [17, 3, 3, isolated, 0, 17, 9]
        got = enc.forward(None, batch)
        alphas = attention.alpha
        want = oracle.forward(None, batch)
        want_alphas = attention.alpha
        assert np.array_equal(got.values, want.values)
        assert alphas.keys() == want_alphas.keys()
        for key, (alpha, seg) in alphas.items():
            want_alpha, want_seg = want_alphas[key]
            assert np.array_equal(alpha, want_alpha) and np.array_equal(seg, want_seg)

        got = param_grads(enc, lambda tape: enc.forward(tape, batch))
        want = param_grads(enc, lambda tape: oracle.forward(tape, batch))
        assert got.keys() == want.keys() == enc.params.keys()
        for name in got:
            assert np.array_equal(got[name], want[name]), name


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


def kept_matmul(tape, build, w):
    """``rebuilt_matmul`` as a plain product whose left operand is built once
    and kept on the tape for ``w``'s gradient."""
    return T.matmul(tape, T.Tensor(build()), w)


def keep_rebuildable_arrays(monkeypatch):
    """Make encoders keep the edge rows and the gathered feature rows of a
    metapath's ends on the tape, as they would without rebuilding them in
    backward."""
    monkeypatch.setattr(T, "rebuilt_matmul", kept_matmul)


@pytest.mark.parametrize("kind", ["hat", "gat"], ids=layout_ids("concat", "sum"))
def test_rebuilt_in_backward_is_bit_identical(kind, monkeypatch, attention):
    """Building edge rows and a metapath's end features again in backward
    changes what the tape keeps, not a bit of the forward, α or any
    gradient."""
    view = hat_view()
    isolated = view.graph.num_nodes - 2
    cfg = encoder_config(kind=kind)
    enc = M.make_encoder(view, cfg, seed=3, scope="e")
    # unsorted, with duplicates and an isolated node
    batch = [17, 3, 3, isolated, 0, 17, 9]

    def run():
        out = enc.forward(None, batch).values
        alphas = attention.alpha
        return out, alphas, param_grads(enc, lambda tape: enc.forward(tape, batch))

    out, alphas, grads = run()
    keep_rebuildable_arrays(monkeypatch)
    want_out, want_alphas, want_grads = run()
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
    """The per-head value rows of every ``models._attention_layer`` range
    that follows, each from the range's messages as the layer builds them:
    the messages @ head projection, then the targets' own rows @ it."""
    seen = []
    layer = M._attention_layer

    def recorded(tape, edge_seg, own, projs, lam, messages):
        def built(e0, e1):
            msgs = messages(e0, e1)
            seen.extend(np.concatenate([msgs.values @ p.values, own.values @ p.values])
                        for p in projs)
            return msgs

        return layer(tape, edge_seg, own, projs, lam, built)

    monkeypatch.setattr(M, "_attention_layer", recorded)
    return seen


def rebuildable_arrays(enc, batch, tape, value_rows):
    """The arrays on ``tape``, after ``enc``'s forward for ``batch``, that an
    encoder can rebuild from indexes, by the kind found: a channel's edge
    rows, a float array shaped (block edges, edge_dim) or (block edges, the
    width ``rows`` builds); for HAT, an edge latent, equal to its rows @ We
    + be, a concatenated edge row, shaped (block edges, 2 * hidden), or a
    metapath's gathered end features, the features of the block's targets
    or inputs; an anchor copy, whose every row is its segment's self row,
    as the gathered keys ``keys[anchor]`` are; and value rows, shaped
    (block edges + targets, hidden), whose edge rows are those of one of
    ``value_rows``."""
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
                latent = (whole_rows(enc, ch, eid) @ enc.params[f"{base}/We"].values
                          + enc.params[f"{base}/be"].values)
                widths = {ch.edge_dim, ch.rows(eid[:0]).shape[1]}
                features = [enc.graph.features[ids] for ids in (blk.targets, blk.inputs)]
            values = [v for v in value_rows if v.shape == (e + k, cfg.hidden)]
            assert values, (l, ch)
            for a in held:
                if ch is not None and a.ndim == 2 and a.shape[0] == e and a.shape[1] in widths:
                    found.add("edge rows")
                elif ch is not None and a.shape == (e, 2 * cfg.hidden):
                    found.add("concatenation")
                elif ch is not None and a.shape == latent.shape and np.allclose(a, latent):
                    found.add("edge latent")
                elif ch is not None and ch.metapath is not None and any(
                        a.shape == x.shape and np.array_equal(a, x) for x in features):
                    found.add("end features")
                elif a.ndim and len(a) == e + k and np.array_equal(a, a[self_row]):
                    found.add("anchors")
                elif any(a.shape == v.shape and np.array_equal(a[:e], v[:e]) for v in values):
                    found.add("value rows")
    return found


@pytest.mark.parametrize("kind", ["hat", "gat"], ids=layout_ids("concat"))
def test_tape_keeps_no_rebuildable_edge_array(kind, monkeypatch):
    view = hat_view()
    # a width of 4 would be a metapath's middle row's and 2 * hidden
    cfg = encoder_config(kind=kind, hidden=3, heads=2)
    enc = M.make_encoder(view, cfg, seed=3, scope="e")
    if kind == "hat":
        assert any(ch.metapath for ch in enc.channels)
        widths = {w for ch in enc.channels for w in (ch.edge_dim, ch.rows([]).shape[1])}
        assert {cfg.hidden, 2 * cfg.hidden}.isdisjoint(widths)
    batch = [17, 3, 0, 9]
    with monkeypatch.context() as patched:
        value_rows = record_value_rows(patched)
        tape = T.Tape()
        enc.forward(tape, batch)
    assert rebuildable_arrays(enc, batch, tape, value_rows) == set()
    # the check finds what the tape kept before: the per-head composition
    # with gathered keys, kept products and, for the metapath ends, kept
    # feature rows; then the per-edge fusion as well
    keep_rebuildable_arrays(monkeypatch)
    monkeypatch.setattr(M, "_attention_layer", partial(per_head_attention_layer,
                                                       gathered=True))
    value_rows = record_value_rows(monkeypatch)
    tape = T.Tape()
    enc.forward(tape, batch)
    want = {"anchors", "value rows"}
    if kind == "hat":
        want |= {"edge rows", "end features"}
    assert rebuildable_arrays(enc, batch, tape, value_rows) == want
    if kind == "hat":
        monkeypatch.setattr(M, "_fusion", edge_fusion)
        value_rows.clear()
        tape = T.Tape()
        enc.forward(tape, batch)
        # it builds whole rows, ends included, per edge
        assert rebuildable_arrays(enc, batch, tape, value_rows) == \
            want - {"end features"} | {"concatenation"}


@pytest.mark.parametrize("budget", [2, 3, 4, 7])
@pytest.mark.parametrize("kind", ["hat", "gat", "gcn"], ids=layout_ids("concat", "sum"))
def test_chunked_inference_equals_one_range(kind, budget, monkeypatch, attention):
    """Inference in many small target ranges gives the rows, α and β of
    one range over the whole layer, bit for bit, ranges of one edge
    included, which budget 2 cuts for every encoder.  A training forward,
    on a tape, runs in inference's ranges and gives its rows bit for bit:
    an encoder has no dropout, so a tape changes nothing it computes.  Its
    backward sums the ranges' gradients, so every parameter's gradient is
    the one range's to rounding."""
    view = hat_view()
    n = view.graph.num_nodes
    cfg = encoder_config(kind=kind, layers=2)
    enc = M.make_encoder(view, cfg, seed=3, scope="e")
    # every node, unsorted and with a repeat; nodes n - 3 .. n - 1 have no edge
    batch = np.concatenate([stable_rng("chunks").permutation(n), [4]])

    def infer():
        emb = enc.forward(None, batch).values
        alphas = {key: {v: alpha[seg == v] for v in np.unique(seg)}
                  for key, (alpha, seg) in attention.alpha.items()}
        return emb, alphas, attention.beta

    def train():
        ranges.clear()
        rows = enc.forward(T.Tape(), batch).values
        taped = list(ranges)
        return rows, taped, param_grads(enc, lambda tape: enc.forward(tape, batch))

    ranges = []
    target_ranges = M._target_ranges

    def recorded(seg, k):
        out = target_ranges(seg, k)
        ranges.append((seg, k, out))
        return out

    monkeypatch.setattr(M, "_target_ranges", recorded)
    want_rows, want_alphas, want_betas = infer()
    assert all(len(out) == 1 for _, _, out in ranges)
    taped_rows, _, want_grads = train()
    assert np.array_equal(taped_rows, want_rows)
    monkeypatch.setattr(M, "EDGE_BUDGET", budget)
    taped_rows, taped, grads = train()
    ranges.clear()
    rows, alphas, betas = infer()

    assert np.array_equal(rows, want_rows)
    assert np.array_equal(taped_rows, want_rows)
    assert [(k, out) for _, k, out in taped] == [(k, out) for _, k, out in ranges]
    assert grads.keys() == want_grads.keys() == enc.params.keys()
    for name, grad in grads.items():
        np.testing.assert_allclose(grad, want_grads[name], rtol=1e-12, err_msg=name)
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
            # the budget, unless the range is one target with more edges
            assert e1 - e0 <= budget or t1 - t0 == 1
    # a target with more edges than the budget was in some range, and a
    # target with no edge was in some range (GCN gives it a self edge)
    assert max(counts) > budget
    assert budget != 2 or 1 in counts
    assert kind == "gcn" or any((np.bincount(seg, minlength=k) == 0).any()
                                for seg, k, _ in ranges)


def test_one_edge_range_is_a_plain_budget_split(monkeypatch):
    """At budget 2, targets with 1, 2, 1, 2, 0, 3 and 1 edges run in the
    ranges [0], [1], [2], [3, 4], [5] and [6]: three of one edge, and one
    of a target with more edges than the budget.  An attention layer builds
    its messages in those ranges and gives the rows of one range over the
    whole layer bit for bit, on a tape or not."""
    seg = np.repeat(np.arange(7), [1, 2, 1, 2, 0, 3, 1])
    rng = stable_rng("one-edge")
    own, feats = T.Tensor(rng.standard_normal((7, 8))), rng.standard_normal((10, 5))
    w = T.Tensor(rng.standard_normal((5, 8)), requires_grad=True)
    projs = [T.Tensor(rng.standard_normal((8, 8)), requires_grad=True) for _ in range(2)]

    def layer(tape):
        built = []

        def messages(e0, e1):
            built.append((e0, e1))
            return T.rebuilt_matmul(tape, lambda: feats[e0:e1], w)

        return M._attention_layer(tape, seg, own, projs, 0.5, messages).values, built

    want, built = layer(None)
    assert built == [(0, 10)]
    monkeypatch.setattr(M, "EDGE_BUDGET", 2)
    ranges = [(0, 1, 0, 1), (1, 2, 1, 3), (2, 3, 3, 4), (3, 5, 4, 6), (5, 6, 6, 9),
              (6, 7, 9, 10)]
    assert M._target_ranges(seg, 7) == ranges
    for tape in (None, T.Tape()):
        rows, built = layer(tape)
        assert built == [(e0, e1) for _, _, e0, e1 in ranges]
        assert np.array_equal(rows, want)


@pytest.mark.parametrize("mode", ["tape", "chunked"])
@pytest.mark.parametrize("heads", [1, 2, 3])
@pytest.mark.parametrize("kind", ["hat", "gat"])
def test_shared_message_rows_match_per_head_composition(kind, heads, mode, monkeypatch):
    """Heads that score and sum the unprojected message rows, each
    projection applied once per target, give the forward rows, α, β and
    every parameter gradient of the per-head composition, in which every
    head projects every message row, to rounding: on a tape, and in
    inference over many small target ranges."""
    view = hat_view()
    n = view.graph.num_nodes
    enc = M.make_encoder(view, encoder_config(kind=kind, heads=heads),
                         seed=3, scope="e")
    if mode == "chunked":
        monkeypatch.setattr(M, "EDGE_BUDGET", 3)
        # every node, unsorted and with a repeat; nodes n - 3 .. n - 1 have no edge
        batch = np.concatenate([stable_rng("chunks").permutation(n), [4]])
    else:
        batch = np.array([17, 3, 3, n - 2, 0, 17, 9])

    def run():
        recorder = AttentionRecorder(monkeypatch)
        if mode == "chunked":
            out, grads = enc.forward(None, batch).values, {}
        else:
            tape = T.Tape()
            emb = enc.forward(tape, batch)
            out, grads = emb.values, param_grads(enc, lambda tape: enc.forward(tape, batch))
        return out, recorder.alpha, recorder.beta, grads

    got_out, got_alpha, got_beta, got_grads = run()
    monkeypatch.setattr(M, "_attention_layer", per_head_attention_layer)
    out, alpha, beta, grads = run()
    np.testing.assert_allclose(got_out, out, rtol=1e-12)
    assert got_alpha.keys() == alpha.keys()
    assert {head for *_, head in alpha} == set(range(heads))
    for key, (a, seg) in alpha.items():
        assert np.array_equal(got_alpha[key][1], seg)
        np.testing.assert_allclose(got_alpha[key][0], a, rtol=1e-12, err_msg=str(key))
    assert len(got_beta) == len(beta) == (enc.config.layers if kind == "hat" else 0)
    for got, want in zip(got_beta, beta):
        np.testing.assert_allclose(got, want, rtol=1e-12)
    assert got_grads.keys() == grads.keys()
    for name, grad in grads.items():
        # a rounding is relative to the largest terms of a sum, so an entry
        # that cancels to far below its parameter's others gets their scale
        np.testing.assert_allclose(got_grads[name], grad, rtol=1e-12,
                                   atol=1e-12 * np.abs(grad).max(), err_msg=name)


def split_path_attention(tape, z, channels, q, Wp, bp):
    """``models.path_attention`` through the per-channel oracle: the stacked
    rows split back into one tensor per channel."""
    k = z.shape[0] // channels
    zs = [T.gather_rows(tape, z, np.arange(c * k, (c + 1) * k)) for c in range(channels)]
    return per_channel_path_attention(tape, zs, q, Wp, bp)


@pytest.mark.parametrize("mode", ["tape", "inference"])
@pytest.mark.parametrize("layers", [1, 2, 3])
def test_stacked_path_attention_matches_per_channel_composition(layers, mode, monkeypatch):
    """Path attention as three products over the stacked channels gives the
    forward rows, β and every parameter gradient of the composition that
    scores, stacks and mixes the channels one at a time, to rounding."""
    view = hat_view()
    n = view.graph.num_nodes
    enc = M.make_encoder(view, encoder_config(kind="hat", layers=layers),
                         seed=3, scope="e")
    assert len(enc.channels) > 2
    # unsorted, with duplicates and an isolated node
    batch = np.array([17, 3, 3, n - 2, 0, 17, 9])

    def run():
        recorder = AttentionRecorder(monkeypatch)
        if mode == "inference":
            return enc.forward(None, batch).values, recorder.beta, {}
        tape = T.Tape()
        out = enc.forward(tape, batch).values
        beta = recorder.beta
        return out, beta, param_grads(enc, lambda tape: enc.forward(tape, batch))

    got_out, got_beta, got_grads = run()
    monkeypatch.setattr(M, "path_attention", split_path_attention)
    out, beta, grads = run()
    np.testing.assert_allclose(got_out, out, rtol=1e-12)
    assert len(got_beta) == len(beta) == layers
    for got, want in zip(got_beta, beta):
        assert got.shape == (len(enc.channels),)
        np.testing.assert_allclose(got, want, rtol=1e-12)
    assert got_grads.keys() == grads.keys()
    for name, grad in grads.items():
        # a rounding is relative to the largest terms of a sum, so an entry
        # that cancels to far below its parameter's others gets their scale
        np.testing.assert_allclose(got_grads[name], grad, rtol=1e-12,
                                   atol=1e-12 * np.abs(grad).max(), err_msg=name)

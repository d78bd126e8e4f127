from pathlib import Path

import numpy as np
import pytest

from splitgnn import graph as G
from splitgnn.errors import ConfigError, GraphSchemaError, ParseError

TOY = Path(__file__).parent / "fixtures" / "toy_dataset"


def small_synthetic(seed=0, **overrides):
    kwargs = dict(
        node_counts={"u": 30, "v": 20},
        relations=[
            G.RelationSpec("uu", "u", "u", edge_dim=2, avg_degree=3.0, symmetric=True),
            G.RelationSpec("uv", "u", "v", edge_dim=1, avg_degree=2.0),
            G.RelationSpec("vu", "v", "u", edge_dim=1, avg_degree=2.0),
        ],
        feature_dim=6,
        num_classes=2,
        homophily=0.8,
    )
    kwargs.update(overrides)
    return G.generate_synthetic(G.SyntheticSpec(**kwargs), seed=seed)


class TestLoader:
    def test_toy_fixture(self):
        bundle = G.load_dataset(TOY)
        g = bundle.graph
        assert g.num_nodes == 3
        assert list(g.relations) == ["cites"]
        assert len(g.relations["cites"]) == 2
        assert g.feature_dim == 2
        assert g.num_classes == 2
        assert bundle.metapaths == [G.Metapath(("cites", "cites"))]
        np.testing.assert_array_equal(g.labels, [0, 1, 0])

    def test_unknown_edge_endpoint_reports_line(self, tmp_path):
        for f in TOY.iterdir():
            (tmp_path / f.name).write_text(f.read_text())
        with open(tmp_path / "edges_cites.tsv", "a") as fh:
            fh.write("a\tzzz\t0.0\n")
        with pytest.raises(ParseError, match=r"edges_cites\.tsv:3.*zzz"):
            G.load_dataset(tmp_path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError, match="nodes.tsv"):
            G.load_dataset(tmp_path)

    def test_reload_is_structurally_identical(self):
        b1 = G.load_dataset(TOY)
        b2 = G.load_dataset(TOY)
        assert np.array_equal(b1.graph.features, b2.graph.features)
        assert np.array_equal(b1.graph.labels, b2.graph.labels)
        for name in b1.graph.relations:
            r1, r2 = b1.graph.relations[name], b2.graph.relations[name]
            assert np.array_equal(r1.src, r2.src)
            assert np.array_equal(r1.dst, r2.dst)
            assert np.array_equal(r1.feat, r2.feat)

    def test_save_load_roundtrip(self, tmp_path):
        bundle = small_synthetic(seed=3)
        G.save_dataset(bundle, tmp_path)
        back = G.load_dataset(tmp_path)
        np.testing.assert_array_equal(back.graph.features, bundle.graph.features)
        np.testing.assert_array_equal(back.graph.labels, bundle.graph.labels)
        np.testing.assert_array_equal(back.train_ids, bundle.train_ids)
        for name, rel in bundle.graph.relations.items():
            loaded = back.graph.relations[name]
            np.testing.assert_array_equal(loaded.src, rel.src)
            np.testing.assert_array_equal(loaded.feat, rel.feat)


class TestSynthetic:
    def test_full_homophily_connects_same_class_only(self):
        bundle = small_synthetic(seed=1, homophily=1.0)
        labels = bundle.graph.labels
        for rel in bundle.graph.relations.values():
            assert np.all(labels[rel.src] == labels[rel.dst])

    def test_same_seed_identical_edges(self):
        b1 = small_synthetic(seed=9)
        b2 = small_synthetic(seed=9)
        for name in b1.graph.relations:
            assert np.array_equal(b1.graph.relations[name].src, b2.graph.relations[name].src)
            assert np.array_equal(b1.graph.relations[name].dst, b2.graph.relations[name].dst)

    def test_different_seed_differs(self):
        b1 = small_synthetic(seed=1)
        b2 = small_synthetic(seed=2)
        assert not np.array_equal(b1.graph.features, b2.graph.features)

    def test_zero_nodes_of_referenced_type(self):
        with pytest.raises(ConfigError, match="no nodes"):
            small_synthetic(node_counts={"u": 30, "v": 0})

    def test_bad_homophily(self):
        with pytest.raises(ConfigError):
            small_synthetic(homophily=1.5)

    def test_splits_disjoint_and_labeled(self):
        bundle = small_synthetic(seed=4)
        ids = np.concatenate([bundle.train_ids, bundle.val_ids, bundle.test_ids])
        assert len(np.unique(ids)) == len(ids)
        assert np.all(bundle.graph.labels[ids] >= 0)

    def test_auto_metapaths_are_schema_valid(self):
        bundle = small_synthetic(seed=5)
        assert bundle.metapaths
        for mp in bundle.metapaths:
            mp.check_against(bundle.graph)


def brute_force_instances(graph, metapath, target):
    """Exhaustive DFS over raw edge lists: every walk rooted at ``target``
    as (node ids, edge ids).  The oracle for metapath_edges's contents."""
    walks = [((target,), ())]
    for rname in metapath.relations:
        rel = graph.relations[rname]
        nxt = []
        for nodes, eidx in walks:
            for e in range(len(rel)):
                if rel.src[e] == nodes[-1]:
                    nxt.append((nodes + (int(rel.dst[e]),), eidx + (e,)))
        walks = nxt
    return walks


def walk_feature(graph, metapath, nodes, eidx):
    """Node and edge features in walk order: f0, e1, f1, ..., eL, fL."""
    parts = [graph.features[nodes[0]]]
    for k, rname in enumerate(metapath.relations):
        parts.append(graph.relations[rname].feat[eidx[k]])
        parts.append(graph.features[nodes[k + 1]])
    return np.concatenate(parts)


def loop_metapath_edges(graph, metapath):
    """metapath_edges as a per-hop Python loop over adjacency lists: the
    oracle for the order of its instances."""
    metapath.check_against(graph)
    walks = None
    for rname in metapath.relations:
        rel = graph.relations[rname]
        if walks is None:
            walks = (rel.src, rel.dst, [np.arange(len(rel))])
            continue
        adj = {}
        for e, (u, v) in enumerate(zip(rel.src, rel.dst)):
            adj.setdefault(int(u), []).append((int(v), e))
        tgt, cur, hops = walks
        new_tgt, new_cur, new_hops = [], [], [[] for _ in range(len(hops) + 1)]
        for i in range(len(cur)):
            for v, e in adj.get(int(cur[i]), ()):
                new_tgt.append(tgt[i])
                new_cur.append(v)
                for k, h in enumerate(hops):
                    new_hops[k].append(h[i])
                new_hops[-1].append(e)
        walks = (np.asarray(new_tgt, dtype=np.int64),
                 np.asarray(new_cur, dtype=np.int64),
                 [np.asarray(h, dtype=np.int64) for h in new_hops])
    tgt, end, hops = walks
    if len(tgt) == 0:
        return tgt, end, np.zeros((0, G.metapath_feature_dim(graph, metapath)))
    pieces = [graph.features[tgt]]
    for k, rname in enumerate(metapath.relations):
        rel = graph.relations[rname]
        pieces.append(rel.feat[hops[k]])
        pieces.append(graph.features[rel.dst[hops[k]]])
    return tgt, end, np.concatenate(pieces, axis=1)


METAPATH_FIXTURES = {
    "synthetic-auto": lambda: small_synthetic(seed=11),
    "synthetic-long": lambda: small_synthetic(
        seed=14, node_counts={"u": 40, "v": 25},
        metapaths=[("uu",), ("uv", "vu"), ("vu", "uv"), ("uv", "vu", "uu"),
                   ("uu", "uv", "vu", "uv")]),
    "toy": lambda: G.load_dataset(TOY),
}


class TestSubgraph:
    def test_path_graph_metapath(self):
        bundle = G.load_dataset(TOY)
        tgt, end, feat = G.metapath_edges(bundle.graph, bundle.metapaths[0])
        # a -> b -> c is the one instance; b and c root none
        assert tgt.tolist() == [0] and end.tolist() == [2]
        # feature layout: f(a), e(a->b), f(b), e(b->c), f(c)
        np.testing.assert_array_equal(
            feat, [[1.0, 0.5, 0.75, -0.25, 2.0, -1.5, 0.0, 1.5]])

    def test_matches_bruteforce_enumeration(self):
        bundle = small_synthetic(seed=11, node_counts={"u": 30, "v": 20})
        g = bundle.graph
        mp = bundle.metapaths[0]
        tgt, end, feat = G.metapath_edges(g, mp)
        for t in range(0, 50, 7):
            rows = np.flatnonzero(tgt == t)
            got = sorted((int(end[i]), tuple(feat[i])) for i in rows)
            want = sorted((nodes[-1], tuple(walk_feature(g, mp, nodes, eidx)))
                          for nodes, eidx in brute_force_instances(g, mp, t))
            assert got == want

    def test_metapath_channel_matches_instances(self):
        bundle = small_synthetic(seed=12)
        g = bundle.graph
        mp = bundle.metapaths[0]
        tgt, end, feat = G.metapath_edges(g, mp)
        expected = []
        for t in range(g.num_nodes):
            expected.extend(brute_force_instances(g, mp, t))
        assert len(tgt) == len(expected)
        got = sorted((int(a), int(b)) for a, b in zip(tgt, end))
        want = sorted((nodes[0], nodes[-1]) for nodes, _ in expected)
        assert got == want
        assert feat.shape == (len(expected), G.metapath_feature_dim(g, mp))

    @pytest.mark.parametrize("fixture", sorted(METAPATH_FIXTURES))
    def test_matches_loop_oracle(self, fixture):
        bundle = METAPATH_FIXTURES[fixture]()
        assert bundle.metapaths
        for mp in bundle.metapaths:
            got = G.metapath_edges(bundle.graph, mp)
            want = loop_metapath_edges(bundle.graph, mp)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and np.array_equal(a, b), mp.name

    def test_incompatible_metapath_rejected(self):
        bundle = small_synthetic(seed=2)
        with pytest.raises(GraphSchemaError):
            G.metapath_edges(bundle.graph, G.Metapath(("uv", "uv")))


class TestPartition:
    def test_single_participant_identity(self):
        bundle = small_synthetic(seed=20)
        spec = G.PartitionSpec.from_ratio([1.0], bundle.graph.feature_dim,
                                          bundle.graph.relation_names())
        views = G.vertical_partition(bundle, spec, seed=0)
        assert len(views) == 1
        v = views[0]
        np.testing.assert_array_equal(v.graph.features, bundle.graph.features)
        for name, rel in bundle.graph.relations.items():
            assert len(v.graph.relations[name]) == len(rel)
        assert v.has_labels

    def test_even_split_counts(self):
        bundle = small_synthetic(seed=21, relations=[
            G.RelationSpec("uu", "u", "u", edge_dim=0, avg_degree=5.0),
        ], node_counts={"u": 20, "v": 1})
        rel = bundle.graph.relations["uu"]
        assert len(rel) == 100
        spec = G.PartitionSpec.from_ratio([5, 5], bundle.graph.feature_dim, ["uu"])
        views = G.vertical_partition(bundle, spec, seed=1)
        assert [len(v.graph.relations["uu"]) for v in views] == [50, 50]

    def test_skewed_split_counts_and_columns(self):
        bundle = small_synthetic(seed=22, relations=[
            G.RelationSpec("uu", "u", "u", edge_dim=0, avg_degree=5.0),
        ], node_counts={"u": 20, "v": 1}, feature_dim=6)
        spec = G.PartitionSpec.from_ratio([1, 9], 6, ["uu"])
        # party A gets floor(6 * 0.1) = 0 columns; use a wider matrix too
        assert spec.feature_cols == [(0, 0), (0, 6)]
        spec15 = G.PartitionSpec.from_ratio([1, 9], 15, ["uu"])
        assert spec15.feature_cols == [(0, 1), (1, 15)]
        views = G.vertical_partition(bundle, spec, seed=1)
        assert [len(v.graph.relations["uu"]) for v in views] == [10, 90]

    def test_losslessness(self):
        bundle = small_synthetic(seed=23)
        g = bundle.graph
        spec = G.PartitionSpec.from_ratio([3, 7], g.feature_dim, g.relation_names())
        views = G.vertical_partition(bundle, spec, seed=5)
        rebuilt = np.concatenate([v.graph.features for v in views], axis=1)
        assert np.array_equal(rebuilt, g.features)
        for name, rel in g.relations.items():
            edges = sorted(
                (int(u), int(v), tuple(f))
                for view in views
                for u, v, f in zip(view.graph.relations[name].src,
                                   view.graph.relations[name].dst,
                                   view.graph.relations[name].feat)
            )
            original = sorted(
                (int(u), int(v), tuple(f))
                for u, v, f in zip(rel.src, rel.dst, rel.feat)
            )
            assert edges == original

    def test_labels_only_at_holder(self):
        bundle = small_synthetic(seed=24)
        spec = G.PartitionSpec.from_ratio([5, 5], bundle.graph.feature_dim,
                                          bundle.graph.relation_names(), label_holder=1)
        views = G.vertical_partition(bundle, spec, seed=2)
        assert not views[0].has_labels and views[1].has_labels
        assert np.all(views[0].graph.labels == -1)
        assert np.array_equal(views[1].graph.labels, bundle.graph.labels)

    def test_deterministic_under_seed(self):
        bundle = small_synthetic(seed=25)
        spec = G.PartitionSpec.from_ratio([5, 5], bundle.graph.feature_dim,
                                          bundle.graph.relation_names())
        v1 = G.vertical_partition(bundle, spec, seed=7)
        v2 = G.vertical_partition(bundle, spec, seed=7)
        v3 = G.vertical_partition(bundle, spec, seed=8)
        for name in bundle.graph.relations:
            assert np.array_equal(v1[0].graph.relations[name].src,
                                  v2[0].graph.relations[name].src)
        assert any(
            not np.array_equal(v1[0].graph.relations[name].src,
                               v3[0].graph.relations[name].src)
            for name in bundle.graph.relations
        )

    def test_dimension_mismatch(self):
        bundle = small_synthetic(seed=26)
        spec = G.PartitionSpec.from_ratio([5, 5], 4, bundle.graph.relation_names())
        with pytest.raises(ConfigError):
            G.vertical_partition(bundle, spec, seed=0)

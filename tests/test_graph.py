from pathlib import Path

import numpy as np
import pytest

from conftest import loop_metapath_edges
from row_loader import load_dataset_by_rows
from splitgnn import graph as G
from splitgnn import models as M
from splitgnn.errors import ConfigError, GraphSchemaError, ParseError
from splitgnn.seeding import stable_rng

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


BAD_FLOAT = "bad float list: could not convert string to float:"

# Edits to the toy dataset (file name to new text, None to delete it) and the
# ParseError each must raise, with ``{d}`` for the dataset directory.
LOADER_ERRORS = {
    "missing-nodes": ({"nodes.tsv": None}, "{d}/nodes.tsv: missing file"),
    "missing-features": ({"features.tsv": None}, "{d}/features.tsv: missing file"),
    "missing-labels": ({"labels.tsv": None}, "{d}/labels.tsv: missing file"),
    "missing-metapaths": ({"metapaths.txt": None}, "{d}/metapaths.txt: missing file"),
    "missing-splits": ({"splits.tsv": None}, "{d}/splits.tsv: missing file"),
    "nodes-field-count": (
        {"nodes.tsv": "a\tdoc\nb\tdoc\textra\nc\tdoc\n"},
        "{d}/nodes.tsv:2: expected 2 tab-separated fields, got 3"),
    "features-field-count": (
        {"features.tsv": "a\t1.0,0.5\nb\nc\t0.0,1.5\n"},
        "{d}/features.tsv:2: expected 2 tab-separated fields, got 1"),
    "features-trailing-tab": (
        {"features.tsv": "a\t1.0,0.5\t\nb\t-0.25,2.0\nc\t0.0,1.5\n"},
        "{d}/features.tsv:1: expected 2 tab-separated fields, got 3"),
    # an extra id field on one row and none on the next: as many ids as rows
    "features-shifted-fields": (
        {"features.tsv": "a\t1.0\nb\tc\t2.0\n3.0\n"},
        "{d}/features.tsv:2: expected 2 tab-separated fields, got 3"),
    "edges-too-many-fields": (
        {"edges_cites.tsv": "a\tb\t0.75\nb\tc\t-1.5\t1\n"},
        "{d}/edges_cites.tsv:2: expected 3 tab-separated fields, got 4"),
    "edges-too-few-fields": (
        {"edges_cites.tsv": "a\tb\t0.75\nb\n"},
        "{d}/edges_cites.tsv:2: expected 3 tab-separated fields, got 1"),
    # every file empty and no edge file
    "empty-dataset": (
        {"nodes.tsv": "", "features.tsv": "", "labels.tsv": "", "splits.tsv": "",
         "metapaths.txt": "", "edges_cites.tsv": None},
        "{d}/nodes.tsv: no nodes"),
    "blank-nodes": ({"nodes.tsv": "\n  \r\n"}, "{d}/nodes.tsv: no nodes"),
    "duplicate-node": (
        {"nodes.tsv": "a\tdoc\nb\tdoc\nc\tdoc\nb\tdoc\n"},
        "{d}/nodes.tsv:4: duplicate node id 'b'"),
    "unknown-feature-node": (
        {"features.tsv": "a\t1.0,0.5\nb\t-0.25,2.0\nc\t0.0,1.5\nzz\t1.0,2.0\n"},
        "{d}/features.tsv:4: unknown node id 'zz'"),
    "unknown-edge-src": (
        {"edges_cites.tsv": "a\tb\t0.75\nzz\tc\t-1.5\n"},
        "{d}/edges_cites.tsv:2: unknown node id 'zz'"),
    "unknown-edge-dst": (
        {"edges_cites.tsv": "a\tb\t0.75\nb\tzz\t-1.5\n"},
        "{d}/edges_cites.tsv:2: unknown node id 'zz'"),
    "unknown-label-node": (
        {"labels.tsv": "a\t0\nzz\t1\n"}, "{d}/labels.tsv:2: unknown node id 'zz'"),
    "unknown-split-node": (
        {"splits.tsv": "a\ttrain\nzz\tval\n"}, "{d}/splits.tsv:2: unknown node id 'zz'"),
    "bad-feature-float": (
        {"features.tsv": "a\t1.0,x\nb\t-0.25,2.0\nc\t0.0,1.5\n"},
        "{d}/features.tsv:1: " + BAD_FLOAT + " 'x'"),
    "empty-feature-float": (
        {"features.tsv": "a\t1.0,0.5\nb\t-0.25,,2.0\nc\t0.0,1.5\n"},
        "{d}/features.tsv:2: " + BAD_FLOAT + " ''"),
    "bad-edge-float": (
        {"edges_cites.tsv": "a\tb\t0.75\nb\tc\t-1.5.0\n"},
        "{d}/edges_cites.tsv:2: " + BAD_FLOAT + " '-1.5.0'"),
    "wrong-feature-count": (
        {"features.tsv": "a\t1.0,0.5\nb\t-0.25,2.0\nc\t0.0\n"},
        "{d}/features.tsv:3: expected 2 features, got 1"),
    "empty-feature-list": (
        {"features.tsv": "a\t1.0,0.5\nb\t \nc\t0.0,1.5\n"},
        "{d}/features.tsv:2: expected 2 features, got 0"),
    "wrong-edge-feature-count": (
        {"edges_cites.tsv": "a\tb\t0.75\nb\tc\t-1.5,2.0\n"},
        "{d}/edges_cites.tsv:2: expected 1 edge features, got 2"),
    "no-edge-features-after-some": (
        {"edges_cites.tsv": "a\tb\t0.75\nb\tc\t\n"},
        "{d}/edges_cites.tsv:2: expected 1 edge features, got 0"),
    "edge-features-after-none": (
        {"edges_cites.tsv": "a\tb\nb\tc\t-1.5\n"},
        "{d}/edges_cites.tsv:2: expected 0 edge features, got 1"),
    "missing-feature-row": (
        {"features.tsv": "a\t1.0,0.5\nc\t0.0,1.5\n"},
        "{d}/features.tsv: no feature row for node index 1"),
    "mixed-node-types": (
        {"nodes.tsv": "a\tdoc\nb\tdoc\nc\tdoc\nd\tauthor\n",
         "features.tsv": "a\t1.0,0.5\nb\t-0.25,2.0\nc\t0.0,1.5\nd\t1.0,1.0\n",
         "edges_cites.tsv": "a\tb\t0.75\nb\tc\t-1.5\nd\ta\t0.5\n"},
        "{d}/edges_cites.tsv: edge 2 mixes node types within one relation"),
    "bad-class-index": (
        {"labels.tsv": "a\t0\nb\tone\n"}, "{d}/labels.tsv:2: bad class index 'one'"),
    "negative-class-index": (
        {"labels.tsv": "a\t-1\nb\t1\n"}, "{d}/labels.tsv:1: bad class index '-1'"),
    "unknown-split": (
        {"splits.tsv": "a\ttrain\nb\tdev\n"}, "{d}/splits.tsv:2: unknown split 'dev'"),
    "metapath-unknown-relation": (
        {"metapaths.txt": "cites,cites\n\ncites,zz\n"},
        "{d}/metapaths.txt:3: metapath uses unknown relation 'zz'"),
    "metapath-empty-relation": (
        {"metapaths.txt": "cites,,cites\n"},
        "{d}/metapaths.txt:1: metapath uses unknown relation ''"),
    "metapath-types-do-not-meet": (
        {"nodes.tsv": "a\tdoc\nb\tdoc\nc\tdoc\nd\tauthor\n",
         "features.tsv": "a\t1.0,0.5\nb\t-0.25,2.0\nc\t0.0,1.5\nd\t1.0,1.0\n",
         "edges_writes.tsv": "d\ta\t0.5\n", "metapaths.txt": "writes,cites\ncites,writes\n"},
        "{d}/metapaths.txt:2: metapath cites+writes: writes starts at author, "
        "previous relation ends at doc"),
    # the first bad row wins, counted in lines of the file as written
    "first-error-wins": (
        {"features.tsv": "a\t1.0,0.5\nb\t1.0,y\nzz\t1.0,2.0\n"},
        "{d}/features.tsv:2: " + BAD_FLOAT + " 'y'"),
    "blank-lines-counted": (
        {"edges_cites.tsv": "a\tb\t0.75\n\n  \nb\tzz\t-1.5\n"},
        "{d}/edges_cites.tsv:4: unknown node id 'zz'"),
    "crlf-lines-counted": (
        {"features.tsv": "a\t1.0,0.5\r\nb\t-0.25,2.0\r\nc\t0.0,1.5,1\r\n"},
        "{d}/features.tsv:3: expected 2 features, got 3"),
}


def edited_toy(directory, files):
    """The toy dataset in ``directory`` with ``files`` (name to new text,
    None to delete the file) applied."""
    for f in TOY.iterdir():
        (directory / f.name).write_text(f.read_text())
    for name, text in files.items():
        if text is None:
            (directory / name).unlink()
        else:
            (directory / name).write_bytes(text.encode())


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

    @pytest.mark.parametrize("files,message", LOADER_ERRORS.values(), ids=LOADER_ERRORS)
    def test_error_message(self, tmp_path, files, message):
        """The exact ParseError of each way a dataset directory can be
        wrong: the first bad row of the first bad file, by ``path:line``."""
        edited_toy(tmp_path, files)
        with pytest.raises(ParseError) as err:
            G.load_dataset(tmp_path)
        assert str(err.value) == message.format(d=tmp_path)

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


def assert_same_array(a, b):
    assert (a.dtype, a.shape) == (b.dtype, b.shape)
    assert a.tobytes() == b.tobytes()


def assert_same_bundle(got, want):
    g, w = got.graph, want.graph
    for attr in ("node_types", "features", "labels"):
        assert_same_array(getattr(g, attr), getattr(w, attr))
    assert g.num_classes == w.num_classes
    assert list(g.relations) == list(w.relations)
    for name, rel in w.relations.items():
        mine = g.relations[name]
        assert (mine.name, mine.src_type, mine.dst_type) == \
            (rel.name, rel.src_type, rel.dst_type)
        for attr in ("src", "dst", "feat"):
            assert_same_array(getattr(mine, attr), getattr(rel, attr))
    assert got.metapaths == want.metapaths
    for attr in ("train_ids", "val_ids", "test_ids"):
        assert_same_array(getattr(got, attr), getattr(want, attr))


FOUR_NODES = {
    "labels.tsv": "a\t0\nb\t1\nc\t0\nd\t1\n",
    "splits.tsv": "a\ttrain\nb\ttrain\nc\tval\nd\ttest\n",
    "metapaths.txt": "cites,cites\n",
    "nodes.tsv": "a\tdoc\nb\tdoc\nc\tdoc\nd\tdoc\n",
}

# Hand-written directories (file name to text) that only the streaming parse
# reads, and those with files it leaves to the row reader: rare tokens, or
# rows without floats.
STREAMED = {
    "numbers": {
        **FOUR_NODES,
        # CRLF, blank and whitespace lines, rows out of order, b repeated
        "features.tsv": "b\t+1.5, 1.5,-0.0\r\n\r\n"
                        "a\t4.9e-324,2.2250738585072014e-308,1e308\r\n   \r\n"
                        "d\tinf,-Infinity,nan\r\nc\t-nan,1E-5,0\r\n"
                        "b\t2.5,-1e-310,1.7976931348623157e308\r\n",
        # no newline at the end
        "edges_cites.tsv": "a\tb\t1e308,-0.0\nb\tc\t+1.5, 1.5 \nc\td\tinf,nan",
        "edges_empty.tsv": "\n\n",
    },
    "old-mac-lines": {
        **FOUR_NODES,
        "features.tsv": "a\t1,2\rb\t3,4\rc\t5,6\rd\t7,8\r",
        "edges_cites.tsv": "a\tb\t0.5\r\n\rb\tc\t-0.5\n",
    },
    # rejected by both loaders, before any file is read row by row
    "empty": {"nodes.tsv": "", "features.tsv": "", "labels.tsv": "",
              "splits.tsv": "", "metapaths.txt": ""},
}
ROW_READ = {
    "no-edge-features": {
        **FOUR_NODES,
        "features.tsv": "a\t1\nb\t2\nc\t3\nd\t4",
        "edges_cites.tsv": "a\tb\nb\tc\t\n\nc\td\n",
        "edges_more.tsv": "",
        "edges_none.tsv": "a\tb\t\nb\tc\t  \nc\td\t\n",
    },
    "no-features": {
        **FOUR_NODES,
        "features.tsv": "a\t\nb\t \nc\t\nd\t\n",
        "edges_cites.tsv": "a\tb\t1,2\nb\tc\t3,4\n",
    },
    "rare-tokens": {
        **FOUR_NODES,
        "features.tsv": "a\t1_0,١\nb\t2,3\nc\t٣.٥,4\nd\t5,6\n",
        "edges_cites.tsv": "a\tb\t1_000.5\nb\tc\t2\n",
        "edges_plain.tsv": "a\tb\t1\nb\tc\t2\n",
    },
}


def write_dataset(directory, files):
    for name, text in files.items():
        (directory / name).write_bytes(text.encode())


def load_outcome(load, directory):
    """What ``load`` makes of ``directory``: its bundle, or the message of
    the ParseError it raises."""
    try:
        return load(directory)
    except ParseError as err:
        return str(err)


def assert_same_outcome(got, want):
    if isinstance(want, str):
        assert got == want
    else:
        assert_same_bundle(got, want)


class TestLoaderParity:
    """load_dataset against the row-by-row loader it replaced
    (tests/row_loader.py): the same arrays, byte for byte."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 7])
    def test_synthetic(self, tmp_path, recwarn, seed):
        bundle = small_synthetic(seed=seed, relations=[
            G.RelationSpec("uu", "u", "u", edge_dim=3, avg_degree=3.0, symmetric=True),
            G.RelationSpec("uv", "u", "v", edge_dim=0, avg_degree=2.0),
            G.RelationSpec("vu", "v", "u", edge_dim=1, avg_degree=2.0),
        ])
        G.save_dataset(bundle, tmp_path)
        assert_same_bundle(G.load_dataset(tmp_path), load_dataset_by_rows(tmp_path))
        assert [str(w.message) for w in recwarn] == []

    @pytest.mark.parametrize("name", sorted(STREAMED) + sorted(ROW_READ))
    def test_hand_written(self, tmp_path, recwarn, name):
        write_dataset(tmp_path, {**STREAMED, **ROW_READ}[name])
        assert_same_outcome(load_outcome(G.load_dataset, tmp_path),
                            load_outcome(load_dataset_by_rows, tmp_path))
        assert [str(w.message) for w in recwarn] == []

    @pytest.mark.parametrize("name", sorted(STREAMED) + ["synthetic"])
    def test_regular_files_are_streamed(self, tmp_path, monkeypatch, name):
        """Ordinary files never fall back to the row-by-row read."""
        if name == "synthetic":
            G.save_dataset(small_synthetic(seed=3), tmp_path)
        else:
            write_dataset(tmp_path, STREAMED[name])
        want = load_outcome(load_dataset_by_rows, tmp_path)

        def row_read(path, *args):
            raise AssertionError(f"{path.name} was read row by row")

        monkeypatch.setattr(G, "_read_table", row_read)
        assert_same_outcome(load_outcome(G.load_dataset, tmp_path), want)


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


METAPATH_FIXTURES = {
    "synthetic-auto": lambda: small_synthetic(seed=11),
    "synthetic-long": lambda: small_synthetic(
        seed=14, node_counts={"u": 40, "v": 25},
        metapaths=[("uu",), ("uv", "vu"), ("vu", "uv"), ("uv", "vu", "uu"),
                   ("uu", "uv", "vu", "uv")]),
    "toy": lambda: G.load_dataset(TOY),
}


def walk_nodes(graph, metapath, tgt, hops, i):
    """Instance i's node ids in walk order, read through its hop edge ids."""
    return (int(tgt[i]),) + tuple(int(graph.relations[r].dst[h[i]])
                                  for r, h in zip(metapath.relations, hops))


class TestSubgraph:
    def test_path_graph_metapath(self):
        bundle = G.load_dataset(TOY)
        g, mp = bundle.graph, bundle.metapaths[0]
        tgt, end, hops = G.metapath_edges(g, mp)
        # a -> b -> c is the one instance; b and c root none
        assert tgt.tolist() == [0] and end.tolist() == [2]
        assert [h.tolist() for h in hops] == [[0], [1]]
        assert walk_nodes(g, mp, tgt, hops, 0) == (0, 1, 2)
        # feature layout: f(a), e(a->b), f(b), e(b->c), f(c)
        np.testing.assert_array_equal(
            walk_feature(g, mp, (0, 1, 2), (0, 1)),
            [1.0, 0.5, 0.75, -0.25, 2.0, -1.5, 0.0, 1.5])

    def test_matches_bruteforce_enumeration(self):
        bundle = small_synthetic(seed=11, node_counts={"u": 30, "v": 20})
        g = bundle.graph
        mp = bundle.metapaths[0]
        tgt, end, hops = G.metapath_edges(g, mp)
        for t in range(0, 50, 7):
            rows = np.flatnonzero(tgt == t)
            got = sorted((int(end[i]), walk_nodes(g, mp, tgt, hops, i),
                          tuple(int(h[i]) for h in hops)) for i in rows)
            want = sorted((nodes[-1], nodes, eidx)
                          for nodes, eidx in brute_force_instances(g, mp, t))
            assert got == want

    def test_metapath_channel_matches_instances(self):
        bundle = small_synthetic(seed=12)
        g = bundle.graph
        mp = bundle.metapaths[0]
        tgt, end, hops = G.metapath_edges(g, mp)
        expected = []
        for t in range(g.num_nodes):
            expected.extend(brute_force_instances(g, mp, t))
        assert len(tgt) == len(expected)
        got = sorted((int(a), int(b)) for a, b in zip(tgt, end))
        want = sorted((nodes[0], nodes[-1]) for nodes, _ in expected)
        assert got == want
        assert len(hops) == len(mp.relations)
        assert all(h.shape == (len(expected),) for h in hops)

    @pytest.mark.parametrize("fixture", sorted(METAPATH_FIXTURES))
    def test_matches_loop_oracle(self, fixture):
        bundle = METAPATH_FIXTURES[fixture]()
        assert bundle.metapaths
        for mp in bundle.metapaths:
            tgt, end, hops = G.metapath_edges(bundle.graph, mp)
            want_tgt, want_end, want_hops, _ = loop_metapath_edges(bundle.graph, mp)
            assert len(hops) == len(want_hops) == len(mp.relations)
            for a, b in zip([tgt, end, *hops], [want_tgt, want_end, *want_hops]):
                assert a.dtype == b.dtype and np.array_equal(a, b), mp.name

    def test_incompatible_metapath_rejected(self):
        bundle = small_synthetic(seed=2)
        with pytest.raises(GraphSchemaError):
            G.metapath_edges(bundle.graph, G.Metapath(("uv", "uv")))


def own_view(bundle):
    """One participant holding all of ``bundle``, metapaths included."""
    no_ids = np.array([], dtype=np.int64)
    g = bundle.graph
    return G.ParticipantView(0, g, list(bundle.metapaths), (0, g.feature_dim), True,
                             no_ids, no_ids, no_ids)


class TestChannelRows:
    """A HAT channel's ``rows(eid)`` against the rows the loop oracle builds
    up front."""

    @pytest.mark.parametrize("fixture", sorted(METAPATH_FIXTURES))
    def test_rows_match_oracle_table(self, fixture):
        bundle = METAPATH_FIXTURES[fixture]()
        g = bundle.graph
        channels = {ch.name: ch for ch in M._build_channels(own_view(bundle))}
        lengths = set()
        for mp in bundle.metapaths:
            ch = channels[f"path:{mp.name}"]
            table = loop_metapath_edges(g, mp)[3]
            # the toy graph's one metapath has a single instance
            assert len(table) > (0 if fixture == "toy" else 2), mp.name
            lengths.add(len(mp.relations))
            assert ch.edge_dim == table.shape[1]
            last = len(table) - 1
            picks = {
                "empty": [], "single": [last], "repeated": [last, 0, last, last, 0],
                "unsorted": stable_rng("rows", fixture, mp.name).permutation(len(table)),
            }
            for label, eid in picks.items():
                eid = np.asarray(eid, dtype=np.int64)
                got = ch.rows(eid)
                assert got.dtype == np.float64 and got.flags.c_contiguous, label
                assert got.shape == (len(eid), table.shape[1]), label
                assert np.array_equal(got, table[eid]), (mp.name, label)
        if fixture == "synthetic-long":
            assert lengths == {1, 2, 3, 4}

    def test_empty_channels_have_no_rows(self):
        # "vu" has no edges, so no instance of "uv,vu" exists; "uv" has no
        # edge features
        bundle = small_synthetic(seed=16, relations=[
            G.RelationSpec("uu", "u", "u", edge_dim=2, avg_degree=2.0),
            G.RelationSpec("uv", "u", "v", edge_dim=0, avg_degree=2.0),
            G.RelationSpec("vu", "v", "u", edge_dim=1, avg_degree=0.0),
        ], metapaths=[("uv", "vu"), ("uu", "uv")])
        g = bundle.graph
        none, zero_width = bundle.metapaths
        channels = {ch.name: ch for ch in M._build_channels(own_view(bundle))}
        empty = np.zeros(0, dtype=np.int64)
        path = channels["path:uv+vu"]
        assert len(path.tgt) == 0
        assert path.rows(empty).shape == (0, G.metapath_feature_dim(g, none)) \
            == loop_metapath_edges(g, none)[3].shape
        # a hop over a relation without edge features adds no columns
        path = channels["path:uu+uv"]
        table = loop_metapath_edges(g, zero_width)[3]
        assert len(table) and table.shape[1] == 3 * g.feature_dim + 2
        every = np.arange(len(table))[::-1]
        assert np.array_equal(path.rows(every), table[every])
        assert channels["uv"].edge_dim == 0
        some = np.array([2, 0, 0], dtype=np.int64)
        assert channels["uv"].rows(some).shape == (3, 0)
        assert channels["uv"].rows(empty).shape == (0, 0)


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

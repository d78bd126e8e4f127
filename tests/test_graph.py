import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from conftest import loop_metapath_edges
from row_loader import load_dataset_by_rows
from splitgnn import graph as G
from splitgnn import models as M
from splitgnn.errors import ConfigError, GraphSchemaError, ParseError, read_arrays
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
DIRECTORY = object()  # an edit that makes the file a directory

# Edits to the toy dataset (file name to new text, None to delete it) and the
# ParseError each must raise, with ``{d}`` for the dataset directory.
LOADER_ERRORS = {
    "missing-nodes": ({"nodes.tsv": None}, "{d}/nodes.tsv: missing file"),
    # a file that cannot be opened is refused by its path alone
    "labels-a-directory": ({"labels.tsv": DIRECTORY}, "{d}/labels.tsv: Is a directory"),
    "features-a-directory": ({"features.tsv": DIRECTORY}, "{d}/features.tsv: Is a directory"),
    "edges-a-directory": (
        {"edges_cites.tsv": DIRECTORY}, "{d}/edges_cites.tsv: Is a directory"),
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
    # int() reads these; a class index is ASCII digits and nothing else
    "class-index-not-ascii-digits": (
        {"labels.tsv": "a\t0\nb\t\u0661\n"}, "{d}/labels.tsv:2: bad class index '\u0661'"),
    "class-index-with-space": (
        {"labels.tsv": "a\t 1\nb\t1\n"}, "{d}/labels.tsv:1: bad class index ' 1'"),
    # int() reads these too, but each would be a second spelling of a class
    "class-index-leading-zero": (
        {"labels.tsv": "a\t0\nb\t01\n"}, "{d}/labels.tsv:2: bad class index '01'"),
    "class-index-minus-zero": (
        {"labels.tsv": "a\t-0\nb\t1\n"}, "{d}/labels.tsv:1: bad class index '-0'"),
    "class-index-plus": (
        {"labels.tsv": "a\t0\nb\t+1\n"}, "{d}/labels.tsv:2: bad class index '+1'"),
    # a class needs a node, so a class index below the node count bounds the
    # label head
    "class-index-past-node-count": (
        {"labels.tsv": "a\t0\nb\t99999999999\n"},
        "{d}/labels.tsv:2: class index 99999999999 is not below the node count 3"),
    "unknown-split": (
        {"splits.tsv": "a\ttrain\nb\tdev\n"}, "{d}/splits.tsv:2: unknown split 'dev'"),
    # DatasetBundle refuses these too, but with no path or line
    "split-node-listed-twice": (
        {"splits.tsv": "a\ttrain\nb\tval\nc\ttest\na\tval\n"},
        "{d}/splits.tsv:4: node 'a' is listed twice"),
    "split-node-unlabeled": (
        {"labels.tsv": "a\t0\nb\t1\n"}, "{d}/splits.tsv:3: node 'c' has no label"),
    # a relation's name comes from its edge file's name and must be one a
    # metapaths.txt line can name
    "relation-name-from-file": (
        {"edges_cites.tsv": None, "edges_a,b.tsv": "a\tb\t0.75\nb\tc\t-1.5\n",
         "metapaths.txt": "a,b\n"},
        "{d}/edges_a,b.tsv: relation name 'a,b' is not a non-empty string without "
        "',', '/', NUL or whitespace"),
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
    # past the 50,000 lines loadtxt reads from its input at a time
    "bad-token-past-a-loadtxt-chunk": (
        {"edges_cites.tsv": "a\tb\t0.75\n" * 60_000 + "b\tc\t1_0\n"},
        "{d}/edges_cites.tsv:60001: " + BAD_FLOAT + " '1_0'"),
    "late-unknown-id-without-edge-features": (
        {"edges_cites.tsv": "a\tb\nb\tc\t\n\nc\ta\t \nb\tzz\n"},
        "{d}/edges_cites.tsv:5: unknown node id 'zz'"),
    # a line that is not valid UTF-8 is a bad row (bytes are written as given)
    "nodes-not-utf8": (
        {"nodes.tsv": b"a\tdoc\nb\tdoc\xff\nc\tdoc\n"}, "{d}/nodes.tsv:2: not valid UTF-8"),
    "features-not-utf8": (
        {"features.tsv": b"a\t1.0,0.5\nb\t-0.25,2.0\nc\t\xff0.0,1.5\n"},
        "{d}/features.tsv:3: not valid UTF-8"),
    "features-not-utf8-after-old-mac-lines": (
        {"features.tsv": b"a\t1.0,0.5\rb\t-0.25,2.0\r\nc\t0.0,1.5\r\xff\r"},
        "{d}/features.tsv:4: not valid UTF-8"),
    "bad-row-before-a-line-not-utf8": (
        {"features.tsv": b"a\t1.0,0.5\nzz\t1.0,2.0\nc\t0.0,1.5\xff\n"},
        "{d}/features.tsv:2: unknown node id 'zz'"),
    # past the first block that text mode decodes
    "edges-not-utf8-past-a-decoded-block": (
        {"edges_cites.tsv": b"a\tb\t0.75\n" * 3000 + b"b\tc\t-1.5\xc3\n"},
        "{d}/edges_cites.tsv:3001: not valid UTF-8"),
    "labels-not-utf8": ({"labels.tsv": b"a\t0\n\xfe\t1\n"}, "{d}/labels.tsv:2: not valid UTF-8"),
    "metapaths-not-utf8": (
        {"metapaths.txt": b"cites,cites\n\ncites,\xffcites\n"},
        "{d}/metapaths.txt:3: not valid UTF-8"),
    "splits-not-utf8": (
        {"splits.tsv": b"a\ttrain\nb\tval\xed\xa0\x80\n"}, "{d}/splits.tsv:2: not valid UTF-8"),
}


def edited_toy(directory, files):
    """The toy dataset in ``directory`` with ``files`` (name to new text or
    bytes, None to delete the file, ``DIRECTORY`` to make it one) applied."""
    for f in TOY.iterdir():
        (directory / f.name).write_text(f.read_text())
    for name, text in files.items():
        if text is None:
            (directory / name).unlink()
        elif text is DIRECTORY:
            (directory / name).unlink()
            (directory / name).mkdir()
        else:
            (directory / name).write_bytes(text if isinstance(text, bytes) else text.encode())


class TestRelation:
    @pytest.mark.parametrize("src, dst", [
        ([0, 1, 2], [0, 1]),
        ([0, 1], [0, 1, 2]),
        ([[0, 1, 2]], [[0, 1, 2]]),
    ], ids=["shorter-dst", "longer-dst", "two-dimensional"])
    def test_edge_ids_not_one_list_rejected(self, src, dst):
        # before the check, the first TargetCsr on such a relation raised IndexError
        with pytest.raises(GraphSchemaError, match="not one list of edges"):
            G.Relation("r", src, dst, np.zeros((3, 1)), "u", "u")

    def test_equal_lengths_build(self):
        rel = G.Relation("r", [0, 1, 2], [2, 0, 1], np.zeros((3, 1)), "u", "u")
        assert len(rel) == 3 and rel.edge_dim == 1


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

    def test_directory_holding_nul_is_missing(self, tmp_path):
        """``open`` raises ValueError for such a path; it names no file."""
        directory = tmp_path / "a\x00b"
        message = f"{directory}/nodes.tsv: missing file"
        assert load_outcome(G.load_dataset, directory) == message
        assert load_outcome(load_dataset_by_rows, directory) == message

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
        wrong: the first bad row of the first bad file, by ``path:line``;
        the row-by-row loader raises the same."""
        edited_toy(tmp_path, files)
        with pytest.raises(ParseError) as err:
            G.load_dataset(tmp_path)
        assert str(err.value) == message.format(d=tmp_path)
        assert load_outcome(load_dataset_by_rows, tmp_path) == str(err.value)

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


    @pytest.mark.parametrize("order", ["node", "reversed", "repeated"])
    def test_feature_table_in_node_order_is_kept(self, tmp_path, monkeypatch, order):
        """A features.tsv whose rows are in node order, each node once, as
        save_dataset writes it, gives the parsed table itself as the
        feature matrix; any other order gives a gathered copy of the same
        values, the last of a node's rows winning."""
        bundle = small_synthetic(seed=3)
        G.save_dataset(bundle, tmp_path)
        (tmp_path / G.IMAGE).unlink()   # the text parse, not the array image
        path = tmp_path / "features.tsv"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        if order == "reversed":
            path.write_text("".join(lines[::-1]), encoding="utf-8")
        elif order == "repeated":
            path.write_text("0\t9.5" + ",9.5" * (bundle.graph.feature_dim - 1) + "\n"
                            + "".join(lines), encoding="utf-8")
        parsed = []
        float_table = G._float_table

        def recorded(*args):
            parsed.append(float_table(*args))
            return parsed[-1]

        monkeypatch.setattr(G, "_float_table", recorded)
        back = G.load_dataset(tmp_path)
        assert_same_array(back.graph.features, bundle.graph.features)
        assert (back.graph.features is parsed[0][1]) == (order == "node")


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

# Hand-written directories (file name to text)
HAND_WRITTEN = {
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
    # rejected by both loaders
    "empty": {"nodes.tsv": "", "features.tsv": "", "labels.tsv": "",
              "splits.tsv": "", "metapaths.txt": ""},
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
    # tokens float() reads and numpy does not: refused by both loaders
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
        want = load_dataset_by_rows(tmp_path)
        assert_same_bundle(G.load_dataset(tmp_path), want)
        (tmp_path / G.IMAGE).unlink()   # and the text parse
        assert_same_bundle(G.load_dataset(tmp_path), want)
        assert [str(w.message) for w in recwarn] == []

    @pytest.mark.parametrize("name", sorted(HAND_WRITTEN))
    def test_hand_written(self, tmp_path, recwarn, name):
        write_dataset(tmp_path, HAND_WRITTEN[name])
        assert_same_outcome(load_outcome(G.load_dataset, tmp_path),
                            load_outcome(load_dataset_by_rows, tmp_path))
        assert [str(w.message) for w in recwarn] == []

    @pytest.mark.parametrize("chunk", [1, 3])
    @pytest.mark.parametrize("name", sorted(HAND_WRITTEN) + [
        "synthetic", "late-unknown-id", "late-unknown-id-without-edge-features"])
    def test_ids_looked_up_a_chunk_at_a_time(self, tmp_path, monkeypatch, chunk, name):
        """The streamed parse looks ids up every ``LOOKUP_CHUNK`` ids; any
        chunk gives the row reader's bundle, and an unknown id past the
        first chunk gives its error."""
        edges = {"late-unknown-id": "a\tb\t1\nb\tc\t2\nc\td\t3\nd\tzz\t4\n",
                 "late-unknown-id-without-edge-features": "a\tb\nb\tc\nc\td\nd\tzz\n"}
        if name == "synthetic":
            G.save_dataset(small_synthetic(seed=3), tmp_path)
            (tmp_path / G.IMAGE).unlink()   # the text parse, not the array image
        elif name in edges:
            write_dataset(tmp_path, {**FOUR_NODES, "features.tsv": "a\t1\nb\t2\nc\t3\nd\t4\n",
                                     "edges_cites.tsv": edges[name]})
        else:
            write_dataset(tmp_path, HAND_WRITTEN[name])
        want = load_outcome(load_dataset_by_rows, tmp_path)
        assert isinstance(want, str) or name not in edges
        monkeypatch.setattr(G, "LOOKUP_CHUNK", chunk)
        assert_same_outcome(load_outcome(G.load_dataset, tmp_path), want)


def listing(directory):
    """Each entry of ``directory``: its name, size and modification time."""
    return sorted((p.name, p.stat().st_size, p.stat().st_mtime_ns)
                  for p in Path(directory).iterdir())


def text_parses(monkeypatch):
    """The directories load_dataset parses as text from now on."""
    parsed, load_text = [], G._load_text

    def recorded(directory):
        parsed.append(directory)
        return load_text(directory)

    monkeypatch.setattr(G, "_load_text", recorded)
    return parsed


def one_digit_changed(path, to=None):
    """``path`` with the first digit 1-8 of its first row's floats raised
    by one, or replaced by ``to``."""
    text = path.read_bytes()
    at = next(i for i in range(text.index(b"\t"), len(text)) if text[i] in b"12345678")
    path.write_bytes(text[:at] + (to or bytes([text[at] + 1])) + text[at + 1:])


def damaged_image(kind, path):
    """Rewrite the image at ``path`` as ``kind`` says."""
    arrays = read_arrays(path)
    if kind == "truncated":
        path.write_bytes(path.read_bytes()[:path.stat().st_size // 2])
    elif kind == "empty":
        path.write_bytes(b"")
    elif kind == "lone-array":
        with open(path, "wb") as fh:
            np.save(fh, arrays["features"])
    elif kind == "pickled":
        with open(path, "wb") as fh:
            np.savez(fh, **arrays, extra=np.array([None], dtype=object))
    elif kind == "other-digest":
        with open(path, "wb") as fh:
            np.savez(fh, **{**arrays, "digest": np.str_("0" * 64)})
    elif kind == "a-directory":
        path.unlink()
        path.mkdir()


class TestImage:
    """save_dataset writes an array image of what its text parses to, and
    load_dataset reads it only while the text is as it was written."""

    def saved(self, directory):
        """Save a synthetic bundle in ``directory``; its text parse."""
        G.save_dataset(small_synthetic(seed=3), directory)
        return G._load_text(Path(directory))

    def test_saved_directory_loads_from_image(self, tmp_path, monkeypatch):
        want = self.saved(tmp_path)
        parsed = text_parses(monkeypatch)
        assert_same_bundle(G.load_dataset(tmp_path), want)
        assert parsed == []

    @pytest.mark.parametrize("edit", ["one-digit", "new-edge-file"])
    def test_valid_edit_gives_the_fresh_text_parse(self, tmp_path, monkeypatch, edit):
        old = self.saved(tmp_path)
        if edit == "one-digit":
            one_digit_changed(tmp_path / "features.tsv")
        else:
            (tmp_path / "edges_zz.tsv").write_text("")
        parsed = text_parses(monkeypatch)
        got = G.load_dataset(tmp_path)
        assert parsed == [tmp_path]
        (tmp_path / G.IMAGE).unlink()
        assert_same_bundle(got, G.load_dataset(tmp_path))
        if edit == "one-digit":
            assert got.graph.features[0].tolist() != old.graph.features[0].tolist()
        else:
            assert list(got.graph.relations) == [*old.graph.relations, "zz"]

    def test_invalid_edit_raises_the_text_error(self, tmp_path):
        self.saved(tmp_path)
        one_digit_changed(tmp_path / "features.tsv", to=b"x")
        with pytest.raises(ParseError) as with_image:
            G.load_dataset(tmp_path)
        assert str(with_image.value).startswith(f"{tmp_path}/features.tsv:1: {BAD_FLOAT}")
        (tmp_path / G.IMAGE).unlink()
        assert load_outcome(G.load_dataset, tmp_path) == str(with_image.value)

    @pytest.mark.parametrize("kind", ["truncated", "empty", "lone-array", "pickled",
                                      "other-digest", "a-directory"])
    def test_image_that_does_not_read_falls_back_to_text(self, tmp_path, monkeypatch, kind):
        want = self.saved(tmp_path)
        damaged_image(kind, tmp_path / G.IMAGE)
        parsed = text_parses(monkeypatch)
        assert_same_bundle(G.load_dataset(tmp_path), want)
        assert parsed == [tmp_path]

    def test_image_without_its_text_is_a_missing_file(self, tmp_path):
        self.saved(tmp_path)
        for path in tmp_path.iterdir():
            if path.name != G.IMAGE:
                path.unlink()
        assert load_outcome(G.load_dataset, tmp_path) == f"{tmp_path}/nodes.tsv: missing file"

    def test_relation_without_edges_round_trips(self, tmp_path, monkeypatch):
        (tmp_path / "text").mkdir()
        write_dataset(tmp_path / "text", HAND_WRITTEN["no-edge-features"])
        want = G.load_dataset(tmp_path / "text")
        more = want.graph.relations["more"]
        assert (len(more), more.src_type, more.dst_type) == (0, None, None)
        G.save_dataset(want, tmp_path / "saved")
        parsed = text_parses(monkeypatch)
        assert_same_bundle(G.load_dataset(tmp_path / "saved"), want)
        assert parsed == []

    def test_type_ending_in_nul_is_kept_by_the_text_alone(self, tmp_path):
        """numpy's string arrays drop trailing NULs, so an image could not
        give such a relation end type back."""
        bundle = small_synthetic(seed=3)
        bundle.graph.node_types = np.array([t + "\0" for t in bundle.graph.node_types],
                                           dtype=object)
        G.save_dataset(bundle, tmp_path)
        assert not (tmp_path / G.IMAGE).exists()
        assert G.load_dataset(tmp_path).graph.relations["uv"].src_type == "u\0"

    @pytest.mark.parametrize("saved", [False, True], ids=["text-only", "saved"])
    def test_load_writes_nothing(self, tmp_path, saved):
        directory = tmp_path if saved else TOY
        if saved:
            self.saved(tmp_path)
        before = listing(directory)
        G.load_dataset(directory)
        assert listing(directory) == before


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


@st.composite
def small_specs(draw):
    """A small synthetic spec, or a rejected draw where SyntheticSpec refuses
    it.  Type names may hold tabs, line ends, commas and non-ASCII letters;
    a relation may join two types and still be symmetric, and may get a
    single edge (avg_degree 0.1 of 6 to 9 nodes) or, with 5, none, which
    SyntheticSpec refuses; the first relation has no edge features, so its
    edge file is read row by row."""
    types = draw(st.lists(st.text("ab,é中\t\n\r", min_size=1, max_size=2),
                          min_size=1, max_size=2, unique=True))
    names = draw(st.lists(st.text("rsé中", min_size=1, max_size=2),
                          min_size=1, max_size=3, unique=True))
    relations = [G.RelationSpec(name, draw(st.sampled_from(types)),
                                draw(st.sampled_from(types)),
                                edge_dim=0 if k == 0 else draw(st.integers(0, 2)),
                                avg_degree=draw(st.sampled_from([0.1, 1.0, 2.5])),
                                symmetric=draw(st.booleans()))
                 for k, name in enumerate(names)]
    chains = st.lists(st.sampled_from(names), min_size=1, max_size=3).map(tuple)
    try:
        return G.SyntheticSpec(
            {t: draw(st.integers(5, 9)) for t in types}, relations,
            feature_dim=draw(st.integers(1, 3)), num_classes=draw(st.integers(1, 3)),
            metapaths=draw(st.none() | st.lists(chains, max_size=2)))
    except ConfigError:
        reject()


class TestSyntheticRoundTrip:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(spec=small_specs(), seed=st.integers(0, 3))
    def test_saved_and_loaded_as_generated(self, spec, seed):
        """Every spec SyntheticSpec accepts round-trips through save_dataset
        and load_dataset, from the array image and from the text alike."""
        want = G.generate_synthetic(spec, seed)
        with tempfile.TemporaryDirectory() as directory:
            G.save_dataset(want, directory)
            got = G.load_dataset(directory)
            (Path(directory) / G.IMAGE).unlink()
            assert_same_bundle(got, G.load_dataset(directory))
        g, w = got.graph, want.graph
        assert np.array_equal(g.node_types, w.node_types)
        assert np.array_equal(g.features, w.features)
        assert np.array_equal(g.labels, w.labels)
        assert sorted(g.relations) == sorted(w.relations)
        for name, rel in w.relations.items():
            mine = g.relations[name]
            assert np.array_equal(mine.src, rel.src) and np.array_equal(mine.dst, rel.dst)
            assert mine.feat.shape == rel.feat.shape
            assert mine.feat.tobytes() == rel.feat.tobytes()
        assert got.metapaths == want.metapaths
        for attr in ("train_ids", "val_ids", "test_ids"):
            assert np.array_equal(getattr(got, attr), getattr(want, attr))


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
    return G.ParticipantView(0, g, list(bundle.metapaths), True,
                             no_ids, no_ids, no_ids)


def middle(g, table):
    """The middle [e_1, x_1, ..., e_L] of metapath instance rows
    [x_target, e_1, x_1, ..., e_L, x_L]: the columns a metapath channel's
    ``rows`` builds, since HAT projects the two ends per node."""
    f = g.feature_dim
    return table[:, f:table.shape[1] - f]


class TestChannelRows:
    """A HAT channel's ``rows(eid)`` against the rows the loop oracle builds
    up front: a metapath channel builds their middle columns, and its
    targets' and endpoints' features are their two ends."""

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
                want = table[eid]
                assert got.shape == (len(eid), table.shape[1] - 2 * g.feature_dim), label
                assert np.array_equal(got, middle(g, want)), (mp.name, label)
                ends = np.concatenate([g.features[ch.tgt[eid]], g.features[ch.nbr[eid]]],
                                      axis=1)
                assert np.array_equal(ends, np.delete(want, np.arange(
                    g.feature_dim, table.shape[1] - g.feature_dim), axis=1)), (mp.name, label)
        if fixture == "synthetic-long":
            assert lengths == {1, 2, 3, 4}

    def test_empty_channels_have_no_rows(self):
        # "vu" has no edges, so no instance of "uv,vu" exists; "uv" has no
        # edge features.  SyntheticSpec refuses a relation that gets no
        # edges, so "vu" is emptied after generation, as a participant's
        # share of a relation may be.
        bundle = small_synthetic(seed=16, relations=[
            G.RelationSpec("uu", "u", "u", edge_dim=2, avg_degree=2.0),
            G.RelationSpec("uv", "u", "v", edge_dim=0, avg_degree=2.0),
            G.RelationSpec("vu", "v", "u", edge_dim=1, avg_degree=1.0),
        ], metapaths=[("uv", "vu"), ("uu", "uv")])
        g = bundle.graph
        g.relations["vu"] = G.Relation("vu", [], [], np.zeros((0, 1)), "v", "u")
        none, zero_width = bundle.metapaths
        channels = {ch.name: ch for ch in M._build_channels(own_view(bundle))}
        empty = np.zeros(0, dtype=np.int64)
        path = channels["path:uv+vu"]
        assert len(path.tgt) == 0
        assert path.rows(empty).shape == (0, G.metapath_feature_dim(g, none)
                                          - 2 * g.feature_dim)
        assert path.edge_dim == loop_metapath_edges(g, none)[3].shape[1]
        # a hop over a relation without edge features adds no columns
        path = channels["path:uu+uv"]
        table = loop_metapath_edges(g, zero_width)[3]
        assert len(table) and table.shape[1] == 3 * g.feature_dim + 2
        every = np.arange(len(table))[::-1]
        assert np.array_equal(path.rows(every), middle(g, table[every]))
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
        # party A gets floor(6 * 0.1) = 0 columns; use a wider matrix too
        for dim, widths in ((6, [0, 6]), (15, [1, 14])):
            bundle = small_synthetic(seed=22, relations=[
                G.RelationSpec("uu", "u", "u", edge_dim=0, avg_degree=5.0),
            ], node_counts={"u": 20, "v": 1}, feature_dim=dim)
            spec = G.PartitionSpec.from_ratio([1, 9], dim, ["uu"])
            views = G.vertical_partition(bundle, spec, seed=1)
            assert [v.graph.feature_dim for v in views] == widths
            assert [len(v.graph.relations["uu"]) for v in views] == [10, 90]

    def test_uneven_cuts_of_columns_and_edges(self):
        # of 10 columns and 101 edges at 2:3:5, the first two round down
        # (2, 3 columns; 20, 30 edges) and the last takes the rest
        bundle = small_synthetic(seed=22, relations=[
            G.RelationSpec("uu", "u", "u", edge_dim=1, avg_degree=5.05),
            G.RelationSpec("uv", "u", "v", edge_dim=0, avg_degree=0.35),
        ], node_counts={"u": 20, "v": 1}, feature_dim=10)
        g = bundle.graph
        assert (len(g.relations["uu"]), len(g.relations["uv"])) == (101, 7)
        spec = G.PartitionSpec.from_ratio([2, 3, 5], 10, g.relation_names(),
                                          label_holder=2)
        views = G.vertical_partition(bundle, spec, seed=3)
        assert [v.graph.feature_dim for v in views] == [2, 3, 5]
        assert np.array_equal(np.concatenate([v.graph.features for v in views], axis=1),
                              g.features)
        assert [len(v.graph.relations["uu"]) for v in views] == [20, 30, 51]
        assert [len(v.graph.relations["uv"]) for v in views] == [1, 2, 4]
        assert [v.has_labels for v in views] == [False, False, True]

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

    @pytest.mark.parametrize("holder", [0, 1, 2])
    def test_split_lists_only_at_holder(self, holder):
        # the labels define the splits, so a view without labels holds no
        # split id either: the lists would name the labeled nodes
        bundle = small_synthetic(seed=24)
        spec = G.PartitionSpec.from_ratio([3, 3, 4], bundle.graph.feature_dim,
                                          bundle.graph.relation_names(), label_holder=holder)
        views = G.vertical_partition(bundle, spec, seed=2)
        for v in views:
            for split in ("train", "val", "test"):
                ids, want = getattr(v, f"{split}_ids"), getattr(bundle, f"{split}_ids")
                assert ids.dtype == np.int64
                if v.participant == holder:
                    assert np.array_equal(ids, want) and ids is not want
                else:
                    assert ids.size == 0
            if v.participant != holder:
                assert not np.any(v.graph.labels >= 0)

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

    @pytest.mark.parametrize("names", [["uu", "uv"], ["uu", "uv", "vu", "zz"],
                                       ["uu", "uv", "zz"]],
                             ids=["missing", "extra", "renamed"])
    def test_relation_set_mismatch(self, names):
        bundle = small_synthetic(seed=26)
        assert bundle.graph.relation_names() == ["uu", "uv", "vu"]
        spec = G.PartitionSpec.from_ratio([5, 5], bundle.graph.feature_dim, names)
        with pytest.raises(ConfigError, match="relation"):
            G.vertical_partition(bundle, spec, seed=0)

"""Heterogeneous graph data model, loading, synthesis, and vertical partitioning.

Aggregation convention used throughout the package: an edge ``(u, v)`` lets
node ``u`` gather information from ``v``.  Metapath instances walk edges the
same way, so a path rooted at a target node follows ``src -> dst`` hops and
the path endpoint contributes to the target node's representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain
from pathlib import Path

import numpy as np

from .errors import (BOOL, TEXT, ConfigError, GraphSchemaError, ParseError, Rule,
                     Schema, SplitGnnError, canonical_int, checked, file_digest, integer,
                     list_of, number, open_text, optional, read_arrays, text_lines)
from .seeding import stable_rng


@dataclass
class Relation:
    """All edges of one relation type, with per-edge feature vectors."""

    name: str
    src: np.ndarray          # int64 [E]
    dst: np.ndarray          # int64 [E]
    feat: np.ndarray         # float64 [E, edge_dim]
    src_type: str | None = None
    dst_type: str | None = None

    def __post_init__(self):
        self.src = np.asarray(self.src, dtype=np.int64)
        self.dst = np.asarray(self.dst, dtype=np.int64)
        self.feat = np.asarray(self.feat, dtype=np.float64)
        if self.src.ndim != 1 or self.dst.shape != self.src.shape:
            raise GraphSchemaError(
                f"relation {self.name}: source ids of shape {self.src.shape} and "
                f"target ids of shape {self.dst.shape} are not one list of edges"
            )
        if self.feat.ndim != 2 or self.feat.shape[0] != len(self.src):
            raise GraphSchemaError(
                f"relation {self.name}: feature matrix shape {self.feat.shape} "
                f"does not match {len(self.src)} edges"
            )

    @property
    def edge_dim(self) -> int:
        return self.feat.shape[1]

    def __len__(self) -> int:
        return len(self.src)


class HetGraph:
    """Typed nodes, per-relation edge lists, node features, optional labels.

    Labels use -1 for "not held"; a participant view that is not the label
    holder carries an all -1 label array.
    """

    def __init__(self, node_types, features, relations, labels=None, num_classes=0):
        self.node_types = np.asarray(node_types)
        self.features = np.asarray(features, dtype=np.float64)
        self.relations: dict[str, Relation] = dict(relations)
        n = len(self.node_types)
        if labels is None:
            labels = np.full(n, -1, dtype=np.int64)
        self.labels = np.asarray(labels, dtype=np.int64)
        self.num_classes = int(num_classes)
        self.validate()

    @property
    def num_nodes(self) -> int:
        return len(self.node_types)

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def validate(self) -> None:
        n = self.num_nodes
        if self.features.shape[0] != n:
            raise GraphSchemaError(
                f"{self.features.shape[0]} feature rows for {n} nodes"
            )
        if self.labels.shape != (n,):
            raise GraphSchemaError("label array must have one entry per node")
        held = self.labels[self.labels >= 0]
        if held.size and self.num_classes and held.max() >= self.num_classes:
            raise GraphSchemaError(
                f"label {held.max()} out of range [0, {self.num_classes})"
            )
        for rel in self.relations.values():
            for arr, side in ((rel.src, "src"), (rel.dst, "dst")):
                if arr.size and (arr.min() < 0 or arr.max() >= n):
                    raise GraphSchemaError(
                        f"relation {rel.name}: {side} endpoint out of range"
                    )

    def relation_names(self) -> list[str]:
        return sorted(self.relations)


@dataclass(frozen=True)
class Metapath:
    """A schema-level sequence of relation names."""

    relations: tuple[str, ...]

    def __post_init__(self):
        if len(self.relations) < 1:
            raise GraphSchemaError("a metapath needs at least one relation")

    @property
    def name(self) -> str:
        return "+".join(self.relations)

    def check_against(self, graph: HetGraph) -> None:
        self.check_chain({name: (rel.src_type, rel.dst_type)
                          for name, rel in graph.relations.items()})

    def check_chain(self, ends: dict) -> None:
        """Raise GraphSchemaError unless every relation is a key of ``ends``,
        which maps a relation name to its (source type, destination type),
        and each starts at the type the one before it ends at.  A type is
        None where no edge tells it, and then matches any."""
        prev_dst = None
        for rname in self.relations:
            if rname not in ends:
                raise GraphSchemaError(f"metapath uses unknown relation {rname!r}")
            src_type, dst_type = ends[rname]
            if prev_dst is not None and src_type is not None and prev_dst != src_type:
                raise GraphSchemaError(
                    f"metapath {self.name}: {rname} starts at {src_type}, "
                    f"previous relation ends at {prev_dst}"
                )
            if dst_type is not None:
                prev_dst = dst_type


def metapath_feature_dim(graph: HetGraph, metapath: Metapath) -> int:
    length = len(metapath.relations)
    return (length + 1) * graph.feature_dim + sum(
        graph.relations[r].edge_dim for r in metapath.relations
    )


class TargetCsr:
    """An edge list sorted by target, stably, so each target's edges keep
    their order: the edges into any set of targets are a few index ranges,
    and summing them goes in the same order as over the whole list."""

    def __init__(self, tgt: np.ndarray, nbr: np.ndarray, num_nodes: int):
        self.eid = np.argsort(tgt, kind="stable")
        self.nbr = nbr[self.eid]
        self.indptr = np.zeros(num_nodes + 1, dtype=np.int64)
        np.cumsum(np.bincount(tgt, minlength=num_nodes), out=self.indptr[1:])

    def edges_into(self, targets: np.ndarray):
        """(index into ``targets``, neighbor id, edge id) of every edge into
        ``targets``, grouped by target in ``targets`` order; ``targets`` may
        repeat and need not be sorted."""
        starts = self.indptr[targets]
        counts = self.indptr[targets + 1] - starts
        seg = np.repeat(np.arange(len(targets)), counts)
        offsets = np.cumsum(counts) - counts
        pos = np.arange(int(counts.sum())) + np.repeat(starts - offsets, counts)
        return seg, self.nbr[pos], self.eid[pos]


def metapath_edges(graph: HetGraph, metapath: Metapath):
    """A metapath's instances as an extra relation channel, by index.

    Returns (targets, endpoints, hops): one entry per instance, oriented so
    the target gathers from the walk endpoint, and ``hops[k]``, the id of
    each instance's k-th edge in the metapath's k-th relation.  Instances
    are ordered by their first edge, then by each later edge, in edge-list
    order.  No feature row is built here: an instance's row,
    [x_target, e_1, x_1, ..., e_L, x_L], is read from the graph through
    its hop ids when a layer needs it.
    """
    metapath.check_against(graph)
    first = graph.relations[metapath.relations[0]]
    tgt, end, hops = first.src, first.dst, [np.arange(len(first))]
    for rname in metapath.relations[1:]:
        rel = graph.relations[rname]
        walk, end, eid = TargetCsr(rel.src, rel.dst, graph.num_nodes).edges_into(end)
        tgt = tgt[walk]
        hops = [h[walk] for h in hops] + [eid]
    return tgt, end, hops


# ---------------------------------------------------------------------------
# bundles and loading


@dataclass
class DatasetBundle:
    graph: HetGraph
    metapaths: list[Metapath]
    train_ids: np.ndarray
    val_ids: np.ndarray
    test_ids: np.ndarray

    def __post_init__(self):
        self.train_ids = np.asarray(self.train_ids, dtype=np.int64)
        self.val_ids = np.asarray(self.val_ids, dtype=np.int64)
        self.test_ids = np.asarray(self.test_ids, dtype=np.int64)
        allids = np.concatenate([self.train_ids, self.val_ids, self.test_ids])
        if len(np.unique(allids)) != len(allids):
            raise GraphSchemaError("train/val/test lists overlap")
        if allids.size and np.any(self.graph.labels[allids] < 0):
            raise GraphSchemaError("every split node must be labeled")
        for mp in self.metapaths:
            mp.check_against(self.graph)


def _read_rows(path: Path, n_fields: int, min_fields: int | None = None):
    low = min_fields if min_fields is not None else n_fields
    for lineno, line in text_lines(path):
        line = line.rstrip("\n")
        if not line.strip():
            continue
        fields = line.split("\t")
        if not low <= len(fields) <= n_fields:
            raise ParseError(
                f"{path}:{lineno}: expected {n_fields} tab-separated fields, "
                f"got {len(fields)}"
            )
        yield lineno, fields


def _floats(lines) -> np.ndarray:
    """The float64 matrix of comma-separated float lists, one a line: the
    one float grammar of a dataset's files, numpy's ``loadtxt`` tokens."""
    return np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)


def _reads_as_floats(text: str) -> bool:
    if not text:  # loadtxt skips an empty line
        return False
    try:
        _floats([text])
    except ValueError:
        return False
    return True


# the id fields a table file's stream holds as strings before it looks them up
LOOKUP_CHUNK = 1 << 14


def _float_table(path: Path, ids: dict[str, int], n_ids: int, min_fields: int,
                 noun: str):
    """The index column of each id field and the float64 matrix of a file
    of rows ``id <TAB> ... <TAB> float,float,...``, ``noun`` naming the
    floats in a wrong-count error.  A row without floats (an empty or blank
    list, or none where ``min_fields`` is ``n_ids``) makes every row so.

    One streaming pass: a generator hands each row's float list to one
    ``loadtxt`` call and looks its ids up every ``LOOKUP_CHUNK``, so no
    file's worth of id strings is held, and no line's UTF-8 is checked: a
    bad byte fails the id lookup or ``loadtxt``.  A file the pass refuses
    is read again only to raise its first bad row's error."""
    keys: list[str] = []
    index: list[np.ndarray] = []

    def look_up():
        index.append(np.fromiter(map(ids.__getitem__, keys), np.int64, len(keys)))
        keys.clear()

    def float_lists(lines):
        for line in lines:
            if line.isspace():
                continue
            fields = line.split("\t", n_ids + 1)
            if len(fields) == n_ids + 1:
                text = fields.pop()
            elif len(fields) == n_ids == min_fields:  # no float field
                fields[-1] = fields[-1].rstrip("\n")
                text = ""
            else:
                raise ValueError(f"a row of {len(fields)} fields")
            keys.extend(fields)
            if len(keys) >= LOOKUP_CHUNK:
                look_up()
            yield text

    try:
        with open_text(path) as fh:
            texts = float_lists(fh)
            first = next(texts, "")
            if first.strip():
                table = _floats(chain([first], texts))
            elif any(map(str.strip, texts)):
                raise ValueError("floats after a row without")
            look_up()
        flat = np.concatenate(index)
        index.clear()  # freed before the column copies, it leaves no heap holes
        if not first.strip():
            table = np.empty((len(flat) // n_ids, 0))
        if len(flat) != n_ids * len(table):  # loadtxt skips an empty line
            raise ValueError("a row without floats after a row with")
        return [flat[k::n_ids].copy() for k in range(n_ids)], table
    except (ValueError, KeyError):
        _raise_first_bad_row(path, ids, n_ids, min_fields, noun)
        raise


def _raise_first_bad_row(path: Path, ids: dict[str, int], n_ids: int,
                         min_fields: int, noun: str) -> None:
    """Raise the ``path:line`` ParseError of a table file's first bad row,
    checking each row's ids, then its floats, then their count; returns
    if every row is good."""
    width = None
    for lineno, fields in _read_rows(path, n_ids + 1, min_fields):
        for ext in fields[:n_ids]:
            if ext not in ids:
                raise ParseError(f"{path}:{lineno}: unknown node id {ext!r}")
        text = fields[n_ids].strip() if len(fields) > n_ids else ""
        tokens = text.split(",") if text else []
        if tokens and not _reads_as_floats(text):
            bad = next((tok for tok in tokens if not _reads_as_floats(tok)), text)
            raise ParseError(f"{path}:{lineno}: bad float list: could not convert "
                             f"string to float: {bad!r}")
        if width is None:
            width = len(tokens)
        elif len(tokens) != width:
            raise ParseError(f"{path}:{lineno}: expected {width} {noun}, got {len(tokens)}")


# the array image save_dataset writes beside a dataset's text files
IMAGE = "dataset.npz"


def load_dataset(directory) -> DatasetBundle:
    """Read a dataset directory of UTF-8, tab-separated text files.

    ``nodes.tsv``        ``id <TAB> type``, at least one row; nodes are
                         numbered in order of appearance, and the other
                         files name them by id
    ``features.tsv``     ``id <TAB> x,x,...``: a row per node, all of one
                         length; of a node's repeated rows the last wins
    ``edges_<r>.tsv``    ``src <TAB> dst [<TAB> e,e,...]``: relation ``r``,
                         edge features all of one length (none: two fields
                         or an empty third), every src of one node type and
                         every dst of one
    ``labels.tsv``       ``id <TAB> class``, a class index at least 0 and
                         below the node count, written as ``str`` writes
                         an int (``errors.canonical_int``): ASCII digits
                         with no leading zero, no sign and no padding; an
                         unlisted node is unlabeled
    ``metapaths.txt``    a comma-separated list of relation names a line,
                         each an edge file's, and each starting at the
                         node type the one before it ends at
    ``splits.tsv``       ``id <TAB> train|val|test``, each node at most
                         once, and only a labeled node

    Lines end in ``\\n``, ``\\r\\n`` or ``\\r``; blank lines are skipped but
    counted.  A feature is what numpy's ``loadtxt`` reads, the one float
    grammar of every table file: an optionally signed decimal or exponent
    form, ``inf``, ``infinity`` or ``nan`` in any case, in ASCII, with
    whitespace around it allowed.

    Every error is a ParseError that starts with the file's path, and, for a
    bad row, its line: ``path:line: message``; a line that is not valid
    UTF-8 is a bad row, and a file that cannot be opened is refused by
    path alone (``path: missing file``, ``path: Is a directory``).  The
    files are read in the order above (edge files by name) and each from
    its first line, so the error is that of the first bad row of the first
    bad file.

    The text is the one format of record; ``dataset.npz``, the array image
    ``save_dataset`` writes beside it, is a derived copy of what the text
    parses to.  The image is read only when the SHA-256 it holds is that of
    the text files as they are now (``errors.file_digest``: each file's
    name, length and bytes, in the order above), and then the bundle is
    built from its arrays through the same ``HetGraph``, ``Relation`` and
    ``DatasetBundle`` constructors and their checks.  A missing or
    unreadable text file, an edit to any of them, an added or removed edge
    file, or an image that is missing, does not read or holds another
    digest sends the load to the text parse, whose bundle or error is the same
    with or without an image.  A load never writes.
    """
    directory = Path(directory)
    digest = file_digest(_text_files(directory))
    image = read_arrays(directory / IMAGE) if digest is not None else None
    if image is not None and str(image.get("digest")) == digest:
        return _from_image(image)
    return _load_text(directory)


def _edge_files(directory: Path) -> list[Path]:
    return sorted(directory.glob("edges_*.tsv"))


def _text_files(directory: Path) -> list[Path]:
    """The files ``_load_text`` reads, in the order it reads them."""
    return [directory / "nodes.tsv", directory / "features.tsv", *_edge_files(directory),
            directory / "labels.tsv", directory / "metapaths.txt", directory / "splits.tsv"]


def _end_types(node_types: np.ndarray, src: np.ndarray, dst: np.ndarray) -> tuple:
    """A relation's (source type, destination type) as the parse sets them
    from its first edge, None for a relation without edges."""
    if not len(src):
        return None, None
    return str(node_types[src[0]]), str(node_types[dst[0]])


def _image_arrays(bundle: DatasetBundle, digest: str) -> dict[str, np.ndarray] | None:
    """The arrays of the image of a parsed ``bundle``; None when an array
    cannot hold its names: numpy's string arrays drop trailing NULs, so a
    relation whose end type ends in one is kept by the text alone."""
    g = bundle.graph
    rels = list(g.relations.values())
    if any((rel.src_type, rel.dst_type) != _end_types(g.node_types, rel.src, rel.dst)
           for rel in rels):
        return None
    arrays = {
        "digest": np.str_(digest), "node_types": g.node_types,
        "features": g.features, "labels": g.labels, "num_classes": np.int64(g.num_classes),
        "relations": np.array([rel.name for rel in rels], dtype=str),
        "metapaths": np.array([",".join(mp.relations) for mp in bundle.metapaths], dtype=str),
        "train": bundle.train_ids, "val": bundle.val_ids, "test": bundle.test_ids,
    }
    for k, rel in enumerate(rels):
        arrays.update({f"src_{k}": rel.src, f"dst_{k}": rel.dst, f"feat_{k}": rel.feat})
    return arrays


def _from_image(image: dict[str, np.ndarray]) -> DatasetBundle:
    """The bundle ``_image_arrays`` wrote ``image`` from."""
    node_types, relations = image["node_types"], {}
    for k, name in enumerate(image["relations"].tolist()):
        src, dst = image[f"src_{k}"], image[f"dst_{k}"]
        relations[name] = Relation(name, src, dst, image[f"feat_{k}"],
                                   *_end_types(node_types, src, dst))
    graph = HetGraph(node_types, image["features"], relations, image["labels"],
                     image["num_classes"])
    metapaths = [Metapath(tuple(line.split(","))) for line in image["metapaths"].tolist()]
    return DatasetBundle(graph, metapaths, image["train"], image["val"], image["test"])


def _load_text(directory: Path) -> DatasetBundle:
    """The bundle of a dataset directory's text files, as ``load_dataset``
    describes them.

    The features and edge files, nearly all of a dataset's bytes, are
    parsed as a stream: one ``np.loadtxt`` call per file reads the rows'
    float lists from a generator that splits off the id fields and looks up
    their node indexes a chunk at a time, so no whole file is held as a
    string or as id strings, and no value becomes a Python float.  A file
    without floats is streamed the same way, without the ``loadtxt`` call.
    A bad file is read a second time only to find its first bad row and
    raise that row's error.  The parsed feature table is the graph's
    feature matrix when its rows are already in node order, each node once,
    as ``save_dataset`` writes them; only other orders are gathered into a
    copy.
    """
    directory = Path(directory)
    ids: dict[str, int] = {}
    types: list[str] = []
    nodes_path = directory / "nodes.tsv"
    for lineno, (ext, ntype) in _read_rows(nodes_path, 2):
        if ext in ids:
            raise ParseError(f"{nodes_path}:{lineno}: duplicate node id {ext!r}")
        ids[ext] = len(types)
        types.append(ntype)
    if not types:
        raise ParseError(f"{nodes_path}: no nodes")
    node_types = np.asarray(types)

    def resolve(ext: str, path, lineno: int) -> int:
        idx = ids.get(ext)
        if idx is None:
            raise ParseError(f"{path}:{lineno}: unknown node id {ext!r}")
        return idx

    feat_path = directory / "features.tsv"
    (index,), table = _float_table(feat_path, ids, 1, 2, "features")
    last = np.full(len(types), -1, dtype=np.int64)
    np.maximum.at(last, index, np.arange(len(index)))
    if np.any(last < 0):
        raise ParseError(f"{feat_path}: no feature row for node index "
                         f"{np.argmax(last < 0)}")
    # a table in node order, as save_dataset writes it, needs no gathered copy
    features = table if np.array_equal(last, np.arange(len(types))) else table[last]

    relations: dict[str, Relation] = {}
    for path in _edge_files(directory):
        rname = path.stem[len("edges_"):]
        if not RELATION_NAME.ok(rname):
            raise ParseError(f"{path}: relation name {rname!r} is not {RELATION_NAME.want}")
        (src, dst), feat = _float_table(path, ids, 2, 2, "edge features")
        mixed = (node_types[src] != node_types[src[:1]]) \
            | (node_types[dst] != node_types[dst[:1]])
        if mixed.any():
            raise ParseError(f"{path}: edge {np.argmax(mixed)} mixes node types "
                             f"within one relation")
        src_t = types[src[0]] if len(src) else None
        dst_t = types[dst[0]] if len(dst) else None
        relations[rname] = Relation(rname, src, dst, feat, src_t, dst_t)

    labels = np.full(len(types), -1, dtype=np.int64)
    labels_path = directory / "labels.tsv"
    for lineno, (ext, lab) in _read_rows(labels_path, 2):
        label = canonical_int(lab)
        if label is None or label < 0:
            raise ParseError(f"{labels_path}:{lineno}: bad class index {lab!r}")
        if label >= len(types):
            raise ParseError(f"{labels_path}:{lineno}: class index {label} is not below "
                             f"the node count {len(types)}")
        labels[resolve(ext, labels_path, lineno)] = label
    num_classes = int(labels.max()) + 1 if np.any(labels >= 0) else 0

    metapaths = []
    mp_path = directory / "metapaths.txt"
    ends = {name: (rel.src_type, rel.dst_type) for name, rel in relations.items()}
    for lineno, line in text_lines(mp_path):
        line = line.strip()
        if line:
            mp = Metapath(tuple(tok.strip() for tok in line.split(",")))
            try:
                mp.check_chain(ends)
            except GraphSchemaError as exc:
                raise ParseError(f"{mp_path}:{lineno}: {exc}") from None
            metapaths.append(mp)

    splits: dict[str, list[int]] = {"train": [], "val": [], "test": []}
    splits_path = directory / "splits.tsv"
    unplaced = (labels >= 0).tolist()   # labeled, and in no split yet
    for lineno, (ext, part) in _read_rows(splits_path, 2):
        if part not in splits:
            raise ParseError(f"{splits_path}:{lineno}: unknown split {part!r}")
        idx = resolve(ext, splits_path, lineno)
        if not unplaced[idx]:
            why = "is listed twice" if labels[idx] >= 0 else "has no label"
            raise ParseError(f"{splits_path}:{lineno}: node {ext!r} {why}")
        unplaced[idx] = False
        splits[part].append(idx)

    graph = HetGraph(node_types, features, relations, labels, num_classes)
    return DatasetBundle(graph, metapaths, splits["train"], splits["val"], splits["test"])


def save_dataset(bundle: DatasetBundle, directory) -> None:
    """Write a bundle in the directory format load_dataset reads, then its
    array image, ``dataset.npz``.

    The image holds what the text just written parses to and the text
    files' SHA-256; it is written to a temporary name and renamed into
    place.  Text that does not parse gets no image, so its every load
    raises the parse's error.  The image costs one more parse of the text
    (saving a 30,000-node graph took 7.6 s with it and 5.0 s without, on a
    2-CPU box), and each later load of the unchanged text reads arrays
    instead of parsing it.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    g = bundle.graph
    with open(directory / "nodes.tsv", "w", encoding="utf-8") as fh:
        for i, t in enumerate(g.node_types):
            fh.write(f"{i}\t{t}\n")
    with open(directory / "features.tsv", "w", encoding="utf-8") as fh:
        for i in range(g.num_nodes):
            fh.write(f"{i}\t{','.join(repr(float(x)) for x in g.features[i])}\n")
    for rname, rel in sorted(g.relations.items()):
        with open(directory / f"edges_{rname}.tsv", "w", encoding="utf-8") as fh:
            for e in range(len(rel)):
                feats = ",".join(repr(float(x)) for x in rel.feat[e])
                fh.write(f"{rel.src[e]}\t{rel.dst[e]}\t{feats}\n")
    with open(directory / "labels.tsv", "w", encoding="utf-8") as fh:
        for i, lab in enumerate(g.labels):
            if lab >= 0:
                fh.write(f"{i}\t{lab}\n")
    with open(directory / "metapaths.txt", "w", encoding="utf-8") as fh:
        for mp in bundle.metapaths:
            fh.write(",".join(mp.relations) + "\n")
    with open(directory / "splits.tsv", "w", encoding="utf-8") as fh:
        for name, idlist in (("train", bundle.train_ids), ("val", bundle.val_ids),
                             ("test", bundle.test_ids)):
            for i in idlist:
                fh.write(f"{i}\t{name}\n")
    digest = file_digest(_text_files(directory))
    try:
        parsed = _load_text(directory)
    except SplitGnnError:   # text the loader refuses keeps no image
        return
    arrays = _image_arrays(parsed, digest)
    if arrays is not None:
        part = directory / f"{IMAGE}.part"
        with open(part, "wb") as fh:
            np.savez(fh, **arrays)
        part.replace(directory / IMAGE)


# ---------------------------------------------------------------------------
# synthetic generation


# a spec that names no metapaths gets the first this many two-relation
# chains, in relation order
AUTO_METAPATHS = 2


def _check_utf8(field: str, name: str) -> None:
    """Refuse a name that ``save_dataset`` could not write: every dataset
    file is UTF-8, and a lone surrogate such as ``"\\ud800"`` does not
    encode."""
    try:
        name.encode("utf-8")
    except UnicodeEncodeError:
        raise ConfigError(f"{field}: {name!r} does not encode as UTF-8") from None


# a relation's name is part of its edge file's name and an entry of a
# metapaths.txt line, which is split on commas and stripped
RELATION_NAME = Rule("a non-empty string without ',', '/', NUL or whitespace",
                     lambda x: TEXT.ok(x) and not any(c in ",/\0" or c.isspace() for c in x))


@dataclass
class RelationSpec(Schema):
    name: str = checked(RELATION_NAME)
    src_type: str = checked(TEXT)
    dst_type: str = checked(TEXT)
    edge_dim: int = checked(integer(">= 0"), 0)
    avg_degree: float = checked(number(">= 0"), 4.0)
    symmetric: bool = checked(BOOL, False)

    def __post_init__(self):
        super().__post_init__()
        for field in ("name", "src_type", "dst_type"):
            _check_utf8(field, getattr(self, field))


@dataclass
class SyntheticSpec(Schema):
    """Parameters for the block-structured synthetic benchmark generator."""

    # a type name is a field of a nodes.tsv row
    node_counts: dict[str, int] = checked(Rule(
        "an object of integers >= 0, keyed by names without tab, CR or LF", lambda x: (
            type(x) is dict and all(type(t) is str and not set(t) & set("\t\r\n")
                                    and type(c) is int and c >= 0 for t, c in x.items()))))
    relations: list[RelationSpec] = checked(
        list_of(Rule("a relation spec", lambda r: type(r) is RelationSpec)))
    feature_dim: int = checked(integer(">= 1"), 32)
    num_classes: int = checked(integer(">= 1"), 3)
    homophily: float = checked(number(">= 0", "<= 1"), 0.8)
    feature_signal: float = checked(number(">= 0"), 0.4)
    edge_signal: float = checked(number(), 0.5)
    train_frac: float = checked(number(">= 0", "<= 1"), 0.6)
    val_frac: float = checked(number(">= 0", "<= 1"), 0.2)
    metapaths: list[tuple[str, ...]] | None = checked(optional(Rule(
        "a list of non-empty lists of relation names", lambda x: type(x) is list and all(
            type(m) in (list, tuple) and len(m) > 0 and all(map(TEXT.ok, m)) for m in x))),
        None)

    def __post_init__(self):
        super().__post_init__()
        for tname in self.node_counts:
            _check_utf8("node_counts", tname)
        ends = {}
        for rel in self.relations:
            if rel.name in ends:
                raise ConfigError(f"relations: duplicate relation name {rel.name!r}")
            ends[rel.name] = (rel.src_type, rel.dst_type)
            # a symmetric relation gets its reversed edges, which must keep
            # its declared source and destination types
            if rel.symmetric and rel.src_type != rel.dst_type:
                raise ConfigError(f"relations: symmetric relation {rel.name} joins two "
                                  f"node types, {rel.src_type!r} and {rel.dst_type!r}")
            for t in (rel.src_type, rel.dst_type):
                if self.node_counts.get(t, 0) <= 0:
                    raise ConfigError(f"relations: relation {rel.name} references "
                                      f"type {t!r} with no nodes")
            # an edge file without rows cannot tell the relation's edge width
            if self.edge_count(rel) == 0:
                raise ConfigError(
                    f"relations: relation {rel.name} gets no edges: round(avg_degree "
                    f"{rel.avg_degree!r} x {self.node_counts[rel.src_type]} "
                    f"{rel.src_type!r} nodes) is 0")
        for m in self.metapaths or ():
            try:
                Metapath(tuple(m)).check_chain(ends)
            except GraphSchemaError as exc:
                raise ConfigError(f"metapaths: {exc}") from None
        n = sum(self.node_counts.values())
        if self.num_classes > n:
            raise ConfigError(f"num_classes: must be <= {n}, the node count, "
                              f"got {self.num_classes}")
        for split, size in zip(("train", "val", "test"), self.split_sizes()):
            if size < 1:
                raise ConfigError(f"train_frac, val_frac: {self.train_frac!r} and "
                                  f"{self.val_frac!r} of {n} nodes leave the {split} "
                                  "split empty")

    def edge_count(self, rel: RelationSpec) -> int:
        """The edges generate_synthetic draws for ``rel``, before a
        symmetric relation's reversed copies."""
        return int(round(rel.avg_degree * self.node_counts[rel.src_type]))

    def split_sizes(self) -> tuple[int, int, int]:
        """The train, val and test node counts generate_synthetic cuts."""
        n = sum(self.node_counts.values())
        n_train, n_val = int(self.train_frac * n), int(self.val_frac * n)
        return n_train, n_val, n - n_train - n_val

    @classmethod
    def from_json(cls, payload) -> "SyntheticSpec":
        """The spec a JSON object describes, its relations given as objects."""
        rels = payload.get("relations") if type(payload) is dict else None
        if type(rels) is list:
            try:
                payload = {**payload, "relations": [RelationSpec.from_json(r) for r in rels]}
            except ConfigError as exc:
                raise ConfigError(f"relations: {exc}") from None
        return super().from_json(payload)


def generate_synthetic(spec: SyntheticSpec, seed: int) -> DatasetBundle:
    """Block-structured heterogeneous graph with class-conditional features.

    Same-class endpoints connect with probability ``homophily``; otherwise
    endpoints are drawn uniformly.  Everything is deterministic under seed.
    """
    rng = stable_rng(seed, "synthetic")
    types: list[str] = []
    for tname in sorted(spec.node_counts):
        types.extend([tname] * spec.node_counts[tname])
    n = len(types)
    types_arr = np.asarray(types)

    labels = rng.integers(0, spec.num_classes, size=n)
    centers = rng.normal(0.0, spec.feature_signal, size=(spec.num_classes, spec.feature_dim))
    features = centers[labels] + rng.standard_normal((n, spec.feature_dim))

    by_type = {t: np.flatnonzero(types_arr == t) for t in spec.node_counts}
    by_type_class = {
        (t, c): idx[labels[idx] == c]
        for t, idx in by_type.items()
        for c in range(spec.num_classes)
    }

    relations: dict[str, Relation] = {}
    for rel in spec.relations:
        src_pool = by_type[rel.src_type]
        dst_pool = by_type[rel.dst_type]
        n_edges = spec.edge_count(rel)
        src = src_pool[rng.integers(0, len(src_pool), size=n_edges)]
        dst = np.empty(n_edges, dtype=np.int64)
        coin = rng.random(n_edges)
        for i in range(n_edges):
            pool = dst_pool
            if coin[i] < spec.homophily:
                same = by_type_class[(rel.dst_type, int(labels[src[i]]))]
                if len(same):
                    pool = same
            v = pool[rng.integers(0, len(pool))]
            for _ in range(4):
                if v != src[i]:
                    break
                v = pool[rng.integers(0, len(pool))]
            dst[i] = v
        same_class = (labels[src] == labels[dst]).astype(np.float64)
        base = np.where(same_class > 0, spec.edge_signal, -spec.edge_signal)
        feat = base[:, None] + rng.standard_normal((n_edges, rel.edge_dim)) \
            if rel.edge_dim else np.zeros((n_edges, 0))
        if rel.symmetric:
            src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
            feat = np.concatenate([feat, feat], axis=0)
        relations[rel.name] = Relation(rel.name, src, dst, feat,
                                       rel.src_type, rel.dst_type)

    if spec.metapaths is not None:
        metapaths = [Metapath(tuple(m)) for m in spec.metapaths]
    else:
        metapaths = []
        for a in spec.relations:
            for b in spec.relations:
                if a.dst_type == b.src_type and len(metapaths) < AUTO_METAPATHS:
                    metapaths.append(Metapath((a.name, b.name)))

    n_train, n_val, _ = spec.split_sizes()
    splits = np.split(rng.permutation(n), [n_train, n_train + n_val])
    return DatasetBundle(HetGraph(types_arr, features, relations, labels, spec.num_classes),
                         metapaths, *map(np.sort, splits))


# ---------------------------------------------------------------------------
# vertical partitioning


@dataclass
class PartitionSpec:
    """A vertical partition, as :meth:`from_ratio` builds it: a ratio entry a
    participant, the label holder, and the feature width and relations it
    was built for.  One cut rule deals the feature columns and each
    relation's edges: of n items, participant i takes
    ``int(n * ratio[i] / sum(ratio))`` in order, and the last the rest."""

    ratio: tuple[float, ...]
    label_holder: int
    feature_dim: int
    relation_names: frozenset[str]

    @classmethod
    def from_ratio(cls, ratio, feature_dim: int, relation_names,
                   label_holder: int = 0) -> "PartitionSpec":
        """Cut ``feature_dim`` columns and each named relation's edges in
        ``ratio``, every participant but the last rounding down."""
        ratio = tuple(float(r) for r in ratio)
        if not ratio or any(r <= 0 for r in ratio):
            raise ConfigError(f"ratio entries must be positive, got {list(ratio)}")
        if not 0 <= label_holder < len(ratio):
            raise ConfigError(f"label holder {label_holder} out of range")
        return cls(ratio, label_holder, feature_dim, frozenset(relation_names))


def _cuts(n: int, ratio) -> list[tuple[int, int]]:
    """Each participant's half-open range of ``n`` items under the cut rule."""
    total = sum(ratio)
    ends = [0, *accumulate(int(n * r / total) for r in ratio[:-1]), n]
    return list(zip(ends, ends[1:]))


@dataclass
class ParticipantView:
    """One participant's private slice of a dataset bundle.

    Every participant holds every node id; a session aligns them with one
    metered PSI over every node.  Only the label holder's view holds labels
    and split lists.  Features, edges and labels are private.
    """

    participant: int
    graph: HetGraph
    metapaths: list[Metapath]
    has_labels: bool
    train_ids: np.ndarray
    val_ids: np.ndarray
    test_ids: np.ndarray


def vertical_partition(bundle: DatasetBundle, spec: PartitionSpec,
                       seed: int) -> list[ParticipantView]:
    """Split a bundle into per-participant views, each of every node id.
    The spec's one cut rule deals the feature columns in order and each
    relation's edges in a seeded shuffle; the labels and the split lists,
    which the labels define, stay with the label holder, and every other
    view's split lists are empty."""
    g = bundle.graph
    if (spec.feature_dim, spec.relation_names) != (g.feature_dim, frozenset(g.relations)):
        raise ConfigError(f"partition built for {spec.feature_dim} columns and relations "
                          f"{sorted(spec.relation_names)}, graph has {g.feature_dim} and "
                          f"{g.relation_names()}")
    rels = [{} for _ in spec.ratio]
    for rname, rel in g.relations.items():
        perm = stable_rng(seed, "edge-split", rname).permutation(len(rel))
        for own, (lo, hi) in zip(rels, _cuts(len(rel), spec.ratio)):
            keep = np.sort(perm[lo:hi])
            own[rname] = Relation(rname, rel.src[keep], rel.dst[keep], rel.feat[keep],
                                  rel.src_type, rel.dst_type)

    views = []
    for i, (lo, hi) in enumerate(_cuts(g.feature_dim, spec.ratio)):
        is_holder = i == spec.label_holder
        labels = g.labels.copy() if is_holder else None
        view_graph = HetGraph(g.node_types, g.features[:, lo:hi], rels[i],
                              labels, g.num_classes)
        train, val, test = (ids.copy() if is_holder else np.empty(0, dtype=np.int64)
                            for ids in (bundle.train_ids, bundle.val_ids, bundle.test_ids))
        views.append(ParticipantView(
            participant=i,
            graph=view_graph,
            metapaths=list(bundle.metapaths),
            has_labels=is_holder,
            train_ids=train,
            val_ids=val,
            test_ids=test,
        ))
    return views

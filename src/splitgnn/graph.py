"""Heterogeneous graph data model, loading, synthesis, and vertical partitioning.

Aggregation convention used throughout the package: an edge ``(u, v)`` lets
node ``u`` gather information from ``v``.  Metapath instances walk edges the
same way, so a path rooted at a target node follows ``src -> dst`` hops and
the path endpoint contributes to the target node's representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import (BOOL, TEXT, ConfigError, GraphSchemaError, ParseError, Rule,
                     Schema, checked, integer, list_of, number, optional)
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


def _parse_floats(text: str, path, lineno: int) -> list[float]:
    text = text.strip()
    if not text:
        return []
    try:
        return [float(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise ParseError(f"{path}:{lineno}: bad float list: {exc}") from None


def _read_rows(path: Path, n_fields: int, min_fields: int | None = None):
    if not path.exists():
        raise ParseError(f"{path}: missing file")
    low = min_fields if min_fields is not None else n_fields
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
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


def _read_table(path: Path, ids: dict[str, int], n_ids: int, min_fields: int,
                noun: str):
    """A table file read row by row, ``float()`` per value: the index column
    of each id field and the float64 matrix.  Raises the ``path:line``
    ParseError of the first bad row."""
    columns: list[list[int]] = [[] for _ in range(n_ids)]
    values, width = [], None
    for lineno, fields in _read_rows(path, n_ids + 1, min_fields):
        for column, ext in zip(columns, fields[:n_ids]):
            idx = ids.get(ext)
            if idx is None:
                raise ParseError(f"{path}:{lineno}: unknown node id {ext!r}")
            column.append(idx)
        row = _parse_floats(fields[n_ids], path, lineno) if len(fields) > n_ids else []
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ParseError(f"{path}:{lineno}: expected {width} {noun}, got {len(row)}")
        values.append(row)
    table = np.array(values, dtype=np.float64).reshape(len(values), width or 0)
    return [np.array(column, dtype=np.int64) for column in columns], table


def _stream_table(path: Path, n_ids: int):
    """A table file in one streaming pass: its id fields, flat in row order,
    and its float64 matrix from a single ``np.loadtxt`` call.

    Reads only regular files: every row has ``n_ids`` ids and a float list
    numpy parses.  Raises on anything else, a row without floats included."""
    keys: list[str] = []

    def float_lists(lines):
        for line in lines:
            if line.isspace():
                continue
            fields = line.split("\t", n_ids + 1)
            text = fields.pop()
            if len(fields) != n_ids:
                raise ValueError(f"a row of {len(fields) + 1} fields")
            keys.extend(fields)
            yield text

    with open(path, encoding="utf-8") as fh:
        first = next((line for line in fh if not line.isspace()), None)
        if first is None:
            return keys, np.zeros((0, 0))
        head = first.split("\t")
        if len(head) != n_ids + 1 or not head[-1].strip():
            raise ValueError("a row without floats")
        table = np.loadtxt(float_lists(chain([first], fh)), delimiter=",",
                           comments=None, ndmin=2)
        if len(keys) != n_ids * len(table):  # loadtxt skips an empty list
            raise ValueError("a row without floats")
        return keys, table


def _float_table(path: Path, ids: dict[str, int], n_ids: int, min_fields: int,
                 noun: str):
    """The index column of each id field and the float64 matrix of a file
    of rows ``id <TAB> ... <TAB> float,float,...``, ``noun`` naming the
    floats in a wrong-count error."""
    try:
        keys, table = _stream_table(path, n_ids)
        rows = len(keys) // n_ids
        return [np.fromiter(map(ids.__getitem__, keys[k::n_ids]), np.int64, rows)
                for k in range(n_ids)], table
    except Exception:
        # A missing file, a bad row, an unknown id, rows without floats, or a
        # token such as 1_0 that float() reads and numpy does not: the row
        # reader raises the first bad row's error or returns the values
        # float() gives.
        return _read_table(path, ids, n_ids, min_fields, noun)


def load_dataset(directory) -> DatasetBundle:
    """Parse a dataset directory of UTF-8, tab-separated text files.

    ``nodes.tsv``        ``id <TAB> type``, at least one row; nodes are
                         numbered in order of appearance, and the other
                         files name them by id
    ``features.tsv``     ``id <TAB> x,x,...``: a row per node, all of one
                         length; of a node's repeated rows the last wins
    ``edges_<r>.tsv``    ``src <TAB> dst [<TAB> e,e,...]``: relation ``r``,
                         edge features all of one length (none: two fields
                         or an empty third), every src of one node type and
                         every dst of one
    ``labels.tsv``       ``id <TAB> class``, a class index >= 0; an unlisted
                         node is unlabeled
    ``metapaths.txt``    a comma-separated list of relation names a line,
                         each an edge file's, and each starting at the
                         node type the one before it ends at
    ``splits.tsv``       ``id <TAB> train|val|test``

    Lines end in ``\\n``, ``\\r\\n`` or ``\\r``; blank lines are skipped but
    counted.  A feature is what Python's ``float()`` reads: an optionally
    signed decimal or exponent form, ``inf`` or ``nan``, with whitespace
    around it allowed, and also ``1_0`` or non-ASCII digits.

    Every error is a ParseError that starts with the file's path, and, for a
    bad row, its line: ``path:line: message``.  The files are read in the
    order above (edge files by name) and each from its first line, so the
    error is that of the first bad row of the first bad file.

    The features and edge files, nearly all of a dataset's bytes, are
    parsed as a stream: one ``np.loadtxt`` call per file reads the rows'
    float lists from a generator that splits off and keeps the id fields, so
    no whole file is held as a string and no value becomes a Python float.
    A file that pass cannot take as it stands, because of an error, rows
    without floats or a token numpy does not read such as ``1_0``, is read
    again row by row with ``float()``, which raises the first bad row's error
    or gives the same values.
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
    features = table[last]

    relations: dict[str, Relation] = {}
    for path in sorted(directory.glob("edges_*.tsv")):
        rname = path.stem[len("edges_"):]
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
        try:
            label = int(lab)
        except ValueError:
            label = -1
        if label < 0:
            raise ParseError(f"{labels_path}:{lineno}: bad class index {lab!r}")
        labels[resolve(ext, labels_path, lineno)] = label
    num_classes = int(labels.max()) + 1 if np.any(labels >= 0) else 0

    metapaths = []
    mp_path = directory / "metapaths.txt"
    if not mp_path.exists():
        raise ParseError(f"{mp_path}: missing file")
    ends = {name: (rel.src_type, rel.dst_type) for name, rel in relations.items()}
    with open(mp_path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
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
    for lineno, (ext, part) in _read_rows(splits_path, 2):
        if part not in splits:
            raise ParseError(f"{splits_path}:{lineno}: unknown split {part!r}")
        splits[part].append(resolve(ext, splits_path, lineno))

    graph = HetGraph(node_types, features, relations, labels, num_classes)
    return DatasetBundle(graph, metapaths, splits["train"], splits["val"], splits["test"])


def save_dataset(bundle: DatasetBundle, directory) -> None:
    """Write a bundle in the directory format load_dataset reads."""
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


# ---------------------------------------------------------------------------
# synthetic generation


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


@dataclass
class SyntheticSpec(Schema):
    """Parameters for the block-structured synthetic benchmark generator."""

    node_counts: dict[str, int] = checked(Rule("an object of integers >= 0", lambda x: (
        type(x) is dict and all(type(t) is str and type(c) is int and c >= 0
                                for t, c in x.items()))))
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
    max_auto_metapaths: int = checked(integer(">= 0"), 2)

    def __post_init__(self):
        super().__post_init__()
        ends = {}
        for rel in self.relations:
            if rel.name in ends:
                raise ConfigError(f"relations: duplicate relation name {rel.name!r}")
            ends[rel.name] = (rel.src_type, rel.dst_type)
            for t in (rel.src_type, rel.dst_type):
                if self.node_counts.get(t, 0) <= 0:
                    raise ConfigError(f"relations: relation {rel.name} references "
                                      f"type {t!r} with no nodes")
        for m in self.metapaths or ():
            try:
                Metapath(tuple(m)).check_chain(ends)
            except GraphSchemaError as exc:
                raise ConfigError(f"metapaths: {exc}") from None
        # the splits generate_synthetic cuts: each must hold a node
        n = sum(self.node_counts.values())
        n_train, n_val = int(self.train_frac * n), int(self.val_frac * n)
        for split, size in (("train", n_train), ("val", n_val), ("test", n - n_train - n_val)):
            if size < 1:
                raise ConfigError(f"train_frac, val_frac: {self.train_frac!r} and "
                                  f"{self.val_frac!r} of {n} nodes leave the {split} "
                                  "split empty")

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
        n_edges = int(round(rel.avg_degree * len(src_pool)))
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
                if a.dst_type == b.src_type and len(metapaths) < spec.max_auto_metapaths:
                    metapaths.append(Metapath((a.name, b.name)))

    perm = rng.permutation(n)
    n_train = int(spec.train_frac * n)
    n_val = int(spec.val_frac * n)
    bundle = DatasetBundle(
        HetGraph(types_arr, features, relations, labels, spec.num_classes),
        metapaths,
        np.sort(perm[:n_train]),
        np.sort(perm[n_train:n_train + n_val]),
        np.sort(perm[n_train + n_val:]),
    )
    return bundle


# ---------------------------------------------------------------------------
# vertical partitioning


@dataclass
class PartitionSpec:
    """How columns, edges and the label are divided among participants, as
    :meth:`from_ratio` builds it.

    ``feature_cols[i]`` is participant i's half-open column range and the
    ranges tile [0, feature_dim) in participant order.  ``edge_shares`` maps
    each relation to per-participant proportions of its edges.
    """

    participants: int
    feature_cols: list[tuple[int, int]]
    edge_shares: dict[str, list[float]]
    label_holder: int

    @classmethod
    def from_ratio(cls, ratio, feature_dim: int, relation_names,
                   label_holder: int = 0) -> "PartitionSpec":
        """Ratio governs both feature-column counts and per-relation edge
        counts; earlier participants round down, the last takes the rest."""
        ratio = [float(r) for r in ratio]
        if not ratio or any(r <= 0 for r in ratio):
            raise ConfigError(f"ratio entries must be positive, got {ratio}")
        if not 0 <= label_holder < len(ratio):
            raise ConfigError(f"label holder {label_holder} out of range")
        total = sum(ratio)
        cols, start = [], 0
        for i, r in enumerate(ratio):
            count = feature_dim - start if i == len(ratio) - 1 \
                else int(feature_dim * r / total)
            cols.append((start, start + count))
            start += count
        shares = {name: list(ratio) for name in relation_names}
        return cls(len(ratio), cols, shares, label_holder)


@dataclass
class ParticipantView:
    """One participant's private slice of a dataset bundle.

    Node ids and split lists are shared knowledge (alignment is handled by
    the privacy layer); features, edges and labels are private.
    """

    participant: int
    graph: HetGraph
    metapaths: list[Metapath]
    feature_cols: tuple[int, int]
    has_labels: bool
    train_ids: np.ndarray
    val_ids: np.ndarray
    test_ids: np.ndarray


def vertical_partition(bundle: DatasetBundle, spec: PartitionSpec,
                       seed: int) -> list[ParticipantView]:
    """Split a bundle into per-participant views.

    Every participant sees all node ids; feature columns follow the spec's
    ranges, shared-relation edges are dealt by a seeded shuffle in the
    spec's proportions, and labels stay with the label holder only.
    """
    g = bundle.graph
    if spec.feature_cols[-1][1] != g.feature_dim:
        raise ConfigError(
            f"partition covers {spec.feature_cols[-1][1]} columns, "
            f"graph has {g.feature_dim}"
        )
    for rname in spec.edge_shares:
        if rname not in g.relations:
            raise ConfigError(f"partition references unknown relation {rname!r}")
    for rname in g.relations:
        if rname not in spec.edge_shares:
            raise ConfigError(f"relation {rname!r} missing from partition spec")

    assignments: dict[str, list[np.ndarray]] = {}
    for rname, shares in spec.edge_shares.items():
        rel = g.relations[rname]
        perm = stable_rng(seed, "edge-split", rname).permutation(len(rel))
        total = sum(shares)
        counts, used = [], 0
        for i, s in enumerate(shares):
            c = len(rel) - used if i == len(shares) - 1 else int(len(rel) * s / total)
            counts.append(c)
            used += c
        pieces, off = [], 0
        for c in counts:
            pieces.append(np.sort(perm[off:off + c]))
            off += c
        assignments[rname] = pieces

    views = []
    for i in range(spec.participants):
        lo, hi = spec.feature_cols[i]
        rels = {}
        for rname, rel in g.relations.items():
            keep = assignments[rname][i]
            rels[rname] = Relation(rname, rel.src[keep], rel.dst[keep],
                                   rel.feat[keep], rel.src_type, rel.dst_type)
        is_holder = i == spec.label_holder
        labels = g.labels.copy() if is_holder else None
        view_graph = HetGraph(g.node_types, g.features[:, lo:hi], rels,
                              labels, g.num_classes)
        views.append(ParticipantView(
            participant=i,
            graph=view_graph,
            metapaths=list(bundle.metapaths),
            feature_cols=(lo, hi),
            has_labels=is_holder,
            train_ids=bundle.train_ids.copy(),
            val_ids=bundle.val_ids.copy(),
            test_ids=bundle.test_ids.copy(),
        ))
    return views

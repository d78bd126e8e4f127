"""The dataset-directory loader as it read files before the streaming parse:
one ``float()`` per token and one Python call per row.  Kept as the oracle
that ``graph.load_dataset`` must match, array for array and error for error.

It reads numbers by the loader's one grammar: ``float()`` of a token that
numpy's ``loadtxt`` also reads, and a class index as ``str`` writes an
int: ASCII digits with no leading zero."""

import re
from pathlib import Path

import numpy as np

from splitgnn.errors import GraphSchemaError, ParseError
from splitgnn.graph import RELATION_NAME, DatasetBundle, HetGraph, Metapath, Relation


def _parse_floats(text: str, path, lineno: int) -> list[float]:
    text = text.strip()
    if not text:
        return []
    try:
        return [_float(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise ParseError(f"{path}:{lineno}: bad float list: {exc}") from None


def _float(tok: str) -> float:
    """``float(tok)``, refusing what it reads and numpy refuses: an
    underscore or a non-ASCII character inside the whitespace around it."""
    core = tok.strip()
    if "_" in core or not core.isascii():
        raise ValueError(f"could not convert string to float: {tok!r}")
    return float(tok)


def _lines(path: Path):
    """Each line of ``path`` without its end (``\\n``, ``\\r\\n`` or ``\\r``),
    decoded one line at a time: no UTF-8 sequence holds a CR or LF byte.  A
    file that cannot be read is refused by its path alone."""
    try:
        data = path.read_bytes()
    except (FileNotFoundError, ValueError):  # a path holding NUL names no file
        raise ParseError(f"{path}: missing file") from None
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror}") from None
    for lineno, raw in enumerate(re.split(rb"\r\n|\r|\n", data), start=1):
        try:
            yield lineno, raw.decode("utf-8")
        except UnicodeDecodeError:
            raise ParseError(f"{path}:{lineno}: not valid UTF-8") from None


def _read_rows(path: Path, n_fields: int, min_fields: int | None = None):
    low = min_fields if min_fields is not None else n_fields
    for lineno, line in _lines(path):
        if not line.strip():
            continue
        fields = line.split("\t")
        if not low <= len(fields) <= n_fields:
            raise ParseError(
                f"{path}:{lineno}: expected {n_fields} tab-separated fields, "
                f"got {len(fields)}"
            )
        yield lineno, fields


def load_dataset_by_rows(directory) -> DatasetBundle:
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

    def resolve(ext: str, path, lineno: int) -> int:
        idx = ids.get(ext)
        if idx is None:
            raise ParseError(f"{path}:{lineno}: unknown node id {ext!r}")
        return idx

    feat_path = directory / "features.tsv"
    rows: dict[int, list[float]] = {}
    dim = None
    for lineno, (ext, vals) in _read_rows(feat_path, 2):
        idx = resolve(ext, feat_path, lineno)
        v = _parse_floats(vals, feat_path, lineno)
        if dim is None:
            dim = len(v)
        elif len(v) != dim:
            raise ParseError(
                f"{feat_path}:{lineno}: expected {dim} features, got {len(v)}"
            )
        rows[idx] = v
    if len(rows) != len(types):
        missing = sorted(set(range(len(types))) - set(rows))[0]
        raise ParseError(f"{feat_path}: no feature row for node index {missing}")
    features = np.array([rows[i] for i in range(len(types))])

    relations: dict[str, Relation] = {}
    for path in sorted(directory.glob("edges_*.tsv")):
        rname = path.stem[len("edges_"):]
        if not RELATION_NAME.ok(rname):
            raise ParseError(f"{path}: relation name {rname!r} is not {RELATION_NAME.want}")
        src, dst, feats = [], [], []
        edim = None
        for lineno, fields in _read_rows(path, 3, min_fields=2):
            u = resolve(fields[0], path, lineno)
            v = resolve(fields[1], path, lineno)
            ef = _parse_floats(fields[2], path, lineno) if len(fields) == 3 else []
            if edim is None:
                edim = len(ef)
            elif len(ef) != edim:
                raise ParseError(
                    f"{path}:{lineno}: expected {edim} edge features, got {len(ef)}"
                )
            src.append(u)
            dst.append(v)
            feats.append(ef)
        edim = edim or 0
        feat = np.array(feats, dtype=np.float64).reshape(len(src), edim)
        src_t = types[src[0]] if src else None
        dst_t = types[dst[0]] if dst else None
        for i, (u, v) in enumerate(zip(src, dst)):
            if types[u] != src_t or types[v] != dst_t:
                raise ParseError(f"{path}: edge {i} mixes node types within one relation")
        relations[rname] = Relation(rname, src, dst, feat, src_t, dst_t)

    labels = np.full(len(types), -1, dtype=np.int64)
    labels_path = directory / "labels.tsv"
    for lineno, (ext, lab) in _read_rows(labels_path, 2):
        # a class index is written as str() writes an int of at least 0
        try:
            label = int(lab) if re.fullmatch(r"0|[1-9][0-9]*", lab) else None
        except ValueError:  # more digits than str() writes
            label = None
        if label is None:
            raise ParseError(f"{labels_path}:{lineno}: bad class index {lab!r}")
        if label >= len(types):
            raise ParseError(f"{labels_path}:{lineno}: class index {label} is not below "
                             f"the node count {len(types)}")
        labels[resolve(ext, labels_path, lineno)] = label
    num_classes = int(labels.max()) + 1 if np.any(labels >= 0) else 0

    metapaths = []
    mp_path = directory / "metapaths.txt"
    ends = {name: (rel.src_type, rel.dst_type) for name, rel in relations.items()}
    for lineno, line in _lines(mp_path):
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
    placed = set()
    for lineno, (ext, part) in _read_rows(splits_path, 2):
        if part not in splits:
            raise ParseError(f"{splits_path}:{lineno}: unknown split {part!r}")
        idx = resolve(ext, splits_path, lineno)
        if idx in placed:
            raise ParseError(f"{splits_path}:{lineno}: node {ext!r} is listed twice")
        if labels[idx] < 0:
            raise ParseError(f"{splits_path}:{lineno}: node {ext!r} has no label")
        placed.add(idx)
        splits[part].append(idx)

    graph = HetGraph(types, features, relations, labels, num_classes)
    return DatasetBundle(graph, metapaths, splits["train"], splits["val"], splits["test"])

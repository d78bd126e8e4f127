"""Shared fixtures and oracles: small deterministic synthetic graphs and
partitions, every field of the derived encoder and session configs (HAT
has one fusion and sums its heads, so an encoder config names neither), a
small-modulus Paillier key, the metapath instance oracle, the row-wise dot
product and the column reshape of the attention oracles, the column
concatenation of the per-edge fusion oracle, the row scatter of the
whole-graph HAT oracle, a recorder of the attention coefficients α and β
that encoders compute but do not keep, a finite-difference gradient check,
a metrics.csv reader and an in-process import of ``perfbench/run.py``."""

import importlib.util
import os
import random
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from splitgnn import crypto as C
from splitgnn import graph as G
from splitgnn import models as M
from splitgnn import tensor as T
from splitgnn.errors import ContractError, ShapeError
from splitgnn.protocol import SessionConfig


def make_bundle(seed=0, n_u=24, n_v=16, feature_dim=6, num_classes=2,
                homophily=0.8, edge_dim=2, avg_degree=2.5):
    spec = G.SyntheticSpec(
        node_counts={"u": n_u, "v": n_v},
        relations=[
            G.RelationSpec("uu", "u", "u", edge_dim=edge_dim,
                           avg_degree=avg_degree, symmetric=True),
            G.RelationSpec("uv", "u", "v", edge_dim=1, avg_degree=1.5),
            G.RelationSpec("vu", "v", "u", edge_dim=1, avg_degree=1.5),
        ],
        feature_dim=feature_dim,
        num_classes=num_classes,
        homophily=homophily,
    )
    return G.generate_synthetic(spec, seed=seed)


def make_views(bundle, ratio, seed=0, label_holder=0):
    spec = G.PartitionSpec.from_ratio(ratio, bundle.graph.feature_dim,
                                      bundle.graph.relation_names(),
                                      label_holder=label_holder)
    return G.vertical_partition(bundle, spec, seed=seed)


def single_view(bundle, seed=0):
    return make_views(bundle, [1.0], seed=seed)[0]


def encoder_config(**overrides):
    """Every field of an EncoderConfig, which has no defaults: a two-layer,
    two-head HAT of width 4 unless overridden."""
    kwargs = dict(kind="hat", layers=2, hidden=4, heads=2, dropout=0.0)
    kwargs.update(overrides)
    return M.EncoderConfig(**kwargs)


def session_config(**overrides):
    """Every field of a SessionConfig, which has no defaults."""
    kwargs = dict(encoder=encoder_config(), strategy="concat", batch_size=8, epochs=2,
                  learning_rate=0.05, optimizer="sgd", secure=False, seed=0,
                  key_bits=512, server_dropout=0.0, rounds_per_epoch=None)
    kwargs.update(overrides)
    return SessionConfig(**kwargs)


def small_key(seed=0) -> C.PaillierKeyPair:
    """A key on two 30-bit primes, so 2^58 <= n < 2^60: fixed-point values
    near 2^20 (encoded near 2^44) reach wrap bounds that real keys never do."""
    rng = random.Random(seed)
    p, q = C._gen_prime(30, rng), C._gen_prime(30, rng)
    assert p != q
    return C._assemble(p, q, rng)


def add_at_segment_sum(values, seg, n):
    """The ``np.add.at`` scatter the segment ops were first written with:
    the bit-level oracle for their bincount kernel."""
    values = np.asarray(values, dtype=np.float64)
    out = np.zeros((n,) + values.shape[1:])
    np.add.at(out, seg, values)
    return out


def rowwise_dot(tape, a, b, index=None):
    """Row i of the output is row i of ``a`` dotted with row i of ``b``; with
    ``index``, row ``index[i]`` of ``a`` is used, so ``a`` is a table that the
    op reads by index, and the tape keeps the table, not a gathered copy.  The
    gathered rows are built again in backward, and ``a``'s gradient is summed
    over ``index`` as ``T.gather_rows`` sums it.  Recorded on the tape: the
    op the attention oracles score their value rows with, whose scores
    ``T.segment_attention`` computes in its own forward."""
    a, b = T._as_tensor(a), T._as_tensor(b)
    if index is not None:
        index = np.asarray(index, dtype=np.int64)
    rows = a.values if index is None else a.values[index]
    if rows.shape != b.shape or a.ndim != 2:
        raise ShapeError(f"rowwise_dot expects equal 2-D shapes, got {rows.shape}, {b.shape}")
    out = T.Tensor(np.einsum("ij,ij->i", rows, b.values))
    av, bv = T._kept_operands(a, b)
    if index is None:
        return T._emit(tape, out, (a, b), lambda g: (
            None if bv is None else g[:, None] * bv,
            None if av is None else g[:, None] * av,
        ))
    n = a.shape[0]
    return T._emit(tape, out, (a, b), lambda g: (
        None if bv is None else T._segment_add(g[:, None] * bv, index, n),
        None if av is None else g[:, None] * av[index],
    ))


def reshape_col(tape, v):
    """A 1-D tensor (n,) lifted to a column (n, 1), recorded on the tape:
    the op the attention oracles scale their value rows by α with, as the
    encoders did before ``T.segment_attention``."""
    v = T._as_tensor(v)
    return T._emit(tape, T.Tensor(v.values[:, None]), (v,), lambda g: (g[:, 0],))


def concat_cols(tape, parts):
    """The columns of ``parts`` side by side, recorded on the tape: the op
    the per-edge fusion oracle builds each edge's ``[h_src, latent]`` row
    with, as HAT did before it projected node rows per node.  A part that
    needs no gradient gets none."""
    parts = [T._as_tensor(p) for p in parts]
    out = T.Tensor(np.concatenate([p.values for p in parts], axis=1))
    offsets = np.cumsum([p.shape[1] for p in parts])[:-1]
    needs = [p.requires_grad for p in parts]

    def backfn(g):
        return tuple(np.ascontiguousarray(piece) if need else None
                     for need, piece in zip(needs, np.split(g, offsets, axis=1)))

    return T._emit(tape, out, tuple(parts), backfn)


def scatter_rows(tape, piece, idx, n_rows):
    """Rows of ``piece`` placed at positions ``idx`` of an ``n_rows`` output,
    the other rows zero, recorded on the tape: the op the whole-graph HAT
    oracle assembles its type transform with, one zero-filled block per node
    type summed, as the encoder did before it gathered the stacked rows.
    ``idx`` entries must be distinct."""
    piece = T._as_tensor(piece)
    idx = np.asarray(idx, dtype=np.int64)
    vals = np.zeros((n_rows,) + piece.shape[1:])
    vals[idx] = piece.values
    return T._emit(tape, T.Tensor(vals), (piece,), lambda g: (g[idx],))


class AttentionRecorder:
    """α and β of the encoder forwards that run while it is installed, read
    from the ops that compute them, since an encoder keeps neither.

    ``alpha[(layer, channel, head)]`` is ``(α, node ids)`` of the last
    forward: one head's coefficients over one ``models._attention_layer``
    call, and the node id of each coefficient's segment.  ``channel``
    indexes the encoder's edge indexes, so it is HAT's channel and GAT's 0.
    A layer's calls run its channels in order, and a call runs its target
    ranges in order and each range's heads in turn, so the i-th
    ``T.segment_softmax`` of a call with H heads is head i % H of range
    i // H.  Its segment s is the target at the running range offset plus
    s, and ``models._receptive_blocks`` gives the layer's targets.

    ``beta[l]`` is layer l's β: ``T.softmax``, whose one program caller is
    ``path_attention``, lists its outputs since the last forward began.
    ``segment_softmaxes`` lists every ``T.segment_softmax`` output since
    then, with its segment ids and count.

    Each forward's ``_receptive_blocks`` call starts new ``alpha``, ``beta``
    and ``segment_softmaxes`` objects, so ones read after a forward keep its
    values."""

    def __init__(self, monkeypatch):
        self.alpha, self.beta, self.segment_softmaxes = {}, [], []
        self._blocks, self._layer_calls = [], 0
        receptive_blocks, attention_layer = M._receptive_blocks, M._attention_layer
        segment_softmax, softmax = T.segment_softmax, T.softmax

        def blocks(*args, **kwargs):
            self._blocks = receptive_blocks(*args, **kwargs)
            self.alpha, self.beta, self.segment_softmaxes = {}, [], []
            self._layer_calls = 0
            return self._blocks

        def layer(tape, edge_seg, k, *rest):
            first = len(self.segment_softmaxes)
            out = attention_layer(tape, edge_seg, k, *rest)
            self._group(self.segment_softmaxes[first:], k)
            return out

        def segment(tape, scores, seg, n_segments, *rest):
            out = segment_softmax(tape, scores, seg, n_segments, *rest)
            self.segment_softmaxes.append((out.values, np.asarray(seg), n_segments))
            return out

        def path(tape, logits):
            out = softmax(tape, logits)
            self.beta.append(out.values)
            return out

        monkeypatch.setattr(M, "_receptive_blocks", blocks)
        monkeypatch.setattr(M, "_attention_layer", layer)
        monkeypatch.setattr(T, "segment_softmax", segment)
        monkeypatch.setattr(T, "softmax", path)

    def _group(self, softmaxes, k):
        channels = len(self._blocks[0].edges)
        layer, channel = divmod(self._layer_calls, channels)
        self._layer_calls += 1
        targets = self._blocks[layer].targets
        assert len(targets) == k
        heads = sum(n for *_, n in softmaxes) // k if k else len(softmaxes)
        parts = [[] for _ in range(heads)]
        offset = 0
        for i, (alpha, seg, n) in enumerate(softmaxes):
            parts[i % heads].append((alpha, targets[offset + seg]))
            if i % heads == heads - 1:
                offset += n
        for m, part in enumerate(parts):
            self.alpha[(layer, channel, m)] = tuple(map(np.concatenate, zip(*part)))


@pytest.fixture
def attention(monkeypatch):
    return AttentionRecorder(monkeypatch)


def loop_metapath_edges(graph, metapath):
    """metapath_edges as a per-hop Python loop over adjacency lists, with
    every instance's feature row [x_target, e_1, x_1, ..., e_L, x_L] built
    up front, as HAT's metapath channels once kept them: the oracle for the
    order of the instances and for the rows a channel builds from its hop
    ids.  Returns (targets, endpoints, hop edge ids, rows)."""
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
        return tgt, end, hops, np.zeros((0, G.metapath_feature_dim(graph, metapath)))
    pieces = [graph.features[tgt]]
    for k, rname in enumerate(metapath.relations):
        rel = graph.relations[rname]
        pieces.append(rel.feat[hops[k]])
        pieces.append(graph.features[rel.dst[hops[k]]])
    return tgt, end, hops, np.concatenate(pieces, axis=1)


def finite_diff_check(forward_fn, params, eps: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``forward_fn`` must be pure and deterministic and return ``(loss, tape)``
    freshly built on each call.  Analytic gradients come from one backward
    pass; each parameter element is then perturbed by +/- eps and the loss
    re-evaluated.
    """
    params = list(params)
    loss_a, tape = forward_fn()
    loss_b, _ = forward_fn()
    if loss_a.item() != loss_b.item():
        raise ContractError("forward_fn is not deterministic: two calls differ")
    for p in params:
        p.zero_grad()
    if loss_a.requires_grad:
        tape.backward(loss_a)
    analytic = [np.zeros_like(p.values) if p.grad is None else p.grad.copy() for p in params]

    worst = 0.0
    for p, ga in zip(params, analytic):
        flat = p.values.reshape(-1)
        gflat = ga.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = forward_fn()[0].item()
            flat[i] = orig - eps
            down = forward_fn()[0].item()
            flat[i] = orig
            fd = (up - down) / (2.0 * eps)
            rel = abs(gflat[i] - fd) / (abs(gflat[i]) + 1e-8)
            worst = max(worst, rel)
    return worst


def read_metrics(path) -> list[dict]:
    """metrics.csv rows as dicts of raw strings, keyed by column name."""
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


@pytest.fixture
def tiny_bundle():
    return make_bundle(seed=1)


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_run_module():
    """Import ``perfbench/run.py`` without keeping its changes to
    ``os.environ`` (BLAS thread caps) or ``sys.path``."""
    with mock.patch.dict(os.environ), \
            mock.patch.object(sys, "path", [str(PERFBENCH), *sys.path]):
        spec = importlib.util.spec_from_file_location("perfbench_run",
                                                      PERFBENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # its dataclasses look it up there
        spec.loader.exec_module(module)
    return module

"""Dense float64 tensors with reverse-mode differentiation on an explicit tape.

Operations take the recording :class:`Tape` as their first argument and
return new :class:`Tensor` objects.  Passing ``tape=None`` runs the forward
math without recording, which is how inference-mode code avoids autograd
overhead.  Gradients are accumulated into ``Tensor.grad`` on every leaf with
``requires_grad`` when :meth:`Tape.backward` runs.  A backward function
returns ``None`` for an input without ``requires_grad`` (a constant such as a
feature matrix), so no gradient is computed that nothing would read.

A tape keeps, per recorded op, only the arrays its backward formula reads.
It holds no op's output, and no input other than a leaf that gets a
gradient, so an intermediate tensor lives only as long as its caller holds
it.  What each op keeps:

- ``add``, ``concat_rows``, ``stack_scalars``, ``take`` and ``mean_all``:
  shapes, offsets and flags;
- ``mul`` and ``matmul``: an operand's values only when the other operand
  needs a gradient;
- ``rebuilt_matmul``: the callable that builds its constant left operand,
  not the operand, which backward builds again;
- ``segment_attention``: α, its anchor and segment indexes, the keys table
  when the values need a gradient, and the callable that builds the value
  rows again in backward, not the value rows;
- ``gather_rows`` and ``segment_sum``: their indices;
- ``segment_softmax``, ``softmax``, ``tanh`` and ``elu``: their output
  (``elu(x) > 0`` exactly where ``x > 0``, so the output gives the slope);
- ``dropout``: its mask; ``cross_entropy``: the logits, their log-sum-exp
  and the labels.

:meth:`Tape.backward` consumes the tape: it frees each op's record as it
reaches it, and a second call, or recording after it, raises
:class:`~splitgnn.errors.ContractError`.

The op set is small on purpose: matrix products, broadcast arithmetic,
segment (per-group) softmax, sums and attention for edge-list aggregation,
the usual activations, dropout and cross-entropy.  All values are float64
throughout.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import ContractError, DomainError, NumericError, ShapeError
from .seeding import stable_rng


class Tensor:
    """A dense float64 array plus an optional same-shape gradient buffer.

    ``origin`` is ``(tape serial, index)`` of the op that produced the
    tensor on a tape, or ``None``."""

    __slots__ = ("values", "grad", "requires_grad", "name", "origin")

    def __init__(self, values, requires_grad: bool = False, name: str | None = None):
        self.values = np.asarray(values, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.name = name
        self.origin: tuple[int, int] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def ndim(self) -> int:
        return self.values.ndim

    def item(self) -> float:
        if self.values.size != 1:
            raise ContractError(f"item() on non-scalar tensor of shape {self.shape}")
        return float(self.values.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        tag = self.name or "tensor"
        return f"<{tag} shape={self.shape} grad={'set' if self.grad is not None else 'none'}>"


class _Node:
    """One recorded op: ``out`` is its output's index on the tape; each entry
    of ``inputs`` is the index of the node that produced that input, the
    leaf :class:`Tensor` that receives its gradient, or ``None`` when
    nothing does."""

    __slots__ = ("out", "inputs", "backfn")

    def __init__(self, out, inputs, backfn):
        self.out = out
        self.inputs = inputs
        self.backfn = backfn


_tape_serials = itertools.count()


class Tape:
    """Append-only record of primitive applications, replayed in reverse.

    Creation order is topological by construction: an op's inputs always
    exist before its output, so walking ``_nodes`` backwards visits each
    node exactly once and yields deterministic, bit-reproducible gradients.
    A tensor produced on another tape is a leaf here.
    """

    def __init__(self):
        self._serial = next(_tape_serials)
        self._nodes: list[_Node] = []
        self._consumed = False

    def __len__(self) -> int:
        return len(self._nodes)

    def _source(self, t: Tensor):
        if t.origin is not None and t.origin[0] == self._serial:
            return t.origin[1]
        return t if t.requires_grad else None

    def record(self, out: Tensor, inputs: tuple[Tensor, ...], backfn) -> None:
        if self._consumed:
            raise ContractError("cannot record on a tape that backward has consumed")
        out.origin = (self._serial, len(self._nodes))
        self._nodes.append(_Node(out.origin[1], tuple(map(self._source, inputs)), backfn))

    def backward(self, loss: Tensor, seed_grad: np.ndarray | None = None) -> None:
        """Accumulate d(loss)/d(leaf) into ``leaf.grad`` for every leaf that
        requires grad, consuming the tape.  ``seed_grad`` overrides the
        default all-ones seed and is how a downstream party's gradient is
        injected at a cut tensor."""
        if self._consumed:
            raise ContractError("backward already ran on this tape")
        if loss.origin is None or loss.origin[0] != self._serial:
            raise ContractError("backward target was not produced by this tape")
        if seed_grad is None:
            if loss.values.size != 1:
                raise ContractError(
                    f"backward target must be scalar, got shape {loss.shape}"
                )
            seed = np.ones_like(loss.values)
        else:
            seed = np.asarray(seed_grad, dtype=np.float64)
            if seed.shape != loss.values.shape:
                raise ShapeError(
                    f"seed grad shape {seed.shape} != output shape {loss.values.shape}"
                )
        self._consumed = True
        # keyed by node index or by leaf (a Tensor hashes by identity); a
        # node's entry is popped when the walk reaches it, so only the
        # leaves' gradients, summed over the tape, are left at the end
        grads: dict = {loss.origin[1]: seed}
        nodes = self._nodes
        while nodes:
            node = nodes.pop()
            g = grads.pop(node.out, None)
            if g is None:
                continue
            for src, gin in zip(node.inputs, node.backfn(g)):
                if gin is not None and src is not None:
                    grads[src] = grads[src] + gin if src in grads else gin
        for leaf, g in grads.items():
            leaf.grad = g if leaf.grad is None else leaf.grad + g


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, (have, want) in enumerate(zip(g.shape, shape)):
        if want == 1 and have != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


def _emit(tape, out, inputs, backfn) -> Tensor:
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        tape.record(out, inputs, backfn)
    return out


def _kept_operands(a: Tensor, b: Tensor):
    """The values of a product's operands that its backward reads: each
    operand's only when the other one needs a gradient, else ``None``."""
    return (a.values if b.requires_grad else None,
            b.values if a.requires_grad else None)


# ---------------------------------------------------------------------------
# arithmetic


def add(tape, a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.values + b.values)
    need_a, need_b = a.requires_grad, b.requires_grad
    shape_a, shape_b = a.values.shape, b.values.shape
    return _emit(tape, out, (a, b), lambda g: (
        _unbroadcast(g, shape_a) if need_a else None,
        _unbroadcast(g, shape_b) if need_b else None,
    ))


def mul(tape, a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.values * b.values)
    av, bv = _kept_operands(a, b)
    shape_a, shape_b = a.values.shape, b.values.shape
    return _emit(tape, out, (a, b), lambda g: (
        None if bv is None else _unbroadcast(g * bv, shape_a),
        None if av is None else _unbroadcast(g * av, shape_b),
    ))


def matmul(tape, a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if not (a.ndim == 2 and b.ndim in (1, 2) or a.ndim == 1 and b.ndim == 2):
        raise ShapeError(f"matmul expects 2-D @ 1/2-D or 1-D @ 2-D, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[0]:
        raise ShapeError(f"matmul inner dims differ: {a.shape} @ {b.shape}")
    out = Tensor(a.values @ b.values)
    av, bv = _kept_operands(a, b)

    if a.ndim == 1:
        backfn = lambda g: (None if bv is None else bv @ g,
                            None if av is None else np.outer(av, g))
    elif b.ndim == 2:
        backfn = lambda g: (None if bv is None else g @ bv.T,
                            None if av is None else av.T @ g)
    else:
        backfn = lambda g: (None if bv is None else np.outer(g, bv),
                            None if av is None else av.T @ g)
    return _emit(tape, out, (a, b), backfn)


def linear(tape, x, w, b) -> Tensor:
    """x @ w + b with b broadcast over rows."""
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    if x.shape[-1] != w.shape[0] or w.shape[1] != b.shape[0]:
        raise ShapeError(
            f"linear shapes do not conform: x{x.shape} w{w.shape} b{b.shape}"
        )
    return add(tape, matmul(tape, x, w), b)


# ---------------------------------------------------------------------------
# shape manipulation


def concat_rows(tape, parts) -> Tensor:
    parts = [_as_tensor(p) for p in parts]
    out = Tensor(np.concatenate([p.values for p in parts], axis=0))
    offsets = np.cumsum([p.shape[0] for p in parts])[:-1]

    def backfn(g):
        return tuple(np.ascontiguousarray(piece) for piece in np.split(g, offsets, axis=0))

    return _emit(tape, out, tuple(parts), backfn)


def stack_scalars(tape, scalars) -> Tensor:
    scalars = [_as_tensor(s) for s in scalars]
    out = Tensor(np.array([s.values.reshape(()) for s in scalars]))
    shapes = [s.values.shape for s in scalars]

    def backfn(g):
        return tuple(np.asarray(g[i]).reshape(shape) for i, shape in enumerate(shapes))

    return _emit(tape, out, tuple(scalars), backfn)


def take(tape, v, i: int) -> Tensor:
    v = _as_tensor(v)
    out = Tensor(v.values[i])
    shape = v.values.shape

    def backfn(g):
        gv = np.zeros(shape)
        gv[i] = g
        return (gv,)

    return _emit(tape, out, (v,), backfn)


def gather_rows(tape, x, idx) -> Tensor:
    x = _as_tensor(x)
    idx = np.asarray(idx, dtype=np.int64)
    out = Tensor(x.values[idx])
    n = x.shape[0]
    return _emit(tape, out, (x,), lambda g: (_segment_add(g, idx, n),))


# ---------------------------------------------------------------------------
# reductions and segment ops


def _segment_add(values, seg, n: int) -> np.ndarray:
    """``out[seg[i]] += values[i]`` over an all-zero ``(n,) + values.shape[1:]``.

    One flattened ``np.bincount`` with index ``seg * d + column``: it adds in
    index order, exactly as ``np.add.at`` does, so the sums are bit-identical
    to it, at a fraction of its cost.
    """
    values = np.asarray(values, dtype=np.float64)
    tail = values.shape[1:]
    d = math.prod(tail)
    if values.ndim > 1:
        seg = (seg[:, None] * d + np.arange(d)).reshape(-1)
    out = np.bincount(seg, weights=values.reshape(-1), minlength=n * d)
    if out.size != n * d:
        raise ShapeError(f"segment ids reach past {n} segments")
    return out.reshape((n,) + tail)


def mean_all(tape, x) -> Tensor:
    x = _as_tensor(x)
    out = Tensor(x.values.mean())
    shape, n = x.values.shape, x.values.size
    return _emit(tape, out, (x,), lambda g: (np.full(shape, float(g) / n),))


def rebuilt_matmul(tape, build, w) -> Tensor:
    """``build() @ w`` for a constant left operand that the zero-argument
    callable ``build`` makes.  The tape keeps ``build``, not its matrix, and
    calls it again for ``w``'s gradient: recomputation in place of storage,
    as in gradient checkpointing (Chen et al., 2016)."""
    w = _as_tensor(w)
    x = build()
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ShapeError(f"rebuilt_matmul shapes do not conform: {x.shape} @ {w.shape}")
    out = Tensor(x @ w.values)
    return _emit(tape, out, (w,), lambda g: (build().T @ g,))


def segment_sum(tape, x, seg, n_segments: int) -> Tensor:
    x = _as_tensor(x)
    seg = np.asarray(seg, dtype=np.int64)
    out = Tensor(_segment_add(x.values, seg, n_segments))
    return _emit(tape, out, (x,), lambda g: (g[seg],))


def segment_softmax(tape, scores, seg, n_segments: int, temperature: float = 1.0) -> Tensor:
    """Softmax of 1-D ``scores`` normalized within each segment.

    Uses per-segment max subtraction, so arbitrarily large scores stay
    finite.  Entries of empty segments simply do not exist.
    """
    scores = _as_tensor(scores)
    if scores.ndim != 1:
        raise ShapeError(f"segment_softmax expects 1-D scores, got {scores.shape}")
    if temperature <= 0:
        raise DomainError(f"temperature must be positive, got {temperature}")
    seg = np.asarray(seg, dtype=np.int64)
    s = scores.values * temperature
    seg_max = np.full(n_segments, -np.inf)
    np.maximum.at(seg_max, seg, s)
    z = np.exp(s - seg_max[seg])
    denom = _segment_add(z, seg, n_segments)
    alpha = z / denom[seg]
    out = Tensor(alpha)

    def backfn(g):
        t = alpha * g
        tot = _segment_add(t, seg, n_segments)
        return (temperature * (t - alpha * tot[seg]),)

    return _emit(tape, out, (scores,), backfn)


def segment_attention(tape, keys, anchor, values, rebuild, seg, n_segments: int,
                      temperature: float):
    """Attention of ``values`` rows over segments, as one op.

    Row i of ``values`` is scored by its dot product with row ``anchor[i]``
    of ``keys``, softmaxed at ``temperature`` among the rows of its segment
    ``seg[i]``, and summed, α-weighted, into its segment's row of the
    output.  Returns that ``(n_segments, width)`` output only.  The forward
    scores the rows with one indexed row-wise dot product and runs through
    :func:`segment_softmax` and :func:`segment_sum`, and the backward is
    that composition's, term by term, so values and gradients are
    bit-identical to it.  The tape keeps α, the indexes and the keys table,
    not the value rows: the zero-argument callable ``rebuild`` builds them
    again in backward, as :func:`rebuilt_matmul` builds its operand.
    """
    keys, values = _as_tensor(keys), _as_tensor(values)
    anchor = np.asarray(anchor, dtype=np.int64)
    seg = np.asarray(seg, dtype=np.int64)
    scores = np.einsum("ij,ij->i", keys.values[anchor], values.values)
    alpha = segment_softmax(None, scores, seg, n_segments, temperature).values
    out = segment_sum(None, alpha[:, None] * values.values, seg, n_segments)
    kept_keys = keys.values if values.requires_grad else None
    need_keys = keys.requires_grad
    n_keys = keys.shape[0]

    def backfn(g):
        # products are formed in place where an operand is not read again;
        # each is the same elementwise product, so the bits do not change
        v = rebuild()
        g_values = g[seg]
        prod = g_values * v
        t = alpha * _unbroadcast(prod, (len(alpha), 1))[:, 0]
        g_scores = temperature * (t - alpha * _segment_add(t, seg, n_segments)[seg])
        g_keys = None
        if need_keys:
            g_keys = _segment_add(np.multiply(g_scores[:, None], v, out=prod), anchor, n_keys)
        del prod, v
        if kept_keys is None:
            return g_keys, None
        g_values *= alpha[:, None]
        rows = kept_keys[anchor]
        rows *= g_scores[:, None]
        g_values += rows
        return g_keys, g_values

    return _emit(tape, out, (keys, values), backfn)


# ---------------------------------------------------------------------------
# nonlinearities


def elu(tape, x) -> Tensor:
    x = _as_tensor(x)
    pos = x.values > 0
    # expm1 of the non-positive inputs only, so a large input cannot overflow
    vals = np.where(pos, x.values, np.expm1(np.where(pos, 0.0, x.values)))
    out = Tensor(vals)
    return _emit(tape, out, (x,), lambda g: (g * np.where(vals > 0, 1.0, vals + 1.0),))


def tanh(tape, x) -> Tensor:
    x = _as_tensor(x)
    vals = np.tanh(x.values)
    out = Tensor(vals)
    return _emit(tape, out, (x,), lambda g: (g * (1.0 - vals * vals),))


def softmax(tape, logits) -> Tensor:
    """Stable softmax of a 1-D logit vector."""
    logits = _as_tensor(logits)
    if logits.ndim != 1 or logits.values.size == 0:
        raise DomainError(f"softmax expects a non-empty 1-D input, got shape {logits.shape}")
    s = logits.values
    z = np.exp(s - s.max())
    p = z / z.sum()
    out = Tensor(p)

    def backfn(g):
        return (p * (g - np.dot(g, p)),)

    return _emit(tape, out, (logits,), backfn)


def dropout(tape, x, rate: float, seed, training: bool,
            rows=None, n_rows: int | None = None) -> Tensor:
    """Inverted dropout; the mask is a pure function of ``seed``.

    When ``x`` holds only the rows ``rows`` of an ``n_rows``-row tensor, the
    mask is drawn for all ``n_rows`` rows and those rows are kept, so each
    row gets the mask it has in the whole tensor, whichever rows are present.
    At inference (or rate 0) this is the exact identity: the input tensor
    itself is returned.
    """
    if not 0.0 <= rate < 1.0:
        raise DomainError(f"dropout rate must be in [0, 1), got {rate}")
    x = _as_tensor(x)
    if not training or rate == 0.0:
        return x
    rng = stable_rng(*seed) if isinstance(seed, (tuple, list)) else stable_rng(seed)
    if rows is None:
        draw = rng.random(x.shape)
    else:
        draw = rng.random((n_rows,) + x.shape[1:])[np.asarray(rows, dtype=np.int64)]
    mask = (draw >= rate).astype(np.float64) / (1.0 - rate)
    out = Tensor(x.values * mask)
    return _emit(tape, out, (x,), lambda g: (g * mask,))


def cross_entropy(tape, logits, labels) -> Tensor:
    """Mean negative log-likelihood of integer class labels under row softmax."""
    logits = _as_tensor(logits)
    if logits.ndim != 2:
        raise ShapeError(f"cross_entropy expects 2-D logits, got {logits.shape}")
    labels = np.asarray(labels, dtype=np.int64)
    n, c = logits.shape
    if labels.shape != (n,):
        raise ShapeError(f"expected {n} labels, got shape {labels.shape}")
    for i, lab in enumerate(labels):
        if not 0 <= lab < c:
            raise DomainError(f"label {lab} out of range [0, {c}) at row {i}")
    x = logits.values
    m = x.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(x - m).sum(axis=1))
    out = Tensor(np.mean(lse - x[np.arange(n), labels]))

    def backfn(g):
        p = np.exp(x - lse[:, None])
        p[np.arange(n), labels] -= 1.0
        return (float(g) * p / n,)

    return _emit(tape, out, (logits,), backfn)


# ---------------------------------------------------------------------------
# optimizers


def check_finite(params: dict[str, Tensor]) -> None:
    """Raise ``NumericError`` for the first parameter, by name, whose
    gradient holds a NaN or an infinity."""
    for name in sorted(params):
        grad = params[name].grad
        if grad is not None and not np.all(np.isfinite(grad)):
            raise NumericError(f"non-finite gradient for {name}")


class Sgd:
    def __init__(self, lr: float = 0.01):
        self.lr = lr

    def step(self, params: dict[str, Tensor]) -> None:
        """Plain gradient descent over the tensors whose ``grad`` is set;
        nothing moves unless every gradient is finite."""
        check_finite(params)
        for p in params.values():
            if p.grad is not None:
                p.values -= self.lr * p.grad


class Adam:
    """Adaptive-moment variant, selectable via config; deterministic."""

    def __init__(self, lr: float = 0.01, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        self._t = 0

    def step(self, params: dict[str, Tensor]) -> None:
        check_finite(params)
        self._t += 1
        for name in sorted(params):
            p = params[name]
            if p.grad is None:
                continue
            m = self._m.setdefault(name, np.zeros_like(p.values))
            v = self._v.setdefault(name, np.zeros_like(p.values))
            m *= self.beta1
            m += (1 - self.beta1) * p.grad
            v *= self.beta2
            v += (1 - self.beta2) * p.grad**2
            mhat = m / (1 - self.beta1**self._t)
            vhat = v / (1 - self.beta2**self._t)
            p.values -= self.lr * mhat / (np.sqrt(vhat) + self.eps)


OPTIMIZERS = {"sgd": Sgd, "adam": Adam}

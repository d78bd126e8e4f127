import inspect
import math
import tracemalloc
import warnings
from functools import partial

import numpy as np
import pytest

from conftest import (add_at_segment_sum, concat_cols, finite_diff_check, reshape_col,
                      rowwise_dot, scatter_rows)
from splitgnn import tensor as T
from splitgnn.errors import ContractError, DomainError, NumericError, ShapeError
from splitgnn.seeding import stable_rng


def scale(tape, a, c: float) -> T.Tensor:
    """``a`` times the constant ``c``, recorded on the tape."""
    a = T._as_tensor(a)
    return T._emit(tape, T.Tensor(a.values * c), (a,), lambda g: (g * c,))


def brute_matmul(a, b):
    """Triple-loop matrix product, the independent oracle for matmul."""
    n, p = a.shape
    p2, q = b.shape
    assert p == p2
    out = np.zeros((n, q))
    for i in range(n):
        for j in range(q):
            s = 0.0
            for k in range(p):
                s += a[i, k] * b[k, j]
            out[i, j] = s
    return out


class TestLinear:
    def test_identity_selection(self):
        out = T.linear(None, [[1.0, 0.0], [0.0, 1.0]], [[2.0, 0.0], [0.0, 3.0]], [0.0, 0.0])
        np.testing.assert_array_equal(out.values, [[2.0, 0.0], [0.0, 3.0]])

    def test_sum_plus_bias(self):
        out = T.linear(None, [[1.0, 1.0]], [[1.0], [1.0]], [5.0])
        np.testing.assert_array_equal(out.values, [[7.0]])

    def test_matches_bruteforce(self):
        rng = stable_rng("linear-oracle")
        x = rng.standard_normal((3, 4))
        w = rng.standard_normal((4, 2))
        b = rng.standard_normal(2)
        out = T.linear(None, x, w, b)
        np.testing.assert_allclose(out.values, brute_matmul(x, w) + b, rtol=1e-13)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 2\)"):
            T.linear(None, np.zeros((2, 3)), np.zeros((4, 2)), np.zeros(2))


def test_vector_matrix_product_matches_bruteforce():
    rng = stable_rng("vecmat")
    a, b = rng.standard_normal(3), rng.standard_normal((3, 2))
    out = T.matmul(None, a, b)
    assert out.shape == (2,)
    np.testing.assert_allclose(out.values, brute_matmul(a[None, :], b)[0], rtol=1e-13)
    with pytest.raises(ShapeError, match=r"\(3,\) @ \(3,\)"):
        T.matmul(None, a, a)


def test_elu_takes_expm1_of_non_positive_inputs_only():
    """An input past expm1's overflow (about 709) raises no warning, and
    every value, signed zeros and NaN included, is bit for bit the one of
    the two-branch formula."""
    x = np.array([800.0, -0.0, 0.0, -1.0, np.nan])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = T.elu(None, x).values
    with np.errstate(over="ignore"):
        want = np.where(x > 0, x, np.expm1(x))
    assert out.tobytes() == want.tobytes()


class TestSoftmax:
    def test_symmetry(self):
        out = T.softmax(None, [0.0, 0.0])
        np.testing.assert_allclose(out.values, [0.5, 0.5])

    def test_closed_form(self):
        out = T.softmax(None, [math.log(2.0), 0.0])
        np.testing.assert_allclose(out.values, [2.0 / 3.0, 1.0 / 3.0], rtol=1e-14)

    def test_no_overflow_on_huge_logits(self):
        out = T.softmax(None, [1000.0, 0.0])
        assert np.all(np.isfinite(out.values))
        np.testing.assert_allclose(out.values, [1.0, 0.0], atol=1e-12)

    def test_sums_to_one(self):
        rng = stable_rng("softmax-sum")
        for _ in range(50):
            logits = rng.standard_normal(rng.integers(1, 9)) * 50
            out = T.softmax(None, logits)
            assert abs(out.values.sum() - 1.0) <= 1e-12
            assert np.all(out.values > 0) and np.all(out.values < 1.0 + 1e-15)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            T.softmax(None, np.zeros(0))


class TestCrossEntropy:
    def test_uniform(self):
        loss = T.cross_entropy(None, [[0.0, 0.0]], [0])
        assert abs(loss.item() - math.log(2.0)) < 1e-12

    def test_confident_correct(self):
        loss = T.cross_entropy(None, [[10.0, -10.0]], [0])
        assert loss.item() < 1e-8

    def test_matches_scalar_recomputation(self):
        # Per-element log-sum-exp oracle, no vectorized shortcuts.
        rng = stable_rng("ce-oracle")
        logits = rng.standard_normal((4, 3))
        labels = [2, 0, 1, 1]
        expected = 0.0
        for row, lab in zip(logits, labels):
            m = max(row)
            lse = m + math.log(sum(math.exp(v - m) for v in row))
            expected += lse - row[lab]
        expected /= 4.0
        loss = T.cross_entropy(None, logits, labels)
        assert abs(loss.item() - expected) < 1e-12

    def test_label_out_of_range_names_row(self):
        with pytest.raises(DomainError, match="row 1"):
            T.cross_entropy(None, np.zeros((3, 2)), [0, 5, 1])


class TestDropout:
    def test_rate_zero_identity(self):
        x = T.Tensor([[1.0, 2.0]])
        assert T.dropout(None, x, 0.0, seed=(1,), training=True) is x

    def test_inference_identity(self):
        x = T.Tensor([[1.0, 2.0]])
        assert T.dropout(None, x, 0.3, seed=(1,), training=False) is x

    def test_survivor_fraction(self):
        x = T.Tensor(np.ones(100_000))
        out = T.dropout(None, x, 0.3, seed=(7, "drop"), training=True)
        frac = np.count_nonzero(out.values) / x.values.size
        assert abs(frac - 0.7) < 0.01
        survivors = out.values[out.values != 0]
        np.testing.assert_allclose(survivors, 1.0 / 0.7)

    def test_mask_is_pure_function_of_seed(self):
        x = T.Tensor(np.ones(256))
        a = T.dropout(None, x, 0.5, seed=(3, 1), training=True)
        b = T.dropout(None, x, 0.5, seed=(3, 1), training=True)
        c = T.dropout(None, x, 0.5, seed=(3, 2), training=True)
        np.testing.assert_array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_bad_rate(self):
        with pytest.raises(DomainError):
            T.dropout(None, T.Tensor([1.0]), 1.0, seed=(1,), training=True)


class TestBackward:
    def test_x_squared(self):
        tape = T.Tape()
        x = T.Tensor(3.0, requires_grad=True)
        loss = T.mul(tape, x, x)
        tape.backward(loss)
        assert x.grad == pytest.approx(6.0)

    def test_constant_loss_zero_grads(self):
        tape = T.Tape()
        x = T.Tensor([1.0, 2.0], requires_grad=True)
        c = T.Tensor([5.0, 5.0])
        loss = T.mean_all(tape, T.mul(tape, c, scale(tape, x, 0.0)))
        tape.backward(loss)
        np.testing.assert_array_equal(x.grad, [0.0, 0.0])

    def test_nonscalar_loss_rejected(self):
        tape = T.Tape()
        x = T.Tensor([1.0, 2.0], requires_grad=True)
        y = T.mul(tape, x, x)
        with pytest.raises(ContractError):
            tape.backward(y)

    def test_foreign_tensor_rejected(self):
        tape = T.Tape()
        with pytest.raises(ContractError):
            tape.backward(T.Tensor(1.0, requires_grad=True))

    def test_each_node_touched_once_fanout(self):
        # y feeds two consumers; its backward must combine both paths.
        tape = T.Tape()
        x = T.Tensor(2.0, requires_grad=True)
        y = T.mul(tape, x, x)          # y = x^2
        z = T.add(tape, T.mul(tape, y, y), y)   # z = y^2 + y = x^4 + x^2
        tape.backward(z)
        assert x.grad == pytest.approx(4 * 2.0**3 + 2 * 2.0)

    def test_bit_identical_replay(self):
        def run():
            tape = T.Tape()
            rng = stable_rng("replay")
            x = T.Tensor(rng.standard_normal((5, 4)), requires_grad=True)
            w = T.Tensor(rng.standard_normal((4, 3)), requires_grad=True)
            out = T.elu(tape, T.matmul(tape, x, w))
            loss = T.mean_all(tape, T.mul(tape, out, out))
            tape.backward(loss)
            return x.grad.copy(), w.grad.copy()

        gx1, gw1 = run()
        gx2, gw2 = run()
        assert np.array_equal(gx1, gx2) and np.array_equal(gw1, gw2)


# op, operand shapes, and the backward it had when it computed a gradient
# for every operand, as the reference for the parameter's gradient
CONSTANT_OPERAND_CASES = {
    "matmul": (T.matmul, [(3, 4), (4, 2)], lambda g, a, b: (g @ b.T, a.T @ g)),
    "matvec": (T.matmul, [(3, 4), (4,)], lambda g, a, b: (np.outer(g, b), a.T @ g)),
    "vecmat": (T.matmul, [(3,), (3, 4)], lambda g, a, b: (b @ g, np.outer(a, g))),
    "mul": (T.mul, [(3, 4), (1, 4)], lambda g, a, b: (
        T._unbroadcast(g * b, a.shape), T._unbroadcast(g * a, b.shape))),
    "add": (T.add, [(3, 4), (4,)], lambda g, a, b: (
        T._unbroadcast(g, a.shape), T._unbroadcast(g, b.shape))),
    "rowwise_dot": (rowwise_dot, [(3, 4), (3, 4)], lambda g, a, b: (
        g[:, None] * b, g[:, None] * a)),
    "rowwise_dot_index": (
        lambda tape, a, b: rowwise_dot(tape, a, b, index=[2, 0, 2, 1]),
        [(3, 4), (4, 4)], lambda g, a, b: (
            T._segment_add(g[:, None] * b, np.array([2, 0, 2, 1]), 3),
            g[:, None] * a[[2, 0, 2, 1]])),
    "concat_cols": (lambda tape, a, b: concat_cols(tape, [a, b]), [(3, 2), (3, 3)],
                    lambda g, a, b: (g[:, :2], g[:, 2:])),
}


@pytest.mark.parametrize("constant", [0, 1])
@pytest.mark.parametrize("op", sorted(CONSTANT_OPERAND_CASES))
def test_constant_operand_gets_no_gradient(op, constant):
    fn, shapes, reference = CONSTANT_OPERAND_CASES[op]
    rng = stable_rng("constant-operand", op)
    values = [rng.standard_normal(shape) for shape in shapes]
    operands = [T.Tensor(v, requires_grad=i != constant) for i, v in enumerate(values)]
    tape = T.Tape()
    out = fn(tape, *operands)
    g = rng.standard_normal(out.shape)
    grads = tape._nodes[-1].backfn(g)
    assert grads[constant] is None
    tape.backward(out, seed_grad=g)
    assert operands[constant].grad is None
    param = 1 - constant
    assert np.array_equal(operands[param].grad, reference(g, *values)[param])


# every recording op, with the operand shapes it is called on here
RETENTION_CASES = {
    "add": (T.add, [(3, 4), (4,)]),
    "mul": (T.mul, [(3, 4), (1, 4)]),
    "matmul": (T.matmul, [(3, 4), (4, 2)]),
    "matvec": (T.matmul, [(3, 4), (4,)]),
    "vecmat": (T.matmul, [(3,), (3, 4)]),
    "linear": (T.linear, [(3, 4), (4, 2), (2,)]),
    "concat_cols": (lambda tape, a, b: concat_cols(tape, [a, b]), [(3, 2), (3, 3)]),
    "concat_rows": (lambda tape, a, b: T.concat_rows(tape, [a, b]), [(2, 3), (1, 3)]),
    "stack_scalars": (lambda tape, a, b: T.stack_scalars(tape, [a, b]), [(), ()]),
    "take": (lambda tape, v: T.take(tape, v, 1), [(3,)]),
    "gather_rows": (lambda tape, x: T.gather_rows(tape, x, [2, 0, 2]), [(3, 2)]),
    "mean_all": (T.mean_all, [(3, 2)]),
    "rowwise_dot": (rowwise_dot, [(3, 4), (3, 4)]),
    "rowwise_dot_index": (lambda tape, a, b: rowwise_dot(tape, a, b, index=[2, 0, 2, 1]),
                          [(3, 4), (4, 4)]),
    "rebuilt_matmul": (lambda tape, w: T.rebuilt_matmul(
        tape, lambda: np.arange(12.0).reshape(3, 4), w), [(4, 2)]),
    "segment_sum": (lambda tape, x: T.segment_sum(tape, x, [0, 1, 0], 2), [(3, 2)]),
    "segment_softmax": (lambda tape, s: T.segment_softmax(tape, s, [0, 1, 0], 2, 0.5),
                        [(3,)]),
    "segment_attention": (lambda tape, k, v: T.segment_attention(
        tape, k, [1, 0, 1, 0], v, partial(np.copy, v.values), [0, 1, 0, 1], 2, 0.5),
        [(2, 3), (4, 3)]),
    "elu": (T.elu, [(3, 2)]),
    "tanh": (T.tanh, [(3, 2)]),
    "softmax": (T.softmax, [(3,)]),
    "dropout": (lambda tape, x: T.dropout(tape, x, 0.5, seed=1, training=True), [(4, 3)]),
    "cross_entropy": (lambda tape, x: T.cross_entropy(tape, x, [0, 2, 1]), [(3, 3)]),
}


def held_tensors(obj):
    """The Tensors ``obj`` holds, looking inside lists, tuples and dicts."""
    if isinstance(obj, T.Tensor):
        return [obj]
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        return [t for item in obj for t in held_tensors(item)]
    return []


def test_retention_cases_cover_every_op():
    ops = {name for name, fn in vars(T).items()
           if inspect.isfunction(fn) and fn.__module__ == T.__name__
           and not name.startswith("_")
           and list(inspect.signature(fn).parameters)[:1] == ["tape"]}
    # concat_cols and rowwise_dot are the tests' own ops, the per-edge
    # fusion oracle's and the attention oracles'
    assert set(RETENTION_CASES) - {"matvec", "vecmat", "rowwise_dot", "rowwise_dot_index",
                                   "concat_cols"} == ops


@pytest.mark.parametrize("op", sorted(RETENTION_CASES))
def test_tape_keeps_no_tensor_but_leaves(op):
    """No backward closure holds a Tensor, and a node's inputs are only
    node indices, leaves that get a gradient, or None."""
    fn, shapes = RETENTION_CASES[op]
    for constant in [None] + list(range(len(shapes)) if len(shapes) > 1 else []):
        rng = stable_rng("retention", op)
        leaves = [T.Tensor(rng.standard_normal(shape), requires_grad=i != constant)
                  for i, shape in enumerate(shapes)]
        tape = T.Tape()
        # operands produced on the tape, so the op's inputs are not leaves
        operands = [T.add(tape, leaf, 0.0) if leaf.requires_grad else leaf
                    for leaf in leaves]
        out = fn(tape, *operands)
        assert out.origin == (tape._serial, len(tape) - 1)
        for node in tape._nodes:
            cells = [c.cell_contents for c in node.backfn.__closure__ or ()]
            assert held_tensors(cells) == [], (op, constant)
            for src in node.inputs:
                assert src is None or isinstance(src, int) or (
                    any(src is leaf for leaf in leaves) and src.requires_grad)
        seed = rng.standard_normal(out.shape)
        tape.backward(out, seed_grad=seed)
        for leaf in leaves:
            assert (leaf.grad is not None) == leaf.requires_grad


def test_linear_frees_its_pre_bias_product():
    rng = stable_rng("linear-retention")
    x = T.Tensor(rng.standard_normal((4000, 256)))
    w = T.Tensor(rng.standard_normal((256, 256)) / 16, requires_grad=True)
    b = T.Tensor(np.zeros(256), requires_grad=True)
    tape = T.Tape()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = T.linear(tape, x, w, b)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # the output is all that is new; the x @ w product went with its Tensor
    assert out.values.nbytes <= held < 1.25 * out.values.nbytes
    tape.backward(T.mean_all(tape, out))
    np.testing.assert_allclose(w.grad, np.repeat(x.values.mean(axis=0)[:, None] / 256,
                                                 256, axis=1), rtol=1e-12)


class TestRebuiltOperands:
    """Ops that rebuild an operand in backward in place of keeping it must
    give the values and gradients of the composition that keeps it."""

    def test_indexed_dot_matches_gathered_dot(self):
        rng = stable_rng("indexed-dot")
        keys0 = rng.standard_normal((4, 3))
        vals0 = rng.standard_normal((7, 3))
        index = np.array([3, 0, 3, 1, 1, 2, 3])
        seed = rng.standard_normal(7)

        def run(indexed):
            keys = T.Tensor(keys0, requires_grad=True)
            vals = T.Tensor(vals0, requires_grad=True)
            tape = T.Tape()
            k, v = T.add(tape, keys, 0.0), T.add(tape, vals, 0.0)
            # keys also reach the output another way, as HAT's self rows do
            v = T.concat_rows(tape, [T.gather_rows(tape, v, np.arange(3)), k])
            if indexed:
                out = rowwise_dot(tape, k, v, index=index)
            else:
                out = rowwise_dot(tape, T.gather_rows(tape, k, index), v)
            tape.backward(out, seed_grad=seed)
            return out.values, keys.grad, vals.grad

        for got, want in zip(run(True), run(False)):
            assert np.array_equal(got, want)

    def test_indexed_dot_shape_mismatch(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(3, 3\)"):
            rowwise_dot(None, np.zeros((4, 3)), np.zeros((3, 3)), index=[0, 1])

    def test_rebuilt_matmul_matches_kept_matmul(self):
        rng = stable_rng("rebuilt-matmul")
        x = rng.standard_normal((6, 4))
        w0 = rng.standard_normal((4, 3))
        seed = rng.standard_normal((6, 3))
        builds = []

        def build():
            builds.append(1)
            return x.copy()

        w, kept_w = T.Tensor(w0, requires_grad=True), T.Tensor(w0, requires_grad=True)
        tape, kept_tape = T.Tape(), T.Tape()
        out = T.rebuilt_matmul(tape, build, w)
        kept = T.matmul(kept_tape, T.Tensor(x), kept_w)
        assert np.array_equal(out.values, kept.values)
        assert len(builds) == 1
        tape.backward(out, seed_grad=seed)
        kept_tape.backward(kept, seed_grad=seed)
        # built once for the forward and once for w's gradient
        assert len(builds) == 2
        assert np.array_equal(w.grad, kept_w.grad)

    @pytest.mark.parametrize("keys_grad,values_grad", [(True, True), (True, False),
                                                        (False, True)])
    def test_segment_attention_matches_composition(self, keys_grad, values_grad, attention):
        """One op in place of the indexed dot, segment softmax, α scaling
        and segment sum that kept the value rows: the same forward and
        gradients, bit for bit, with the value rows built once in forward
        and once in backward."""
        rng = stable_rng("segment-attention")
        keys0 = rng.standard_normal((4, 3))
        vals0 = rng.standard_normal((3, 3))
        # three edges into segments 0 and 2, then each segment's self row
        seg = np.array([0, 0, 2, 0, 1, 2, 3])
        anchor = seg.copy()
        seed = rng.standard_normal((4, 3))
        builds = []

        def run(fused):
            keys = T.Tensor(keys0, requires_grad=keys_grad)
            vals = T.Tensor(vals0, requires_grad=values_grad)
            tape = T.Tape()
            k, v = T.add(tape, keys, 0.0), T.add(tape, vals, 0.0)

            def build(tape, v, k):
                builds.append(1)
                # keys also reach the values, as HAT's self rows do
                return T.concat_rows(tape, [T.mul(tape, v, 2.0), k])

            values = build(tape, v, k)
            if fused:
                out = T.segment_attention(
                    tape, k, anchor, values, lambda: build(None, v.values, k.values).values,
                    seg, 4, 0.7)
            else:
                a = T.segment_softmax(tape, rowwise_dot(tape, k, values, index=anchor),
                                      seg, 4, 0.7)
                out = T.segment_sum(tape, T.mul(tape, reshape_col(tape, a), values), seg, 4)
            alpha, _, _ = attention.segment_softmaxes.pop()
            tape.backward(out, seed_grad=seed)
            return alpha, out.values, keys.grad, vals.grad

        want = run(False)
        builds.clear()
        got = run(True)
        assert len(builds) == 2
        for a, b in zip(got, want):
            assert (a is None) == (b is None)
            assert a is None or np.array_equal(a, b)

    def test_rebuilt_matmul_shape_mismatch(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\) @ \(4, 2\)"):
            T.rebuilt_matmul(None, lambda: np.zeros((2, 3)), np.zeros((4, 2)))


class TestTapeConsumption:
    def test_second_backward_raises(self):
        tape = T.Tape()
        x = T.Tensor([1.0, 2.0], requires_grad=True)
        loss = T.mean_all(tape, T.mul(tape, x, x))
        tape.backward(loss)
        assert len(tape) == 0
        with pytest.raises(ContractError, match="already ran"):
            tape.backward(loss)
        with pytest.raises(ContractError, match="consumed"):
            T.mul(tape, x, x)
        np.testing.assert_array_equal(x.grad, [1.0, 2.0])

    def test_tensor_from_another_tape_is_a_leaf(self):
        lower, upper = T.Tape(), T.Tape()
        x = T.Tensor([1.0, -2.0, 3.0], requires_grad=True)
        y = T.mul(lower, x, 2.0)
        loss = T.mean_all(upper, T.mul(upper, y, y))
        assert upper._nodes[0].inputs == (y, y)
        upper.backward(loss)
        np.testing.assert_array_equal(y.grad, 2.0 * y.values / 3)
        assert x.grad is None
        lower.backward(y, seed_grad=y.grad)
        np.testing.assert_array_equal(x.grad, 2.0 * y.grad)

    def test_tapes_are_told_apart_by_serial(self):
        # a dead tape's id() can be reused; its tensors must still be foreign
        tape = T.Tape()
        x = T.Tensor(2.0, requires_grad=True)
        y = T.mul(tape, x, x)
        del tape
        other = T.Tape()
        with pytest.raises(ContractError, match="not produced by this tape"):
            other.backward(y)


class TestSegmentOps:
    def test_segment_sum_matches_loop(self):
        rng = stable_rng("segsum")
        x = rng.standard_normal((10, 3))
        seg = rng.integers(0, 4, 10)
        out = T.segment_sum(None, x, seg, 4)
        expected = np.zeros((4, 3))
        for row, s in zip(x, seg):
            expected[s] += row
        np.testing.assert_allclose(out.values, expected, rtol=1e-14)

    def test_segment_softmax_sums_and_stability(self):
        scores = np.array([1000.0, 999.0, 3.0, 1.0, 1.0])
        seg = np.array([0, 0, 1, 1, 1])
        alpha = T.segment_softmax(None, scores, seg, 2)
        assert np.all(np.isfinite(alpha.values))
        for s in (0, 1):
            assert abs(alpha.values[seg == s].sum() - 1.0) <= 1e-12

    def test_gather_scatter_roundtrip(self):
        x = np.arange(12.0).reshape(4, 3)
        idx = [2, 0]
        g = T.gather_rows(None, x, idx)
        np.testing.assert_array_equal(g.values, x[idx])
        s = scatter_rows(None, g, idx, 4)
        assert np.array_equal(s.values[2], x[2]) and np.array_equal(s.values[0], x[0])
        assert np.all(s.values[[1, 3]] == 0)


def add_at_segment_softmax(scores, seg, n, temperature, g):
    """Segment softmax and its backward for upstream ``g``, on add.at sums."""
    s = scores * temperature
    seg_max = np.full(n, -np.inf)
    np.maximum.at(seg_max, seg, s)
    z = np.exp(s - seg_max[seg])
    alpha = z / add_at_segment_sum(z, seg, n)[seg]
    t = alpha * g
    return alpha, temperature * (t - alpha * add_at_segment_sum(t, seg, n)[seg])


def kernel_case(name):
    """(values, seg, n_segments) for one named shape of segment input."""
    rng = stable_rng("segment-kernel", name)
    if name == "repeated_2d":
        seg = rng.integers(0, 4, 40)
        n = 4
    elif name == "empty_and_trailing_empty":
        seg = rng.choice([0, 2, 5], 30)   # 1, 3, 4 and 6..8 stay empty
        n = 9
    elif name == "repeated_1d":
        seg = rng.integers(0, 6, 25)
        n = 6
    elif name == "more_segments_than_ids":
        seg = rng.integers(0, 3, 20)
        n = 3 + 17
    else:  # no rows at all
        seg = np.zeros(0, dtype=np.int64)
        n = 5
    width = () if name == "repeated_1d" else (3,)
    # mixed magnitudes, so that adding in another order would show in the bits
    scale = 10.0 ** rng.integers(-3, 4, len(seg))
    values = rng.standard_normal((len(seg),) + width) * scale.reshape((-1,) + (1,) * len(width))
    return values, seg, n


KERNEL_CASES = ["repeated_2d", "empty_and_trailing_empty", "repeated_1d",
                "more_segments_than_ids", "no_rows"]


class TestSegmentKernel:
    """The bincount kernel gives exactly the bits of ``np.add.at``."""

    @pytest.mark.parametrize("name", KERNEL_CASES)
    def test_segment_sum_forward(self, name):
        values, seg, n = kernel_case(name)
        out = T.segment_sum(None, values, seg, n)
        assert np.array_equal(out.values, add_at_segment_sum(values, seg, n))

    @pytest.mark.parametrize("name", KERNEL_CASES)
    def test_gather_rows_backward(self, name):
        g, idx, n = kernel_case(name)
        x = T.Tensor(stable_rng("gather-x", name).standard_normal((n,) + g.shape[1:]),
                     requires_grad=True)
        tape = T.Tape()
        tape.backward(T.gather_rows(tape, x, idx), seed_grad=g)
        assert np.array_equal(x.grad, add_at_segment_sum(g, idx, n))

    @pytest.mark.parametrize("name", ["repeated_1d", "empty_and_trailing_empty",
                                      "more_segments_than_ids", "no_rows"])
    def test_segment_softmax_forward_and_backward(self, name):
        values, seg, n = kernel_case(name)
        scores = T.Tensor(values[:, 0] if values.ndim == 2 else values, requires_grad=True)
        g = stable_rng("softmax-g", name).standard_normal(len(seg))
        tape = T.Tape()
        alpha = T.segment_softmax(tape, scores, seg, n, temperature=0.7)
        want_alpha, want_grad = add_at_segment_softmax(scores.values, seg, n, 0.7, g)
        assert np.array_equal(alpha.values, want_alpha)
        tape.backward(alpha, seed_grad=g)
        assert np.array_equal(scores.grad, want_grad)

    def test_segment_id_past_the_end_rejected(self):
        with pytest.raises(ShapeError):
            T.segment_sum(None, np.ones((3, 2)), [0, 1, 3], 3)


class TestFiniteDiff:
    def test_linear_layer(self):
        rng = stable_rng("fd-linear")
        w = T.Tensor(rng.standard_normal((3, 2)), requires_grad=True, name="w")
        b = T.Tensor(rng.standard_normal(2), requires_grad=True, name="b")
        x = rng.standard_normal((4, 3))

        def forward():
            tape = T.Tape()
            out = T.linear(tape, x, w, b)
            return T.mean_all(tape, T.mul(tape, out, out)), tape

        assert finite_diff_check(forward, [w, b]) < 1e-6

    def test_softmax_cross_entropy_stack(self):
        rng = stable_rng("fd-ce")
        w = T.Tensor(rng.standard_normal((5, 3)) * 0.5, requires_grad=True, name="w")
        b = T.Tensor(np.zeros(3), requires_grad=True, name="b")
        x = rng.standard_normal((6, 5))
        labels = [0, 1, 2, 0, 1, 2]

        def forward():
            tape = T.Tape()
            logits = T.linear(tape, x, w, b)
            return T.cross_entropy(tape, logits, labels), tape

        assert finite_diff_check(forward, [w, b]) < 1e-5

    def test_zero_parameter_function(self):
        def forward():
            tape = T.Tape()
            return T.mean_all(tape, T.Tensor([1.0, 2.0])), tape

        assert finite_diff_check(forward, []) == 0.0

    def test_nondeterministic_forward_detected(self):
        counter = {"n": 0}

        def forward():
            tape = T.Tape()
            counter["n"] += 1
            return T.mean_all(tape, T.Tensor([float(counter["n"])])), tape

        with pytest.raises(ContractError):
            finite_diff_check(forward, [])

    def test_segment_attention_composite(self):
        # End-to-end gradient through gathered values and one attention op.
        rng = stable_rng("fd-seg")
        h = T.Tensor(rng.standard_normal((5, 3)) * 0.7, requires_grad=True, name="h")
        tgt = np.array([0, 0, 1, 2, 2, 2])
        nbr = np.array([1, 2, 0, 3, 4, 0])

        def forward():
            tape = T.Tape()
            hn = T.gather_rows(tape, h, nbr)
            z = T.segment_attention(tape, h, tgt, hn, lambda: h.values[nbr], tgt, 5,
                                    temperature=0.7)
            return T.mean_all(tape, T.mul(tape, z, z)), tape

        assert finite_diff_check(forward, [h]) < 1e-4


class TestOptimizers:
    def test_sgd_step(self):
        p = T.Tensor(1.0, requires_grad=True)
        p.grad = np.asarray(2.0)
        T.Sgd(0.1).step({"p": p})
        assert p.values == pytest.approx(0.8)

    def test_zero_grad_no_change(self):
        p = T.Tensor(1.5, requires_grad=True)
        p.grad = np.asarray(0.0)
        T.Sgd(0.1).step({"p": p})
        assert p.values == pytest.approx(1.5)

    def test_two_steps_equal_summed_displacement(self):
        p1 = T.Tensor(1.0, requires_grad=True)
        p2 = T.Tensor(1.0, requires_grad=True)
        g = np.asarray(0.7)
        p1.grad = g
        T.Sgd(0.1).step({"p1": p1})
        p1.grad = g
        T.Sgd(0.1).step({"p1": p1})
        p2.grad = 2 * g
        T.Sgd(0.1).step({"p2": p2})
        assert p1.values == pytest.approx(p2.values)

    def test_nan_grad_aborts(self):
        p = T.Tensor(1.0, requires_grad=True, name="w")
        p.grad = np.asarray(np.nan)
        with pytest.raises(NumericError):
            T.Sgd(0.1).step({"p": p})

    def test_sgd_nan_grad_changes_nothing(self):
        a = T.Tensor(1.0, requires_grad=True, name="a")
        b = T.Tensor(1.0, requires_grad=True, name="b")
        a.grad, b.grad = np.asarray(1.0), np.asarray(np.nan)
        with pytest.raises(NumericError, match="non-finite gradient for b"):
            T.Sgd(0.1).step({"a": a, "b": b})
        assert a.values == 1.0 and b.values == 1.0

    def test_adam_deterministic(self):
        def run():
            p = T.Tensor(np.array([1.0, -2.0]), requires_grad=True, name="p")
            opt = T.Adam(lr=0.05)
            for step in range(5):
                p.grad = np.array([0.5, -0.1]) * (step + 1)
                opt.step({"p": p})
            return p.values.copy()

        np.testing.assert_array_equal(run(), run())


def test_analytic_matches_fd_on_random_op_stacks():
    # 100 randomized trials over the differentiable op zoo, fixed seed set.
    worst = 0.0
    for trial in range(100):
        rng = stable_rng("op-zoo", trial)
        n, d = int(rng.integers(2, 6)), int(rng.integers(2, 5))
        w = T.Tensor(rng.standard_normal((d, d)) * 0.6, requires_grad=True, name="w")
        x = rng.standard_normal((n, d))
        pick = trial % 4

        def forward():
            tape = T.Tape()
            h = T.matmul(tape, x, w)
            if pick == 0:
                h = T.elu(tape, h)
            elif pick == 1:
                h = T.tanh(tape, h)
            elif pick == 2:
                h = T.mul(tape, h, h)
            else:
                h = concat_cols(tape, [h, scale(tape, h, -1.0)])
            return T.mean_all(tape, T.mul(tape, h, h)), tape

        worst = max(worst, finite_diff_check(forward, [w]))
    assert worst < 1e-4

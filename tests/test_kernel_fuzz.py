"""Property tests: the pyramid and head kernels against naive Python-loop references.

The references loop over batch-major (B, C, L) arrays; the channel-major
kernels are called on swapped copies and their results swapped back.
Shapes, strides, paddings, groups and kernel sizes are drawn by hypothesis
(derandomized, so every run draws the same cases).  Convolution values and
gradients are compared at a float64 rounding tolerance, since the loops sum
in another order; so are the grouped linear head's.  Max-pool inputs and upstream gradients are integers, so
ties occur and every sum is exact: values and first-argmax gradient routing
are compared exactly.  A few cases also go through finite differences.
The fused ``relu_dropout`` is compared bit for bit with the ops it fuses.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import check_gradients, sq_sum, swap_bc
from rtnet.tensor import (GradTape, Tensor, add, backward, channel_upsample, conv1d_grouped,
                          dropout, linear_grouped, maxpool1d, relu, relu_dropout)

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=120)
GRADCHECK = settings(derandomize=True, database=None, deadline=None, max_examples=8)


@st.composite
def conv_cases(draw):
    k = draw(st.integers(1, 5))
    padding = draw(st.integers(0, k - 1))
    return dict(
        batch=draw(st.integers(1, 4)),
        groups=draw(st.sampled_from([1, 2, 3, 7])),
        cpg=draw(st.integers(1, 3)),
        opg=draw(st.integers(1, 3)),
        k=k,
        stride=draw(st.integers(1, 3)),
        padding=padding,
        length=draw(st.integers(max(1, k - 2 * padding), 19)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


@st.composite
def pool_cases(draw):
    k = draw(st.integers(1, 5))
    padding = draw(st.integers(0, k - 1))
    return dict(
        batch=draw(st.integers(1, 4)),
        channels=draw(st.sampled_from([1, 2, 3, 7])) * draw(st.integers(1, 3)),
        k=k,
        stride=draw(st.integers(1, 3)),
        padding=padding,
        length=draw(st.integers(max(1, k - 2 * padding), 19)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


@st.composite
def linear_cases(draw):
    return dict(
        batch=draw(st.integers(1, 5)),
        groups=draw(st.sampled_from([1, 2, 3, 7])),
        fpg=draw(st.integers(1, 6)),
        opg=draw(st.integers(1, 6)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


@st.composite
def relu_dropout_cases(draw):
    return dict(
        channels=draw(st.integers(1, 4)),
        batch=draw(st.integers(1, 3)),
        length=draw(st.integers(1, 9)),
        factor=draw(st.sampled_from([None, 1, 2, 3])),  # None: no shortcut
        rate=draw(st.sampled_from([0.0, 0.1, 0.5, 0.9])),
        training=draw(st.booleans()),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


def out_len(length, k, stride, padding):
    return (length + 2 * padding - k) // stride + 1


def conv_reference(x, w, b, g, stride, padding, groups):
    """Output and (x, w, b) gradients for upstream gradient g, by plain loops."""
    batch, c_in, length = x.shape
    c_out, cpg, k = w.shape
    opg = c_out // groups
    l_out = out_len(length, k, stride, padding)
    y = np.zeros((batch, c_out, l_out))
    g_x, g_w, g_b = np.zeros_like(x), np.zeros_like(w), np.zeros_like(b)
    for n in range(batch):
        for o in range(c_out):
            for t in range(l_out):
                acc = b[o]
                g_b[o] += g[n, o, t]
                for c in range(cpg):
                    ch = (o // opg) * cpg + c
                    for j in range(k):
                        pos = t * stride + j - padding
                        if 0 <= pos < length:
                            acc += w[o, c, j] * x[n, ch, pos]
                            g_w[o, c, j] += g[n, o, t] * x[n, ch, pos]
                            g_x[n, ch, pos] += g[n, o, t] * w[o, c, j]
                y[n, o, t] = acc
    return y, g_x, g_w, g_b


def pool_reference(x, g, k, stride, padding):
    """Output and input gradient of max-pooling by plain loops; first argmax wins."""
    batch, channels, length = x.shape
    l_out = out_len(length, k, stride, padding)
    y = np.zeros((batch, channels, l_out))
    g_x = np.zeros_like(x)
    for n in range(batch):
        for c in range(channels):
            for t in range(l_out):
                best, arg = -np.inf, None
                for j in range(k):
                    pos = t * stride + j - padding
                    if 0 <= pos < length and (arg is None or x[n, c, pos] > best):
                        best, arg = x[n, c, pos], pos
                y[n, c, t] = best
                g_x[n, c, arg] += g[n, c, t]
    return y, g_x


def linear_reference(x, w, b, g, groups):
    """Output and (x, w, b) gradients of the grouped linear map by plain loops."""
    batch, f_in = x.shape
    f_out, fpg = w.shape
    opg = f_out // groups
    y = np.zeros((batch, f_out))
    g_x, g_w, g_b = np.zeros_like(x), np.zeros_like(w), np.zeros_like(b)
    for n in range(batch):
        for o in range(f_out):
            acc = b[o]
            g_b[o] += g[n, o]
            for f in range(fpg):
                col = (o // opg) * fpg + f
                acc += w[o, f] * x[n, col]
                g_w[o, f] += g[n, o] * x[n, col]
                g_x[n, col] += g[n, o] * w[o, f]
            y[n, o] = acc
    return y, g_x, g_w, g_b


def tape_gradients(fn, inputs, seed_grad):
    with GradTape() as tape:
        out = fn()
    backward(tape, out, params=inputs, seed=seed_grad)
    return out.data, [t.grad for t in inputs]


def pinned(cases, **fields):
    """Hypothesis examples over the given cases, with the other fields fixed."""
    def wrap(test):
        for case in reversed(cases):
            test = example(dict(fields, **case))(test)
        return test
    return wrap


# clipped tap ranges: taps that read only padding, a single output, stride > k
EDGE_CASES = [dict(length=1, k=5, padding=4, stride=s) for s in (1, 2, 3)] + [
    dict(length=3, k=3, padding=0, stride=1),
    dict(length=2, k=5, padding=2, stride=2),
    dict(length=11, k=2, padding=1, stride=3),
    dict(length=10, k=1, padding=0, stride=3),
]

# weight-gradient edge shapes: B 1, l_out 1 (the outer taps read only
# padding), lengths with and without L == stride*l_out, strides 1-3 and
# paddings 0 to k-1
WEIGHT_GRAD_CASES = [
    dict(batch=1, length=12, k=3, padding=1, stride=2),
    dict(batch=3, length=12, k=3, padding=1, stride=2),
    dict(batch=3, length=7, k=5, padding=2, stride=1),
    dict(batch=2, length=9, k=5, padding=1, stride=3),
    dict(batch=4, length=9, k=5, padding=2, stride=3),
    dict(batch=2, length=8, k=4, padding=1, stride=2),
    dict(batch=3, length=2, k=3, padding=1, stride=2),
    dict(batch=3, length=1, k=3, padding=1, stride=1),
    dict(batch=3, length=3, k=3, padding=0, stride=3),
    dict(batch=2, length=6, k=1, padding=0, stride=3),
    dict(batch=3, length=13, k=3, padding=0, stride=2),
    dict(batch=3, length=5, k=3, padding=2, stride=1),
    dict(batch=1, length=4, k=3, padding=2, stride=3),
    dict(batch=2, length=4, k=2, padding=1, stride=3),
    dict(batch=2, length=3, k=2, padding=0, stride=1),
]


class TestConv1dGroupedFuzz:
    @FUZZ
    @given(conv_cases())
    @pinned(EDGE_CASES + WEIGHT_GRAD_CASES, batch=2, groups=3, cpg=2, opg=2, seed=7)
    def test_matches_loop_reference(self, case):
        rng = np.random.default_rng(case["seed"])
        groups, cpg, k = case["groups"], case["cpg"], case["k"]
        x = rng.normal(size=(case["batch"], groups * cpg, case["length"]))
        w = rng.normal(size=(groups * case["opg"], cpg, k))
        b = rng.normal(size=groups * case["opg"])
        l_out = out_len(case["length"], k, case["stride"], case["padding"])
        g = rng.normal(size=(case["batch"], groups * case["opg"], l_out))
        tx, tw, tb = (Tensor(a, requires_grad=True) for a in (swap_bc(x), w, b))
        y, (g_x, *g_params) = tape_gradients(
            lambda: conv1d_grouped(tx, tw, tb, case["stride"], case["padding"], groups),
            [tx, tw, tb], swap_bc(g))
        expected = conv_reference(x, w, b, g, case["stride"], case["padding"], groups)
        for got, want in zip([swap_bc(y), swap_bc(g_x), *g_params], expected):
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    @GRADCHECK
    @given(conv_cases())
    @pinned(WEIGHT_GRAD_CASES, groups=2, cpg=2, opg=2, seed=11)
    def test_finite_differences(self, case):
        rng = np.random.default_rng(case["seed"])
        groups, cpg = case["groups"], case["cpg"]
        x = Tensor(swap_bc(rng.normal(size=(case["batch"], groups * cpg, case["length"]))),
                   requires_grad=True)
        w = Tensor(rng.normal(size=(groups * case["opg"], cpg, case["k"])), requires_grad=True)
        b = Tensor(rng.normal(size=groups * case["opg"]), requires_grad=True)

        def build():
            y = conv1d_grouped(x, w, b, case["stride"], case["padding"], groups)
            return sq_sum(y)

        check_gradients(build, [x, w, b], seed=case["seed"] % 1000)


class TestMaxpoolFuzz:
    @FUZZ
    @given(pool_cases())
    @pinned(EDGE_CASES, batch=2, channels=3, seed=7)
    def test_matches_loop_reference_with_ties(self, case):
        rng = np.random.default_rng(case["seed"])
        k, stride, padding = case["k"], case["stride"], case["padding"]
        x = np.round(rng.normal(scale=1.5, size=(case["batch"], case["channels"], case["length"])))
        l_out = out_len(case["length"], k, stride, padding)
        g = rng.integers(-9, 10, size=(case["batch"], case["channels"], l_out)).astype(np.float64)
        tx = Tensor(x, requires_grad=True)
        y, (g_x,) = tape_gradients(lambda: maxpool1d(tx, k, stride, padding), [tx], g)
        want_y, want_g = pool_reference(x, g, k, stride, padding)
        assert y.shape == want_y.shape
        assert np.array_equal(y, want_y)
        assert np.array_equal(g_x, want_g)

    @GRADCHECK
    @given(pool_cases())
    def test_finite_differences(self, case):
        rng = np.random.default_rng(case["seed"])
        # distinct values keep every window's argmax away from a tie
        size = case["batch"] * case["channels"] * case["length"]
        x = Tensor(rng.permutation(size).reshape(case["batch"], case["channels"], case["length"])
                   * 0.1, requires_grad=True)

        def build():
            y = maxpool1d(x, case["k"], case["stride"], case["padding"])
            return sq_sum(y)

        check_gradients(build, [x], seed=case["seed"] % 1000)


class TestLinearGroupedFuzz:
    @FUZZ
    @given(linear_cases())
    def test_matches_loop_reference(self, case):
        rng = np.random.default_rng(case["seed"])
        groups = case["groups"]
        f_in, f_out = groups * case["fpg"], groups * case["opg"]
        x = rng.normal(size=(case["batch"], f_in))
        w = rng.normal(size=(f_out, case["fpg"]))
        b = rng.normal(size=f_out)
        g = rng.normal(size=(case["batch"], f_out))
        tx, tw, tb = (Tensor(a, requires_grad=True) for a in (x, w, b))
        y, grads = tape_gradients(lambda: linear_grouped(tx, tw, tb, groups), [tx, tw, tb], g)
        for got, want in zip([y, *grads], linear_reference(x, w, b, g, groups)):
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    @GRADCHECK
    @given(linear_cases())
    def test_finite_differences(self, case):
        rng = np.random.default_rng(case["seed"])
        groups = case["groups"]
        x = Tensor(rng.normal(size=(case["batch"], groups * case["fpg"])), requires_grad=True)
        w = Tensor(rng.normal(size=(groups * case["opg"], case["fpg"])), requires_grad=True)
        b = Tensor(rng.normal(size=groups * case["opg"]), requires_grad=True)

        def build():
            y = linear_grouped(x, w, b, groups)
            return sq_sum(y)

        check_gradients(build, [x, w, b], seed=case["seed"] % 1000)


def special_values(rng, shape):
    """Small integers, so sums tie at 0, with zeros of both signs, NaN and
    infinities."""
    x = rng.integers(-2, 3, size=shape).astype(np.float64)
    x[x == 0.0] *= rng.choice([-1.0, 1.0], size=int((x == 0.0).sum()))
    special = rng.random(shape)
    x[special < 0.05] = np.nan
    x[(special >= 0.05) & (special < 0.08)] = np.inf
    x[(special >= 0.08) & (special < 0.1)] = -np.inf
    return x


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


class TestReluDropoutFuzz:
    @FUZZ
    @given(relu_dropout_cases())
    def test_bit_equal_to_the_composed_ops(self, case):
        """Output, input gradients and the generator's next draw equal those
        of dropout(relu(add(x, channel_upsample(s, f)))) bit for bit."""
        rng = np.random.default_rng(case["seed"])
        factor, c_s = case["factor"], case["channels"]
        shape = (c_s * (factor or 1), case["batch"], case["length"])
        x = special_values(rng, shape)
        s = None if factor is None else special_values(rng, (c_s,) + shape[1:])
        g = rng.normal(size=shape)
        g[rng.random(shape) < 0.2] *= 0.0
        rate, training = case["rate"], case["training"]
        drop_seed = int(rng.integers(2**32))

        def composed(tx, ts, gen):
            h = tx if ts is None else add(tx, channel_upsample(ts, factor))
            return dropout(relu(h), rate, gen, training)

        results = []
        for op in (composed, lambda tx, ts, gen: relu_dropout(tx, rate, gen, training, ts)):
            tx = Tensor(x.copy(), requires_grad=True)  # relu_dropout computes in place in it
            ts = None if s is None else Tensor(s, requires_grad=True)
            inputs = [tx] if ts is None else [tx, ts]
            gen = np.random.default_rng(drop_seed)
            # inf - inf and inf * 0 are invalid on both sides alike
            with np.errstate(invalid="ignore"):
                y, grads = tape_gradients(lambda: op(tx, ts, gen), inputs, g)
            results.append((y, grads, gen.random()))
        (y_ref, g_ref, next_ref), (y, grads, next_draw) = results
        assert np.array_equal(bits(y), bits(y_ref))
        assert len(grads) == len(g_ref)
        for got, want in zip(grads, g_ref):
            assert np.array_equal(bits(got), bits(want))
        assert next_draw == next_ref

"""Dense float64 tensors and tape-based reverse-mode differentiation.

Every differentiable operation is a module-level function that computes its
forward value with numpy and, when a GradTape is active, records a node whose
closure produces the input gradients from the output gradient.  Nodes are
appended in execution order, so the tape is topologically sorted by
construction and ``backward`` is a single reverse sweep.

Sequence activations are channel-major: ``(C, B, L)``, C-contiguous, with
each group's channels a contiguous block of axis 0.  A grouped convolution's
GEMM then reads and writes its operands in place, and length-wise ops work on
the last axis.  Model inputs and predictions stay ``(B, L, N)``; the model
changes layout only at the pyramid's edges, and ``group_features`` writes the
branch outputs straight into the batch-major features.

A node's closure keeps only what its backward needs, taken from the op's
input and output arrays where it can be: a convolution keeps its input and
weight, not the k-fold im2col copy of the input; its backward rebuilds that
copy with the forward's own ``_im2col``.  ``relu_dropout`` fuses an RTBlock
activation (the shortcut join, relu and dropout) into one node and computes
it in place in its input, a fresh conv or norm output that no backward
reads, so the two share one array; ``relu``, ``dropout`` and
``channel_upsample`` remain as the reference it is tested against.
``backward`` spends the tape, popping each node before it runs, so what only
that node kept is freed as the sweep moves toward the inputs.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import ConfigError, DimensionError, NumericalError


class Tensor:
    """A dense float64 array that can participate in gradient recording."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data, dtype=np.float64)
        # np.ascontiguousarray would turn a 0-d scalar into shape (1,)
        self.data = data if data.flags.c_contiguous else np.ascontiguousarray(data)
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class Module:
    """A model part whose parameters and buffers are found from its attributes.

    A Tensor attribute is a parameter and an ndarray attribute a buffer.  A
    Module attribute nests under its attribute name, and the items of a list
    attribute ``blocks`` under ``block0``, ``block1``, ...; None and names
    that start with an underscore are skipped.  Everything is found in
    assignment order, so the dotted names and their order are the checkpoint
    format.
    """

    def _children(self):
        for name, value in vars(self).items():
            if name.startswith("_"):
                continue
            if name == "blocks":
                yield from ((f"block{j}", block) for j, block in enumerate(value))
            else:
                yield name, value

    def _named(self, kind: type, prefix: str):
        for name, value in self._children():
            path = f"{prefix}.{name}" if prefix else name
            if isinstance(value, kind):
                yield path, value
            elif isinstance(value, Module):
                yield from value._named(kind, path)

    def named_parameters(self, prefix: str = ""):
        return self._named(Tensor, prefix)

    def named_buffers(self, prefix: str = ""):
        return self._named(np.ndarray, prefix)

    def state(self) -> dict[str, np.ndarray]:
        """Name -> live array of every parameter, then every buffer."""
        state = {name: p.data for name, p in self.named_parameters()}
        state.update(self.named_buffers())
        return state

    def load_state(self, values: dict[str, np.ndarray]) -> None:
        """Copy ``values[name]`` into every live array of ``state()``."""
        for name, target in self.state().items():
            if values[name].shape != target.shape:
                raise DimensionError(f"array {name!r} has shape {values[name].shape}, "
                                     f"expected {target.shape}")
            target[...] = values[name]


class TapeNode:
    __slots__ = ("inputs", "output", "grad_fn")

    def __init__(self, inputs: tuple[Tensor, ...], output: Tensor,
                 grad_fn: Callable[[np.ndarray], tuple[Optional[np.ndarray], ...]]):
        self.inputs = inputs
        self.output = output
        self.grad_fn = grad_fn


class GradTape:
    """Ordered record of primitive applications.

    Usable as a context manager; while active, every op whose output requires
    gradients appends one node.  Execution order guarantees every node's
    inputs precede it.  ``backward`` spends a tape, so it runs once per tape.
    """

    def __init__(self):
        self.nodes: list[TapeNode] = []
        self.spent = False

    def __enter__(self) -> "GradTape":
        _tape_stack().append(self)
        return self

    def __exit__(self, *exc) -> None:
        popped = _tape_stack().pop()
        assert popped is self, "mismatched GradTape nesting"


_TAPE_LOCAL = threading.local()  # recording is per-thread; training steps stay single-writer


def _tape_stack() -> list:
    stack = getattr(_TAPE_LOCAL, "stack", None)
    if stack is None:
        stack = _TAPE_LOCAL.stack = []
    return stack


def _active_tape() -> Optional[GradTape]:
    stack = _tape_stack()
    return stack[-1] if stack else None


def _make(inputs: Sequence[Tensor], out_data: np.ndarray,
          grad_fn: Callable[[np.ndarray], tuple[Optional[np.ndarray], ...]]) -> Tensor:
    out = Tensor(out_data, requires_grad=any(t.requires_grad for t in inputs))
    tape = _active_tape()
    if tape is not None and out.requires_grad:
        tape.nodes.append(TapeNode(tuple(inputs), out, grad_fn))
    return out


def backward(tape: GradTape, root: Tensor, params: Iterable[Tensor],
             seed: np.ndarray | float | None = None) -> None:
    """Set ``grad`` on each tensor in ``params``, and on no other tensor.

    A tensor in ``params`` gets its gradient of ``root``, or exact zeros when
    it does not require gradients or no recorded path reaches it.  ``root``
    must be scalar unless an explicit ``seed`` gradient of the same shape is
    given.  The sweep spends the tape: it pops each node before running it,
    so what only that node kept is freed as the sweep moves toward the
    inputs, and the tape is empty afterwards.
    """
    if tape.spent:
        # its nodes are gone, so every gradient would read as zero
        raise ConfigError("backward: this tape was already spent by an earlier backward")
    if seed is None:
        if root.size != 1:
            raise DimensionError("non-scalar backward root requires an explicit seed gradient")
        seed_arr = np.ones_like(root.data)
    else:
        seed_arr = np.asarray(seed, dtype=np.float64)
        if seed_arr.shape != root.data.shape:
            raise DimensionError(
                f"seed shape {seed_arr.shape} does not match root shape {root.data.shape}")

    flowing: dict[int, np.ndarray] = {id(root): seed_arr}
    tape.spent = True
    nodes = tape.nodes
    while nodes:
        # popping spends the tape: once ``node`` is rebound, the node's
        # closure and every array only it held are freed
        node = nodes.pop()
        g_out = flowing.pop(id(node.output), None)
        if g_out is not None:
            _accumulate(flowing, node.inputs, node.grad_fn(g_out))

    for p in params:
        g = flowing.get(id(p)) if p.requires_grad else None
        p.grad = np.zeros_like(p.data) if g is None else np.ascontiguousarray(g)


def _accumulate(flowing: dict[int, np.ndarray], inputs: tuple[Tensor, ...],
                grads: tuple[Optional[np.ndarray], ...]) -> None:
    """Add each input's gradient into ``flowing``; the summed-away arrays die on return."""
    for t, g in zip(inputs, grads):
        if g is not None and t.requires_grad:
            acc = flowing.get(id(t))
            flowing[id(t)] = g if acc is None else acc + g


# ---------------------------------------------------------------------------
# elementwise and structural primitives
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise DimensionError(f"add: shape mismatch {a.data.shape} vs {b.data.shape}")
    return _make([a, b], a.data + b.data, lambda g: (g, g))


def relu(a: Tensor) -> Tensor:
    out = np.maximum(a.data, 0.0)
    return _make([a], out, lambda g: (g * (out > 0.0),))


def _dropout_keep(shape: tuple[int, ...], rate: float, rng: np.random.Generator | None,
                  training: bool) -> Optional[np.ndarray]:
    """The keep mask of inverted dropout, or None when nothing is dropped.

    A (C, B, L) mask is drawn in (B, C, L) order, so a generator state drops
    the same (b, c, l) units whatever the activation layout.
    """
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must lie in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return None
    if rng is None:
        raise ConfigError("dropout in training mode needs a random generator, got rng=None")
    if len(shape) == 3:
        return (rng.random((shape[1], shape[0], shape[2])) >= rate).transpose(1, 0, 2)
    return rng.random(shape) >= rate


def dropout(a: Tensor, rate: float, rng: np.random.Generator | None, training: bool) -> Tensor:
    """Inverted dropout: scales survivors by 1/(1-rate) so eval is identity."""
    mask = _dropout_keep(a.data.shape, rate, rng, training)
    if mask is None:
        return a
    # (a*q)*mask equals a*(mask/(1-rate)) bit for bit, and the tape keeps
    # one byte per element instead of a float64 keep array
    q = 1.0 / (1.0 - rate)
    out = a.data * q
    out *= mask
    return _make([a], out, lambda g: (g * q * mask,))


def relu_dropout(x: Tensor, rate: float, rng: np.random.Generator | None, training: bool,
                 shortcut: Tensor | None = None) -> Tensor:
    """``dropout(relu(x + channel_upsample(shortcut, C_x / C_s)))`` as one op.

    It takes ownership of ``x``: the result is computed in place in
    ``x.data`` and returned over that same array, so ``x`` must be a fresh
    output whose own backward does not read it, as a conv's or a norm's
    does not.  That array is all the node keeps: since 1/(1-rate) >= 1, an
    output is positive exactly where its unit was kept and its relu was
    positive, so backward is ``g * q * (out > 0)``.  The shortcut's gradient
    sums that over each channel's repeats.  Values, gradients and generator
    draws are those of the composed ops, bit for bit.
    """
    shape = x.data.shape
    mask = _dropout_keep(shape, rate, rng, training)
    out = x.data
    if shortcut is None:
        inputs, split = [x], None
    else:
        c_s = shortcut.data.shape[0] if shortcut.data.ndim == 3 else 0
        if c_s == 0 or shape[1:] != shortcut.data.shape[1:] or shape[0] % c_s:
            raise DimensionError(f"relu_dropout: shortcut {shortcut.data.shape} does not repeat "
                                 f"to input {shape}")
        inputs, split = [x, shortcut], (c_s, shape[0] // c_s) + shape[1:]
        joined = out.reshape(split)
        np.add(joined, shortcut.data[:, None], out=joined)
    np.maximum(out, 0.0, out=out)
    q = None
    if mask is not None:
        q = 1.0 / (1.0 - rate)
        out *= q
        out *= mask

    def grad_fn(g):
        g_x = g * (out > 0.0) if q is None else g * q * (out > 0.0)
        if split is None:
            return (g_x,)
        return (g_x, g_x.reshape(split).sum(axis=1))

    return _make(inputs, out, grad_fn)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    old = a.data.shape
    return _make([a], a.data.reshape(shape), lambda g: (g.reshape(old),))


def permute(a: Tensor, axes: Sequence[int]) -> Tensor:
    """Reorder the axes as ``ndarray.transpose(axes)`` does, into a contiguous copy."""
    axes = tuple(axes)
    if sorted(axes) != list(range(a.data.ndim)):
        raise DimensionError(f"permute: axes {axes} do not reorder a {a.data.ndim}-D tensor")
    inverse = tuple(int(i) for i in np.argsort(axes))
    return _make([a], np.ascontiguousarray(a.data.transpose(axes)),
                 lambda g: (np.ascontiguousarray(g.transpose(inverse)),))


def transpose_12(a: Tensor) -> Tensor:
    """Swap axes 1 and 2 of a 3-D tensor."""
    if a.data.ndim != 3:
        raise DimensionError("transpose_12 expects a 3-D tensor")
    return permute(a, (0, 2, 1))


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    if not tensors:
        raise DimensionError("concat of zero tensors")
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes[:-1]).tolist()

    def grad_fn(g):
        return tuple(np.split(g, splits, axis=axis))

    return _make(list(tensors), np.concatenate([t.data for t in tensors], axis=axis), grad_fn)


def group_features(tensors: Sequence[Tensor], groups: int) -> Tensor:
    """Channel-major (C_i, B, L_i) tensors -> batch-major (B, groups, F) features.

    Group g's features are tensor 0's channel block g in (c, l) order, then
    tensor 1's block g, and so on.  Each input is copied once, straight into
    its place in the output.
    """
    if not tensors:
        raise DimensionError("group_features of zero tensors")
    B = tensors[0].data.shape[1]
    for t in tensors:
        if t.data.ndim != 3 or t.data.shape[1] != B or t.data.shape[0] % groups:
            raise DimensionError(f"group_features: input {t.data.shape} is not "
                                 f"(C, {B}, L) with C divisible by {groups}")
    blocks = [(t.data.shape[0] // groups, t.data.shape[2]) for t in tensors]
    ends = np.cumsum([cpg * length for cpg, length in blocks]).tolist()
    out = np.empty((B, groups, ends[-1]))
    for t, (cpg, length), end in zip(tensors, blocks, ends):
        dst = out[:, :, end - cpg * length:end].reshape(B, groups, cpg, length)
        dst[...] = t.data.reshape(groups, cpg, B, length).transpose(2, 0, 1, 3)

    def grad_fn(g):
        return tuple(
            np.ascontiguousarray(g[:, :, end - cpg * length:end]
                                 .reshape(B, groups, cpg, length).transpose(1, 2, 0, 3))
            .reshape(groups * cpg, B, length)
            for (cpg, length), end in zip(blocks, ends))

    return _make(list(tensors), out, grad_fn)


# ---------------------------------------------------------------------------
# convolution family
# ---------------------------------------------------------------------------

def _conv_out_len(length: int, k: int, stride: int, padding: int) -> int:
    return (length + 2 * padding - k) // stride + 1


def _taps(length: int, k: int, stride: int, padding: int, l_out: int):
    """For each tap j: the output range [lo, hi) whose tap-j reads land on
    real input, and the strided input slice those reads take.  Outputs
    outside [lo, hi) read padding at tap j."""
    for j in range(k):
        lo = min(l_out, max(0, -((j - padding) // stride)))
        hi = max(lo, min(l_out, (length - 1 + padding - j) // stride + 1))
        start = lo * stride + j - padding
        yield j, lo, hi, slice(start, start + (hi - lo) * stride, stride)


def _im2col(xv: np.ndarray, taps, k: int, l_out: int) -> np.ndarray:
    """(groups, cpg, B, L) input -> (groups, cpg*k, B*l_out) im2col columns.

    Filled tap by tap, so every copy runs along the sequence axis; only the
    outputs whose tap reads padding are zeroed.
    """
    groups, cpg, B, _ = xv.shape
    cols = np.empty((groups, cpg, k, B, l_out))
    for j, lo, hi, src in taps:
        cols[:, :, j, :, :lo] = 0.0
        cols[:, :, j, :, hi:] = 0.0
        cols[:, :, j, :, lo:hi] = xv[..., src]
    return cols.reshape(groups, cpg * k, B * l_out)


def conv1d_grouped(x: Tensor, weight: Tensor, bias: Tensor,
                   stride: int = 1, padding: int = 0, groups: int = 1) -> Tensor:
    """Grouped 1-D convolution: (C_in,B,L) -> (C_out,B,L_out).

    weight is (C_out, C_in/groups, k); output channel block g sees only input
    channel block g.  The tape node keeps the input and the weight, not the
    im2col columns: backward rebuilds them from the input for the weight
    gradient's GEMM.  The input gradient is computed only when x requires it.
    """
    if x.data.ndim != 3 or weight.data.ndim != 3:
        raise DimensionError(f"conv1d_grouped: input {x.data.shape}, weight {weight.data.shape}")
    c_in, B, length = x.data.shape
    c_out, cpg, k = weight.data.shape
    if stride < 1 or padding < 0:
        raise ConfigError(f"conv1d_grouped: stride {stride}, padding {padding}")
    if groups < 1 or c_in % groups or c_out % groups:
        raise ConfigError(f"conv1d_grouped: groups={groups} must divide C_in={c_in} and C_out={c_out}")
    if cpg != c_in // groups:
        raise DimensionError(f"conv1d_grouped: weight expects {cpg} channels/group, input has {c_in // groups}")
    if bias.data.shape != (c_out,):
        raise DimensionError(f"conv1d_grouped: bias shape {bias.data.shape} != ({c_out},)")
    if length + 2 * padding < k:
        raise DimensionError(f"conv1d_grouped: kernel {k} exceeds padded length {length + 2 * padding}")

    l_out = _conv_out_len(length, k, stride, padding)
    opg = c_out // groups
    taps = list(_taps(length, k, stride, padding, l_out))
    xv = x.data.reshape(groups, cpg, B, length)
    w_cols = weight.data.reshape(groups, opg, cpg * k)
    # the (groups, opg, B*l_out) product is already the (C_out, B, L_out) output
    out = np.matmul(w_cols, _im2col(xv, taps, k, l_out))
    out += bias.data.reshape(groups, opg, 1)
    need_gx = x.requires_grad

    def grad_fn(g):
        go = g.reshape(groups, opg, B * l_out)
        # the rebuilt columns are freed before g_cols is allocated
        g_w = np.matmul(go, _im2col(xv, taps, k, l_out).transpose(0, 2, 1)).reshape(c_out, cpg, k)
        g_b = g.sum(axis=(1, 2))
        if not need_gx:
            return (None, g_w, g_b)
        g_cols = np.matmul(w_cols.transpose(0, 2, 1), go).reshape(groups, cpg, k, B, l_out)
        g_x = np.zeros((c_in, B, length))
        g_xv = g_x.reshape(groups, cpg, B, length)
        for j, lo, hi, src in taps:
            g_xv[..., src] += g_cols[:, :, j, :, lo:hi]
        return (g_x, g_w, g_b)

    return _make([x, weight, bias], out.reshape(c_out, B, l_out), grad_fn)


def maxpool1d(x: Tensor, k: int, stride: int, padding: int = 0) -> Tensor:
    """Max pooling over windows of the last axis; gradient routes to the first argmax."""
    if x.data.ndim != 3:
        raise DimensionError(f"maxpool1d: input {x.data.shape}")
    if k < 1 or stride < 1 or padding < 0:
        raise ConfigError(f"maxpool1d: k={k}, stride={stride}, padding={padding}")
    if padding >= k:
        raise ConfigError(f"maxpool1d: padding {padding} must be < kernel {k}")
    C, B, length = x.data.shape
    if length + 2 * padding < k:
        raise DimensionError(f"maxpool1d: window {k} exceeds padded length {length + 2 * padding}")

    l_out = _conv_out_len(length, k, stride, padding)
    taps = list(_taps(length, k, stride, padding, l_out))
    xd = x.data
    # padding reads as -inf, so each tap takes the maximum only over the
    # outputs where it reads real input
    out = np.full((C, B, l_out), -np.inf)
    for _, lo, hi, src in taps:
        np.maximum(out[:, :, lo:hi], xd[:, :, src], out=out[:, :, lo:hi])

    def grad_fn(g):
        # a tap takes the gradient where it equals the window maximum and no
        # earlier tap did, so ties route to the first argmax
        g_x = np.zeros((C, B, length))
        routed = np.zeros(out.shape, dtype=bool)
        for _, lo, hi, src in taps:
            hit = xd[:, :, src] == out[:, :, lo:hi]
            np.greater(hit, routed[:, :, lo:hi], out=hit)  # hit and not yet routed
            routed[:, :, lo:hi] |= hit
            g_x[:, :, src] += np.where(hit, g[:, :, lo:hi], 0.0)
        return (g_x,)

    return _make([x], out, grad_fn)


def channel_upsample(x: Tensor, factor: int) -> Tensor:
    """Repeat each channel ``factor`` times contiguously, so group blocks stay contiguous."""
    if x.data.ndim != 3:
        raise DimensionError(f"channel_upsample: input {x.data.shape}")
    if factor < 1:
        raise ConfigError(f"channel_upsample: factor {factor} must be >= 1")
    C, B, length = x.data.shape
    out = np.repeat(x.data, factor, axis=0)

    def grad_fn(g):
        return (g.reshape(C, factor, B, length).sum(axis=1),)

    return _make([x], out, grad_fn)


def linear_grouped(x: Tensor, weight: Tensor, bias: Tensor, groups: int = 1) -> Tensor:
    """Grouped affine map: (B,F) -> (B,F_out), block g of the output reads block g of the input."""
    if x.data.ndim != 2 or weight.data.ndim != 2:
        raise DimensionError(f"linear_grouped: input {x.data.shape}, weight {weight.data.shape}")
    B, f_in = x.data.shape
    f_out, fpg = weight.data.shape
    if groups < 1 or f_in % groups or f_out % groups:
        raise ConfigError(f"linear_grouped: groups={groups} must divide F={f_in} and F_out={f_out}")
    if fpg != f_in // groups:
        raise DimensionError(f"linear_grouped: weight expects {fpg} features/group, input has {f_in // groups}")
    if bias.data.shape != (f_out,):
        raise DimensionError(f"linear_grouped: bias shape {bias.data.shape} != ({f_out},)")

    opg = f_out // groups
    xg = np.ascontiguousarray(x.data.reshape(B, groups, fpg).transpose(1, 0, 2))
    wg = weight.data.reshape(groups, opg, fpg)
    out = np.matmul(xg, wg.transpose(0, 2, 1))               # (g, B, opg)
    out = np.ascontiguousarray(out.transpose(1, 0, 2)).reshape(B, f_out) + bias.data

    def grad_fn(g):
        go = np.ascontiguousarray(g.reshape(B, groups, opg).transpose(1, 0, 2))
        g_w = np.matmul(go.transpose(0, 2, 1), xg).reshape(f_out, fpg)
        g_x = np.ascontiguousarray(
            np.matmul(go, wg).transpose(1, 0, 2)).reshape(B, f_in)
        return (g_x, g_w, g.sum(axis=0))

    return _make([x, weight, bias], out, grad_fn)


def mse_loss(pred: Tensor, truth: np.ndarray) -> tuple[Tensor, np.ndarray]:
    """Mean squared error of a (B, L_out, N) prediction, as one node.

    Returns (scalar sum of the per-variate means for backward, the (N,)
    per-variate means).  The node keeps only the difference ``pred - truth``.
    """
    truth = np.asarray(truth, dtype=np.float64)
    if pred.data.shape != truth.shape:
        raise DimensionError(f"mse_loss: {pred.data.shape} vs {truth.shape}")
    if pred.data.ndim != 3:
        raise DimensionError("mse_loss expects (B, L_out, N)")
    diff = pred.data - truth
    denom = diff.shape[0] * diff.shape[1]
    per_variate = np.einsum("bln,bln->n", diff, diff) / denom
    total = _make([pred], np.asarray(per_variate.sum()), lambda g: (diff * (2.0 * g / denom),))
    return total, per_variate


def contrastive_loss(reps: Tensor, n_windows: int, n_augments: int
                     ) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """Similarity-ratio loss over (total, groups, features) representations.

    Returns (scalar total for backward, per-variate means, per-window losses).
    For window m: -log[(e + sum_i sim(h_m, h_mi)) / sum over all instances of
    sim(h_m, .)], with sim(u, v) = exp(|u.v| / (|u||v|)); the literal constant
    e stands in for the self-similarity sim(h_m, h_m).  Instance i of window
    m sits at n_windows + m*n_augments + i.

    Every group runs at once, as one node: h scales each representation to
    unit norm, and one batched GEMM of the n original windows against all T
    instances gives the (G, n, T) dot products.  The node keeps the inverse
    norms, the dot products, their similarities and the (G, n) sums, not h:
    backward rebuilds h from ``reps``, bit for bit.
    """
    x = reps.data
    n = n_windows
    if x.ndim != 3 or not 0 < n <= x.shape[0]:  # before any array is sized by them
        raise DimensionError(f"contrastive_loss: {n} windows of {x.shape}; needs 3-D "
                             f"representations and 1 <= windows <= instances")
    total_inst = x.shape[0]
    if total_inst != (1 + n_augments) * n:
        raise ConfigError(f"{total_inst} instances != (1+{n_augments})*{n}")
    mask = np.zeros((n, total_inst))
    for m in range(n):
        mask[m, n + m * n_augments: n + (m + 1) * n_augments] = 1.0
    norms = np.linalg.norm(x, axis=-1)
    bad = np.argwhere(norms == 0.0)
    if bad.size:
        raise NumericalError(f"contrastive_loss: zero-norm representations at "
                             f"(instance, group) {bad.tolist()}")
    inv = 1.0 / norms[..., None]
    h = (x * inv).transpose(1, 0, 2)  # (G, T, F) view
    dots = np.matmul(h[:, :n], h.transpose(0, 2, 1))
    sims = np.exp(np.abs(dots))
    den = sims.sum(axis=2)
    num = (sims * mask).sum(axis=2) + np.e
    per_window = np.log(den) - np.log(num)
    per_variate = per_window.sum(axis=1) * (1.0 / n)

    def grad_fn(g):
        g_win = g * (1.0 / n)
        g_dots = (-g_win / num)[..., None] * mask
        g_dots += (g_win / den)[..., None]
        g_dots *= sims
        g_dots *= np.sign(dots)
        # d(h_m . h_t) reaches both factors: every instance takes the original
        # windows' share, and the originals also take every instance's
        h = x * inv
        ag = h.transpose(1, 0, 2)
        g_h = np.empty(x.shape)
        np.matmul(g_dots.transpose(0, 2, 1), ag[:, :n], out=g_h.transpose(1, 0, 2))
        g_h[:n] += np.matmul(g_dots, ag).transpose(1, 0, 2)
        # d(x/|x|) = (g - h (g . h)) / |x|, along the last axis, in place
        h *= np.einsum("...f,...f->...", g_h, h)[..., None]
        np.subtract(g_h, h, out=g_h)
        del h, ag
        g_h *= inv
        return (g_h,)

    return _make([reps], np.asarray(per_variate.sum()), grad_fn), per_variate, per_window

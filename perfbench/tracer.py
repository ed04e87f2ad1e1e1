"""Span tracing installed from outside the program.

``Tracer.install`` replaces the layer functions at the bindings the program
calls them through (for example ``rtnet.model.conv1d_grouped``, which
``ConvUnit.forward`` looks up at call time) with wrappers that record a span
per call.  Every tape node recorded inside a wrapped call gets its
``grad_fn`` wrapped too, so backward time is attributed per op.  Wrappers
only time and count; they pass arguments and results through untouched, so a
traced run computes bit-identical numbers.

Spans are kept in memory as ``[name, start, end, parent]`` and written out
when the run ends.  A span's self time is its duration minus the time its
children cover.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

from rtnet import data, model, optim, relation, tensor, training

POINTWISE = ("relu", "dropout", "add", "channel_upsample", "concat", "reshape", "transpose_12")
OTHER_BWD = "tensor.other.bwd"


class _TimedGrad:
    """A tape node's grad_fn, timed as a span and optionally counted."""

    __slots__ = ("fn", "name", "tracer", "counts")

    def __init__(self, fn, name: str, tracer: "Tracer", counts: tuple = ()):
        self.fn = fn
        self.name = name
        self.tracer = tracer
        self.counts = counts

    def __call__(self, g):
        tr = self.tracer
        idx = tr.open(self.name)
        try:
            return self.fn(g)
        finally:
            tr.close(idx)
            for key, amount in self.counts:
                tr.count(key, amount)


def _matmul_counts(op: str, x: np.ndarray, w: np.ndarray, out: np.ndarray,
                   macs: int) -> tuple[tuple, tuple]:
    """(forward, backward) FLOP and compulsory byte counts of one weight op
    with a bias of w.shape[0]; backward computes both input and weight
    gradients, so it does twice the forward FLOP."""
    flop, nbytes = f"tensor.{op}.flop", f"tensor.{op}.bytes"
    fwd_bytes = 8 * (x.size + w.size + w.shape[0] + out.size)
    bwd_bytes = 8 * (out.size + 2 * x.size + 2 * w.size + w.shape[0])
    return ((flop, 2 * macs), (nbytes, fwd_bytes)), ((flop, 4 * macs), (nbytes, bwd_bytes))


def _conv_counts(args, kwargs, out) -> tuple[tuple, tuple]:
    x, w = args[0].data, args[1].data
    batch, c_out, l_out = out.data.shape
    return _matmul_counts("conv1d_grouped", x, w, out.data, batch * c_out * l_out * w[0].size)


def _linear_counts(args, kwargs, out) -> tuple[tuple, tuple]:
    x, w = args[0].data, args[1].data
    return _matmul_counts("linear_grouped", x, w, out.data, x.shape[0] * w.size)


def tape_bytes(nodes) -> int:
    """Bytes of distinct arrays a tape keeps alive: node outputs and arrays
    captured by the grad_fn closures."""
    seen: set[int] = set()
    total = 0

    def visit(a: np.ndarray) -> None:
        nonlocal total
        while isinstance(a.base, np.ndarray):
            a = a.base
        if id(a) not in seen:
            seen.add(id(a))
            total += a.nbytes

    for node in nodes:
        visit(node.output.data)
        fn = node.grad_fn.fn if isinstance(node.grad_fn, _TimedGrad) else node.grad_fn
        for cell in getattr(fn, "__closure__", None) or ():
            try:
                value = cell.cell_contents
            except ValueError:
                continue
            if isinstance(value, np.ndarray):
                visit(value)
    return total


class Tracer:
    """In-memory spans, per-step records and tape sizes of one traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.step_counters: dict[str, float] = defaultdict(float)
        self.eval_depth = 0
        self.step: dict | None = None
        self.steps: list[dict] = []
        self.tape_nodes = 0
        self.tape_peak_bytes = 0
        self.adam_params: dict[int, int] = {}

    # -- spans and counters ---------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        if self.stack.pop() != idx:
            raise RuntimeError(f"span {self.spans[idx][0]!r} closed out of order")

    def count(self, key: str, amount: float) -> None:
        """Add work done inside a training step (not inside evaluate)."""
        if self.step is not None and self.eval_depth == 0:
            self.step_counters[key] += amount

    # -- wrapping ---------------------------------------------------------------

    def _tag_nodes(self, tape, start: int, name: str, counts: tuple = ()) -> None:
        for node in tape.nodes[start:]:
            if not isinstance(node.grad_fn, _TimedGrad):
                node.grad_fn = _TimedGrad(node.grad_fn, name, self, counts)

    def wrap(self, owner, attr: str, name: str, counter=None, before=None, after=None):
        """Replace ``owner.attr`` by a spanning wrapper; tape nodes recorded
        inside the call get a grad_fn span named ``name + '.bwd'``."""
        orig = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            tape = tensor._active_tape()
            n0 = len(tape.nodes) if tape is not None else 0
            if before is not None:
                before(args, kwargs)
            idx = tracer.open(name)
            try:
                out = orig(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(args, kwargs, out, idx)
            bwd_counts: tuple = ()
            if counter is not None:
                fwd_counts, bwd_counts = counter(args, kwargs, out)
                for key, amount in fwd_counts:
                    tracer.count(key, amount)
            if tape is not None and len(tape.nodes) > n0:
                tracer._tag_nodes(tape, n0, name + ".bwd", bwd_counts)
            return out

        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every measured layer at the bindings the program calls."""
        w = self.wrap
        # tensor: ops as model.py and training.py call them
        w(model, "conv1d_grouped", "tensor.conv1d_grouped", counter=_conv_counts)
        w(model, "maxpool1d", "tensor.maxpool1d")
        w(model, "linear_grouped", "tensor.linear_grouped", counter=_linear_counts)
        for op in POINTWISE:
            w(model, op, "tensor." + op)
        w(training, "backward", "tensor.backward", before=self._before_backward,
          after=self._after_backward)
        # norm
        w(model, "weight_norm_effective", "norm.weight_norm")
        # model
        w(model.RTNet, "__init__", "model.init")
        w(model.RTNet, "forward", "model.forward")
        w(model.Branch, "forward", "model.pyramid")
        w(model.TimeNet, "forward", "model.timenet")
        w(model.LinearUnit, "forward", "model.head")
        # data
        w(data, "load_csv", "data.load_csv",
          after=lambda args, kwargs, out, idx: self.spans[idx].append(len(out)))
        w(training, "gather_batch", "data.gather_batch", before=self._begin_step(None),
          after=self._after_data)
        w(data, "time_features", "data.time_features")
        # relation
        w(relation, "cos_relation_matrix", "relation.cos_relation_matrix")
        w(relation, "threshold_and_standardize", "relation.threshold_and_standardize")
        # optim
        w(optim.Adam, "__init__", "optim.adam_init", after=self._after_adam_init)
        w(optim.Adam, "zero_grad", "optim.zero_grad", after=self._after_zero_grad)
        w(optim.Adam, "step", "optim.adam", after=self._after_adam_step)
        # training
        w(training, "evaluate", "training.evaluate", before=self._before_eval,
          after=self._after_eval)
        w(training, "make_contrastive_batch", "training.contrastive_batch",
          before=self._begin_step(1), after=self._after_data)
        w(training, "contrastive_loss", "training.contrastive_loss")

    def wrap_head_time(self, net) -> None:
        """The time head is a ConvUnit like every pyramid conv, so its span is
        installed on the instance rather than the class."""
        if net.head_time is not None:
            self.wrap(net.head_time, "forward", "model.head")

    # -- hooks that delimit training steps and evaluation ------------------------

    def _begin_step(self, stage: int | None):
        """A training step starts with its batch: gather_batch outside
        evaluate, or make_contrastive_batch in stage 1."""
        def hook(args, kwargs) -> None:
            if self.eval_depth == 0:
                self.step = {"start": time.perf_counter(), "stage": stage, "data_s": 0.0,
                             "bwd_s": 0.0, "opt_s": 0.0}
                self.step_counters = defaultdict(float)
        return hook

    def _after_data(self, args, kwargs, out, idx) -> None:
        if self.step is not None and self.eval_depth == 0:
            s = self.spans[idx]
            self.step["data_s"] += s[2] - s[1]

    def _before_eval(self, args, kwargs) -> None:
        self.eval_depth += 1

    def _after_eval(self, args, kwargs, out, idx) -> None:
        self.eval_depth -= 1
        mdl, ds = args[0], args[1]
        cfg = mdl.cfg
        self.spans[idx].append(data.make_windows(len(ds), cfg.l_in, cfg.l_out).size)

    def _before_backward(self, args, kwargs) -> None:
        tape = args[0]
        self._tag_nodes(tape, 0, OTHER_BWD)
        if self.eval_depth == 0:
            self.tape_nodes = max(self.tape_nodes, len(tape.nodes))
            self.tape_peak_bytes = max(self.tape_peak_bytes, tape_bytes(tape.nodes))

    def _after_backward(self, args, kwargs, out, idx) -> None:
        if self.step is not None:
            s = self.spans[idx]
            self.step["bwd_s"] += s[2] - s[1]

    def _after_adam_init(self, args, kwargs, out, idx) -> None:
        opt = args[0]
        self.adam_params[id(opt)] = sum(p.size for p in opt.params)

    def _after_zero_grad(self, args, kwargs, out, idx) -> None:
        if self.step is not None:
            s = self.spans[idx]
            self.step["opt_s"] += s[2] - s[1]

    def _after_adam_step(self, args, kwargs, out, idx) -> None:
        step = self.step
        if step is None:
            return
        s = self.spans[idx]
        step["end"] = s[2]
        step["opt_s"] += s[2] - s[1]
        step["counters"] = dict(self.step_counters)
        self.steps.append(step)
        self.step = None

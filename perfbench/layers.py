"""Per-layer metrics of one traced repetition, derived from its spans.

Times sum a layer's spans over the training call and the test evaluation
(the ``train`` and ``eval`` root spans); set-up figures are medians over the
repetition's set-ups.  Work counts (FLOP, bytes, tape size) are computed from
array shapes, so they repeat exactly.
"""

from __future__ import annotations

import statistics

import numpy as np

from tracer import OTHER_BWD, POINTWISE

RUN_ROOTS = ("train", "eval")


class SpanTable:
    """Durations, self times and roots of a span list."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        n = len(spans)
        self.dur = np.array([s[2] - s[1] for s in spans])
        covered = np.zeros(n)
        self.root = list(range(n))
        for i, s in enumerate(spans):
            parent = s[3]
            if parent >= 0:
                covered[parent] += self.dur[i]
                self.root[i] = self.root[parent]
        self.self_time = self.dur - covered
        self.by_name: dict[str, list[int]] = {}
        for i, s in enumerate(spans):
            self.by_name.setdefault(s[0], []).append(i)

    def select(self, name: str, roots=RUN_ROOTS) -> list[int]:
        return [i for i in self.by_name.get(name, [])
                if self.spans[self.root[i]][0] in roots]

    def total(self, name: str, roots=RUN_ROOTS) -> float:
        return float(sum(self.dur[i] for i in self.select(name, roots)))

    def calls(self, name: str, roots=RUN_ROOTS) -> int:
        return len(self.select(name, roots))

    def per_setup(self, *names: str) -> float:
        """Median over set-ups of the time the named spans took in each."""
        per_root = {i: 0.0 for i in self.by_name.get("setup", [])}
        for name in names:
            for i in self.select(name, roots=("setup",)):
                per_root[self.root[i]] += self.dur[i]
        return statistics.median(per_root.values()) if per_root else 0.0


def _percentile_ms(durations: list[float], q: float) -> float:
    return float(np.percentile(np.array(durations) * 1000.0, q)) if durations else 0.0


def layer_metrics(tracer, out: dict) -> dict:
    """Every per-layer metric of the benchmark for one traced repetition."""
    t = SpanTable(tracer.spans)
    m: dict[str, float] = {}

    steps = tracer.steps
    n_steps = max(len(steps), 1)
    per_step: dict[str, float] = {}
    for s in steps:
        for key, amount in s["counters"].items():
            per_step[key] = per_step.get(key, 0.0) + amount / n_steps

    # tensor
    for op in ("conv1d_grouped", "maxpool1d", "linear_grouped"):
        m[f"tensor.{op}.fwd_s"] = t.total(f"tensor.{op}")
        m[f"tensor.{op}.bwd_s"] = t.total(f"tensor.{op}.bwd")
    m["tensor.conv1d_grouped.calls"] = t.calls("tensor.conv1d_grouped")
    for op in ("conv1d_grouped", "linear_grouped"):
        m[f"tensor.{op}.gflop"] = per_step.get(f"tensor.{op}.flop", 0.0) / 1e9
        m[f"tensor.{op}.mb"] = per_step.get(f"tensor.{op}.bytes", 0.0) / 1e6
    m["tensor.pointwise.fwd_s"] = sum(t.total("tensor." + op) for op in POINTWISE)
    m["tensor.pointwise.bwd_s"] = sum(t.total(f"tensor.{op}.bwd") for op in POINTWISE)
    m["tensor.other.bwd_s"] = t.total(OTHER_BWD)
    backward = t.select("tensor.backward")
    m["tensor.backward.s"] = float(sum(t.dur[i] for i in backward))
    m["tensor.backward.bookkeeping_s"] = float(sum(t.self_time[i] for i in backward))
    m["tensor.tape_nodes"] = tracer.tape_nodes
    m["tensor.tape_mb"] = tracer.tape_peak_bytes / 1e6

    # norm
    m["norm.weight_norm.fwd_s"] = t.total("norm.weight_norm")
    m["norm.weight_norm.bwd_s"] = t.total("norm.weight_norm.bwd")
    m["norm.weight_norm.calls"] = t.calls("norm.weight_norm")

    # model
    m["model.forward.calls"] = t.calls("model.forward")
    m["model.forward.s"] = t.total("model.forward")
    m["model.pyramid.s"] = t.total("model.pyramid")
    m["model.timenet.s"] = t.total("model.timenet")
    m["model.head.s"] = t.total("model.head")
    m["model.init_s"] = t.per_setup("model.init")
    m["model.params"] = out["params"]

    # data
    m["data.load_csv.s"] = t.per_setup("data.load_csv")
    loads = t.select("data.load_csv", roots=("setup",))
    m["data.load_csv.rows"] = tracer.spans[loads[0]][4] if loads else 0
    m["data.gather_batch.s"] = t.total("data.gather_batch")
    m["data.gather_batch.calls"] = t.calls("data.gather_batch")
    m["data.time_features.s"] = t.total("data.time_features")

    # relation
    m["relation.matrix.s"] = t.per_setup("relation.cos_relation_matrix",
                                         "relation.threshold_and_standardize")

    # optim
    m["optim.adam.s"] = t.total("optim.adam")
    m["optim.adam.calls"] = t.calls("optim.adam")
    m["optim.params"] = sum(tracer.adam_params.values())

    # training
    train_s = out["train_s"]
    single = [s["end"] - s["start"] for s in steps if s["stage"] is None]
    stage1 = [s["end"] - s["start"] for s in steps if s["stage"] == 1]
    m["training.steps"] = len(steps)
    m["training.step_ms.p50"] = _percentile_ms(single, 50)
    m["training.step_ms.p99"] = _percentile_ms(single, 99)
    m["training.stage1.step_ms.p50"] = _percentile_ms(stage1, 50)
    m["training.stage1.step_ms.p99"] = _percentile_ms(stage1, 99)
    data_s = sum(s["data_s"] for s in steps)
    bwd_s = sum(s["bwd_s"] for s in steps)
    opt_s = sum(s["opt_s"] for s in steps)
    m["training.step.data_s"] = data_s
    m["training.step.fwd_s"] = sum(s["end"] - s["start"] for s in steps) - data_s - bwd_s - opt_s
    m["training.step.bwd_s"] = bwd_s
    m["training.step.opt_s"] = opt_s
    validations = t.select("training.evaluate", roots=("train",))
    m["training.evaluate.s"] = float(sum(t.dur[i] for i in validations))
    m["training.evaluate.windows"] = sum(tracer.spans[i][4] for i in validations)
    m["training.eval_share"] = m["training.evaluate.s"] / train_s
    m["training.contrastive_batch.s"] = t.total("training.contrastive_batch", roots=("train",))
    m["training.contrastive_loss.fwd_s"] = t.total("training.contrastive_loss", roots=("train",))
    m["training.contrastive_loss.bwd_s"] = t.total("training.contrastive_loss.bwd",
                                                   roots=("train",))

    # reconciliation: self times under the train root plus the root's own
    # (unattributed) self time must add up to the measured train_s
    train_root = t.by_name["train"][0]
    under = [i for i in range(len(tracer.spans)) if t.root[i] == train_root and i != train_root]
    attributed = float(sum(t.self_time[i] for i in under))
    unattributed = float(t.self_time[train_root])
    m["trace.train_s"] = train_s
    m["trace.attributed_s"] = attributed
    m["trace.unattributed_s"] = unattributed
    m["trace.unattributed_share"] = unattributed / train_s
    m["trace.spans"] = len(under) + 1
    return m

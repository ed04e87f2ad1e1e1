"""RTNet: grouped residual pyramid forecaster with decoupled time embedding.

The backbone halves sequence length and doubles channels per block, so total
feature width is invariant in depth.  A causal pyramid runs one extractor per
block depth, extractor i seeing only the last half of what extractor i-1 saw.
Predictions come from a grouped linear head; calendar information enters only
through a separate stride-1 network over the prediction window's time marks.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigError, DataError, DimensionError
from .norm import (NORM_KINDS, BatchNormParams, LayerNormParams, batch_norm, layer_norm,
                   weight_norm_effective)
# concat, relu, dropout and channel_upsample are not called here; they stay
# bound as rtnet.model.<name>, the names perfbench/tracer.py times them under
from .tensor import (Module, Tensor, add, channel_upsample, concat, conv1d_grouped, dropout,  # noqa: F401
                     group_features, linear_grouped, maxpool1d, permute, relu, relu_dropout,
                     reshape, transpose_12)

CHECKPOINT_MAGIC = b"RTNET1"
TIME_MODES = ("decoupled", "input", "none")


@dataclass
class ModelConfig:
    l_in: int
    l_out: int
    n_variates: int
    d_channels: int
    blocks: int = 3
    groups: int = 1
    n_time: int = 6
    time_mode: str = "none"
    theta_degrees: float = 45.0
    norm_kind: str = "wn"
    dropout: float = 0.1
    kernel: int = 3

    def validate(self) -> None:
        if self.blocks < 1:
            raise ConfigError(f"blocks must be >= 1, got {self.blocks}")
        if self.l_in % (1 << self.blocks):
            raise ConfigError(f"l_in={self.l_in} must be divisible by 2^blocks={1 << self.blocks}")
        if self.l_out < 1:
            raise ConfigError(f"l_out must be >= 1, got {self.l_out}")
        if self.groups not in (1, self.n_variates):
            raise ConfigError(f"groups must be 1 or n_variates={self.n_variates}, got {self.groups}")
        if self.d_channels % self.groups:
            raise ConfigError(f"d_channels={self.d_channels} must be divisible by groups={self.groups}")
        if self.kernel < 1 or self.kernel % 2 == 0:
            raise ConfigError(f"kernel must be odd and >= 1, got {self.kernel}")
        if self.norm_kind not in NORM_KINDS:
            raise ConfigError(f"norm_kind must be one of {NORM_KINDS}, got {self.norm_kind!r}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must lie in [0, 1), got {self.dropout}")
        if self.time_mode not in TIME_MODES:
            raise ConfigError(f"time_mode must be one of {TIME_MODES}, got {self.time_mode!r}")
        if self.time_mode != "none" and self.n_time < 1:
            raise ConfigError("time features enabled but n_time < 1")
        if not 0.0 <= self.theta_degrees <= 90.0:
            raise ConfigError(f"theta_degrees must lie in [0, 90], got {self.theta_degrees}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        unknown = set(d) - {f for f in cls.__dataclass_fields__}
        if unknown:
            raise ConfigError(f"unknown model config keys: {sorted(unknown)}")
        cfg = cls(**d)
        cfg.validate()
        return cfg


class WeightedUnit(Module):
    """A weight, as weight-norm direction ``v`` and scale ``g`` or plain, plus a bias.

    Weight norm starts at w == ``w0``: ``g`` is each output channel's norm.
    """

    def __init__(self, w0: np.ndarray, norm_kind: str):
        self.v = self.g = self.weight = None
        if norm_kind == "wn":
            self.v = Tensor(w0, requires_grad=True)
            self.g = Tensor(np.sqrt((w0.reshape(w0.shape[0], -1) ** 2).sum(axis=1)),
                            requires_grad=True)
        else:
            self.weight = Tensor(w0, requires_grad=True)
        self.bias = Tensor(np.zeros(w0.shape[0]), requires_grad=True)

    def effective_weight(self) -> Tensor:
        return self.weight if self.v is None else weight_norm_effective(self.v, self.g)


class ConvUnit(WeightedUnit):
    """Grouped convolution with the model's normalization scheme attached.

    Weight norm reparameterizes the kernel; batch/layer norm follow the
    convolution output, layer norm within each group's channels.
    ``post_norm=False`` marks projection heads, which keep weight norm but
    never normalize their outputs.
    """

    def __init__(self, c_in: int, c_out: int, kernel: int, stride: int, groups: int,
                 norm_kind: str, rng: np.random.Generator, post_norm: bool = True):
        self.stride = stride
        self.padding = kernel // 2
        self.groups = groups
        cpg = c_in // groups
        super().__init__(rng.normal(0.0, np.sqrt(2.0 / (cpg * kernel)), (c_out, cpg, kernel)),
                         norm_kind)
        self.bn = BatchNormParams.create(c_out) if (post_norm and norm_kind == "bn") else None
        self.ln = LayerNormParams.create(c_out) if (post_norm and norm_kind == "ln") else None
        if self.ln is not None and c_out // groups < 2:
            raise ConfigError(f"layer norm needs >= 2 channels per group, got {c_out} "
                              f"channels in {groups} groups")

    def forward(self, x: Tensor, training: bool) -> Tensor:
        y = conv1d_grouped(x, self.effective_weight(), self.bias,
                           stride=self.stride, padding=self.padding, groups=self.groups)
        if self.bn is not None:
            y = batch_norm(y, self.bn, training)
        if self.ln is not None:
            y = layer_norm(y, self.ln, self.groups)
        return y


class LinearUnit(WeightedUnit):
    """Grouped affine projection with optional weight-norm reparameterization."""

    def __init__(self, f_in: int, f_out: int, groups: int, norm_kind: str,
                 rng: np.random.Generator):
        self.groups = groups
        fpg = f_in // groups
        super().__init__(rng.normal(0.0, np.sqrt(1.0 / fpg), (f_out, fpg)), norm_kind)

    def forward(self, x: Tensor) -> Tensor:
        return linear_grouped(x, self.effective_weight(), self.bias, groups=self.groups)


class RTBlock(Module):
    """Residual block: halve the sequence, double the channels.

    Main path: strided conv -> norm -> relu -> conv -> norm.  Shortcut:
    maxpool + channel repetition, so the residual sum needs no projection.
    Each relu, with its dropout and, at the end, the residual sum, is one
    ``relu_dropout`` op, so the repeated shortcut and the sum never exist.
    """

    def __init__(self, c_in: int, kernel: int, groups: int, norm_kind: str,
                 drop_rate: float, rng: np.random.Generator, stride: int = 2):
        self.kernel = kernel
        self.stride = stride
        self.drop_rate = drop_rate
        self.conv1 = ConvUnit(c_in, 2 * c_in, kernel, stride, groups, norm_kind, rng)
        self.conv2 = ConvUnit(2 * c_in, 2 * c_in, kernel, 1, groups, norm_kind, rng)

    def forward(self, x: Tensor, training: bool, rng: np.random.Generator | None) -> Tensor:
        if self.stride == 2 and x.data.shape[2] % 2:
            raise ConfigError(f"RTBlock needs an even sequence length, got {x.data.shape[2]}")
        h = relu_dropout(self.conv1.forward(x, training), self.drop_rate, rng, training)
        h = self.conv2.forward(h, training)
        s = maxpool1d(x, self.kernel, self.stride, self.kernel // 2)
        return relu_dropout(h, self.drop_rate, rng, training, shortcut=s)


class Extractor(Module):
    """An embedding conv followed by ``depth`` RTBlocks of the given stride.

    Branch and TimeNet are separate subclasses so that each class's
    ``forward`` can be timed on its own.
    """

    def __init__(self, c_in: int, depth: int, cfg: "ModelConfig", rng: np.random.Generator,
                 stride: int):
        self.embed = ConvUnit(c_in, cfg.d_channels, cfg.kernel, 1, cfg.groups,
                              cfg.norm_kind, rng)
        self.blocks = [RTBlock(cfg.d_channels << j, cfg.kernel, cfg.groups,
                               cfg.norm_kind, cfg.dropout, rng, stride=stride)
                       for j in range(depth)]

    def forward(self, x: Tensor, training: bool, rng) -> Tensor:
        h = self.embed.forward(x, training)
        for block in self.blocks:
            h = block.forward(h, training, rng)
        return h


class Branch(Extractor):
    """One pyramid extractor: private embedding plus ``depth`` halving RTBlocks."""

    def __init__(self, c_in: int, depth: int, cfg: "ModelConfig", rng: np.random.Generator):
        super().__init__(c_in, depth, cfg, rng, stride=2)


class TimeNet(Extractor):
    """Stride-1 extractor over prediction-window calendar marks."""

    def __init__(self, cfg: "ModelConfig", rng: np.random.Generator):
        super().__init__(cfg.n_time * cfg.groups, 2, cfg, rng, stride=1)


def features_per_group(cfg: ModelConfig) -> int:
    """Width of one group's concatenated pyramid features."""
    per_branch = cfg.l_in * cfg.d_channels // cfg.groups
    return sum(per_branch >> i for i in range(cfg.blocks))


class RTNet(Module):
    """The full forecaster; ``relation`` is a frozen processed mixing matrix or None.

    Its parts are named ``cpn.branch{i}``, ``head.linear``, ``timenet`` and
    ``head.time``; ``relation`` is not part of ``state()``.
    """

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator,
                 relation: np.ndarray | None = None):
        cfg.validate()
        self.cfg = cfg
        if relation is not None:
            relation = np.asarray(relation, dtype=np.float64)
            if relation.shape != (cfg.n_variates, cfg.n_variates):
                raise DimensionError(f"relation matrix {relation.shape} does not match "
                                     f"N={cfg.n_variates}")
        self.relation = relation

        per_group_in = cfg.n_variates // cfg.groups
        if cfg.time_mode == "input":
            per_group_in += cfg.n_time
        self.branches = [Branch(per_group_in * cfg.groups, cfg.blocks - i, cfg, rng)
                         for i in range(cfg.blocks)]
        self.head_linear = LinearUnit(cfg.groups * features_per_group(cfg),
                                      cfg.l_out * cfg.n_variates, cfg.groups,
                                      cfg.norm_kind, rng)
        if cfg.time_mode == "decoupled":
            self.timenet = TimeNet(cfg, rng)
            self.head_time = ConvUnit(4 * cfg.d_channels, cfg.n_variates, 1, 1,
                                      cfg.groups, cfg.norm_kind, rng, post_norm=False)
        else:
            self.timenet = None
            self.head_time = None

    # -- input assembly (numpy; gradients are tracked w.r.t. parameters) -----

    def _assemble_channels(self, window: np.ndarray,
                           input_marks: np.ndarray | None) -> np.ndarray:
        """(B, L, N) window -> (C, B, L) channels, marks interleaved per group."""
        x = window.transpose(2, 0, 1)
        if self.cfg.time_mode != "input":
            return np.ascontiguousarray(x)
        if input_marks is None:
            raise DimensionError("time_mode='input' requires input-window marks")
        marks = input_marks.transpose(2, 0, 1)
        g = self.cfg.groups
        npg = self.cfg.n_variates // g
        pieces = []
        for gi in range(g):
            pieces.append(x[gi * npg:(gi + 1) * npg])
            pieces.append(marks)
        return np.concatenate(pieces, axis=0)

    def _prepare_input(self, inputs: np.ndarray,
                       input_marks: np.ndarray | None) -> np.ndarray:
        cfg = self.cfg
        if inputs.ndim != 3 or inputs.shape[1] != cfg.l_in or inputs.shape[2] != cfg.n_variates:
            raise DimensionError(f"inputs must be (B, {cfg.l_in}, {cfg.n_variates}), "
                                 f"got {inputs.shape}")
        if self.relation is not None:
            inputs = inputs @ self.relation
        return self._assemble_channels(inputs, input_marks)

    def representations(self, inputs: np.ndarray, *, training: bool = False,
                        rng: np.random.Generator | None = None,
                        input_marks: np.ndarray | None = None) -> Tensor:
        """Per-group pyramid features, (B, groups, features_per_group)."""
        cfg = self.cfg
        x = self._prepare_input(np.asarray(inputs, dtype=np.float64), input_marks)
        hs = []
        for i, branch in enumerate(self.branches):
            sliced = x[:, :, x.shape[2] - (cfg.l_in >> i):]
            hs.append(branch.forward(Tensor(np.ascontiguousarray(sliced)), training, rng))
        # each group's features in (c, l) order, branch after branch
        return group_features(hs, cfg.groups)

    def forward(self, inputs: np.ndarray, marks: np.ndarray | None = None, *,
                training: bool = False, rng: np.random.Generator | None = None,
                input_marks: np.ndarray | None = None) -> Tensor:
        """Predict (B, l_out, N)."""
        cfg = self.cfg
        feat = self.representations(inputs, training=training, rng=rng,
                                    input_marks=input_marks)
        batch = feat.data.shape[0]
        flat = reshape(feat, (batch, feat.data.shape[1] * feat.data.shape[2]))
        ar = self.head_linear.forward(flat)
        out = transpose_12(reshape(ar, (batch, cfg.n_variates, cfg.l_out)))

        if self.timenet is not None:
            if marks is None:
                raise DimensionError("time_mode='decoupled' requires prediction-window marks")
            marks = np.asarray(marks, dtype=np.float64)
            if marks.shape != (batch, cfg.l_out, cfg.n_time):
                raise DimensionError(f"marks must be (B, {cfg.l_out}, {cfg.n_time}), "
                                     f"got {marks.shape}")
            tiled = np.tile(marks.transpose(2, 0, 1), (cfg.groups, 1, 1))
            t = self.timenet.forward(Tensor(tiled), training, rng)
            t_out = permute(self.head_time.forward(t, training), (1, 2, 0))
            out = add(out, t_out)
        return out

    # -- parameters: the pyramid ("cpn") first, then the heads ----------------

    def _children(self):
        for i, branch in enumerate(self.branches):
            yield f"cpn.branch{i}", branch
        yield "head.linear", self.head_linear
        yield "timenet", self.timenet
        yield "head.time", self.head_time

    def cpn_named_parameters(self) -> list[tuple[str, Tensor]]:
        return [(n, p) for n, p in self.named_parameters() if n.startswith("cpn.")]

    def head_named_parameters(self) -> list[tuple[str, Tensor]]:
        return [(n, p) for n, p in self.named_parameters() if not n.startswith("cpn.")]

    def parameters(self) -> list[Tensor]:
        return [p for _, p in self.named_parameters()]

    def freeze_cpn(self) -> None:
        """Stop the pyramid's gradients: with no parameter requiring them, its
        ops record no tape node."""
        for _, p in self.cpn_named_parameters():
            p.requires_grad = False


# ---------------------------------------------------------------------------
# checkpoints: magic, JSON header, raw float64 buffers
# ---------------------------------------------------------------------------

def save_checkpoint(model: RTNet, path: str) -> None:
    arrays = list(model.state().items())
    if model.relation is not None:
        arrays.append(("relation", model.relation))
    header = {
        "config": model.cfg.to_dict(),
        "has_relation": model.relation is not None,
        "arrays": [{"name": n, "shape": list(a.shape)} for n, a in arrays],
    }
    blob = json.dumps(header).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for _, a in arrays:
            fh.write(np.ascontiguousarray(a, dtype=np.float64).tobytes())


def load_checkpoint(path: str) -> RTNet:
    """Rebuild a saved model; a corrupt or mismatched file raises ``DataError``."""
    with open(path, "rb") as fh:
        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise DataError(f"{path}: not an RTNET1 checkpoint (magic {magic!r})")
        length_field = fh.read(8)
        if len(length_field) != 8:
            raise DataError(f"{path}: checkpoint truncated inside the header length")
        (blob_len,) = struct.unpack("<Q", length_field)
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if blob_len > left:
            raise DataError(f"{path}: header length {blob_len} exceeds the {left} bytes left in the file")
        blob = fh.read(blob_len)
        payload = fh.read()
    try:
        header = json.loads(blob.decode("utf-8"))
        cfg = ModelConfig.from_dict(header["config"])
        entries = [(str(e["name"]), tuple(int(d) for d in e["shape"])) for e in header["arrays"]]
        has_relation = bool(header["has_relation"])
    except (ValueError, KeyError, TypeError) as exc:
        raise DataError(f"{path}: unreadable checkpoint header ({exc!r})") from None
    names = [name for name, _ in entries]
    if len(set(names)) != len(names):
        raise DataError(f"{path}: checkpoint lists an array name twice")
    if any(d < 0 for _, shape in entries for d in shape):
        raise DataError(f"{path}: checkpoint header has a negative array dimension")
    expected_bytes = 8 * sum(math.prod(shape) for _, shape in entries)
    if len(payload) != expected_bytes:
        raise DataError(f"{path}: payload is {len(payload)} bytes, header describes {expected_bytes}")
    values: dict[str, np.ndarray] = {}
    cursor = 0
    for name, shape in entries:
        n = math.prod(shape)
        arr = np.frombuffer(payload, dtype=np.float64, count=n, offset=cursor)
        values[name] = arr.reshape(shape).copy()
        cursor += n * 8
    relation = values.get("relation") if has_relation else None
    model = RTNet(cfg, np.random.default_rng(0), relation=relation)
    expected = {*model.state(), *(["relation"] if has_relation else [])}
    missing = sorted(expected - set(values))
    extra = sorted(set(values) - expected)
    if missing or extra:
        raise DataError(f"{path}: checkpoint arrays do not match the model "
                        f"(missing {missing}, unexpected {extra})")
    model.load_state(values)
    return model

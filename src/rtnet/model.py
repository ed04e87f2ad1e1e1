"""RTNet: grouped residual pyramid forecaster with decoupled time embedding.

The backbone halves sequence length and doubles channels per block, so total
feature width is invariant in depth.  A causal pyramid runs one extractor per
block depth, extractor i seeing only the last half of what extractor i-1 saw.
Predictions come from a grouped linear head; calendar information enters only
through a separate stride-1 network over the prediction window's time marks.
"""

from __future__ import annotations

import json
import types
import typing
import zipfile
import zlib
from collections import Counter
from contextlib import contextmanager
from dataclasses import MISSING, asdict, dataclass, fields

import numpy as np

from .data import N_TIME_FEATURES, atomic_open
from .errors import ConfigError, DataError, DimensionError
from .norm import (NORM_KINDS, BatchNormParams, LayerNormParams, batch_norm, layer_norm,
                   weight_norm_effective)
# concat, relu, dropout and channel_upsample are not called here; they stay
# bound as rtnet.model.<name>, the names perfbench/tracer.py times them under
from .tensor import (Module, Tensor, add, channel_upsample, concat, conv1d_grouped, dropout,  # noqa: F401
                     group_features, linear_grouped, maxpool1d, permute, relu, relu_dropout,
                     reshape, transpose_12)

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
        if not 1 <= self.blocks < max(self.l_in, 1).bit_length():  # 2^blocks <= l_in
            raise ConfigError(f"blocks must be >= 1 with 2^blocks <= l_in={self.l_in}, got {self.blocks}")
        if self.l_in % (1 << self.blocks):
            raise ConfigError(f"l_in={self.l_in} must be divisible by 2^blocks={1 << self.blocks}")
        for name in ("l_out", "n_variates", "d_channels"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.groups < 1 or self.groups not in (1, self.n_variates):
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
        if self.time_mode != "none" and self.n_time != N_TIME_FEATURES:
            raise ConfigError(f"n_time must be {N_TIME_FEATURES}, the calendar feature count, "
                              f"with time_mode {self.time_mode!r}; got {self.n_time}")
        if not 0.0 <= self.theta_degrees <= 90.0:
            raise ConfigError(f"theta_degrees must lie in [0, 90], got {self.theta_degrees}")


def load_config(cls, obj, what: str):
    """The one path from a parsed JSON object to a validated config dataclass:
    ``check_fields``, a missing required key, then ``cls.validate``."""
    check_fields(cls, obj, what)
    missing = [f.name for f in fields(cls)
               if f.name not in obj and f.default is f.default_factory is MISSING]
    if missing:
        raise ConfigError(f"{what} needs the keys {missing}")
    cfg = cls(**obj)
    cfg.validate()
    return cfg


def check_fields(cls, obj, what: str) -> None:
    """A ``ConfigError`` naming the field unless ``obj`` is a JSON object of fields
    of ``cls`` holding values of their JSON types (``check_json_type``).  An
    unknown key that is a field of one of ``cls.BLOCKS`` is named with its block."""
    check_json_type(obj, dict, what)
    hints = typing.get_type_hints(cls)
    unknown = sorted(set(obj) - set(hints))
    if unknown:
        homes = "".join(f"; {key} is set by {block}.{key}" for key in unknown
                        for block, sub in getattr(cls, "BLOCKS", {}).items()
                        if key in typing.get_type_hints(sub))
        raise ConfigError(f"unknown {what} keys: {unknown}{homes}")
    for key, value in obj.items():
        check_json_type(value, hints[key], f"{what} {key}")


_JSON_NAMES = {int: "an integer", float: "a number", str: "a string", bool: "true or false",
               list: "a list", dict: "an object"}


def check_json_type(value, hint, name: str) -> None:
    """Raise ``ConfigError`` unless ``value`` is JSON of type ``hint``: an int counts
    as a float, a bool never as a number, and ``X | None`` and ``list[X]`` hold."""
    def fits(v, h) -> bool:
        args = typing.get_args(h)
        if isinstance(h, types.UnionType):
            return any(fits(v, a) for a in args)
        if args:
            return isinstance(v, list) and all(fits(x, args[0]) for x in v)
        return (isinstance(v, (int, float) if h is float else h)
                and (h is bool or not isinstance(v, bool)))

    if not fits(value, hint):
        raise ConfigError(f"{name} must be {_JSON_NAMES.get(hint, hint)}, got {value!r}")


class WeightedUnit(Module):
    """A weight, as weight-norm direction ``v`` and scale ``g`` or plain, plus a bias.

    Weight norm starts at w == ``w0``: ``g`` is each output channel's norm.
    Inside ``RTNet.weights_held()``, ``_held`` is the effective weight built
    once for every forward in the block; it is not part of ``state()``.
    """

    def __init__(self, w0: np.ndarray, norm_kind: str):
        self.v = self.g = self.weight = self._held = None
        if norm_kind == "wn":
            self.v = Tensor(w0, requires_grad=True)
            self.g = Tensor(np.sqrt((w0.reshape(w0.shape[0], -1) ** 2).sum(axis=1)),
                            requires_grad=True)
        else:
            self.weight = Tensor(w0, requires_grad=True)
        self.bias = Tensor(np.zeros(w0.shape[0]), requires_grad=True)

    def effective_weight(self) -> Tensor:
        if self.v is None:
            return self.weight
        held = self._held  # read once: another thread may be leaving weights_held()
        return held if held is not None else weight_norm_effective(self.v, self.g)


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
        self.bn = BatchNormParams(c_out) if (post_norm and norm_kind == "bn") else None
        self.ln = LayerNormParams(c_out) if (post_norm and norm_kind == "ln") else None
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

    def _prepare_input(self, inputs: np.ndarray,
                       input_marks: np.ndarray | None) -> np.ndarray:
        """(B, L, N) window -> (C, B, L) pyramid channels, relation-mixed; under
        time_mode 'input' each group's variates are followed by the marks."""
        cfg = self.cfg
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.ndim != 3 or inputs.shape[1] != cfg.l_in or inputs.shape[2] != cfg.n_variates:
            raise DimensionError(f"inputs must be (B, {cfg.l_in}, {cfg.n_variates}), "
                                 f"got {inputs.shape}")
        if self.relation is not None:
            inputs = inputs @ self.relation
        x = inputs.transpose(2, 0, 1)
        if cfg.time_mode != "input":
            return np.ascontiguousarray(x)
        batch = inputs.shape[0]
        if input_marks is None or np.shape(input_marks) != (batch, cfg.l_in, cfg.n_time):
            raise DimensionError(f"time_mode='input' requires input-window marks of shape "
                                 f"(B, {cfg.l_in}, {cfg.n_time})")
        marks = input_marks.transpose(2, 0, 1)
        per_group = [x.reshape(cfg.groups, -1, batch, cfg.l_in),
                     np.broadcast_to(marks, (cfg.groups, *marks.shape))]
        return np.concatenate(per_group, axis=1).reshape(-1, batch, cfg.l_in)

    def representations(self, inputs: np.ndarray, *, training: bool = False,
                        rng: np.random.Generator | None = None,
                        input_marks: np.ndarray | None = None) -> Tensor:
        """Per-group pyramid features, (B, groups, features_per_group)."""
        cfg = self.cfg
        x = self._prepare_input(inputs, input_marks)
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

    @contextmanager
    def weights_held(self):
        """Build each weight-normed unit's effective weight once, for every
        forward inside the block, and drop them on exit, also on error.

        No parameter may change inside the block.
        """
        units = [u for _, u in self._named(WeightedUnit, "") if u.v is not None]
        try:
            for u in units:
                u._held = weight_norm_effective(u.v, u.g)
            yield
        finally:
            for u in units:
                u._held = None

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


# Checkpoints: a stored zip of header.json and one .npy member per array of _arrays.
# Each member keeps ZipInfo's default date, 1980-01-01, so a model saves one byte string.

def _arrays(model: RTNet) -> dict[str, np.ndarray]:
    return model.state() | ({} if model.relation is None else {"relation": model.relation})


def save_checkpoint(model: RTNet, path: str) -> None:
    header = {"config": asdict(model.cfg), "has_relation": model.relation is not None}
    with atomic_open(path, "wb") as fh, zipfile.ZipFile(fh, "w") as zf:
        zf.writestr(zipfile.ZipInfo("header.json"), json.dumps(header, allow_nan=False))
        for name, array in _arrays(model).items():
            with zf.open(zipfile.ZipInfo(f"{name}.npy"), "w") as member:
                np.lib.format.write_array(member, np.ascontiguousarray(array, dtype=np.float64),
                                          version=(1, 0), allow_pickle=False)


def load_checkpoint(path: str) -> RTNet:
    """Rebuild a saved model; a corrupt or mismatched file raises ``DataError``.  No data
    is read before its ``.npy`` header fits the model; reading to its end checks its CRC-32."""
    with open(path, "rb") as fh:
        if fh.read(6) == b"RTNET1":
            raise DataError(f"{path}: an RTNET1 checkpoint, a format no longer read; train again")
        try:
            with zipfile.ZipFile(fh) as zf:
                return _read_members(zf, path)
        # what corrupt bytes raise besides BadZipFile, as found by flipping each bit
        except (zipfile.BadZipFile, OSError, EOFError, RuntimeError, zlib.error, ValueError) as exc:
            raise DataError(f"{path}: corrupt checkpoint ({exc!r})") from None


def _read_members(zf: zipfile.ZipFile, path: str) -> RTNet:
    start = min((info.header_offset for info in zf.infolist()), default=0)
    if start > 0:  # zipfile reads a file's last zip; a negative offset fails below as corrupt
        raise DataError(f"{path}: {start} bytes precede its zip (prefixed or concatenated)")
    try:
        header = json.loads(zf.read("header.json"))
        cfg = load_config(ModelConfig, header["config"], "checkpoint config")
        check_json_type(header["has_relation"], bool, "checkpoint has_relation")
    except (KeyError, ValueError, TypeError, ConfigError) as exc:
        raise DataError(f"{path}: unreadable checkpoint header ({exc!r})") from None
    model = RTNet(cfg, np.random.default_rng(0), relation=np.zeros((cfg.n_variates,) * 2)
                  if header["has_relation"] else None)
    targets = _arrays(model)
    found, wanted = Counter(zf.namelist()), Counter(["header.json", *(f"{n}.npy" for n in targets)])
    if found != wanted:  # a name found twice is unexpected the second time
        raise DataError(f"{path}: checkpoint members do not match the model (missing "
                        f"{sorted(wanted - found)}, unexpected {sorted(found - wanted)})")
    for name, target in targets.items():
        with zf.open(f"{name}.npy") as member:
            stored = (np.lib.format.read_magic(member),
                      *np.lib.format.read_array_header_1_0(member))
            if stored != ((1, 0), target.shape, False, np.dtype(np.float64)):
                raise DataError(f"{path}: array {name!r} is stored as {stored}, "
                                f"the model needs {target.shape} in C order as float64")
            if member.readinto(target) != target.nbytes or member.read(1):
                raise DataError(f"{path}: array {name!r} does not hold {target.nbytes} bytes")
    return model

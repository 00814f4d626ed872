"""Micro U-Net encoder-decoder models with four backbone-block variants.

The variants are desk-scale analogues of full segmentation backbones: each
keeps the defining mechanism (residual skip, squeeze-excitation gating,
grouped convolution with SE, dual residual/dense paths) at a width and depth
that runs in seconds on a CPU. Output is a single-channel logit map at the
input resolution.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import struct

import numpy as np

from . import tensor as T
from ._formats import config_from_dict, config_to_dict
from .errors import ContractError, FormatError
from .layers import (BatchNormState, batch_moments, batchnorm_eval, batchnorm_train,
                     make_bn_state, se_gate)
from .tensor import Tensor

CHECKPOINT_MAGIC = b"HZMD"
CHECKPOINT_VERSION = 1


class BackboneVariant(enum.Enum):
    RESIDUAL = "residual"
    SQUEEZE_EXCITE = "squeeze_excite"
    GROUPED_SE = "grouped_se"
    DUAL_PATH = "dual_path"


ALL_VARIANTS = tuple(BackboneVariant)


@dataclasses.dataclass
class UNetConfig:
    in_channels: int = 3
    base_channels: int = 8
    depth: int = 3
    variant: BackboneVariant = BackboneVariant.RESIDUAL
    se_reduction: int = 4
    groups: int = 2
    dual_path_dense: int = 4
    seed: int = 0
    bn_eps: float = 1e-5
    bn_momentum: float = 0.1

    def validate(self) -> None:
        if self.depth < 1:
            raise ContractError("UNetConfig: depth must be >= 1")
        if self.in_channels < 1 or self.base_channels < 1:
            raise ContractError("UNetConfig: channel counts must be positive")
        if self.base_channels < self.se_reduction:
            raise ContractError("UNetConfig: base_channels must be >= se_reduction")
        if self.base_channels % self.se_reduction != 0:
            raise ContractError("UNetConfig: se_reduction must divide base_channels")
        if self.variant == BackboneVariant.GROUPED_SE and self.base_channels % self.groups != 0:
            raise ContractError("UNetConfig: groups must divide base_channels")


class _Registry:
    """Collects parameters and BN states in deterministic construction order."""

    def __init__(self, config: UNetConfig):
        self.config = config
        self.params: dict[str, Tensor] = {}
        self.bn_states: list[BatchNormState] = []
        self.bn_paths: list[str] = []
        self._rng = np.random.default_rng(np.random.PCG64(config.seed))

    def _add(self, name: str, t: Tensor) -> Tensor:
        if name in self.params:
            raise ContractError(f"duplicate parameter name '{name}'")
        self.params[name] = t
        return t

    def conv_weight(self, name: str, cout: int, cin_g: int, kh: int, kw: int) -> Tensor:
        fan_in = cin_g * kh * kw
        std = np.sqrt(2.0 / fan_in)
        w = self._rng.normal(0.0, std, size=(cout, cin_g, kh, kw))
        return self._add(name, Tensor(w, requires_grad=True))

    def bias(self, name: str, cout: int) -> Tensor:
        return self._add(name, Tensor(np.zeros(cout), requires_grad=True))

    def bn(self, path: str, channels: int) -> int:
        s = make_bn_state(channels, eps=self.config.bn_eps, momentum=self.config.bn_momentum)
        self._add(path + ".gamma", s.gamma)
        self._add(path + ".beta", s.beta)
        self.bn_states.append(s)
        self.bn_paths.append(path)
        return len(self.bn_states) - 1


class RunState:
    """Per-forward mutable context threading BN statistics through the graph.

    mode 'train' applies batch-moment normalization and momentum-updates the
    returned states; 'eval' consumes running statistics unchanged; 'adapt'
    normalizes by batch moments and *replaces* the returned statistics with
    them (the statistics-collection pass of k-shot adaptation).
    """

    def __init__(self, mode: str, bn_in: list[BatchNormState],
                 capture_index: int | None = None):
        if mode not in ("train", "eval", "adapt"):
            raise ContractError(f"unknown forward mode '{mode}'")
        self.mode = mode
        self.bn_in = bn_in
        self.bn_out: list[BatchNormState] = list(bn_in)
        self.capture_index = capture_index
        self.captured: np.ndarray | None = None


class _Conv:
    def __init__(self, reg: _Registry, path: str, cin: int, cout: int,
                 k: int = 3, stride: int = 1, pad: int | None = None, groups: int = 1):
        pad = (k // 2) if pad is None else pad
        self.stride, self.pad, self.groups = stride, pad, groups
        self.w = reg.conv_weight(path + ".w", cout, cin // groups, k, k)
        self.b = reg.bias(path + ".b", cout)

    def __call__(self, x: Tensor) -> Tensor:
        return T.conv2d(x, self.w, self.b, stride=self.stride, pad=self.pad, groups=self.groups)


class _BN:
    def __init__(self, reg: _Registry, path: str, channels: int):
        self.index = reg.bn(path, channels)

    def __call__(self, x: Tensor, rs: RunState) -> Tensor:
        if rs.capture_index == self.index:
            rs.captured = x.data
        s = rs.bn_in[self.index]
        if rs.mode == "train":
            y, s2 = batchnorm_train(x, s)
            rs.bn_out[self.index] = s2
            return y
        if rs.mode == "adapt":
            mu, var = batch_moments(x.data)
            s2 = s.with_stats(mu, var)
            rs.bn_out[self.index] = s2
            return batchnorm_eval(x, s2)
        return batchnorm_eval(x, s)


class _SE:
    def __init__(self, reg: _Registry, path: str, channels: int, reduction: int):
        if channels % reduction != 0:
            raise ContractError(f"se_reduction {reduction} does not divide {channels} channels")
        cr = channels // reduction
        self.reduction = reduction
        self.w1 = reg.conv_weight(path + ".w1", cr, channels, 1, 1)
        self.b1 = reg.bias(path + ".b1", cr)
        self.w2 = reg.conv_weight(path + ".w2", channels, cr, 1, 1)
        self.b2 = reg.bias(path + ".b2", channels)

    def __call__(self, x: Tensor) -> Tensor:
        return se_gate(x, self.w1, self.b1, self.w2, self.b2, self.reduction)


class _ResidualBlock:
    """conv3x3-BN-relu, conv3x3-BN (optionally grouped, optionally SE-gated),
    then identity/projection skip-add and relu."""

    def __init__(self, reg: _Registry, path: str, cin: int, cout: int,
                 se: bool = False, conv2_groups: int = 1, se_reduction: int = 4):
        self.conv1 = _Conv(reg, path + ".conv1", cin, cout)
        self.bn1 = _BN(reg, path + ".bn1", cout)
        self.conv2 = _Conv(reg, path + ".conv2", cout, cout, groups=conv2_groups)
        self.bn2 = _BN(reg, path + ".bn2", cout)
        self.se = _SE(reg, path + ".se", cout, se_reduction) if se else None
        self.proj = _Conv(reg, path + ".proj", cin, cout, k=1) if cin != cout else None
        self.out_channels = cout

    def __call__(self, x: Tensor, rs: RunState) -> Tensor:
        h = T.relu(self.bn1(self.conv1(x), rs))
        h = self.bn2(self.conv2(h), rs)
        if self.se is not None:
            h = self.se(h)
        skip = x if self.proj is None else self.proj(x)
        return T.relu(h + skip)


class _DualPathBlock:
    """Residual path of width `cout` plus a dense branch of `dense` channels
    concatenated onto the block output (micro dual-path mechanism)."""

    def __init__(self, reg: _Registry, path: str, cin: int, cout: int, dense: int):
        self.cout, self.dense = cout, dense
        self.conv1 = _Conv(reg, path + ".conv1", cin, cout)
        self.bn1 = _BN(reg, path + ".bn1", cout)
        self.conv2 = _Conv(reg, path + ".conv2", cout, cout + dense)
        self.bn2 = _BN(reg, path + ".bn2", cout + dense)
        self.proj = _Conv(reg, path + ".proj", cin, cout, k=1) if cin != cout else None
        self.out_channels = cout + dense

    def __call__(self, x: Tensor, rs: RunState) -> Tensor:
        h = T.relu(self.bn1(self.conv1(x), rs))
        h = self.bn2(self.conv2(h), rs)
        res = T.slice_channels(h, 0, self.cout)
        dense = T.slice_channels(h, self.cout, self.cout + self.dense)
        skip = x if self.proj is None else self.proj(x)
        return T.relu(T.concat_channels(res + skip, dense))


def _make_block(reg: _Registry, path: str, cin: int, cout: int, cfg: UNetConfig):
    v = cfg.variant
    if v == BackboneVariant.RESIDUAL:
        return _ResidualBlock(reg, path, cin, cout)
    if v == BackboneVariant.SQUEEZE_EXCITE:
        return _ResidualBlock(reg, path, cin, cout, se=True, se_reduction=cfg.se_reduction)
    if v == BackboneVariant.GROUPED_SE:
        return _ResidualBlock(reg, path, cin, cout, se=True, conv2_groups=cfg.groups,
                              se_reduction=cfg.se_reduction)
    if v == BackboneVariant.DUAL_PATH:
        return _DualPathBlock(reg, path, cin, cout, cfg.dual_path_dense)
    raise ContractError(f"unknown variant {v}")


class _Net:
    def __init__(self, reg: _Registry, cfg: UNetConfig):
        self.encoder = []
        cin = cfg.in_channels
        for i in range(cfg.depth):
            blk = _make_block(reg, f"enc{i}", cin, cfg.base_channels * 2 ** i, cfg)
            self.encoder.append(blk)
            cin = blk.out_channels
        self.bottleneck = _make_block(reg, "bottleneck", cin, cfg.base_channels * 2 ** cfg.depth, cfg)
        cin = self.bottleneck.out_channels
        self.decoder = []
        for i in reversed(range(cfg.depth)):
            blk = _make_block(reg, f"dec{i}", cin + self.encoder[i].out_channels,
                              cfg.base_channels * 2 ** i, cfg)
            self.decoder.append(blk)
            cin = blk.out_channels
        self.head = _Conv(reg, "head", cin, 1, k=1)

    def __call__(self, x: Tensor, rs: RunState) -> Tensor:
        skips = []
        for blk in self.encoder:
            x = blk(x, rs)
            skips.append(x)
            x = T.maxpool2(x)
        x = self.bottleneck(x, rs)
        for blk, skip in zip(self.decoder, reversed(skips)):
            x = T.upsample2(x)
            x = T.concat_channels(x, skip)
            x = blk(x, rs)
        return self.head(x)


@dataclasses.dataclass
class Model:
    config: UNetConfig
    params: dict[str, Tensor]
    bn_states: list[BatchNormState]
    bn_paths: list[str]
    net: _Net

    def with_bn(self, bn_states: list[BatchNormState]) -> "Model":
        if len(bn_states) != len(self.bn_states):
            raise ContractError("with_bn: state count mismatch")
        return dataclasses.replace(self, bn_states=list(bn_states))

    def parameter_count(self) -> int:
        return sum(t.data.size for t in self.params.values())

    def zero_grads(self) -> None:
        for t in self.params.values():
            t.zero_grad()


def build(config: UNetConfig) -> Model:
    """Construct a seeded model: He-normal conv weights, zero biases/beta,
    unit gamma, zero running mean, unit running variance."""
    config.validate()
    reg = _Registry(config)
    net = _Net(reg, config)
    return Model(config=config, params=reg.params, bn_states=reg.bn_states,
                 bn_paths=reg.bn_paths, net=net)


def _check_input(model: Model, x: Tensor) -> None:
    if x.data.ndim != 4:
        raise ContractError("forward: input must be NCHW")
    cfg = model.config
    if x.shape[1] != cfg.in_channels:
        raise ContractError(f"forward: input has {x.shape[1]} channels, model expects {cfg.in_channels}")
    step = 2 ** cfg.depth
    if x.shape[2] % step or x.shape[3] % step:
        raise ContractError(f"forward: spatial extents {x.shape[2]}x{x.shape[3]} "
                            f"not divisible by 2^depth={step}")


def forward(model: Model, x: Tensor, mode: str = "eval",
            capture_index: int | None = None) -> tuple[Tensor, list[BatchNormState], RunState]:
    """Run the network; returns logits, the (possibly updated) BN state list,
    and the run context (which carries any captured activation)."""
    _check_input(model, x)
    rs = RunState(mode, model.bn_states, capture_index=capture_index)
    logits = model.net(x, rs)
    return logits, rs.bn_out, rs


def predict_probs(model: Model, x: Tensor) -> Tensor:
    """Eval-mode sigmoid probabilities, values strictly inside (0,1)."""
    with T.no_grad():
        logits, _, _ = forward(model, x, mode="eval")
        return T.sigmoid(logits)


# ---------------------------------------------------------------------------
# checkpoint serialization (HZMD)


def save_checkpoint(model: Model, path, meta: dict | None = None) -> None:
    """Write a model to the single-file HZMD format (little-endian)."""
    header = {
        "config": config_to_dict(model.config),
        "params": [{"name": n, "shape": list(t.shape)} for n, t in model.params.items()],
        "bn": [{"path": p, "channels": s.channels, "eps": s.eps, "momentum": s.momentum}
               for p, s in zip(model.bn_paths, model.bn_states)],
        "meta": meta or {},
    }
    hbytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<II", CHECKPOINT_VERSION, len(hbytes)))
        f.write(hbytes)
        for t in model.params.values():
            f.write(np.ascontiguousarray(t.data, dtype="<f8").tobytes())
        for s in model.bn_states:
            f.write(np.ascontiguousarray(s.running_mean, dtype="<f8").tobytes())
            f.write(np.ascontiguousarray(s.running_var, dtype="<f8").tobytes())


def load_checkpoint(path) -> tuple[Model, dict]:
    """Rebuild a model from an HZMD file; returns (model, meta)."""
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < 12 or blob[:4] != CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: bad magic at byte 0")
    version, hlen = struct.unpack_from("<II", blob, 4)
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"{path}: unsupported version {version} at byte 4")
    off = 12
    if off + hlen > len(blob):
        raise FormatError(f"{path}: truncated header at byte {off}")
    try:
        header = json.loads(blob[off:off + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise FormatError(f"{path}: unreadable header at byte {off}: {e}") from e
    if not isinstance(header, dict) or "config" not in header or "params" not in header:
        raise FormatError(f"{path}: header at byte {off} lacks 'config' or 'params'")
    try:
        model = build(config_from_dict(UNetConfig, header["config"]))
    except ContractError as e:
        raise FormatError(f"{path}: bad model config at byte {off}: {e}") from e
    off += hlen
    manifest = header["params"]
    if [m["name"] for m in manifest] != list(model.params.keys()):
        raise FormatError(f"{path}: parameter manifest does not match rebuilt model")
    for m in manifest:
        t = model.params[m["name"]]
        if list(t.shape) != m["shape"]:
            raise FormatError(f"{path}: shape mismatch for '{m['name']}'")
        nbytes = t.data.size * 8
        if off + nbytes > len(blob):
            raise FormatError(f"{path}: truncated payload at byte {off}")
        t.data = np.frombuffer(blob[off:off + nbytes], dtype="<f8").reshape(t.shape).copy()
        off += nbytes
    bn_states = []
    for s in model.bn_states:
        nbytes = 2 * s.channels * 8
        if off + nbytes > len(blob):
            raise FormatError(f"{path}: truncated BN payload at byte {off}")
        mean, var = np.frombuffer(blob[off:off + nbytes], dtype="<f8").reshape(2, s.channels)
        try:  # with_stats re-validates, so a negative variance fails closed
            bn_states.append(s.with_stats(mean, var))
        except ContractError as e:
            raise FormatError(f"{path}: invalid BN state at byte {off}: {e}") from e
        off += nbytes
    if off != len(blob):
        raise FormatError(f"{path}: {len(blob) - off} trailing bytes at byte {off}")
    return model.with_bn(bn_states), header.get("meta", {})

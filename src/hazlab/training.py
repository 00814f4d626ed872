"""Weighted focal+dice loss, AdamW, and the early-stopping pre-training loop."""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from . import tensor as T
from ._formats import write_rows
from .errors import ContractError, NumericDomainError
from .tensor import Tensor
from .unet import Model, forward

PROB_CLAMP = 1e-7


@dataclasses.dataclass
class LossConfig:
    w_focal: float = 1.0
    w_dice: float = 1.0
    gamma: float = 2.0
    alpha: float = 0.25
    dice_eps: float = 1.0

    def validate(self) -> None:
        if self.w_focal < 0 or self.w_dice < 0 or self.w_focal + self.w_dice <= 0:
            raise ContractError("LossConfig: weights must be non-negative with positive sum")
        if self.gamma < 0 or not (0.0 <= self.alpha <= 1.0) or self.dice_eps <= 0:
            raise ContractError("LossConfig: invalid focal/dice parameters")


@dataclasses.dataclass
class AdamWConfig:
    lr: float = 0.00015
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.01


@dataclasses.dataclass
class EarlyStopConfig:
    max_epochs: int = 50
    patience: int = 5


class AdamWState:
    """Per-parameter first/second moment buffers plus the step counter."""

    def __init__(self, params: dict[str, Tensor], config: AdamWConfig | None = None):
        self.config = config or AdamWConfig()
        self.step_count = 0
        self.m = {name: np.zeros_like(t.data) for name, t in params.items()}
        self.v = {name: np.zeros_like(t.data) for name, t in params.items()}


# gamma/beta/bias parameters are exempt from weight decay
_NO_DECAY_SUFFIXES = {"b", "b1", "b2", "gamma", "beta"}


def _decays(name: str) -> bool:
    return name.rsplit(".", 1)[-1] not in _NO_DECAY_SUFFIXES


def _as_target(target) -> Tensor:
    t = target if isinstance(target, Tensor) else Tensor(target)
    vals = t.data
    if not np.all((vals == 0.0) | (vals == 1.0)):
        raise ContractError("target mask must be binary")
    return t


def focal_loss(probs: Tensor, target, gamma: float = 2.0, alpha: float = 0.25) -> Tensor:
    """Mean of -alpha_t * (1-p_t)^gamma * log(p_t) over all pixels."""
    target = _as_target(target)
    if probs.shape != target.shape:
        raise ContractError(f"focal_loss: shape mismatch {probs.shape} vs {target.shape}")
    p = T.clamp(probs, PROB_CLAMP, 1.0 - PROB_CLAMP)
    t = target
    pt = p * t + (1.0 - p) * (1.0 - t)
    at = alpha * t + (1.0 - alpha) * (1.0 - t)
    return (-(at * ((1.0 - pt) ** gamma) * T.log(pt))).mean()


def dice_loss(probs: Tensor, target, eps: float = 1.0) -> Tensor:
    """Soft dice computed per image over all pixels, averaged over the batch."""
    target = _as_target(target)
    if probs.shape != target.shape:
        raise ContractError(f"dice_loss: shape mismatch {probs.shape} vs {target.shape}")
    if probs.data.ndim != 4:
        raise ContractError("dice_loss: expected NCHW input")
    axes = (1, 2, 3)
    inter = T.sum_axes(probs * target, axes)
    denom = T.sum_axes(probs, axes) + T.sum_axes(target, axes)
    per_image = 1.0 - (2.0 * inter + eps) / (denom + eps)
    return per_image.mean()


def combined_loss(logits: Tensor, target, cfg: LossConfig) -> Tensor:
    cfg.validate()
    probs = T.sigmoid(logits)
    total = None
    if cfg.w_focal > 0:
        total = cfg.w_focal * focal_loss(probs, target, cfg.gamma, cfg.alpha)
    if cfg.w_dice > 0:
        d = cfg.w_dice * dice_loss(probs, target, cfg.dice_eps)
        total = d if total is None else total + d
    return total


def adamw_step(params: dict[str, Tensor], state: AdamWState) -> AdamWState:
    """One decoupled-weight-decay Adam step; parameters are updated in place.

    Missing gradients count as zero. Decay is skipped for bias/gamma/beta.
    """
    c = state.config
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - c.beta1 ** t
    bc2 = 1.0 - c.beta2 ** t
    for name, p in params.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if g.shape != p.data.shape:
            raise ContractError(f"adamw_step: gradient shape mismatch for '{name}'")
        m = state.m[name] = c.beta1 * state.m[name] + (1.0 - c.beta1) * g
        v = state.v[name] = c.beta2 * state.v[name] + (1.0 - c.beta2) * g * g
        update = (m / bc1) / (np.sqrt(v / bc2) + c.eps)
        if c.weight_decay and _decays(name):
            update = update + c.weight_decay * p.data
        p.data = p.data - c.lr * update
    return state


# ---------------------------------------------------------------------------
# pre-training loop


@dataclasses.dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_loss: float
    seconds: float


def history_to_csv(history: list[EpochRecord]) -> str:
    return write_rows(("epoch", "train_loss", "val_loss", "seconds"),
                      [(r.epoch, r.train_loss, r.val_loss, f"{r.seconds:.3f}") for r in history])


def _stack_batch(samples) -> tuple[Tensor, Tensor]:
    images = np.stack([s.image for s in samples])
    masks = np.stack([s.mask for s in samples]).astype(np.float64)[:, None]
    return Tensor(images), Tensor(masks)


def _dataset_loss(model: Model, samples, loss_cfg: LossConfig, batch_size: int) -> float:
    total, n = 0.0, 0
    with T.no_grad():
        for i in range(0, len(samples), batch_size):
            chunk = samples[i:i + batch_size]
            x, y = _stack_batch(chunk)
            logits, _, _ = forward(model, x, mode="eval")
            total += combined_loss(logits, y, loss_cfg).item() * len(chunk)
            n += len(chunk)
    return total / n


def _snapshot(model: Model):
    return ({n: t.data.copy() for n, t in model.params.items()},
            [(s.running_mean.copy(), s.running_var.copy()) for s in model.bn_states])


def _restore(model: Model, snap) -> Model:
    params, stats = snap
    for n, t in model.params.items():
        t.data = params[n].copy()
    return model.with_bn([s.with_stats(m, v) for s, (m, v) in zip(model.bn_states, stats)])


def pretrain(model: Model, train_samples, val_samples,
             loss_cfg: LossConfig | None = None,
             optim_cfg: AdamWConfig | None = None,
             stop_cfg: EarlyStopConfig | None = None,
             batch_size: int = 8, seed: int = 0) -> tuple[Model, list[EpochRecord]]:
    """Train on the pre-task with early stopping on validation loss.

    Returns the best-validation model (a restored checkpoint, not the last
    epoch's weights) and the per-epoch history.
    """
    loss_cfg = loss_cfg or LossConfig()
    optim_cfg = optim_cfg or AdamWConfig()
    stop_cfg = stop_cfg or EarlyStopConfig()
    if not train_samples or not val_samples:
        raise ContractError("pretrain: datasets must be non-empty")
    train_ids = {s.sample_id for s in train_samples}
    if train_ids & {s.sample_id for s in val_samples}:
        raise ContractError("pretrain: train and val sample ids overlap")

    rng = np.random.default_rng(np.random.PCG64(seed))
    opt = AdamWState(model.params, optim_cfg)
    history: list[EpochRecord] = []
    best_val = np.inf
    best_snap = _snapshot(model)
    stale = 0

    for epoch in range(1, stop_cfg.max_epochs + 1):
        t0 = time.perf_counter()
        order = rng.permutation(len(train_samples))
        epoch_loss, seen = 0.0, 0
        for start in range(0, len(order), batch_size):
            batch = [train_samples[j] for j in order[start:start + batch_size]]
            x, y = _stack_batch(batch)
            model.zero_grads()
            try:
                logits, bn_out, _ = forward(model, x, mode="train")
                loss = combined_loss(logits, y, loss_cfg)
                T.backward(loss)
            except NumericDomainError as e:
                raise NumericDomainError(
                    f"training aborted at epoch {epoch}, batch {start // batch_size}: {e}") from e
            model = model.with_bn(bn_out)
            adamw_step(model.params, opt)
            epoch_loss += loss.item() * len(batch)
            seen += len(batch)
        val_loss = _dataset_loss(model, val_samples, loss_cfg, batch_size)
        history.append(EpochRecord(epoch, epoch_loss / seen, val_loss,
                                   time.perf_counter() - t0))
        if val_loss < best_val:
            best_val = val_loss
            best_snap = _snapshot(model)
            stale = 0
        else:
            stale += 1
            if stale >= stop_cfg.patience:
                break
    return _restore(model, best_snap), history

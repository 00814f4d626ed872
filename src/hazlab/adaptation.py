"""k-shot unsupervised domain adaptation and per-image percentile thresholding.

Adaptation recomputes each batch-normalization layer's running statistics
from the unlabeled target images and *replaces* the source statistics with
them (reset-and-recompute, no momentum blend). No labels are consulted and
no parameter receives a gradient. Layers are adapted in network order, so a
later layer measures activations that already flow through adapted
predecessors.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import tensor as T
from .errors import ContractError
from .tensor import Tensor
from .unet import Model, forward

@dataclasses.dataclass(frozen=True)
class ThresholdPolicy:
    """Nearest-rank quantile with strictly-greater comparison; ties at the
    threshold fall to background."""

    quantile: float = 0.95

    def __post_init__(self):
        if not (0.0 < self.quantile < 1.0):
            raise ContractError("ThresholdPolicy: quantile must be in (0,1)")


def select_unlabeled(pool: list, k: int, seed: int) -> list:
    """Seeded choice of k pool entries without replacement, order-stable."""
    if k > len(pool):
        raise ContractError(f"select_unlabeled: k={k} exceeds pool of {len(pool)}")
    rng = np.random.default_rng(np.random.PCG64(seed))
    idx = np.sort(rng.choice(len(pool), size=k, replace=False))
    return [pool[i] for i in idx]


def _streaming_adapt(model: Model, images: np.ndarray, batch_size: int) -> Model:
    """Per-layer statistics collection with a (count, mean, M2) accumulator;
    the result is independent of how the k images are batched."""
    states = list(model.bn_states)
    for layer in range(len(states)):
        count = 0
        mean = np.zeros(states[layer].channels)
        m2 = np.zeros(states[layer].channels)
        prefix_model = model.with_bn(states)
        for start in range(0, len(images), batch_size):
            x = Tensor(images[start:start + batch_size])
            with T.no_grad():
                _, _, rs = forward(prefix_model, x, mode="eval", capture_index=layer)
            acts = rs.captured
            nb = acts.shape[0] * acts.shape[2] * acts.shape[3]
            mb = acts.mean(axis=(0, 2, 3))
            vb = ((acts - mb[None, :, None, None]) ** 2).mean(axis=(0, 2, 3))
            delta = mb - mean
            total = count + nb
            mean = mean + delta * (nb / total)
            m2 = m2 + vb * nb + delta * delta * (count * nb / total)
            count = total
        states[layer] = states[layer].with_stats(mean, m2 / count)
    return model.with_bn(states)


def adapt_bn(model: Model, unlabeled, batch_size: int | None = None) -> Model:
    """Replace every BN layer's running statistics with the biased moments of
    its input activations over the given unlabeled images.

    `unlabeled` is a list of [C,H,W] arrays (or objects with an `image`
    attribute); masks are never an input. k=0 returns the model unchanged.
    """
    images = [getattr(s, "image", s) for s in unlabeled]
    if not images:
        return model
    arrs = [np.asarray(im, dtype=np.float64) for im in images]
    shape = arrs[0].shape
    if any(a.shape != shape for a in arrs):
        raise ContractError("adapt_bn: unlabeled images have inconsistent shapes")
    stack = np.stack(arrs)
    if batch_size is not None and batch_size < len(arrs):
        return _streaming_adapt(model, stack, batch_size)
    # joint single batch: one statistics-collection pass over the whole set
    with T.no_grad():
        _, bn_out, _ = forward(model, Tensor(stack), mode="adapt")
    return model.with_bn(bn_out)


def nearest_rank_percentile(values, q: float) -> float:
    """Ascending-sorted element at 1-based index ceil(q*n); no interpolation.

    The ceil is taken with a 1e-9 guard so that binary rounding of q*n cannot
    push an exactly-integral rank up by one.
    """
    vals = np.asarray(values, dtype=np.float64).ravel()
    if vals.size == 0:
        raise ContractError("nearest_rank_percentile: empty input")
    if not (0.0 < q < 1.0):
        raise ContractError("nearest_rank_percentile: q must be in (0,1)")
    rank = math.ceil(q * vals.size - 1e-9)
    rank = min(max(rank, 1), vals.size)
    return float(np.sort(vals)[rank - 1])


def threshold_mask(probs, policy: ThresholdPolicy = ThresholdPolicy()) -> np.ndarray:
    """Binarize one probability map by its own nearest-rank quantile.

    Accepts [H,W], [1,H,W] or [1,1,H,W]; returns a uint8 [H,W] mask where a
    pixel is hazard iff its value is strictly greater than the threshold.
    """
    arr = probs.data if isinstance(probs, Tensor) else np.asarray(probs, dtype=np.float64)
    arr = np.squeeze(arr)
    if arr.ndim != 2:
        raise ContractError(f"threshold_mask: expected a single image, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ContractError("threshold_mask: non-finite probabilities")
    t = nearest_rank_percentile(arr, policy.quantile)
    return (arr > t).astype(np.uint8)


def threshold_batch(probs, policy: ThresholdPolicy = ThresholdPolicy()) -> np.ndarray:
    """Per-image thresholding of an [N,1,H,W] batch; returns uint8 [N,H,W]."""
    arr = probs.data if isinstance(probs, Tensor) else np.asarray(probs, dtype=np.float64)
    return np.stack([threshold_mask(arr[i], policy) for i in range(arr.shape[0])])

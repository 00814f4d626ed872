"""Cost of the span tracer: the same work timed with and without it.

    python3 benchmark/overhead.py

Alternates untraced and traced blocks of training steps (all four variants)
and of k = 10 mappings, so that drift in machine speed hits both sides alike,
and prints the median traced/untraced time ratio of each kind of work.
"""

import os

os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import spans  # noqa: E402
from hazlab import adaptation as A  # noqa: E402
from hazlab import tensor as T  # noqa: E402
from hazlab import training as TR  # noqa: E402
from hazlab import unet as U  # noqa: E402

PAIRS = 7


def main() -> int:
    rng = np.random.default_rng(0)
    x = rng.random((8, 3, 32, 32))
    y = (rng.random((8, 1, 32, 32)) > 0.8).astype(np.float64)
    pool = list(rng.random((10, 3, 32, 32)))
    eval_set = T.Tensor(rng.random((32, 3, 32, 32)))
    models = [U.build(U.UNetConfig(variant=v)) for v in U.ALL_VARIANTS]
    opts = [TR.AdamWState(m.params) for m in models]

    def train_block():
        for m, opt in zip(models, opts):
            for _ in range(3):
                m.zero_grads()
                logits, _, _ = U.forward(m, T.Tensor(x), mode="train")
                T.backward(TR.combined_loss(logits, y, TR.LossConfig()))
                TR.adamw_step(m.params, opt)

    def map_block():
        for m in models:
            for _ in range(3):
                A.threshold_batch(U.predict_probs(A.adapt_bn(m, pool), eval_set))

    tracer = spans.Tracer()
    spans.install(tracer)
    for name, block in (("training step", train_block), ("mapping", map_block)):
        ratios = []
        for _ in range(PAIRS):
            times = []
            for enabled in (False, True):
                tracer.enabled = enabled
                tracer.spans.clear()
                t0 = time.perf_counter()
                block()
                times.append(time.perf_counter() - t0)
            ratios.append(times[1] / times[0])
        print(f"{name}: traced/untraced median {statistics.median(ratios):.3f} "
              f"(min {min(ratios):.3f}, max {max(ratios):.3f}, {PAIRS} pairs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

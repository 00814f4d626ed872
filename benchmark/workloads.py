"""The three benchmark workloads: pretrain, sweep and protocol.

Each workload takes a `Run`, builds its inputs from the run's seed during
set-up, runs whole rounds of the same operations until the run's seconds
have passed, then checks the outputs it kept and returns a `Result`.
"""

from __future__ import annotations

import dataclasses
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import zlib
from pathlib import Path

import numpy as np

import checks
import spans

QUANTILE = 0.95
K_SWEEP = (0, 1, 5, 10, 50)
IMAGE_SIZE = 32
BATCH = 8
# 32 training images make 4 full batches, so every training step has the
# same shape; 8 images validate. Short pretrain calls spread each variant
# over many rounds, so its steps sample the machine at many moments.
PRETASK_TRAIN, PRETASK_VAL = 32, 8
PRETRAIN_EPOCHS = 2
WARM_UP_STEPS = 4
# sweep: the eval set every mapping predicts (the protocol's size, so the conv
# shapes match), and the pool k images come from
EVAL_SET, POOL = 32, 64
SWEEP_PRETRAIN_EPOCHS = 1
# two rounds of 60 mappings leave at least ten beyond the 90th percentile
SWEEP_MIN_ROUNDS = 2
GRAD_PARAMS = ("enc0.conv1.w", "bottleneck.conv2.w", "dec0.conv2.w", "head.w")
GRAD_COORDS = 3


def sub_seed(seed: int, *tags) -> int:
    """A 63-bit seed derived from the workload seed and string tags."""
    parts = [seed] + [zlib.crc32(str(t).encode()) for t in tags]
    return int(np.random.SeedSequence(parts).generate_state(1, np.uint64)[0] % (2 ** 63))


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# A metric without samples reads None (JSON null), never 0, which would be the
# best value of a lower-is-better metric. A workload in which no operation
# completed also reports a check error, since nothing was checked.
def median_or_none(values, scale: float = 1.0) -> float | None:
    return scale * statistics.median(values) if values else None


def p90_or_none(values, scale: float = 1.0) -> float | None:
    return scale * percentile(values, 90) if len(values) > 1 else None


@dataclasses.dataclass
class Run:
    root: Path
    seed: int
    seconds: float
    trace: bool
    tmp: Path
    start: float  # process start on the perf_counter clock
    tracer: spans.Tracer | None = None
    setup_s: float = 0.0

    def setup_done(self) -> None:
        self.setup_s = time.perf_counter() - self.start

    def rounds(self, min_rounds: int = 1):
        """Yield round numbers until `seconds` have passed, whole rounds only.

        A traced run traces the set-up and the first round only, so its
        per-layer counts are the same whatever the number of rounds.
        """
        t0 = time.perf_counter()
        n = 0
        while n < min_rounds or time.perf_counter() - t0 < self.seconds:
            yield n
            if self.tracer is not None:
                self.tracer.enabled = False
            n += 1

    def env(self) -> dict[str, str]:
        """Environment of a child process: the checkout's sources, BLAS pinned."""
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        return env


@dataclasses.dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    failures: list[str] = dataclasses.field(default_factory=list)  # operations that raised
    errors: list[str] = dataclasses.field(default_factory=list)  # failed output checks
    end_to_end: dict[str, float] = dataclasses.field(default_factory=dict)
    per_layer: dict[str, float] = dataclasses.field(default_factory=dict)
    # the workload's own names for its end-to-end figures, printed for readers
    aliases: list[tuple[str, float, str]] = dataclasses.field(default_factory=list)


def _self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cli_import_s(run: Run, repeats: int = 3) -> float:
    """Median time to import hazlab.cli in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import hazlab.cli; print(time.perf_counter() - t)"
    times = []
    for _ in range(repeats):
        out = subprocess.run([sys.executable, "-c", code], env=run.env(), capture_output=True,
                             text=True, timeout=120, check=True)
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times)


def _traced_layers(run: Run) -> dict[str, float]:
    metrics = spans.layer_metrics(run.tracer.spans)
    metrics.update({name: 0.0 for name, _ in spans.OUTSIDE_NAMES})
    metrics["cli.import_s"] = cli_import_s(run)
    return metrics


class StepProbe:
    """Times each training step, from its train-mode forward to the end of its
    AdamW update, by wrapping the two names `training.pretrain` looks up."""

    def __init__(self, training):
        self.durations: list[float] = []
        self._start = 0.0
        forward, adamw_step = training.forward, training.adamw_step

        def timed_forward(model, x, mode="eval", *args, **kwargs):
            if mode == "train":
                self._start = time.perf_counter()
            return forward(model, x, mode, *args, **kwargs)

        def timed_adamw_step(*args, **kwargs):
            out = adamw_step(*args, **kwargs)
            self.durations.append(time.perf_counter() - self._start)
            return out

        training.forward, training.adamw_step = timed_forward, timed_adamw_step


def _stack(samples) -> tuple[np.ndarray, np.ndarray]:
    return (np.stack([s.image for s in samples]),
            np.stack([s.mask for s in samples]).astype(np.float64)[:, None])


def _pretask(run: Run, n: int, tag: str):
    """Building pre-task of n samples, round-tripped through an HZDS file."""
    from hazlab import datasets as D
    samples = D.generate(D.GeneratorConfig(D.TaskKind.BUILDINGS, n_samples=n, size=IMAGE_SIZE,
                                           seed=sub_seed(run.seed, tag)))
    path = run.tmp / f"{tag}.hzds"
    D.write_dataset(samples, path)
    return D.read_dataset(path)


# ---------------------------------------------------------------------------
# pretrain


class KinkPattern:
    """Records on which side of each kink a forward pass lies: the sign of
    every relu input and the winner of every 2x2 max-pool window. Between two
    points with the same pattern the network is smooth."""

    def __init__(self, tensor):
        self.tensor = tensor
        self.relu, self.maxpool2 = tensor.relu, tensor.maxpool2
        self.pattern: list[bytes] = []

    def __enter__(self):
        def relu(a):
            self.pattern.append(np.packbits(a.data > 0.0).tobytes())
            return self.relu(a)

        def maxpool2(x):
            n, c, h, w = x.data.shape
            win = x.data.reshape(n, c, h // 2, 2, w // 2, 2).transpose(0, 1, 2, 4, 3, 5)
            self.pattern.append(win.reshape(n, c, h // 2, w // 2, 4).argmax(-1)
                                .astype(np.uint8).tobytes())
            return self.maxpool2(x)

        self.tensor.relu, self.tensor.maxpool2 = relu, maxpool2
        return self

    def __exit__(self, *exc):
        self.tensor.relu, self.tensor.maxpool2 = self.relu, self.maxpool2

    def take(self) -> list[bytes]:
        out, self.pattern = self.pattern, []
        return out


def _check_pretrained(model, history, train, val, seed: int) -> list[str]:
    """Best-epoch validation loss recomputed in numpy, and central differences
    of a fixed projection of train-mode logits against `tensor.backward`."""
    from hazlab import tensor as T
    from hazlab import unet as U

    def logits(x, mode):
        with T.no_grad():
            return U.forward(model, T.Tensor(x), mode=mode)[0].data

    images, masks = _stack(val)
    errors = checks.check_val_loss(
        checks.dataset_loss(lambda x: logits(x, "eval"), images, masks, BATCH),
        [h.val_loss for h in history])

    rng = np.random.default_rng(seed)
    x = _stack(train[:2])[0]
    r = rng.normal(size=(2, 1, IMAGE_SIZE, IMAGE_SIZE))
    model.zero_grads()
    out, _, _ = U.forward(model, T.Tensor(x), mode="train")
    T.backward((T.Tensor(r) * out).sum())
    analytic, numeric = {}, {}
    with KinkPattern(T) as kinks:
        def f():
            value = float(np.sum(r * logits(x, "train")))
            return value, kinks.take()

        base = f()[1]
        for name in GRAD_PARAMS:
            p = model.params[name]
            g = p.grad.reshape(-1)
            # entries whose gradient is not lost in the differences' rounding
            candidates = rng.permutation(np.flatnonzero(np.abs(g) >= 1e-2 * np.abs(g).max()))
            ana, num = [], []
            for i in candidates:
                d = checks.central_difference(f, p.data, i, base)
                if d is not None:
                    ana.append(g[i])
                    num.append(d)
                if len(num) == GRAD_COORDS:
                    break
            if len(num) < GRAD_COORDS:
                errors.append(f"{name}: only {len(num)} entries away from kinks")
            analytic[name], numeric[name] = np.asarray(ana), np.asarray(num)
    return errors + checks.check_gradients(analytic, numeric)


def _warm_up(train) -> None:
    """A few training steps per variant, so that the timed rounds do not pay
    for the allocator and BLAS buffers growing to the working set. It runs
    after `setup_s` is taken and before the first round."""
    from hazlab import tensor as T
    from hazlab import training as TR
    from hazlab import unet as U
    x, y = _stack(train[:BATCH])
    for variant in U.ALL_VARIANTS:
        model = U.build(U.UNetConfig(variant=variant))
        opt = TR.AdamWState(model.params)
        for _ in range(WARM_UP_STEPS):
            model.zero_grads()
            logits, _, _ = U.forward(model, T.Tensor(x), mode="train")
            T.backward(TR.combined_loss(logits, y, TR.LossConfig()))
            TR.adamw_step(model.params, opt)


def pretrain(run: Run) -> Result:
    from hazlab import training as TR
    from hazlab import unet as U

    pre = _pretask(run, PRETASK_TRAIN + PRETASK_VAL, "pretask")
    train, val = pre[:PRETASK_TRAIN], pre[PRETASK_TRAIN:]
    run.setup_done()
    _warm_up(train)
    probe = None if run.trace else StepProbe(TR)
    res = Result()
    kept = {}
    rates = []  # training images per second of pretrain wall time, per round
    for rnd in run.rounds():
        wall, images = 0.0, 0
        for variant in U.ALL_VARIANTS:
            model = U.build(U.UNetConfig(variant=variant,
                                         seed=sub_seed(run.seed, "init", variant.value)))
            res.attempted += 1
            t0 = time.perf_counter()
            try:
                model, history = TR.pretrain(
                    model, train, val, stop_cfg=TR.EarlyStopConfig(PRETRAIN_EPOCHS, PRETRAIN_EPOCHS),
                    batch_size=BATCH, seed=sub_seed(run.seed, "shuffle", variant.value))
            except Exception as e:  # a failed operation is counted, not fatal
                res.failed += 1
                res.failures.append(f"pretrain {variant.value}: {type(e).__name__}: {e}")
                continue
            wall += time.perf_counter() - t0
            images += PRETRAIN_EPOCHS * len(train)
            if variant not in kept:
                kept[variant] = (model, history)
            elif [h.val_loss for h in history] != [h.val_loss for h in kept[variant][1]]:
                res.errors.append(f"pretrain {variant.value}: round {rnd} history differs")
        if wall:
            rates.append(images / wall)
    res.end_to_end = {
        "setup_s": run.setup_s,
        "throughput_per_s": median_or_none(rates),
    }
    if probe is not None:
        res.end_to_end["latency_ms_p50"] = median_or_none(probe.durations, 1e3)
        res.end_to_end["latency_ms_p90"] = p90_or_none(probe.durations, 1e3)
        res.end_to_end["peak_rss_mb"] = _self_peak_rss_mb()
    res.aliases = [("train_images_per_s", res.end_to_end["throughput_per_s"], "images/s")]
    if run.trace:
        res.per_layer = _traced_layers(run)
    for variant, (model, history) in kept.items():
        res.errors += [f"{variant.value}: {e}" for e in
                       _check_pretrained(model, history, train, val, sub_seed(run.seed, "grad"))]
    if not kept:
        res.errors.append("no pretrain call completed, so nothing was measured or checked")
    return res


# ---------------------------------------------------------------------------
# sweep


@dataclasses.dataclass
class Cell:
    task: str
    variant: str
    k: int
    chosen: np.ndarray | None
    model: object
    adapted: object
    probs: np.ndarray
    masks: np.ndarray
    model_ba: list
    sig: dict  # opponent -> SignificanceResult


def _sweep_setup(run: Run):
    from hazlab import datasets as D
    from hazlab import training as TR
    from hazlab import unet as U

    pre = _pretask(run, PRETASK_TRAIN + PRETASK_VAL, "pretask")
    models = {}
    for variant in U.ALL_VARIANTS:
        model = U.build(U.UNetConfig(variant=variant, seed=sub_seed(run.seed, "init", variant.value)))
        model, _ = TR.pretrain(model, pre[:PRETASK_TRAIN], pre[PRETASK_TRAIN:],
                               stop_cfg=TR.EarlyStopConfig(SWEEP_PRETRAIN_EPOCHS, 1),
                               batch_size=BATCH, seed=sub_seed(run.seed, "shuffle", variant.value))
        path = run.tmp / f"{variant.value}.hzmd"
        U.save_checkpoint(model, path)
        models[variant.value] = U.load_checkpoint(path)[0]
    tasks = {}
    for task in D.DOWNSTREAM_TASKS:
        sets = []
        for name, n in (("eval", EVAL_SET), ("pool", POOL)):
            samples = D.generate(D.GeneratorConfig(task, n_samples=n, size=IMAGE_SIZE,
                                                   seed=sub_seed(run.seed, name, task.value)))
            path = run.tmp / f"{task.value}_{name}.hzds"
            D.write_dataset(samples, path)
            sets.append(D.read_dataset(path))
        tasks[task.value] = tuple(sets)
    return models, tasks


def sweep(run: Run) -> Result:
    from hazlab import adaptation as A
    from hazlab import datasets as D
    from hazlab import evaluation as E
    from hazlab import unet as U
    from hazlab.tensor import Tensor

    models, tasks = _sweep_setup(run)
    policy = A.ThresholdPolicy(QUANTILE)
    run.setup_done()
    res = Result()
    cells: dict[tuple, Cell] = {}
    baselines: dict[tuple, list] = {}
    latencies: list[float] = []
    rates = []  # complete cells per second, per round
    for rnd in run.rounds(SWEEP_MIN_ROUNDS):
        done, t_round = 0, time.perf_counter()
        for task, (eval_set, pool) in tasks.items():
            imgs = D.aligned_images(eval_set, 3)
            stack = Tensor(np.stack(imgs))
            noise_masks = E.baseline_masks(E.BaselineKind.UNIFORM_NOISE, imgs,
                                           seed=sub_seed(run.seed, "noise", task), policy=policy)
            noise = E.evaluate_masks(noise_masks, eval_set)
            baselines.setdefault((task, "uniform_noise"), (noise_masks, noise))
            for variant, model in models.items():
                runet_masks = E.baseline_masks(
                    E.BaselineKind.RANDOM_INIT_UNET, imgs,
                    seed=sub_seed(run.seed, "runet", task, variant), policy=policy,
                    unet_config=model.config)
                runet = E.evaluate_masks(runet_masks, eval_set)
                baselines.setdefault((task, "random_unet", variant), (runet_masks, runet))
                for k in K_SWEEP:
                    res.attempted += 2  # the mapping and the cell it belongs to
                    t0 = time.perf_counter()
                    try:
                        chosen, adapted = None, model
                        if k:
                            picked = A.select_unlabeled(pool, k, sub_seed(run.seed, "select", task, k))
                            chosen = np.stack(D.aligned_images(picked, 3))
                            adapted = A.adapt_bn(model, list(chosen))
                        probs = U.predict_probs(adapted, stack)
                        masks = A.threshold_batch(probs, policy)
                    except Exception as e:  # a failed operation is counted, not fatal
                        res.failed += 2
                        res.failures.append(f"mapping {task}/{variant}/k={k}: {type(e).__name__}: {e}")
                        continue
                    latencies.append(time.perf_counter() - t0)
                    try:
                        recs = E.evaluate_masks(masks, eval_set)
                        sig = {"uniform_noise": E.paired_significance(recs, noise),
                               "random_unet": E.paired_significance(recs, runet)}
                    except Exception as e:
                        res.failed += 1
                        res.failures.append(f"cell {task}/{variant}/k={k}: {type(e).__name__}: {e}")
                        continue
                    done += 1
                    key = (task, variant, k)
                    if key not in cells:
                        cells[key] = Cell(task, variant, k, chosen, model, adapted, probs.data,
                                          masks, [r.balanced_accuracy for r in recs], sig)
                    elif not (np.array_equal(cells[key].masks, masks) and all(
                            cells[key].sig[o].p_value == sig[o].p_value for o in sig)):
                        res.errors.append(f"cell {key}: round {rnd} differs from round 0")
        if done:
            rates.append(done / (time.perf_counter() - t_round))
    res.end_to_end = {
        "setup_s": run.setup_s,
        "throughput_per_s": median_or_none(rates),
        "latency_ms_p50": median_or_none(latencies, 1e3),
        "latency_ms_p90": p90_or_none(latencies, 1e3),
        "peak_rss_mb": _self_peak_rss_mb(),
    }
    res.aliases = [("map_ms_p50", res.end_to_end["latency_ms_p50"], "ms"),
                   ("map_ms_p90", res.end_to_end["latency_ms_p90"], "ms"),
                   ("cells_per_s", res.end_to_end["throughput_per_s"], "cells/s"),
                   ("mappings", len(latencies), "count")]
    if run.trace:
        res.per_layer = _traced_layers(run)
    res.errors += _check_cells(cells, baselines, tasks)
    if not cells:
        res.errors.append("no cell completed, so nothing was measured or checked")
    return res


def _check_cells(cells: dict, baselines: dict, tasks: dict) -> list[str]:
    from hazlab import tensor as T
    from hazlab import unet as U

    errors = []
    gts = {task: np.stack([s.mask for s in eval_set]) for task, (eval_set, _) in tasks.items()}
    base_ba = {}
    for key, (masks, recs) in baselines.items():
        base_ba[key] = checks.recount_ba(masks, gts[key[0]])
        errors += [f"{key}: {e}" for e in
                   checks.check_ba(base_ba[key], [r.balanced_accuracy for r in recs])]
    for (task, variant, k), c in cells.items():
        where = f"{task}/{variant}/k={k}"
        if c.chosen is not None:
            with T.no_grad():
                train_logits = U.forward(c.model, T.Tensor(c.chosen), mode="train")[0].data
                eval_logits = U.forward(c.adapted, T.Tensor(c.chosen), mode="eval")[0].data
            errors += [f"{where}: {e}" for e in checks.check_bn_equivalence(train_logits, eval_logits)]
        errors += [f"{where}: {e}" for e in checks.check_masks(c.probs, c.masks, QUANTILE)]
        recount = checks.recount_ba(c.masks, gts[task])
        errors += [f"{where}: {e}" for e in checks.check_ba(recount, c.model_ba)]
        for opponent, key in (("uniform_noise", (task, "uniform_noise")),
                              ("random_unet", (task, "random_unet", variant))):
            s = c.sig[opponent]
            errors += [f"{where} vs {opponent}: {e}" for e in checks.check_significance(
                recount, base_ba[key], s.n_effective, s.p_value, s.method)]
    return errors


# ---------------------------------------------------------------------------
# protocol

PROTOCOL_CONFIG = {
    "n_seeds": 1,
    "variants": ["residual", "squeeze_excite", "grouped_se", "dual_path"],
    # 56 training images (7 full batches) and 8 validation images
    "pretask_samples": 64,
    "eval_set_size": 32,
    "unlabeled_pool_size": POOL,
    "k_sweep": list(K_SWEEP),
    "stop": {"max_epochs": 1, "patience": 1},
    "save_datasets": True,
}
# run once after set-up: the timed rounds then find hazlab's bytecode compiled
# in a fresh checkout and its files in the page cache
WARM_UP_CONFIG = dict(PROTOCOL_CONFIG, variants=["residual"], pretask_samples=32, eval_set_size=8,
                      unlabeled_pool_size=8, k_sweep=[0, 1, 5])
PROTOCOL_TASKS = ("flood", "fracture", "landslide")
# a `hazlab run` still going this long is hung (a timed round takes about 15 s)
ROUND_TIMEOUT_S = 120


def _children_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def _cell_intervals(out: Path) -> list[float]:
    """Seconds between consecutive per-image CSV writes, one per cell."""
    stamps = sorted(p.stat().st_mtime_ns for p in (out / "per_image").glob("*.csv"))
    return [(b - a) / 1e9 for a, b in zip(stamps, stamps[1:])]


def protocol(run: Run) -> Result:
    cells = len(PROTOCOL_TASKS) * len(PROTOCOL_CONFIG["variants"]) * len(K_SWEEP)
    config = dict(PROTOCOL_CONFIG, master_seed=run.seed)
    warm_up = run.tmp / "warm_up.json"
    warm_up.write_text(json.dumps(dict(WARM_UP_CONFIG, master_seed=run.seed,
                                       out_dir=str(run.tmp / "warm_up"))))
    run.setup_done()
    subprocess.run([sys.executable, "-m", "hazlab.cli", "run", "--config", str(warm_up)],
                   env=run.env(), cwd=run.tmp, capture_output=True, check=True,
                   timeout=ROUND_TIMEOUT_S)
    res = Result()
    walls, rates, intervals = [], [], []
    first, layers = None, {}
    for rnd in run.rounds():
        out = run.tmp / f"round{rnd}"
        cfg_path = run.tmp / f"round{rnd}.json"
        cfg_path.write_text(json.dumps(dict(config, out_dir=str(out))))
        args = ["run", "--config", str(cfg_path), "--threads", "2"]
        layers_path = run.tmp / f"round{rnd}_layers.json"
        traced = run.trace and rnd == 0  # per-layer metrics cover the first round
        cmd = ([sys.executable, str(Path(__file__).with_name("traced_cli.py")), str(layers_path)]
               if traced else [sys.executable, "-m", "hazlab.cli"]) + args
        res.attempted += cells
        cpu0, t0 = _children_cpu_s(), time.perf_counter()
        try:
            proc = subprocess.run(cmd, env=run.env(), cwd=run.tmp, capture_output=True, text=True,
                                  timeout=ROUND_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            res.failed += cells
            res.failures.append(f"hazlab run still running after {ROUND_TIMEOUT_S} s")
            continue
        wall = time.perf_counter() - t0
        cpu = _children_cpu_s() - cpu0
        if proc.returncode != 0:
            res.failed += cells
            res.failures.append(f"hazlab run exited {proc.returncode}: {proc.stderr[-500:]}")
            continue
        results, diags = checks.protocol_cells(out)
        missing = cells - len(results)
        res.failed += max(missing, len(diags))
        res.failures += [f"diagnostic: {d}" for d in diags]
        walls.append(wall)
        rates.append(len(results) / wall)
        intervals += _cell_intervals(out)
        if traced:
            layers = json.loads(layers_path.read_text())
            layers["harness.cores_busy"] = cpu / wall
        if first is None:
            first = out
        elif (out / "results.csv").read_bytes() != (first / "results.csv").read_bytes():
            res.errors.append(f"round {rnd}: results.csv differs from the first round's")
    res.end_to_end = {
        "setup_s": run.setup_s,
        "throughput_per_s": median_or_none(rates),
        "latency_ms_p50": median_or_none(intervals, 1e3),
        "latency_ms_p90": p90_or_none(intervals, 1e3),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    }
    res.aliases = [("protocol_s", median_or_none(walls), "s"),
                   ("cells_per_s", res.end_to_end["throughput_per_s"], "cells/s")]
    if run.trace:
        res.per_layer = {name: 0.0 for name, _ in spans.per_layer_names() + spans.OUTSIDE_NAMES}
        res.per_layer.update(layers)
        res.per_layer["cli.import_s"] = cli_import_s(run)
        if first is not None:
            files = [p for p in first.rglob("*") if p.is_file()]
            res.per_layer["harness.artifact_files"] = len(files)
            res.per_layer["harness.artifact_bytes"] = sum(p.stat().st_size for p in files)
    if first is not None:
        res.errors += checks.check_protocol(first, PROTOCOL_TASKS, PROTOCOL_CONFIG["variants"],
                                            K_SWEEP, (0,))
    else:
        res.errors.append("no round of hazlab run completed, so nothing was measured or checked")
    return res


WORKLOADS = {"pretrain": pretrain, "sweep": sweep, "protocol": protocol}

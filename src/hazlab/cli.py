"""Command-line entry point.

Subcommands: gen, pretrain, adapt, eval, run, report, gradcheck, selftest.
Exit codes: 0 success, 1 contract violation or bad usage, 2 I/O or format
error, 3 verification failure (gradcheck/selftest).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import tensor as T
from .adaptation import (ThresholdPolicy, adapt_bn, nearest_rank_percentile, select_unlabeled,
                         threshold_batch)
from .datasets import GeneratorConfig, TaskKind, aligned_images, generate, read_dataset, \
    write_dataset
from .errors import ContractError, FormatError, GenerationError, NumericDomainError
from .evaluation import (BaselineKind, baseline_masks, confusion, evaluate_masks,
                         metrics, paired_significance, records_to_csv, significance_to_csv,
                         summarize, wilcoxon_one_tailed)
from .harness import (ExperimentConfig, ResultsTable, parse_significance_csv, render_report,
                      run_experiment)
from .tensor import Tensor
from .training import AdamWConfig, EarlyStopConfig, pretrain
from .unet import (ALL_VARIANTS, BackboneVariant, UNetConfig, build, forward, load_checkpoint,
                   predict_probs, save_checkpoint)


class _Parser(argparse.ArgumentParser):
    """Unknown flags and malformed values print usage and exit 1, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _build_parser() -> _Parser:
    p = _Parser(prog="hazlab", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    g = sub.add_parser("gen", help="generate a seeded HZDS dataset")
    g.add_argument("--task", required=True, choices=[t.value for t in TaskKind])
    g.add_argument("--n", type=int, default=64)
    g.add_argument("--size", type=int, default=32)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)

    t = sub.add_parser("pretrain", help="pre-train a model on a labeled HZDS dataset")
    t.add_argument("--train", required=True)
    t.add_argument("--val", required=True)
    t.add_argument("--variant", default="residual", choices=[v.value for v in ALL_VARIANTS])
    t.add_argument("--depth", type=int, default=3)
    t.add_argument("--base-channels", type=int, default=8)
    t.add_argument("--epochs", type=int, default=50)
    t.add_argument("--patience", type=int, default=5)
    t.add_argument("--batch-size", type=int, default=8)
    t.add_argument("--lr", type=float, default=0.00015)
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--out", required=True)

    a = sub.add_parser("adapt", help="k-shot BN-statistics adaptation from unlabeled images")
    a.add_argument("--model", required=True)
    a.add_argument("--pool", required=True, help="HZDS file of unlabeled target images")
    a.add_argument("--k", type=int, required=True)
    a.add_argument("--seed", type=int, default=0, help="image selection seed")
    a.add_argument("--out", required=True)

    e = sub.add_parser("eval", help="threshold predictions and score them against both baselines")
    e.add_argument("--model", required=True)
    e.add_argument("--data", required=True)
    e.add_argument("--quantile", type=float, default=0.95)
    e.add_argument("--seed", type=int, default=0, help="baseline seed")
    e.add_argument("--out", required=True, help="output directory")

    r = sub.add_parser("run", help="full protocol: pretrain, k sweep, significance, report")
    r.add_argument("--config", help="ExperimentConfig JSON; defaults used when omitted")
    r.add_argument("--seed", type=int, help="override master_seed")
    r.add_argument("--out", help="override output directory")
    r.add_argument("--threads", type=int, default=1)

    rp = sub.add_parser("report", help="re-render plots and summaries from a results CSV")
    rp.add_argument("--results", required=True)
    rp.add_argument("--significance", help="significance CSV for *** markers")
    rp.add_argument("--out", required=True)

    sub.add_parser("gradcheck", help="finite-difference verification of the autodiff engine")
    sub.add_parser("selftest", help="metric and statistics oracles")
    return p


# ---------------------------------------------------------------------------
# subcommand bodies


def _cmd_gen(args) -> int:
    cfg = GeneratorConfig(kind=TaskKind(args.task), n_samples=args.n, size=args.size,
                          seed=args.seed)
    samples = generate(cfg)
    write_dataset(samples, args.out)
    print(f"wrote {len(samples)} {args.task} samples to {args.out}")
    return 0


def _cmd_pretrain(args) -> int:
    train = read_dataset(args.train)
    val = read_dataset(args.val)
    in_channels = train[0].image.shape[0]
    model = build(UNetConfig(in_channels=in_channels, base_channels=args.base_channels,
                             depth=args.depth, variant=BackboneVariant(args.variant),
                             seed=args.seed))
    model, history = pretrain(model, train, val,
                              optim_cfg=AdamWConfig(lr=args.lr),
                              stop_cfg=EarlyStopConfig(args.epochs, args.patience),
                              batch_size=args.batch_size, seed=args.seed)
    save_checkpoint(model, args.out, meta={"stage": "pretrained", "seed": args.seed})
    print(f"{len(history)} epochs, best val loss {min(h.val_loss for h in history):.6f}, "
          f"saved to {args.out}")
    return 0


def _cmd_adapt(args) -> int:
    model, _ = load_checkpoint(args.model)
    pool = read_dataset(args.pool)
    chosen = select_unlabeled(pool, args.k, args.seed)
    adapted = adapt_bn(model, aligned_images(chosen, model.config.in_channels))
    save_checkpoint(adapted, args.out,
                    meta={"stage": "adapted", "k": args.k, "selection_seed": args.seed})
    print(f"adapted BN statistics from k={args.k} unlabeled images, saved to {args.out}")
    return 0


def _cmd_eval(args) -> int:
    model, _ = load_checkpoint(args.model)
    data = read_dataset(args.data)
    policy = ThresholdPolicy(args.quantile)
    imgs = aligned_images(data, model.config.in_channels)
    stack = Tensor(np.stack(imgs))
    masks = threshold_batch(predict_probs(model, stack), policy)
    recs = evaluate_masks(masks, data)
    results = {}
    for kind in BaselineKind:
        base = baseline_masks(kind, imgs, seed=args.seed, policy=policy,
                              unet_config=model.config)
        results[(kind.value,)] = paired_significance(recs, evaluate_masks(base, data))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "records.csv").write_text(records_to_csv(recs))
    (out / "significance.csv").write_text(significance_to_csv(results, ("opponent",)))
    s = summarize(recs)
    print(f"mean balanced accuracy {s['mean_balanced_accuracy']:.4f} "
          f"(std {s['std_balanced_accuracy']:.4f}, {s['n_defined']} defined)")
    for (name,), r in sorted(results.items()):
        print(f"vs {name}: p={r.p_value:.3e} significant={r.significant}")
    return 0


def _cmd_run(args) -> int:
    if args.config:
        cfg = ExperimentConfig.from_dict(json.loads(Path(args.config).read_text()))
    else:
        cfg = ExperimentConfig()
    if args.seed is not None:
        cfg.master_seed = args.seed
    if args.out is not None:
        cfg.out_dir = args.out
    table = run_experiment(cfg, threads=args.threads)
    print(f"{len(table.rows)} result rows written to {cfg.out_dir}")
    return 0


def _cmd_report(args) -> int:
    table = ResultsTable.from_csv(Path(args.results).read_text())
    flags = (parse_significance_csv(Path(args.significance).read_text())
             if args.significance else None)
    render_report(table, args.out, flags)
    print(f"report rendered to {args.out}")
    return 0


def _cmd_gradcheck(args) -> int:
    rng = np.random.default_rng(0)
    worst = 0.0
    checks = [
        ("conv2d", lambda: T.grad_check(
            lambda x, w, b: T.conv2d(x, w, b, stride=1, pad=1).sum() ** 2,
            [Tensor(rng.random((1, 2, 5, 5))), Tensor(rng.normal(size=(3, 2, 3, 3)) * 0.3),
             Tensor(rng.normal(size=3) * 0.1)])),
        ("conv2d_strided_grouped", lambda: T.grad_check(
            lambda x, w, b: (T.conv2d(x, w, b, stride=2, pad=1, groups=2) ** 2).sum(),
            [Tensor(rng.random((1, 4, 7, 7))), Tensor(rng.normal(size=(4, 2, 3, 3)) * 0.3),
             Tensor(np.zeros(4))])),
        ("arithmetic", lambda: T.grad_check(
            lambda a, b: ((a * b + a - b) / (b * b + 2.0)).sum(),
            [Tensor(rng.normal(size=(3, 4))), Tensor(rng.normal(size=(3, 4)))])),
        ("sigmoid_log", lambda: T.grad_check(
            lambda x: (T.log(T.sigmoid(x)) * -1.0).sum(), [Tensor(rng.normal(size=(2, 5)))])),
        ("exp_clamp", lambda: T.grad_check(
            lambda x: (T.exp(T.clamp(x, -1.0, 1.0)) ** 2).mean(),
            [Tensor(rng.normal(size=(3, 3)) * 0.4)])),
        ("maxpool_upsample", lambda: T.grad_check(
            lambda x: (T.upsample2(T.maxpool2(x)) ** 2).sum(),
            [Tensor(rng.random((1, 2, 6, 6)))])),
    ]
    ok = True
    for name, fn in checks:
        err = fn()
        worst = max(worst, err)
        status = "ok" if err < 1e-6 else "FAIL"
        ok = ok and err < 1e-6
        print(f"primitive {name}: max rel err {err:.3e} [{status}]")

    for variant in ALL_VARIANTS:
        model = build(UNetConfig(in_channels=2, base_channels=4, depth=1,
                                 variant=variant, seed=11))
        x = Tensor(rng.random((2, 2, 8, 8)))
        r = rng.normal(size=(2, 1, 8, 8))
        # conv biases ahead of a BN are excluded: normalization cancels them
        # exactly, leaving nothing for finite differences to resolve
        max_err = 0.0
        for pname in ("enc0.conv1.w", "bottleneck.conv2.w", "head.w", "head.b"):
            p = model.params[pname]
            p.zero_grad()
            logits, _, _ = forward(model, x, mode="train")
            T.backward((Tensor(r) * logits).sum())
            flat = p.data.reshape(-1)
            aflat = p.grad.reshape(-1)
            h = 1e-5
            with T.no_grad():
                for i in np.linspace(0, flat.size - 1, min(4, flat.size)).astype(int):
                    orig = flat[i]
                    flat[i] = orig + h
                    fp = float((Tensor(r) * forward(model, x, mode="train")[0]).sum().data)
                    flat[i] = orig - h
                    fm = float((Tensor(r) * forward(model, x, mode="train")[0]).sum().data)
                    flat[i] = orig
                    num = (fp - fm) / (2 * h)
                    max_err = max(max_err, abs(aflat[i] - num) / max(abs(aflat[i]), abs(num), 1e-8))
        worst = max(worst, max_err)
        status = "ok" if max_err < 1e-4 else "FAIL"
        ok = ok and max_err < 1e-4
        print(f"model {variant.value}: max rel err {max_err:.3e} [{status}]")
    print(f"gradcheck worst relative error {worst:.3e}")
    return 0 if ok else 3


def _cmd_selftest(args) -> int:
    failures = []

    r = wilcoxon_one_tailed([1, 2, 3, 4, 5, 6, 7, 8])
    if not (r.p_value == 1 / 256 == 0.00390625 and r.method == "exact" and r.significant):
        failures.append(f"wilcoxon n=8 all-positive: p={r.p_value!r}")

    rng = np.random.default_rng(1)
    for trial in range(20):
        vals = rng.random(rng.integers(1, 40))
        q = float(rng.uniform(0.05, 0.95))
        rank = min(max(math.ceil(round(q * vals.size, 9)), 1), vals.size)
        if nearest_rank_percentile(vals, q) != float(np.sort(vals)[rank - 1]):
            failures.append(f"percentile trial {trial}")

    for trial in range(10):
        pred = (rng.random((8, 8)) > 0.7).astype(int)
        gt = (rng.random((8, 8)) > 0.5).astype(int)
        c = confusion(pred, gt)
        tp = sum(int(pred[i, j] == 1 and gt[i, j] == 1)
                 for i in range(8) for j in range(8))
        if c.tp != tp or c.total != 64:
            failures.append(f"confusion trial {trial}")
        rec = metrics(c)
        pos, neg = c.tp + c.fn, c.tn + c.fp
        if pos and neg:
            ba = 0.5 * (c.tp / pos + c.tn / neg)
            if abs(rec.balanced_accuracy - ba) > 1e-15:
                failures.append(f"balanced accuracy trial {trial}")

    # BN adaptation equivalence: eval after adapt_bn == train mode on the batch
    model = build(UNetConfig(in_channels=1, base_channels=4, depth=1,
                             variant=BackboneVariant.RESIDUAL, seed=2))
    x = Tensor(rng.random((4, 1, 8, 8)))
    with T.no_grad():
        train_logits, _, _ = forward(model, x, mode="train")
    adapted = adapt_bn(model, [x.data[i] for i in range(4)])
    with T.no_grad():
        eval_logits, _, _ = forward(adapted, x, mode="eval")
    gap = float(np.max(np.abs(train_logits.data - eval_logits.data)))
    if gap > 1e-10:
        failures.append(f"bn adaptation equivalence gap {gap:.3e}")

    for f in failures:
        print(f"FAIL {f}")
    print(f"selftest: {len(failures)} failure(s)" if failures else "selftest: 4/4 suites passed")
    return 3 if failures else 0


_DISPATCH = {
    "gen": _cmd_gen,
    "pretrain": _cmd_pretrain,
    "adapt": _cmd_adapt,
    "eval": _cmd_eval,
    "run": _cmd_run,
    "report": _cmd_report,
    "gradcheck": _cmd_gradcheck,
    "selftest": _cmd_selftest,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _DISPATCH[args.command](args)
    except SystemExit as e:
        return int(e.code or 0)
    except ContractError as e:
        print(f"contract violation: {e}", file=sys.stderr)
        return 1
    except NumericDomainError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 1
    except GenerationError as e:
        print(f"generation failure: {e}", file=sys.stderr)
        return 1
    except (FormatError, OSError, json.JSONDecodeError) as e:
        print(f"I/O error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

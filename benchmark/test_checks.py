"""Self-tests of the benchmark: every output check fails on a corrupted
output, and the span arithmetic gives the right self times.

    python3 -m pytest benchmark -q
"""

import dataclasses
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import spans  # noqa: E402
from hazlab import adaptation as A  # noqa: E402
from hazlab import evaluation as E  # noqa: E402
from hazlab import harness as H  # noqa: E402
from hazlab import tensor as T  # noqa: E402
from hazlab import training as TR  # noqa: E402
from hazlab import unet as U  # noqa: E402
from hazlab.datasets import GeneratorConfig, TaskKind, generate  # noqa: E402

import workloads  # noqa: E402

RNG = np.random.default_rng(7)


def _span(name, t0, t1, parent, extra=None):
    return [name, t0, t1, parent, extra]


def test_self_time_of_nested_trace():
    trace = [_span("a", 0.0, 10.0, -1),
             _span("b", 1.0, 4.0, 0),
             _span("c", 2.0, 3.0, 1),
             _span("d", 5.0, 9.0, 0),
             _span("e", 8.5, 9.5, 3)]  # runs past its parent's end: only 0.5 s is covered
    assert spans.self_times(trace) == pytest.approx([3.0, 2.0, 1.0, 3.5, 1.0])


def test_backward_self_time_excludes_wrapped_closures():
    flops = (2.0e9, True)
    trace = [_span("tensor.backward", 0.0, 1.0, -1),
             _span("tensor.conv2d.backward", 0.1, 0.5, 0, flops),
             _span("tensor.relu.backward", 0.6, 0.7, 0)]
    m = spans.layer_metrics(trace)
    assert m["tensor.backward.s"] == pytest.approx(1.0)
    assert m["tensor.backward.self_s"] == pytest.approx(0.5)
    assert m["tensor.conv2d.gflop"] == pytest.approx(4.0)
    assert m["tensor.conv2d.discarded_dx_gflop"] == pytest.approx(2.0)
    assert m["tensor.relu.backward_s"] == pytest.approx(0.1)


def test_tracer_records_op_and_backward_spans():
    tracer = spans.Tracer()
    replaced = spans.install(tracer)
    try:
        x = T.Tensor(RNG.random((1, 2, 6, 6)))
        w = T.Tensor(RNG.normal(size=(3, 2, 3, 3)), requires_grad=True)
        b = T.Tensor(np.zeros(3), requires_grad=True)
        T.backward(T.conv2d(x, w, b, pad=1).mean())
    finally:
        for module, name, original in replaced:
            setattr(module, name, original)
    m = spans.layer_metrics(tracer.spans)
    assert m["tensor.conv2d.calls"] == 1
    assert m["tensor.backward.calls"] == 1
    forward_flops = 2 * 1 * 3 * 2 * 3 * 3 * 6 * 6
    assert m["tensor.conv2d.gflop"] == pytest.approx(3 * forward_flops / 1e9)
    assert m["tensor.conv2d.discarded_dx_gflop"] == pytest.approx(forward_flops / 1e9)
    assert m["tensor.mean_all.calls"] == 1 and m["tensor.mean_all.backward_s"] > 0


# ---------------------------------------------------------------------------
# sweep checks


def _probs_and_masks(n=4, size=16):
    probs = RNG.random((n, 1, size, size))
    masks = A.threshold_batch(probs, A.ThresholdPolicy(0.95))
    return probs, masks


def test_mask_check_fails_on_flipped_pixel():
    probs, masks = _probs_and_masks()
    assert checks.check_masks(probs, masks, 0.95) == []
    bad = masks.copy()
    bad[2, 5, 7] ^= 1
    assert checks.check_masks(probs, bad, 0.95)


def test_mask_check_allows_fewer_positives_at_a_tie():
    probs, _ = _probs_and_masks(n=1)
    flat = probs.reshape(-1)
    order = np.argsort(flat)
    rank = int(np.ceil(0.95 * flat.size))
    flat[order[rank]] = flat[order[rank - 1]]  # one pixel above ties the threshold
    masks = A.threshold_batch(probs, A.ThresholdPolicy(0.95))
    assert masks.sum() == flat.size - rank - 1
    assert checks.check_masks(probs, masks, 0.95) == []


def test_ba_check_fails_on_flipped_pixel():
    samples = generate(GeneratorConfig(TaskKind.FLOOD, n_samples=4, size=16, seed=3))
    _, masks = _probs_and_masks()
    gts = np.stack([s.mask for s in samples])
    reported = [r.balanced_accuracy for r in E.evaluate_masks(masks, samples)]
    assert checks.check_ba(checks.recount_ba(masks, gts), reported) == []
    bad = masks.copy()
    bad[0] = 1 - bad[0]
    assert checks.check_ba(checks.recount_ba(bad, gts), reported)


def _tiny_model(seed=5):
    return U.build(U.UNetConfig(in_channels=1, base_channels=4, depth=1, seed=seed))


def test_bn_equivalence_check_fails_on_perturbed_statistic():
    model = _tiny_model()
    x = RNG.random((3, 1, 8, 8))
    adapted = A.adapt_bn(model, list(x))
    with T.no_grad():
        train = U.forward(model, T.Tensor(x), mode="train")[0].data
        good = U.forward(adapted, T.Tensor(x), mode="eval")[0].data
    assert checks.check_bn_equivalence(train, good) == []
    states = list(adapted.bn_states)
    mean = states[1].running_mean.copy()
    mean[0] += 1e-6
    states[1] = states[1].with_stats(mean, states[1].running_var)
    with T.no_grad():
        bad = U.forward(adapted.with_bn(states), T.Tensor(x), mode="eval")[0].data
    assert checks.check_bn_equivalence(train, bad)


def _records(bas):
    counts = E.ConfusionCounts(1, 1, 1, 1)
    return [E.MetricsRecord(i, ba, 0.0, 0.0, counts) for i, ba in enumerate(bas)]


@pytest.mark.parametrize("n, decimals", [(12, None), (12, 1), (40, None), (40, 2)])
def test_significance_check_fails_on_perturbed_p_value(n, decimals):
    model = RNG.uniform(0.5, 1.0, n)
    base = RNG.uniform(0.4, 0.9, n)
    if decimals is not None:  # ties among |differences|
        model, base = np.round(model, decimals), np.round(base, decimals)
    r = E.paired_significance(_records(list(model)), _records(list(base)))
    assert r.method == ("exact" if r.n_effective <= 25 else "normal_approx")
    assert checks.check_significance(model, base, r.n_effective, r.p_value, r.method) == []
    assert checks.check_significance(model, base, r.n_effective, r.p_value * (1 + 1e-6), r.method)


def test_tied_exact_reference_matches_enumeration():
    d = np.array([0.1, -0.1, 0.2, 0.3, -0.3, 0.3, 0.05])
    from scipy.stats import rankdata
    ranks = rankdata(np.abs(d))
    w = ranks[d > 0].sum()
    hits = sum(ranks[np.array(s, bool)].sum() >= w - 1e-12
               for s in np.ndindex(*(2,) * len(d)))
    assert checks.wilcoxon_reference(d, "exact") == (len(d), pytest.approx(hits / 2 ** len(d)))


# ---------------------------------------------------------------------------
# pretrain checks


def _pretrained():
    samples = generate(GeneratorConfig(TaskKind.BUILDINGS, n_samples=10, size=16, seed=4))
    model = U.build(U.UNetConfig(base_channels=4, depth=1, seed=2))
    model, history = TR.pretrain(model, samples[:8], samples[8:],
                                 stop_cfg=TR.EarlyStopConfig(2, 2), batch_size=4)
    return model, history, samples


def test_val_loss_check_fails_on_perturbed_weight():
    model, history, samples = _pretrained()
    images, masks = workloads._stack(samples[8:])

    def loss():
        def logits(x):
            with T.no_grad():
                return U.forward(model, T.Tensor(x), mode="eval")[0].data
        return checks.dataset_loss(logits, images, masks, 4)

    assert checks.check_val_loss(loss(), [h.val_loss for h in history]) == []
    model.params["head.w"].data = model.params["head.w"].data + 1e-3
    assert checks.check_val_loss(loss(), [h.val_loss for h in history])


def test_gradient_check_fails_on_wrong_gradient(monkeypatch):
    model, history, samples = _pretrained()
    monkeypatch.setattr(workloads, "IMAGE_SIZE", 16)
    assert workloads._check_pretrained(model, history, samples[:8], samples[8:], 0) == []
    original = T.conv2d

    def conv2d_wrong_dw(*args, **kwargs):
        out = original(*args, **kwargs)
        if out._backward_fn is not None:
            bw = out._backward_fn
            out._backward_fn = lambda g: [d * 1.001 if i == 1 else d for i, d in enumerate(bw(g))]
        return out

    monkeypatch.setattr(T, "conv2d", conv2d_wrong_dw)
    errors = workloads._check_pretrained(model, history, samples[:8], samples[8:], 0)
    assert any("gradient" in e for e in errors)


# ---------------------------------------------------------------------------
# protocol checks

TINY = dict(n_seeds=1, variants=(U.BackboneVariant.RESIDUAL,), pretask_samples=16, image_size=16,
            eval_set_size=6, unlabeled_pool_size=6, depth=1, base_channels=4, k_sweep=(0, 2),
            stop=TR.EarlyStopConfig(1, 1), save_datasets=True)
TASKS = ("flood", "fracture", "landslide")


@pytest.fixture(scope="module")
def protocol_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    H.run_experiment(H.ExperimentConfig(out_dir=str(out), **TINY))
    return out


def _check(out):
    return checks.check_protocol(out, TASKS, ("residual",), (0, 2), (0,))


@pytest.fixture
def copy_of(protocol_out, tmp_path):
    dst = tmp_path / "copy"
    shutil.copytree(protocol_out, dst)
    return dst


def test_protocol_check_passes(protocol_out):
    assert _check(protocol_out) == []


def test_protocol_check_fails_on_edited_per_image_count(copy_of):
    path = copy_of / "per_image" / "flood_residual_k2_seed0.csv"
    lines = path.read_text().splitlines()
    f = lines[1].split(",")
    f[1], f[4] = str(int(f[1]) + 1), str(int(f[4]) - 1)  # one fn pixel becomes tp
    path.write_text("\n".join(lines[:1] + [",".join(f)] + lines[2:]) + "\n")
    assert _check(copy_of)


def test_protocol_check_fails_on_edited_mean(copy_of):
    path = copy_of / "results.csv"
    lines = path.read_text().splitlines()
    f = lines[1].split(",")
    f[4] = repr(float(f[4]) + 1e-9)
    path.write_text("\n".join(lines[:1] + [",".join(f)] + lines[2:]) + "\n")
    assert _check(copy_of)


def test_protocol_check_fails_on_edited_eval_mask(copy_of):
    path = copy_of / "datasets" / "fracture_eval_seed0.hzds"
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 1  # last mask pixel of the last sample
    path.write_bytes(bytes(blob))
    assert _check(copy_of)


def test_protocol_check_fails_on_duplicated_row(copy_of):
    path = copy_of / "results.csv"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines + [lines[1]]) + "\n")
    assert _check(copy_of)


def test_hzds_reader_matches_program(protocol_out):
    from hazlab.datasets import read_dataset
    path = protocol_out / "datasets" / "landslide_pool_seed0.hzds"
    ours = checks.read_hzds(path)
    theirs = read_dataset(path)
    assert [s for s, _, _ in ours] == [s.sample_id for s in theirs]
    for (_, img, mask), s in zip(ours, theirs):
        assert np.array_equal(img, s.image) and np.array_equal(mask, s.mask)


def test_benchmark_json_names_what_the_runs_report():
    import json
    import run
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == \
        spans.per_layer_names() + spans.OUTSIDE_NAMES
    assert tuple(w["name"] for w in doc["workloads"]) == run.WORKLOAD_NAMES == \
        tuple(workloads.WORKLOADS)


def test_run_defaults_are_dataclass_fields():
    # the protocol config names only keys that ExperimentConfig has
    fields = {f.name for f in dataclasses.fields(H.ExperimentConfig)}
    assert set(workloads.PROTOCOL_CONFIG) <= fields

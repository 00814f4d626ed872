import json
import struct

import numpy as np
import pytest

from hazlab import tensor as T, unet
from hazlab.errors import ContractError, FormatError
from hazlab.tensor import Tensor
from hazlab.unet import ALL_VARIANTS, BackboneVariant, UNetConfig, build, forward, predict_probs


def _cfg(**kw):
    defaults = dict(in_channels=3, base_channels=8, depth=1, variant=BackboneVariant.RESIDUAL, seed=7)
    defaults.update(kw)
    return UNetConfig(**defaults)


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_forward_shape_contract(variant):
    model = build(_cfg(variant=variant))
    x = Tensor(np.random.default_rng(0).random((1, 3, 32, 32)))
    logits, _, _ = forward(model, x, mode="eval")
    assert logits.shape == (1, 1, 32, 32)


def test_depth3_shape():
    model = build(_cfg(depth=3))
    x = Tensor(np.random.default_rng(1).random((2, 3, 32, 32)))
    logits, _, _ = forward(model, x)
    assert logits.shape == (2, 1, 32, 32)


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_seeded_build_determinism(variant):
    a = build(_cfg(variant=variant, seed=123))
    b = build(_cfg(variant=variant, seed=123))
    assert list(a.params.keys()) == list(b.params.keys())
    for name in a.params:
        assert np.array_equal(a.params[name].data, b.params[name].data), name
    assert a.bn_paths == b.bn_paths


def test_different_seeds_differ():
    a = build(_cfg(seed=1))
    b = build(_cfg(seed=2))
    assert not np.array_equal(a.params["enc0.conv1.w"].data, b.params["enc0.conv1.w"].data)


def test_parameter_count_hand_summed():
    # depth=1, base=8, in=3, Residual; itemized layer-by-layer arithmetic:
    # enc0:       conv1 8*3*9+8, bn 16, conv2 8*8*9+8, bn 16, proj 8*3+8
    # bottleneck: conv1 16*8*9+16, bn 32, conv2 16*16*9+16, bn 32, proj 16*8+16
    # dec0:       conv1 8*24*9+8, bn 16, conv2 8*8*9+8, bn 16, proj 8*24+8
    # head:       1*8+1
    enc0 = (216 + 8) + 16 + (576 + 8) + 16 + (24 + 8)
    bottleneck = (1152 + 16) + 32 + (2304 + 16) + 32 + (128 + 16)
    dec0 = (1728 + 8) + 16 + (576 + 8) + 16 + (192 + 8)
    head = 8 + 1
    model = build(_cfg())
    assert model.parameter_count() == enc0 + bottleneck + dec0 + head == 7129


def test_eval_forward_is_pure():
    model = build(_cfg())
    x = Tensor(np.random.default_rng(2).random((1, 3, 16, 16)))
    l1, bn1, _ = forward(model, x, mode="eval")
    l2, bn2, _ = forward(model, x, mode="eval")
    assert np.array_equal(l1.data, l2.data)
    assert bn1 is not bn2
    for s1, s2 in zip(bn1, model.bn_states):
        assert s1 is s2  # eval returns input states unchanged


def test_train_forward_updates_every_bn_state():
    model = build(_cfg(depth=2))
    x = Tensor(np.random.default_rng(3).random((4, 3, 16, 16)))
    _, bn_out, _ = forward(model, x, mode="train")
    for before, after in zip(model.bn_states, bn_out):
        assert not np.array_equal(before.running_mean, after.running_mean)


def test_bad_input_shapes_raise():
    model = build(_cfg(depth=2))
    with pytest.raises(ContractError):
        forward(model, Tensor(np.zeros((1, 3, 30, 32))))
    with pytest.raises(ContractError):
        forward(model, Tensor(np.zeros((1, 2, 32, 32))))


def test_invalid_config_raises():
    with pytest.raises(ContractError):
        build(_cfg(depth=0))
    with pytest.raises(ContractError):
        build(_cfg(base_channels=2, se_reduction=4))


def test_predict_probs_range_and_monotonicity():
    model = build(_cfg())
    x = Tensor(np.random.default_rng(4).random((1, 3, 16, 16)))
    logits, _, _ = forward(model, x, mode="eval")
    probs = predict_probs(model, x)
    assert np.all(probs.data > 0) and np.all(probs.data < 1)
    order_l = np.argsort(logits.data.ravel())
    order_p = np.argsort(probs.data.ravel())
    assert np.array_equal(order_l, order_p)


def test_zeroed_head_gives_half_probs():
    model = build(_cfg())
    model.params["head.w"].data[:] = 0.0
    model.params["head.b"].data[:] = 0.0
    probs = predict_probs(model, Tensor(np.random.default_rng(5).random((1, 3, 16, 16))))
    assert np.allclose(probs.data, 0.5)


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_model_gradcheck(variant):
    """End-to-end finite-difference check over a handful of parameters."""
    model = build(UNetConfig(in_channels=2, base_channels=4, depth=1, variant=variant, seed=11))
    rng = np.random.default_rng(12)
    x = Tensor(rng.random((2, 2, 8, 8)))
    r = rng.normal(size=(2, 1, 8, 8))
    # conv biases ahead of a BN are omitted: the normalization cancels them
    # exactly, leaving nothing for finite differences to resolve
    probe_names = ["enc0.conv1.w", "enc0.bn1.gamma", "bottleneck.conv2.w", "dec0.bn2.beta", "head.w", "head.b"]

    for name in probe_names:
        p = model.params[name]
        p.zero_grad()
        logits, _, _ = forward(model, x, mode="train")
        loss = (Tensor(r) * logits).sum()
        T.backward(loss)
        analytic = p.grad.copy()
        h = 1e-5
        flat = p.data.reshape(-1)
        aflat = analytic.reshape(-1)
        idx = np.linspace(0, flat.size - 1, min(6, flat.size)).astype(int)
        with T.no_grad():
            for i in idx:
                orig = flat[i]
                flat[i] = orig + h
                fp = float((Tensor(r) * forward(model, x, mode="train")[0]).sum().data)
                flat[i] = orig - h
                fm = float((Tensor(r) * forward(model, x, mode="train")[0]).sum().data)
                flat[i] = orig
                num = (fp - fm) / (2 * h)
                err = abs(aflat[i] - num) / max(abs(aflat[i]), abs(num), 1e-8)
                assert err < 1e-4, (name, i, err)


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        model = build(_cfg(variant=BackboneVariant.DUAL_PATH, seed=31))
        x = Tensor(np.random.default_rng(6).random((4, 3, 16, 16)))
        _, bn_out, _ = forward(model, x, mode="train")
        model = model.with_bn(bn_out)
        path = tmp_path / "model.hzmd"
        unet.save_checkpoint(model, path, meta={"k": 5, "selection_seed": 9})
        loaded, meta = unet.load_checkpoint(path)
        assert meta == {"k": 5, "selection_seed": 9}
        for name in model.params:
            assert np.array_equal(model.params[name].data, loaded.params[name].data)
        for s1, s2 in zip(model.bn_states, loaded.bn_states):
            assert np.array_equal(s1.running_mean, s2.running_mean)
            assert np.array_equal(s1.running_var, s2.running_var)
        l1, _, _ = forward(model, x)
        l2, _, _ = forward(loaded, x)
        assert np.array_equal(l1.data, l2.data)

    def test_bad_magic_raises(self, tmp_path):
        path = tmp_path / "junk.hzmd"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(FormatError):
            unet.load_checkpoint(path)

    def test_truncation_raises(self, tmp_path):
        model = build(_cfg())
        path = tmp_path / "model.hzmd"
        unet.save_checkpoint(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-16])
        with pytest.raises(FormatError):
            unet.load_checkpoint(path)

    def test_negative_running_var_fails_closed(self, tmp_path):
        path = tmp_path / "model.hzmd"
        unet.save_checkpoint(build(_cfg()), path)
        path.write_bytes(path.read_bytes()[:-8] + struct.pack("<d", -1.0))
        with pytest.raises(FormatError):
            unet.load_checkpoint(path)

    @pytest.mark.parametrize("edit", [lambda h: h.pop("config"),
                                      lambda h: h["config"].update(bogus=1)],
                             ids=["missing_config", "unknown_config_key"])
    def test_bad_config_header_fails_closed(self, tmp_path, edit):
        path = tmp_path / "model.hzmd"
        unet.save_checkpoint(build(_cfg()), path)
        blob = path.read_bytes()
        (hlen,) = struct.unpack_from("<I", blob, 8)
        header = json.loads(blob[12:12 + hlen])
        edit(header)
        hbytes = json.dumps(header).encode()
        path.write_bytes(blob[:8] + struct.pack("<I", len(hbytes)) + hbytes + blob[12 + hlen:])
        with pytest.raises(FormatError):
            unet.load_checkpoint(path)

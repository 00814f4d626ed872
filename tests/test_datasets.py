import numpy as np
import pytest

from hazlab import datasets
from hazlab.datasets import (DOWNSTREAM_TASKS, GeneratorConfig, SegmentationSample, TaskKind,
                             TASK_BANDS, band_align, dataset_file_size, generate,
                             read_dataset, write_dataset)
from hazlab.errors import ContractError, FormatError


def _cfg(kind, n=10, seed=0, **kw):
    return GeneratorConfig(kind=kind, n_samples=n, seed=seed, **kw)


class TestGenerate:
    @pytest.mark.parametrize("kind", list(TaskKind))
    def test_seeded_determinism(self, kind):
        a = generate(_cfg(kind, seed=3))
        b = generate(_cfg(kind, seed=3))
        for s1, s2 in zip(a, b):
            assert s1.sample_id == s2.sample_id
            assert np.array_equal(s1.image, s2.image)
            assert np.array_equal(s1.mask, s2.mask)

    @pytest.mark.parametrize("kind", list(TaskKind))
    def test_band_counts_and_value_range(self, kind):
        for s in generate(_cfg(kind, n=5, seed=1)):
            assert s.image.shape[0] == TASK_BANDS[kind] == s.band_count
            assert s.image.min() >= 0.0 and s.image.max() <= 1.0

    @pytest.mark.parametrize("kind", list(TaskKind))
    def test_positive_fraction_bounds(self, kind):
        for s in generate(_cfg(kind, n=30, seed=2)):
            frac = s.mask.mean()
            assert 0.02 <= frac <= 0.30, (kind, frac)

    def test_building_masks_match_recorded_rectangles(self):
        samples, metas = generate(_cfg(TaskKind.BUILDINGS, n=10, seed=4), with_meta=True)
        for s, meta in zip(samples, metas):
            union = np.zeros_like(s.mask)
            for r, c, bh, bw in meta["rects"]:
                union[r:r + bh, c:c + bw] = 1
            assert np.array_equal(s.mask, union)

    def test_distinct_ids_across_seeds(self):
        ids_a = {s.sample_id for s in generate(_cfg(TaskKind.FLOOD, n=20, seed=10))}
        ids_b = {s.sample_id for s in generate(_cfg(TaskKind.FLOOD, n=20, seed=11))}
        assert len(ids_a) == 20
        assert not (ids_a & ids_b)

    def test_domain_shift_margin(self):
        """Each downstream band's mean intensity sits > 0.05 from the pre-task's."""
        pre = np.stack([s.image for s in generate(_cfg(TaskKind.BUILDINGS, n=100, seed=5))])
        pre_mean = pre.mean()
        for kind in DOWNSTREAM_TASKS:
            imgs = np.stack([s.image for s in generate(_cfg(kind, n=100, seed=5))])
            for b in range(imgs.shape[1]):
                assert abs(imgs[:, b].mean() - pre_mean) > 0.05, (kind, b)

    def test_invalid_config_rejected(self):
        with pytest.raises(ContractError):
            generate(GeneratorConfig(kind=TaskKind.FLOOD, n_samples=0))
        with pytest.raises(ContractError):
            generate(GeneratorConfig(kind=TaskKind.FLOOD, n_samples=1, size=4))


class TestBandAlign:
    def test_identity(self):
        img = np.random.default_rng(0).random((3, 8, 8))
        assert band_align(img, 3) is img

    def test_replication_and_inverse(self):
        img = np.random.default_rng(1).random((1, 8, 8))
        out = band_align(img, 3)
        assert out.shape == (3, 8, 8)
        for b in range(3):
            assert np.array_equal(out[b], img[0])
        assert np.allclose(out.mean(axis=0), img[0], rtol=0, atol=1e-15)

    def test_unsupported_band_count(self):
        with pytest.raises(ContractError):
            band_align(np.zeros((2, 8, 8)), 3)


class TestHzds:
    def test_roundtrip_bit_exact(self, tmp_path):
        samples = generate(_cfg(TaskKind.LANDSLIDE, n=6, seed=6))
        path = tmp_path / "data.hzds"
        write_dataset(samples, path)
        loaded = read_dataset(path)
        assert len(loaded) == 6
        for s1, s2 in zip(samples, loaded):
            assert s1.sample_id == s2.sample_id
            assert s1.band_count == s2.band_count
            assert np.array_equal(s1.image, s2.image)
            assert np.array_equal(s1.mask, s2.mask)

    def test_file_size_formula(self, tmp_path):
        for n, kind in ((3, TaskKind.FLOOD), (5, TaskKind.BUILDINGS)):
            samples = generate(_cfg(kind, n=n, seed=7))
            path = tmp_path / f"{kind.value}.hzds"
            write_dataset(samples, path)
            c, h, w = samples[0].image.shape
            assert path.stat().st_size == dataset_file_size(n, c, h, w)

    def test_corrupt_magic_fails_closed(self, tmp_path):
        samples = generate(_cfg(TaskKind.FLOOD, n=2, seed=8))
        path = tmp_path / "data.hzds"
        write_dataset(samples, path)
        blob = bytearray(path.read_bytes())
        blob[1] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            read_dataset(path)

    def test_truncation_fails_closed(self, tmp_path):
        samples = generate(_cfg(TaskKind.FLOOD, n=2, seed=9))
        path = tmp_path / "data.hzds"
        write_dataset(samples, path)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(FormatError):
            read_dataset(path)

    @pytest.mark.parametrize("kind", [TaskKind.FLOOD, TaskKind.LANDSLIDE])
    def test_every_prefix_fails_closed(self, tmp_path, kind):
        """Each prefix of a valid file, empty up to one byte short, is a FormatError."""
        path = tmp_path / "data.hzds"
        write_dataset(generate(_cfg(kind, n=1, size=8, seed=9)), path)
        blob = path.read_bytes()
        for n in range(len(blob)):
            path.write_bytes(blob[:n])
            with pytest.raises(FormatError):
                read_dataset(path)

    def test_empty_write_rejected(self, tmp_path):
        with pytest.raises(ContractError):
            write_dataset([], tmp_path / "x.hzds")


def test_sample_invariants_enforced():
    with pytest.raises(ContractError):
        SegmentationSample(0, np.zeros((1, 4, 4)), np.zeros((5, 4), dtype=np.uint8), 1)
    with pytest.raises(ContractError):
        SegmentationSample(0, np.zeros((1, 4, 4)), np.full((4, 4), 2, dtype=np.uint8), 1)

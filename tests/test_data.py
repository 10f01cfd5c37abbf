"""Synthetic generator, rotations, splits, on-disk format, recoverability."""

import dataclasses
import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stormkan.data import (CH_AFFINE, PIXEL_SCALE, SyntheticDataset, TcSample,
                           VortexParams, augment_rotations, estimate_latents,
                           eye_radius_px, generate_sample, latents_at,
                           load_dataset, radial_profile, rotate_sample,
                           save_dataset, split_dataset, split_storm_ids)
from stormkan.errors import DataError, ShapeError, StormkanError

rng = np.random.default_rng(23)


class TestGenerateSample:
    def test_deterministic(self):
        a = generate_sample(3, 2, seed=9)
        b = generate_sample(3, 2, seed=9)
        assert np.array_equal(a.x_img, b.x_img)
        assert np.array_equal(a.x_seq, b.x_seq)
        assert a.y_msw_norm == b.y_msw_norm

    def test_values_in_unit_interval(self):
        s = generate_sample(1, 0, seed=4)
        assert s.x_img.min() >= 0.0 and s.x_img.max() <= 1.0
        assert s.x_seq.min() >= 0.0 and s.x_seq.max() <= 1.0
        assert 0.0 <= s.y_msw_norm <= 1.0 and 0.0 <= s.y_rmw_norm <= 1.0

    def test_clipping_fraction_below_one_percent(self):
        clipped = total = 0
        for sid in range(30):
            s = generate_sample(sid, 1, seed=2)
            frame = s.x_img[4]
            clipped += np.count_nonzero((frame == 0.0) | (frame == 1.0))
            total += frame.size
        assert clipped / total < 0.01

    def test_shapes(self):
        s = generate_sample(0, 0, seed=0)
        assert s.x_seq.shape == (3, 5)
        assert s.x_img.shape == (8, 156, 156)

    def test_frames_are_affine_rescalings(self):
        # channel 0/4 carry the raw frames; others are fixed affine maps
        s = generate_sample(5, 3, seed=6)
        for k, (a, b) in enumerate(CH_AFFINE):
            np.testing.assert_allclose(s.x_img[k], a * s.x_img[0] + b,
                                       atol=1e-6)
            np.testing.assert_allclose(s.x_img[4 + k], a * s.x_img[4] + b,
                                       atol=1e-6)

    def test_smallest_eye_near_declared_radius(self):
        # storm with rmw forced to 0: profile argmin within 3 px of the
        # 5-nmi eye radius (1.75 px at 0.35 px/nmi)
        found = False
        for sid in range(200):
            params = VortexParams.for_storm(sid, seed=3)
            if params.rmw0 < 0.01 and abs(params.rmw_slope) < 0.005:
                found = True
                break
        if not found:
            sid = 0  # fall back: synthesize directly below
        from stormkan.data import _brightness_field
        params = VortexParams.for_storm(sid, seed=3)
        rngn = np.random.default_rng(0)
        field = _brightness_field(0.8, 0.0, params, 156, rngn)
        profile = radial_profile(field)[:40]
        r_argmin = int(np.argmin(profile))
        assert abs(r_argmin - 5 * PIXEL_SCALE) <= 3.0

    def test_depth_monotone_in_msw(self):
        from stormkan.data import _brightness_field
        params = VortexParams.for_storm(7, seed=1)
        rng1 = np.random.default_rng(1)
        rng2 = np.random.default_rng(1)
        lo = _brightness_field(0.2, 0.5, params, 156, rng1)
        hi = _brightness_field(0.9, 0.5, params, 156, rng2)
        depth_lo = 0.9 - radial_profile(lo).min()
        depth_hi = 0.9 - radial_profile(hi).min()
        assert depth_hi > depth_lo

    def test_temporal_decay_gives_prev_frame_signal(self):
        s = generate_sample(2, 4, seed=8)
        # previous frame uses 3%-decayed latents: frames must differ
        assert np.abs(s.x_img[0] - s.x_img[4]).max() > 0.001


class TestRotations:
    def test_180_twice_is_identity(self):
        s = generate_sample(0, 0, seed=1)
        once = rotate_sample(s, "rot180")
        twice = rotate_sample(once, "rot180")
        assert np.array_equal(twice.x_img, s.x_img)

    def test_uniform_image_rotations_identical(self):
        s = generate_sample(0, 0, seed=1)
        s.x_img[:] = 0.25
        for rot in augment_rotations(s):
            assert np.array_equal(rot.x_img, s.x_img)

    def test_targets_and_sequence_preserved(self):
        s = generate_sample(4, 2, seed=5)
        for rot in augment_rotations(s):
            assert rot.y_msw_norm == s.y_msw_norm
            assert rot.y_rmw_norm == s.y_rmw_norm
            assert np.array_equal(rot.x_seq, s.x_seq)
            assert rot.storm_id == s.storm_id

    def test_three_rotations(self):
        tags = [r.rotation for r in augment_rotations(generate_sample(0, 0, 0))]
        assert tags == ["cw90", "ccw90", "rot180"]

    def test_non_square_rejected(self):
        s = generate_sample(0, 0, seed=1)
        s.x_img = s.x_img[:, :, :100]
        with pytest.raises(ShapeError):
            rotate_sample(s, "cw90")


class TestSplits:
    def test_no_storm_in_two_splits(self):
        ds = SyntheticDataset(range(30), 2, seed=3, image_hw=40)
        samples = [ds[i] for i in range(len(ds))]
        train, val, test = split_dataset(samples, 0.7, seed=1)
        ids = [set(s.storm_id for s in part) for part in (train, val, test)]
        assert not (ids[0] & ids[1]) and not (ids[0] & ids[2])
        assert not (ids[1] & ids[2])

    def test_fractions_close_for_many_storms(self):
        train, val, test = split_storm_ids(range(400), 0.7, seed=2)
        assert abs(len(train) / 400 - 0.7) < 0.1

    def test_same_seed_same_split(self):
        a = split_storm_ids(range(50), 0.6, seed=9)
        b = split_storm_ids(range(50), 0.6, seed=9)
        assert a == b

    def test_too_few_storms(self):
        samples = [generate_sample(0, 0, 0, image_hw=40)]
        with pytest.raises(DataError):
            split_dataset(samples, 0.7, seed=0)


class TestDiskFormat:
    def test_roundtrip_bit_identical(self, tmp_path):
        # augmented, so rotation and t_index both vary across samples
        ds = SyntheticDataset(range(2), 3, seed=7, image_hw=40, augment=True)
        path = str(tmp_path / "ds")
        count = save_dataset(path, ds)
        assert count == 24
        back = load_dataset(path)
        assert len(back) == 24
        for i in range(24):
            for f in dataclasses.fields(TcSample):
                got, want = getattr(back[i], f.name), getattr(ds[i], f.name)
                if isinstance(want, np.ndarray):
                    assert got.dtype == want.dtype, f.name
                    assert np.array_equal(got, want), f.name
                else:
                    assert got == want, f.name

    def test_index_rows_equal_file_count(self, tmp_path):
        ds = SyntheticDataset(range(2), 2, seed=7, image_hw=40)
        path = str(tmp_path / "ds")
        save_dataset(path, ds)
        files = [f for f in os.listdir(path) if f.endswith(".kft")]
        with open(os.path.join(path, "index.csv")) as fp:
            rows = fp.read().strip().splitlines()
        assert len(rows) - 1 == len(files)

    def test_truncated_file_explicit_error(self, tmp_path):
        ds = SyntheticDataset(range(2), 1, seed=7, image_hw=40)
        path = str(tmp_path / "ds")
        save_dataset(path, ds)
        victim = os.path.join(path, "000001.kft")
        raw = open(victim, "rb").read()
        with open(victim, "wb") as fp:
            fp.write(raw[: len(raw) // 2])
        with pytest.raises(DataError, match="corrupt"):
            load_dataset(path)

    def test_huge_declared_shape_explicit_error(self, tmp_path):
        # a sample file whose first record declares 2**53 bytes
        ds = SyntheticDataset(range(2), 1, seed=7, image_hw=40)
        path = str(tmp_path / "ds")
        save_dataset(path, ds)
        with open(os.path.join(path, "000001.kft"), "r+b") as fp:
            fp.write(b"KFT1" + bytes([0, 2])
                     + struct.pack("<2I", 2**31, 2**20))
        with pytest.raises(DataError, match="corrupt"):
            load_dataset(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        # a sample file ends with its second record
        ds = SyntheticDataset(range(2), 1, seed=7, image_hw=40)
        path = str(tmp_path / "ds")
        save_dataset(path, ds)
        with open(os.path.join(path, "000001.kft"), "ab") as fp:
            fp.write(b"\x00" * 22)
        with pytest.raises(DataError, match="bytes after"):
            load_dataset(path)

    def test_missing_index(self, tmp_path):
        with pytest.raises(DataError, match="index"):
            load_dataset(str(tmp_path))


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    """A saved 3-sample dataset and the text of its index.csv."""
    path = str(tmp_path_factory.mktemp("tiny_ds"))
    save_dataset(path, SyntheticDataset(range(3), 1, seed=7, image_hw=16))
    with open(os.path.join(path, "index.csv"), newline="") as fp:
        return path, fp.read()


def write_index(path, text) -> None:
    """Overwrite the index.csv of the dataset at path with text (str or
    bytes)."""
    raw = text.encode() if isinstance(text, str) else text
    with open(os.path.join(path, "index.csv"), "wb") as fp:
        fp.write(raw)


class TestIndexErrors:
    @pytest.mark.parametrize("name", ["", ".", "..", "../../../etc/passwd",
                                      "sub/000000.kft", "/etc/passwd",
                                      "nul\0.kft"])
    def test_file_must_be_a_plain_name(self, tiny_dataset, name):
        path, text = tiny_dataset
        lines = text.splitlines(keepends=True)
        lines[1] = name + lines[1][lines[1].index(","):]
        write_index(path, "".join(lines))
        try:
            with pytest.raises(DataError, match="plain name"):
                load_dataset(path)
        finally:
            write_index(path, text)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_index_mutations_fail_typed(self, tiny_dataset, data):
        path, text = tiny_dataset
        blob = bytearray(text.encode())
        for _ in range(data.draw(st.integers(1, 3))):
            pos = data.draw(st.integers(0, len(blob)))
            chunk = data.draw(st.sampled_from(
                [b",", b"\n", b'"', b"/", b"..", b"\x00", b"\xff", b""])
                | st.binary(max_size=6))
            cut = data.draw(st.integers(0, 6))
            blob[pos:pos + cut] = chunk
        write_index(path, bytes(blob))
        try:
            load_dataset(path)
        except DataError:
            pass
        finally:
            write_index(path, text)


def record_starts(raw) -> tuple[int, int]:
    """Offsets of the two KFT1 records of the sample file raw."""
    rank = raw[5]
    count = int(np.prod(struct.unpack_from(f"<{rank}I", raw, 6)))
    return 0, 6 + 4 * rank + count * (4, 8)[raw[4]]


class TestSampleFileErrors:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_sample_mutations_fail_typed(self, tiny_dataset, data):
        # byte edits of the sample files, their record headers most often:
        # load_dataset returns or raises a StormkanError, nothing else
        path, _ = tiny_dataset
        names = sorted(f for f in os.listdir(path) if f.endswith(".kft"))
        originals = {}
        for name in names:
            with open(os.path.join(path, name), "rb") as fp:
                originals[name] = fp.read()
        try:   # a draw may end the example early: restore in any case
            for _ in range(data.draw(st.integers(1, 3))):
                name = data.draw(st.sampled_from(names))
                victim = os.path.join(path, name)
                with open(victim, "rb") as fp:
                    blob = bytearray(fp.read())
                header = data.draw(st.sampled_from(
                    record_starts(originals[name])))
                pos = data.draw(st.integers(header, header + 13)
                                | st.integers(0, len(blob)))
                kind = data.draw(st.sampled_from(
                    ["overwrite", "insert", "delete", "truncate", "append"]))
                chunk = data.draw(st.binary(min_size=1, max_size=8))
                if kind == "overwrite":
                    blob[pos:pos + len(chunk)] = chunk
                elif kind == "insert":
                    blob[pos:pos] = chunk
                elif kind == "delete":
                    del blob[pos:pos + len(chunk)]
                elif kind == "truncate":
                    del blob[pos:]
                else:
                    blob += chunk
                with open(victim, "wb") as fp:
                    fp.write(blob)
            try:
                load_dataset(path)
            except StormkanError:
                pass
        finally:
            for name, raw in originals.items():
                with open(os.path.join(path, name), "wb") as fp:
                    fp.write(raw)


class TestRecoverability:
    def test_estimator_correlates_with_latents(self):
        n = 300
        msw_true, rmw_true, msw_est, rmw_est = [], [], [], []
        for sid in range(n):
            s = generate_sample(sid, 1, seed=13)
            m, r = estimate_latents(s.x_img)
            msw_true.append(s.y_msw_norm)
            rmw_true.append(s.y_rmw_norm)
            msw_est.append(m)
            rmw_est.append(r)
        corr_m = np.corrcoef(msw_true, msw_est)[0, 1]
        corr_r = np.corrcoef(rmw_true, rmw_est)[0, 1]
        assert corr_m > 0.9
        assert corr_r > 0.9

    def test_eye_radius_scaling(self):
        assert abs(eye_radius_px(0.0) - 5 * PIXEL_SCALE) < 1e-9
        assert abs(eye_radius_px(1.0) - 200 * PIXEL_SCALE) < 1e-9


class TestLazyDataset:
    def test_augment_multiplies_by_four(self):
        base = SyntheticDataset(range(5), 3, seed=1, image_hw=40)
        aug = SyntheticDataset(range(5), 3, seed=1, image_hw=40, augment=True)
        assert len(aug) == 4 * len(base)

    def test_latents_deterministic_per_storm(self):
        p1 = VortexParams.for_storm(12, seed=5)
        p2 = VortexParams.for_storm(12, seed=5)
        assert p1 == p2
        assert latents_at(p1, 3) == latents_at(p2, 3)

"""Synthetic cyclone samples with closed-form ground truth.

Each storm has latent normalized intensity/size trajectories; images
are radially symmetric brightness fields whose eyewall dip radius
encodes the size target and whose dip depth encodes the intensity
target, plus mild asymmetry and noise.  The two stacked time frames
(4 channels each, fixed affine rescalings) differ by a 3% latent decay
so the temporal path has real signal.  A closed-form estimator can
recover both latents, which guarantees the learning task is solvable.
"""

from __future__ import annotations

import csv
import hashlib
import os
from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError, ShapeError
from .tensor import read_tensor, write_tensor

PIXEL_SCALE = 0.35          # image pixels per nautical mile
BACKGROUND = 0.9
DEPTH_BASE, DEPTH_GAIN = 0.2, 0.7
PREV_FRAME_DECAY = 0.97
ROTATIONS = ("none", "cw90", "ccw90", "rot180")
_ROT_K = {"cw90": -1, "ccw90": 1, "rot180": 2}
# per-channel (scale, offset); index 0 is the identity map, so channel 4
# exposes the raw current-time frame
CH_AFFINE = ((1.0, 0.0), (0.85, 0.1), (0.7, 0.2), (0.55, 0.3))
HOURS_NORM = 240.0          # hours mapped onto [0, 1]
CATEGORY_BINS_KT = (34.0, 64.0, 83.0, 96.0, 113.0, 137.0)


@dataclass(frozen=True)
class VortexParams:
    msw0: float
    rmw0: float
    msw_slope: float
    rmw_slope: float
    eye_dx: float
    eye_dy: float
    asym_amp: float
    asym_phase: float
    noise_scale: float
    lat0: float
    lon0: float

    @classmethod
    def for_storm(cls, storm_id: int, seed: int) -> "VortexParams":
        rng = np.random.default_rng(
            np.random.SeedSequence([seed, storm_id, 0xA5]))
        return cls(
            msw0=rng.uniform(0.02, 0.98),
            rmw0=rng.uniform(0.02, 0.98),
            msw_slope=rng.uniform(-0.02, 0.02),
            rmw_slope=rng.uniform(-0.02, 0.02),
            eye_dx=rng.uniform(-1.5, 1.5),
            eye_dy=rng.uniform(-1.5, 1.5),
            asym_amp=rng.uniform(0.0, 0.04),
            asym_phase=rng.uniform(0.0, 2.0 * np.pi),
            noise_scale=rng.uniform(0.008, 0.015),
            lat0=rng.uniform(0.2, 0.8),
            lon0=rng.uniform(0.2, 0.8),
        )


@dataclass
class TcSample:
    x_seq: np.ndarray          # [3, 5] in [0, 1]
    x_img: np.ndarray          # [8, H, W] in [0, 1]
    y_msw_norm: float
    y_rmw_norm: float
    storm_id: int
    rotation: str = "none"
    t_index: int = 0


def _clip01(v):
    return float(np.clip(v, 0.0, 1.0))


def latents_at(params: VortexParams, t: int) -> tuple[float, float]:
    return (_clip01(params.msw0 + params.msw_slope * t),
            _clip01(params.rmw0 + params.rmw_slope * t))


def eye_radius_px(rmw_n: float) -> float:
    from .training import RMW_RANGE
    return (RMW_RANGE[0] + rmw_n * (RMW_RANGE[1] - RMW_RANGE[0])) * PIXEL_SCALE


def _brightness_field(msw_n, rmw_n, params, hw, rng) -> np.ndarray:
    cy = (hw - 1) / 2.0 + params.eye_dy
    cx = (hw - 1) / 2.0 + params.eye_dx
    yy = np.arange(hw, dtype=np.float64)[:, None] - cy
    xx = np.arange(hw, dtype=np.float64)[None, :] - cx
    r = np.hypot(yy, xx)
    r_eye = eye_radius_px(rmw_n)
    sigma = 2.0 + 0.08 * r_eye
    depth = DEPTH_BASE + DEPTH_GAIN * msw_n
    field = BACKGROUND - depth * np.exp(-((r - r_eye) ** 2) / (2 * sigma**2))
    theta = np.arctan2(yy, xx)
    field += (params.asym_amp * np.cos(theta - params.asym_phase)
              * np.clip(r / 60.0, 0.0, 1.0))
    field += rng.normal(0.0, params.noise_scale, size=(hw, hw))
    return np.clip(field, 0.0, 1.0)


def category_norm(msw_n: float) -> float:
    """Saffir-Simpson-like bin of the denormalized wind, mapped to [0, 1]."""
    from .training import denormalize
    kt = float(denormalize(msw_n, "msw"))
    cat = int(np.searchsorted(CATEGORY_BINS_KT, kt, side="right")) - 1
    return (cat + 1) / 6.0


def _lat_lon_walk(params: VortexParams, storm_id: int, seed: int,
                  upto: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(np.random.SeedSequence([seed, storm_id, 0x17]))
    n = max(upto + 1, 1)
    lat = params.lat0 + np.cumsum(rng.normal(0.0, 0.01, n))
    lon = params.lon0 + np.cumsum(rng.normal(0.0, 0.01, n))
    return np.clip(lat, 0, 1), np.clip(lon, 0, 1)


def generate_sample(storm_id: int, t_index: int, seed: int,
                    image_hw: int = 156) -> TcSample:
    """Deterministic synthetic sample for one storm at one time step."""
    params = VortexParams.for_storm(storm_id, seed)
    msw_n, rmw_n = latents_at(params, t_index)
    lat, lon = _lat_lon_walk(params, storm_id, seed, t_index)

    rows = []
    for step in (t_index - 2, t_index - 1, t_index):
        m_s, _ = latents_at(params, step)
        rows.append([
            lat[max(step, 0)],
            lon[max(step, 0)],
            _clip01(max(step, 0) * 3.0 / HOURS_NORM),
            category_norm(m_s),
            1.0 - 0.9 * m_s,
        ])
    x_seq = np.array(rows, dtype=np.float32)

    noise_rng = np.random.default_rng(
        np.random.SeedSequence([seed, storm_id, t_index, 0x3C]))
    prev = _brightness_field(msw_n * PREV_FRAME_DECAY,
                             rmw_n * PREV_FRAME_DECAY, params, image_hw,
                             noise_rng)
    cur = _brightness_field(msw_n, rmw_n, params, image_hw, noise_rng)
    channels = [a * prev + b for a, b in CH_AFFINE]
    channels += [a * cur + b for a, b in CH_AFFINE]
    x_img = np.stack(channels).astype(np.float32)
    return TcSample(x_seq, x_img, msw_n, rmw_n, storm_id, "none", t_index)


def rotate_sample(sample: TcSample, rotation: str) -> TcSample:
    if rotation == "none":
        return sample
    if rotation not in _ROT_K:
        raise DataError(f"unknown rotation tag {rotation!r}")
    h, w = sample.x_img.shape[1:]
    if h != w:
        raise ShapeError(f"rotation requires a square image, got {h}x{w}")
    img = np.ascontiguousarray(
        np.rot90(sample.x_img, k=_ROT_K[rotation], axes=(1, 2)))
    return replace(sample, x_img=img, rotation=rotation)


def augment_rotations(sample: TcSample) -> list[TcSample]:
    """The three rotated copies; sequence features and targets unchanged."""
    return [rotate_sample(sample, r) for r in ROTATIONS[1:]]


class SyntheticDataset:
    """Lazy sequence of TcSamples over (storm, step, rotation) triples."""

    def __init__(self, storm_ids, steps_per_storm: int, seed: int,
                 image_hw: int = 156, augment: bool = False,
                 cache: bool = False):
        rots = ROTATIONS if augment else ("none",)
        self.seed = seed
        self.image_hw = image_hw
        self.index = [(sid, t, rot) for sid in storm_ids
                      for t in range(steps_per_storm) for rot in rots]
        self._cache: dict[int, TcSample] | None = {} if cache else None

    def __len__(self):
        return len(self.index)

    def __getitem__(self, i: int) -> TcSample:
        if self._cache is not None and i in self._cache:
            return self._cache[i]
        sid, t, rot = self.index[i]
        sample = generate_sample(sid, t, self.seed, self.image_hw)
        if rot != "none":
            sample = rotate_sample(sample, rot)
        if self._cache is not None:
            self._cache[i] = sample
        return sample


# ---------------------------------------------------------------------------
# splitting


def _storm_unit(storm_id, seed: int) -> float:
    digest = hashlib.sha256(f"{seed}:{storm_id}".encode()).digest()
    return int.from_bytes(digest[:8], "little") / 2.0**64


def split_storm_ids(storm_ids, train_frac: float, seed: int):
    """Deterministic storm-level split; remainder halves into val/test."""
    train, val, test = [], [], []
    val_hi = train_frac + (1.0 - train_frac) / 2.0
    for sid in storm_ids:
        u = _storm_unit(sid, seed)
        (train if u < train_frac else val if u < val_hi else test).append(sid)
    return train, val, test


def split_dataset(samples, train_frac: float, seed: int):
    """Split samples so every storm (with all rotations) lands in one split."""
    ids = sorted({s.storm_id for s in samples})
    if len(ids) < 3:
        raise DataError(f"need at least 3 storms to split, got {len(ids)}")
    train_ids, val_ids, test_ids = map(set, split_storm_ids(ids, train_frac,
                                                            seed))
    splits = ([], [], [])
    for s in samples:
        if s.storm_id in train_ids:
            splits[0].append(s)
        elif s.storm_id in val_ids:
            splits[1].append(s)
        else:
            splits[2].append(s)
    return splits


# ---------------------------------------------------------------------------
# on-disk format


INDEX_COLUMNS = ["file", "storm_id", "rotation", "t_index",
                 "y_msw_norm", "y_rmw_norm"]


def save_dataset(path, samples) -> int:
    """Write per-sample .kft files plus index.csv; returns sample count."""
    os.makedirs(path, exist_ok=True)
    rows = []
    count = 0
    for i in range(len(samples)):
        s = samples[i]
        fname = f"{i:06d}.kft"
        with open(os.path.join(path, fname), "wb") as fp:
            write_tensor(fp, s.x_seq)
            write_tensor(fp, s.x_img)
        rows.append((fname, s.storm_id, s.rotation, s.t_index,
                     repr(float(s.y_msw_norm)), repr(float(s.y_rmw_norm))))
        count += 1
    with open(os.path.join(path, "index.csv"), "w", newline="") as fp:
        writer = csv.writer(fp)
        writer.writerow(INDEX_COLUMNS)
        writer.writerows(rows)
    return count


def load_dataset(path) -> list[TcSample]:
    index_path = os.path.join(path, "index.csv")
    if not os.path.exists(index_path):
        raise DataError(f"missing dataset index: {index_path}")
    with open(index_path, newline="", encoding="utf-8") as fp:
        try:
            reader = csv.DictReader(fp)
            if reader.fieldnames != INDEX_COLUMNS:
                raise DataError(
                    f"unexpected index columns: {reader.fieldnames}")
            return [_load_row(path, row) for row in reader]
        except (csv.Error, UnicodeDecodeError) as exc:
            raise DataError(f"malformed dataset index: {exc}") from exc


def _read_sample(fp) -> tuple[np.ndarray, np.ndarray]:
    """The x_seq and x_img records of a sample file, which end it."""
    x_seq, x_img = read_tensor(fp), read_tensor(fp)
    if fp.read(1):
        raise DataError("bytes after the sample's two records")
    return x_seq, x_img


def _load_row(path, row: dict) -> TcSample:
    """One index row and the sample file it names."""
    if len(row) != len(INDEX_COLUMNS) or None in row.values():
        raise DataError(f"index row {row} does not have "
                        f"{len(INDEX_COLUMNS)} fields")
    name = row["file"]
    # a plain file name: no directory part, so nothing outside path
    if (os.path.basename(name) != name or name in ("", ".", "..")
            or "\0" in name):
        raise DataError(f"sample file {name!r} is not a plain name")
    try:
        with open(os.path.join(path, name), "rb") as sfp:
            x_seq, x_img = _read_sample(sfp)
    except OSError as exc:
        raise DataError(f"cannot read sample file {name!r}: {exc}") from exc
    except DataError as exc:
        raise DataError(f"corrupt sample file {name}: {exc}") from exc
    try:
        return TcSample(x_seq, x_img, float(row["y_msw_norm"]),
                        float(row["y_rmw_norm"]), int(row["storm_id"]),
                        row["rotation"], int(row["t_index"]))
    except ValueError as exc:
        raise DataError(f"malformed index row for {name}: {exc}") from exc


# ---------------------------------------------------------------------------
# closed-form label recovery (solvability oracle)


def radial_profile(field: np.ndarray) -> np.ndarray:
    """Azimuthal mean per 1-px radius bin around the nominal center."""
    hw = field.shape[0]
    c = (hw - 1) / 2.0
    yy = np.arange(hw)[:, None] - c
    xx = np.arange(hw)[None, :] - c
    rbin = np.hypot(yy, xx).astype(np.int64).ravel()
    sums = np.bincount(rbin, weights=field.ravel().astype(np.float64))
    counts = np.bincount(rbin)
    return sums[counts > 0] / counts[counts > 0]


def estimate_latents(x_img: np.ndarray) -> tuple[float, float]:
    """Recover (msw_n, rmw_n) from the raw current-time frame (channel 4)."""
    field = x_img[4]
    hw = field.shape[0]
    max_r = int((hw - 1) / 2)
    profile = radial_profile(field)[:max_r]
    r_eye = int(np.argmin(profile))
    depth = BACKGROUND - float(profile[r_eye])
    from .training import RMW_RANGE
    rmw = (r_eye / PIXEL_SCALE - RMW_RANGE[0]) / (RMW_RANGE[1] - RMW_RANGE[0])
    msw = (depth - DEPTH_BASE) / DEPTH_GAIN
    return _clip01(msw), _clip01(rmw)

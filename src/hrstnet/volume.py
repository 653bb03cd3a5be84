"""Volume and label persistence, synthetic data, cropping, sliding-window assembly.

Raw volume container (little-endian throughout):

    offset  size  field
    0       8     magic ``HRSTVOL\\0``
    8       4     u32 version (= 1)
    12      4     u32 dtype code (0 = float32, 1 = int32)
    16      4     u32 channels
    20      12    u32 D, u32 H, u32 W
    32      12    3 x f32 spacing (mm per axis)
    44      8     u64 payload byte length
    52      ...   payload, [channel, depth, height, width] order

The payload length must equal channels * D * H * W * itemsize; readers
reject any mismatch before allocating.
"""

from __future__ import annotations

import contextlib
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, CropError, FormatError, NumericError, PersistenceError, ShapeError

MAGIC = b"HRSTVOL\x00"
VERSION = 1
_HEADER = struct.Struct("<8s I I I I I I 3f Q")
_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<i4")}


def _check_spacing(spacing) -> tuple[float, float, float]:
    """`spacing` as three python floats; ShapeError unless all three are
    positive and finite (a NaN would compare unequal even to itself)."""
    spacing = tuple(float(s) for s in spacing)
    if len(spacing) != 3 or not all(0 < s < np.inf for s in spacing):
        raise ShapeError(f"spacing must be 3 positive finite values, got {spacing}")
    return spacing


@dataclass
class VolumeTensor:
    """Dense multi-channel 3D volume, stored [channel, depth, height, width]."""

    data: np.ndarray
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)

    def __post_init__(self):
        self.data = np.ascontiguousarray(self.data, dtype=np.float32)
        if self.data.ndim != 4:
            raise ShapeError(f"volume must be 4D [K,D,H,W], got shape {self.data.shape}")
        if min(self.data.shape) < 1:
            raise ShapeError(f"volume dims must be >= 1, got {self.data.shape}")
        self.spacing = _check_spacing(self.spacing)

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape[1:]

    def validate_finite(self) -> None:
        if not np.isfinite(self.data).all():
            raise NumericError("volume contains non-finite values")


@dataclass
class LabelVolume:
    """Integer segmentation target, [depth, height, width], values in [0, num_classes)."""

    data: np.ndarray
    num_classes: int
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)

    def __post_init__(self):
        self.data = np.ascontiguousarray(self.data, dtype=np.int32)
        if self.data.ndim != 3:
            raise ShapeError(f"labels must be 3D [D,H,W], got shape {self.data.shape}")
        if self.num_classes < 2:
            raise ConfigError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.data.size and (self.data.min() < 0 or self.data.max() >= self.num_classes):
            raise ShapeError(
                f"label values must lie in [0, {self.num_classes}), got "
                f"[{self.data.min()}, {self.data.max()}]"
            )
        self.spacing = _check_spacing(self.spacing)

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a deterministic synthetic volume/label pair.

    Each foreground class gets `blobs_per_class` solid spheres with integer
    radii drawn from `radius_range` (inclusive); sphere voxels receive a
    class- and channel-dependent intensity offset on top of Gaussian
    background noise.
    """

    seed: int
    dims: tuple[int, int, int] = (32, 32, 32)
    channels: int = 1
    num_classes: int = 2
    blobs_per_class: int = 1
    radius_range: tuple[int, int] = (3, 5)
    noise_sigma: float = 0.1

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if min(self.dims) < 1:
            raise ConfigError(f"dims must be >= 1, got {self.dims}")
        if self.num_classes < 2:
            raise ConfigError("num_classes must be >= 2")
        if self.channels < 1:
            raise ConfigError("channels must be >= 1")
        if self.blobs_per_class < 0:
            raise ConfigError(f"blobs_per_class must be >= 0, got {self.blobs_per_class}")
        lo, hi = self.radius_range
        if lo < 1 or hi < lo:
            raise ConfigError(f"bad radius_range {self.radius_range}")
        if self.blobs_per_class > 0 and 2 * hi + 1 > min(self.dims):
            raise ConfigError(
                f"radius {hi} spheres cannot fit inside dims {self.dims}"
            )
        if self.noise_sigma < 0:
            raise ConfigError("noise_sigma must be >= 0")


def atomic_write(path, write) -> None:
    """Call `write` on the binary file `<path>.tmp`, flush and fsync it, then
    rename it over `path`, so a crash leaves the previous file or the new one
    whole. A stale temp file is removed first: one left by a crash may be a
    hard link to another file. On any failure the temp file is removed and
    the error re-raised."""
    tmp = f"{path}.tmp"
    try:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        with open(tmp, "wb") as f:
            write(f)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _write_raw(arr: np.ndarray, spacing, path) -> None:
    """Write the container through `atomic_write`: a failed write leaves the
    previous file at `path` as it was."""
    code = 0 if arr.dtype.kind == "f" else 1
    payload = np.ascontiguousarray(arr, dtype=_DTYPES[code])

    def write(f):
        f.write(_HEADER.pack(MAGIC, VERSION, code, *arr.shape, *spacing, payload.nbytes))
        f.write(payload.data)

    try:
        atomic_write(path, write)
    except OSError as e:
        raise PersistenceError(f"cannot write volume to {path}: {e}") from e


def _read_raw(path) -> tuple[int, tuple[float, float, float], np.ndarray]:
    """(dtype code, spacing, [K, D, H, W] data) of a checked container file."""
    try:
        with open(path, "rb") as f:
            head = f.read(_HEADER.size)
            if len(head) < _HEADER.size:
                raise FormatError(f"{path}: file shorter than header ({len(head)} bytes)")
            magic, version, code, k, d, h, w, sx, sy, sz, payload_len = _HEADER.unpack(head)
            if magic != MAGIC:
                raise FormatError(f"{path}: bad magic {magic!r}")
            if version != VERSION:
                raise FormatError(f"{path}: unsupported version {version}")
            if code not in _DTYPES:
                raise FormatError(f"{path}: unknown dtype code {code}")
            if min(k, d, h, w) < 1:
                raise FormatError(f"{path}: non-positive dims (channels={k}, dims=({d},{h},{w}))")
            expect = k * d * h * w * _DTYPES[code].itemsize
            if payload_len != expect:
                raise FormatError(
                    f"{path}: payload length field {payload_len} != channels*D*H*W*itemsize {expect}"
                )
            carried = os.fstat(f.fileno()).st_size - _HEADER.size
            if carried == payload_len:
                data = np.empty((k, d, h, w), _DTYPES[code])
                carried = f.readinto(data.data)  # short only if the file shrank while it was read
            if carried != payload_len:
                raise FormatError(
                    f"{path}: payload length mismatch, header says {payload_len}, "
                    f"file carries {carried}"
                )
    except OSError as e:
        raise PersistenceError(f"cannot read volume from {path}: {e}") from e
    return code, (sx, sy, sz), data


def write_volume(vol: VolumeTensor, path) -> None:
    """Persist a float32 volume; rejects non-finite data before touching disk."""
    vol.validate_finite()
    _write_raw(vol.data, vol.spacing, path)


def read_volume(path) -> VolumeTensor:
    code, spacing, data = _read_raw(path)
    if code != 0:
        raise FormatError(f"{path}: expected float32 volume, dtype code {code}")
    vol = VolumeTensor(data, spacing)
    vol.validate_finite()
    return vol


def write_labels(labels: LabelVolume, path) -> None:
    """Labels travel in the same container, dtype int32 and channels=1."""
    _write_raw(labels.data[None], labels.spacing, path)


def read_labels(path, num_classes: int | None = None) -> LabelVolume:
    """Labels at the file's spacing; without `num_classes` the count is one
    more than the largest label in the file, and at least 2."""
    code, spacing, data = _read_raw(path)
    if code != 1:
        raise FormatError(f"{path}: expected int32 labels, dtype code {code}")
    if data.shape[0] != 1:
        raise FormatError(f"{path}: labels must be single-channel, got {data.shape[0]}")
    if num_classes is None:
        num_classes = max(int(data.max()) + 1, 2)
    return LabelVolume(data[0], num_classes, spacing)


def generate_synthetic(spec: SyntheticSpec) -> tuple[VolumeTensor, LabelVolume]:
    """Deterministic sphere-blob phantom; later classes overwrite earlier ones."""
    rng = np.random.default_rng(spec.seed)
    d, h, w = spec.dims
    if spec.noise_sigma > 0:
        image = rng.normal(0.0, spec.noise_sigma, size=(spec.channels, d, h, w))
    else:
        image = np.zeros((spec.channels, d, h, w))
    image = image.astype(np.float32)
    labels = np.zeros((d, h, w), dtype=np.int32)

    zz, yy, xx = np.meshgrid(np.arange(d), np.arange(h), np.arange(w), indexing="ij")
    lo, hi = spec.radius_range
    for cls in range(1, spec.num_classes):
        for _ in range(spec.blobs_per_class):
            r = int(rng.integers(lo, hi + 1))
            center = [int(rng.integers(r, dim - r)) for dim in spec.dims]
            mask = (
                (zz - center[0]) ** 2 + (yy - center[1]) ** 2 + (xx - center[2]) ** 2
            ) <= r * r
            labels[mask] = cls
            for k in range(spec.channels):
                image[k][mask] += cls * (1.0 + 0.2 * k)
    return VolumeTensor(image), LabelVolume(labels, spec.num_classes)


def random_crop(
    vol: VolumeTensor, labels: LabelVolume, size: tuple[int, int, int], seed: int
) -> tuple[VolumeTensor, LabelVolume]:
    """Aligned crop at a seed-deterministic offset, uniform over valid positions."""
    if vol.dims != labels.dims:
        raise ShapeError(f"volume dims {vol.dims} != label dims {labels.dims}")
    size = tuple(int(s) for s in size)
    for s, dim in zip(size, vol.dims):
        if s > dim:
            raise CropError(f"crop size {size} exceeds volume dims {vol.dims}")
    rng = np.random.default_rng(seed)
    offset = [int(rng.integers(0, dim - s + 1)) for s, dim in zip(size, vol.dims)]
    sl = tuple(slice(o, o + s) for o, s in zip(offset, size))
    return (
        VolumeTensor(vol.data[(slice(None),) + sl], vol.spacing),
        LabelVolume(labels.data[sl], labels.num_classes, labels.spacing),
    )


def tile_starts(dim: int, roi: int, overlap: float) -> list[int]:
    """1D tile grid: stride roi*(1-overlap), last tile clamped to the end."""
    if roi < 1:
        raise ConfigError(f"roi {roi} must be >= 1")
    if roi > dim:
        raise ConfigError(f"roi {roi} exceeds volume extent {dim}")
    stride = max(1, int(round(roi * (1.0 - overlap))))
    starts = list(range(0, dim - roi + 1, stride))
    if starts[-1] != dim - roi:
        starts.append(dim - roi)
    return starts


def sliding_window_infer(
    model,
    vol: VolumeTensor,
    roi: tuple[int, int, int],
    overlap: float = 0.5,
) -> VolumeTensor:
    """Tile the volume, run the model per tile, average overlapping logits
    uniformly.

    `model` is a callable mapping a roi-sized VolumeTensor to a logits
    VolumeTensor of the same spatial dims, such as
    `lambda tile: topology.forward(cfg, params, tile)`, which rejects a roi
    the model cannot take on the first tile; output dims equal input dims.
    """
    if not 0.0 <= overlap < 1.0:
        raise ConfigError(f"overlap must be in [0, 1), got {overlap}")
    roi = tuple(int(r) for r in roi)
    grids = [tile_starts(dim, r, overlap) for dim, r in zip(vol.dims, roi)]
    acc = None
    count = np.zeros(vol.dims, dtype=np.float32)
    for z0 in grids[0]:
        for y0 in grids[1]:
            for x0 in grids[2]:
                sl = (
                    slice(z0, z0 + roi[0]),
                    slice(y0, y0 + roi[1]),
                    slice(x0, x0 + roi[2]),
                )
                tile = VolumeTensor(vol.data[(slice(None),) + sl], vol.spacing)
                logits = model(tile)
                if logits.dims != roi:
                    raise ShapeError(
                        f"model returned dims {logits.dims} for roi {roi}"
                    )
                if acc is None:
                    acc = np.zeros((logits.channels,) + vol.dims, dtype=np.float32)
                acc[(slice(None),) + sl] += logits.data
                count[sl] += 1.0
    return VolumeTensor(acc / count[None], vol.spacing)

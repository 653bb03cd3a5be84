import errno
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hrstnet import volume
from hrstnet.errors import (
    ConfigError, CropError, FormatError, HRSTError, NumericError, PersistenceError, ShapeError,
)
from hrstnet.volume import (
    LabelVolume,
    SyntheticSpec,
    VolumeTensor,
    generate_synthetic,
    random_crop,
    read_labels,
    read_volume,
    sliding_window_infer,
    tile_starts,
    write_labels,
    write_volume,
)

HEADER_BYTES = 52


@given(
    k=st.integers(1, 3),
    d=st.integers(1, 5),
    h=st.integers(1, 5),
    w=st.integers(1, 5),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_round_trip_bit_exact(tmp_path_factory, k, d, h, w, seed):
    rng = np.random.default_rng(seed)
    vol = VolumeTensor(rng.standard_normal((k, d, h, w)).astype(np.float32), (0.5, 1.0, 2.0))
    path = tmp_path_factory.mktemp("rt") / "v.rvol"
    write_volume(vol, path)
    back = read_volume(path)
    assert back.data.tobytes() == vol.data.tobytes()
    assert back.spacing == vol.spacing


def test_payload_length_formula(tmp_path):
    vol = VolumeTensor(np.zeros((4, 128, 128, 128), dtype=np.float32))
    path = tmp_path / "big.rvol"
    write_volume(vol, path)
    assert path.stat().st_size == HEADER_BYTES + 4 * 128**3 * 4


def test_rvol_bytes_are_header_then_payload(tmp_path):
    data = np.arange(2 * 3 * 4 * 5, dtype=np.float32).reshape(2, 3, 4, 5)
    path = tmp_path / "v.rvol"
    write_volume(VolumeTensor(data, (0.5, 1.0, 2.0)), path)
    head = struct.pack("<8s I I I I I I 3f Q", b"HRSTVOL\x00", 1, 0, 2, 3, 4, 5, 0.5, 1.0, 2.0, data.nbytes)
    assert path.read_bytes() == head + data.tobytes()


def test_a_write_that_fails_halfway_keeps_the_previous_file(monkeypatch, tmp_path):
    path = tmp_path / "l.rvol"
    write_labels(LabelVolume(np.zeros((4, 4, 4), np.int32), 2), path)
    before = path.read_bytes()
    real_open = open

    class HalfWay:  # writes the header, then fails as a full disk would
        def __init__(self, f):
            self.f, self.writes = f, 0

        def write(self, b):
            self.writes += 1
            if self.writes > 1:
                raise OSError(errno.ENOSPC, "No space left on device")
            return self.f.write(b)

        def __getattr__(self, name):
            return getattr(self.f, name)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return self.f.__exit__(*exc)

    monkeypatch.setattr(volume, "open", lambda *a, **k: HalfWay(real_open(*a, **k)), raising=False)
    with pytest.raises(PersistenceError, match="cannot write volume.*No space left"):
        write_labels(LabelVolume(np.ones((4, 4, 4), np.int32), 2), path)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]  # no .tmp left behind


def test_nan_rejected_before_write(tmp_path):
    data = np.zeros((1, 2, 2, 2), dtype=np.float32)
    data[0, 0, 0, 0] = np.nan
    vol = VolumeTensor(data)
    path = tmp_path / "bad.rvol"
    with pytest.raises(NumericError):
        write_volume(vol, path)
    assert not path.exists()


def test_truncated_file_rejected(tmp_path):
    path = tmp_path / "v.rvol"
    write_volume(VolumeTensor(np.ones((1, 2, 3, 4), dtype=np.float32)), path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-1])
    with pytest.raises(FormatError, match="length"):
        read_volume(path)


def test_bad_magic_and_zero_dims(tmp_path):
    path = tmp_path / "v.rvol"
    write_volume(VolumeTensor(np.ones((1, 4, 4, 4), dtype=np.float32)), path)
    raw = bytearray(path.read_bytes())
    bad = tmp_path / "bad.rvol"
    bad.write_bytes(b"XXXXXXXX" + bytes(raw[8:]))
    with pytest.raises(FormatError, match="magic"):
        read_volume(bad)
    # depth field (offset 20) set to 0
    raw2 = bytearray(raw)
    raw2[20:24] = (0).to_bytes(4, "little")
    bad.write_bytes(bytes(raw2))
    with pytest.raises(FormatError):
        read_volume(bad)


@pytest.fixture(scope="module")
def rvol_files(tmp_path_factory) -> dict[str, bytes]:
    """Bytes of a valid 2-channel float volume and of a valid label file."""
    d = tmp_path_factory.mktemp("rvol")
    rng = np.random.default_rng(3)
    spacing = (0.5, 1.0, 2.0)
    write_volume(VolumeTensor(rng.standard_normal((2, 3, 4, 5)).astype(np.float32), spacing), d / "v.rvol")
    write_labels(LabelVolume(rng.integers(0, 3, (3, 4, 5)).astype(np.int32), 3, spacing), d / "l.rvol")
    return {"volume": (d / "v.rvol").read_bytes(), "labels": (d / "l.rvol").read_bytes()}


def _patched(raw: bytes, at: int, fmt: str, value) -> bytes:
    return raw[:at] + struct.pack(fmt, value) + raw[at + struct.calcsize(fmt):]


def _two_channel_labels(raw: bytes) -> bytes:
    """The label file with its payload repeated as a second channel (the
    channel count sits at offset 16, the payload length at 44)."""
    payload = raw[HEADER_BYTES:]
    out = _patched(_patched(raw, 16, "<I", 2), 44, "<Q", 2 * len(payload))
    return out + payload


@pytest.mark.parametrize("kind, read, edit, message", [
    ("volume", read_volume, lambda raw: raw[: HEADER_BYTES - 1], "shorter than header"),
    ("volume", read_volume, lambda raw: _patched(raw, 8, "<I", 7), "unsupported version 7"),
    ("volume", read_volume, lambda raw: _patched(raw, 12, "<I", 5), "unknown dtype code 5"),
    ("volume", read_volume, lambda raw: _patched(raw, 44, "<Q", 8), "payload length field 8"),
    ("volume", read_labels, lambda raw: raw, "expected int32 labels"),
    ("labels", read_labels, _two_channel_labels, "single-channel"),
], ids=["short_header", "version", "dtype_code", "payload_length_field", "label_dtype",
        "label_channels"])
def test_rvol_reader_rejects_each_bad_field(tmp_path, rvol_files, kind, read, edit, message):
    path = tmp_path / "bad.rvol"
    path.write_bytes(edit(rvol_files[kind]))
    with pytest.raises(FormatError, match=message):
        read(path)


def test_rvol_payload_must_fill_the_file(tmp_path, rvol_files):
    # the payload is checked against the file size before it is allocated:
    # a byte more or less, or huge dims whose length field agrees with them
    raw = rvol_files["volume"]
    huge = raw[:20] + struct.pack("<3I", *(2**20,) * 3) + raw[32:44] + struct.pack("<Q", 2 * 2**60 * 4)
    for why, edited in (("long", raw + b"\0"), ("short", raw[:-1]), ("huge dims", huge)):
        path = tmp_path / "bad.rvol"
        path.write_bytes(edited)
        with pytest.raises(FormatError, match="payload length mismatch"):
            read_volume(path)


@given(data=st.data(), kind=st.sampled_from(["volume", "labels"]))
@settings(max_examples=200, deadline=None)
def test_mangled_rvol_reads_or_raises_hrst_error(tmp_path_factory, rvol_files, data, kind):
    # byte flips land in the 52-byte header or anywhere; the file may then be
    # cut and extended. Either reader may get either file.
    raw = bytearray(rvol_files[kind])
    byte = st.integers(0, HEADER_BYTES - 1) | st.integers(0, len(raw) - 1)
    for at in data.draw(st.lists(byte, max_size=3)):
        raw[at] ^= data.draw(st.integers(1, 255))
    cut = data.draw(st.just(len(raw)) | st.integers(0, len(raw)))
    path = tmp_path_factory.mktemp("fuzz") / "v.rvol"
    path.write_bytes(bytes(raw[:cut]) + data.draw(st.binary(max_size=16)))
    try:
        data.draw(st.sampled_from([read_volume, read_labels]))(path)
    except HRSTError:
        pass


def test_label_round_trip_and_dtype_guard(tmp_path):
    lab = LabelVolume(np.arange(8, dtype=np.int32).reshape(2, 2, 2) % 3, 3)
    p = tmp_path / "l.rvol"
    write_labels(lab, p)
    back = read_labels(p)
    assert np.array_equal(back.data, lab.data)
    with pytest.raises(FormatError):
        read_volume(p)


def test_synthetic_deterministic():
    spec = SyntheticSpec(seed=5, dims=(12, 12, 12), channels=2, num_classes=3)
    v1, l1 = generate_synthetic(spec)
    v2, l2 = generate_synthetic(spec)
    assert v1.data.tobytes() == v2.data.tobytes()
    assert l1.data.tobytes() == l2.data.tobytes()


def test_synthetic_sphere_count_matches_enumeration():
    spec = SyntheticSpec(
        seed=9, dims=(12, 12, 12), channels=1, num_classes=2,
        blobs_per_class=1, radius_range=(3, 3), noise_sigma=0.0,
    )
    _, lab = generate_synthetic(spec)
    # independent oracle: recover the center from the labeled voxels, then
    # enumerate every voxel within the radius
    fg = np.argwhere(lab.data == 1)
    center = np.round(fg.mean(axis=0)).astype(int)
    count = 0
    for z in range(12):
        for y in range(12):
            for x in range(12):
                if (z - center[0]) ** 2 + (y - center[1]) ** 2 + (x - center[2]) ** 2 <= 9:
                    count += 1
    assert int((lab.data == 1).sum()) == count


def test_synthetic_degenerate_zero_noise():
    spec = SyntheticSpec(seed=1, dims=(8, 8, 8), blobs_per_class=0, noise_sigma=0.0)
    vol, lab = generate_synthetic(spec)
    assert not vol.data.any()
    assert not lab.data.any()


def test_synthetic_unplaceable_blob_rejected():
    with pytest.raises(ConfigError):
        generate_synthetic(SyntheticSpec(seed=0, dims=(6, 6, 6), radius_range=(3, 3)))


def test_synthetic_negative_blob_count_rejected():
    # 0 draws no blobs (background only) and stays legal; a negative count is
    # no recipe at all
    with pytest.raises(ConfigError, match="blobs_per_class must be >= 0, got -1"):
        SyntheticSpec(seed=0, dims=(8, 8, 8), blobs_per_class=-1)
    SyntheticSpec(seed=0, dims=(8, 8, 8), blobs_per_class=0)


def test_random_crop_identity_and_determinism():
    rng = np.random.default_rng(0)
    vol = VolumeTensor(rng.standard_normal((1, 8, 8, 8)).astype(np.float32))
    lab = LabelVolume(rng.integers(0, 2, (8, 8, 8)).astype(np.int32), 2)
    cv, cl = random_crop(vol, lab, (8, 8, 8), seed=4)
    assert np.array_equal(cv.data, vol.data) and np.array_equal(cl.data, lab.data)
    a = random_crop(vol, lab, (4, 4, 4), seed=7)
    b = random_crop(vol, lab, (4, 4, 4), seed=7)
    assert np.array_equal(a[0].data, b[0].data)


def test_random_crop_is_contiguous_subblock():
    rng = np.random.default_rng(1)
    vol = VolumeTensor(rng.standard_normal((1, 6, 7, 8)).astype(np.float32))
    lab = LabelVolume(np.zeros((6, 7, 8), dtype=np.int32), 2)
    cv, _ = random_crop(vol, lab, (3, 3, 3), seed=13)
    found = [
        (z, y, x)
        for z in range(4)
        for y in range(5)
        for x in range(6)
        if np.array_equal(vol.data[:, z : z + 3, y : y + 3, x : x + 3], cv.data)
    ]
    assert found


def test_random_crop_too_large_rejected():
    vol = VolumeTensor(np.zeros((1, 8, 8, 8), dtype=np.float32))
    lab = LabelVolume(np.zeros((8, 8, 8), dtype=np.int32), 2)
    with pytest.raises(CropError):
        random_crop(vol, lab, (9, 9, 9), seed=0)


def test_tile_starts_1d_analogue():
    assert tile_starts(6, 4, 0.5) == [0, 2]


def test_sliding_window_single_tile_equals_model():
    rng = np.random.default_rng(2)
    vol = VolumeTensor(rng.standard_normal((1, 4, 4, 4)).astype(np.float32))
    model = lambda v: VolumeTensor(np.stack([v.data[0], -v.data[0]]), v.spacing)
    out = sliding_window_infer(model, vol, (4, 4, 4), overlap=0.0)
    assert np.array_equal(out.data, model(vol).data)


def test_sliding_window_constant_stub_average_identity():
    vol = VolumeTensor(np.zeros((1, 4, 4, 6), dtype=np.float32))
    const = lambda v: VolumeTensor(np.full((2,) + v.dims, 3.5, dtype=np.float32))
    out = sliding_window_infer(const, vol, (4, 4, 4), overlap=0.5)
    assert np.allclose(out.data, 3.5)


def test_sliding_window_linear_stub_equals_whole_volume():
    rng = np.random.default_rng(5)
    vol = VolumeTensor(rng.standard_normal((2, 6, 4, 6)).astype(np.float32))
    lin = lambda v: VolumeTensor(2.0 * v.data + 1.0, v.spacing)
    out = sliding_window_infer(lin, vol, (4, 4, 4), overlap=0.5)
    assert np.allclose(out.data, lin(vol).data, atol=1e-6)


def test_sliding_window_roi_too_large():
    vol = VolumeTensor(np.zeros((1, 4, 4, 4), dtype=np.float32))
    with pytest.raises(ConfigError):
        sliding_window_infer(lambda v: v, vol, (8, 8, 8))


def test_volume_invariants():
    with pytest.raises(ShapeError):
        VolumeTensor(np.zeros((2, 2, 2), dtype=np.float32))
    with pytest.raises(ShapeError):
        VolumeTensor(np.zeros((1, 2, 2, 2), dtype=np.float32), spacing=(0, 1, 1))
    with pytest.raises(ShapeError):
        LabelVolume(np.full((2, 2, 2), 5, dtype=np.int32), 2)


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
def test_both_volume_types_reject_bad_spacing(bad):
    with pytest.raises(ShapeError):
        VolumeTensor(np.zeros((1, 2, 2, 2), np.float32), spacing=(1.0, bad, 1.0))
    with pytest.raises(ShapeError):
        LabelVolume(np.zeros((2, 2, 2), np.int32), 2, spacing=(1.0, bad, 1.0))


def test_labels_carry_spacing_through_files_and_crops(tmp_path):
    spacing = (0.5, 1.0, 2.0)
    write_labels(LabelVolume(np.zeros((4, 4, 4), np.int32), 2, spacing), tmp_path / "l.rvol")
    back = read_labels(tmp_path / "l.rvol")
    assert back.spacing == spacing
    vol = VolumeTensor(np.zeros((1, 4, 4, 4), np.float32), spacing)
    _, crop = random_crop(vol, back, (2, 2, 2), seed=0)
    assert crop.spacing == spacing


def test_sliding_window_over_forward_checks_roi():
    from conftest import TINY
    from hrstnet.topology import forward, init_params

    rng = np.random.default_rng(6)
    vol = VolumeTensor(rng.standard_normal((1, 16, 16, 16)).astype(np.float32))
    params = init_params(TINY, 0)
    model = lambda tile: forward(TINY, params, tile)
    out = sliding_window_infer(model, vol, (16, 16, 16), overlap=0.0)
    assert np.array_equal(out.data, forward(TINY, params, vol).data)
    with pytest.raises(ConfigError, match="multiple"):
        sliding_window_infer(model, vol, (12, 12, 12))

import math

import numpy as np
import pytest

from hrstnet.errors import MappingError, ShapeError
from hrstnet.metrics import (
    BinaryMask,
    brats_region_spec,
    brats_regions,
    diagonal_sentinel,
    dice_score,
    evaluate_case,
    hd95,
    perclass_region_spec,
    surface_voxels,
)
from hrstnet.volume import LabelVolume


def mask(arr, spacing=(1.0, 1.0, 1.0)):
    return BinaryMask(np.asarray(arr, dtype=bool), spacing)


def rand_mask(rng, dims, p=0.3, spacing=(1.0, 1.0, 1.0)):
    return BinaryMask(rng.random(dims) < p, spacing)


def surface_voxels_fullgrid(mask) -> np.ndarray:
    """Oracle for `surface_voxels`: the 6-neighbour test over the whole grid,
    one shifted copy per neighbour, nothing cropped."""
    fg = np.asarray(mask, dtype=bool)
    if not fg.any():
        return np.zeros((0, 3), dtype=np.int64)
    interior = np.ones_like(fg)
    for axis in range(3):
        lo = [slice(None)] * 3
        hi = [slice(None)] * 3
        lo[axis] = slice(None, -1)
        hi[axis] = slice(1, None)
        shifted = np.zeros_like(fg)
        shifted[tuple(lo)] = fg[tuple(hi)]
        interior &= shifted
        shifted = np.zeros_like(fg)
        shifted[tuple(hi)] = fg[tuple(lo)]
        interior &= shifted
    return np.argwhere(fg & ~interior)


def hd95_bruteforce(a: BinaryMask, b: BinaryMask) -> float:
    """Independent O(n^2) oracle over all boundary-voxel pairs."""
    ea, eb = not a.data.any(), not b.data.any()
    if ea and eb:
        return 0.0
    if ea or eb:
        return diagonal_sentinel(a.data.shape, a.spacing)
    sp = np.asarray(a.spacing, dtype=np.float64)
    pa = surface_voxels_fullgrid(a.data) * sp
    pb = surface_voxels_fullgrid(b.data) * sp
    d_ab = [min(((p - q) ** 2).sum() for q in pb) for p in pa]
    d_ba = [min(((q - p) ** 2).sum() for p in pa) for q in pb]
    pooled = np.sqrt(np.array(d_ab + d_ba))
    return float(np.percentile(pooled, 95.0))


def hd95_allpairs(a: BinaryMask, b: BinaryMask) -> float:
    """Oracle over full-grid surfaces: every pair compared, in chunks of 256
    source points, with the squared distance `((p - q) ** 2).sum(-1)`."""
    ea, eb = not a.data.any(), not b.data.any()
    if ea and eb:
        return 0.0
    if ea or eb:
        return diagonal_sentinel(a.data.shape, a.spacing)
    sp = np.asarray(a.spacing, dtype=np.float64)
    pa = surface_voxels_fullgrid(a.data) * sp
    pb = surface_voxels_fullgrid(b.data) * sp

    def nearest_sq(src, dst):
        return np.concatenate([
            ((src[lo : lo + 256, None, :] - dst[None, :, :]) ** 2).sum(-1).min(axis=1)
            for lo in range(0, len(src), 256)
        ])

    pooled = np.concatenate([nearest_sq(pa, pb), nearest_sq(pb, pa)])
    return float(np.percentile(np.sqrt(pooled), 95.0))


def brats_regions_reference(labels: LabelVolume, spec, spacing=(1.0, 1.0, 1.0)):
    """Oracle for `brats_regions`: present labels by `np.unique`, masks by `np.isin`."""
    present = set(int(v) for v in np.unique(labels.data))
    unknown = present - spec.covered_labels()
    if unknown:
        raise MappingError(f"label ids {sorted(unknown)} not covered by region spec")
    return {name: BinaryMask(np.isin(labels.data, ids), spacing) for name, ids in spec.regions}


def test_dice_basic_cases():
    rng = np.random.default_rng(0)
    m = rand_mask(rng, (5, 5, 5))
    assert dice_score(m, m) == 1.0
    a = np.zeros((4, 4, 4), bool)
    b = np.zeros((4, 4, 4), bool)
    a[0, 0, 0] = True
    b[3, 3, 3] = True
    assert dice_score(mask(a), mask(b)) == 0.0
    a = np.zeros((4, 4, 4), bool)
    b = np.zeros((4, 4, 4), bool)
    a[0, 0, :4] = True
    b[0, 0, 2:4] = True
    b[0, 1, :2] = True
    assert dice_score(mask(a), mask(b)) == 0.5


def test_dice_both_empty_convention():
    e = mask(np.zeros((3, 3, 3), bool))
    assert dice_score(e, e) == 1.0


def test_dice_symmetric_and_permutation_invariant():
    rng = np.random.default_rng(1)
    a = rand_mask(rng, (4, 4, 4))
    b = rand_mask(rng, (4, 4, 4))
    assert dice_score(a, b) == dice_score(b, a)
    perm = rng.permutation(64)
    ap = mask(a.data.reshape(-1)[perm].reshape(4, 4, 4))
    bp = mask(b.data.reshape(-1)[perm].reshape(4, 4, 4))
    assert dice_score(ap, bp) == dice_score(a, b)


def test_dice_dim_mismatch():
    with pytest.raises(ShapeError):
        dice_score(mask(np.zeros((2, 2, 2), bool)), mask(np.zeros((3, 3, 3), bool)))


def test_surface_voxels_edge_rule():
    solid = np.ones((3, 3, 3), bool)
    surf = surface_voxels(solid)
    assert len(surf) == 26  # all but the center voxel touch the array edge


def _surface_cases(rng):
    yield np.zeros((4, 5, 6), bool)
    yield np.ones((3, 4, 5), bool)
    for dims in ((1, 1, 1), (1, 5, 5), (5, 1, 5), (5, 5, 1), (1, 1, 7)):
        yield np.ones(dims, bool)
        yield rng.random(dims) < 0.5
    for pos in ((0, 0, 0), (2, 3, 4), (4, 5, 6), (0, 3, 6)):
        single = np.zeros((5, 6, 7), bool)
        single[pos] = True
        yield single
    for axis in range(3):
        for side in (0, -1):
            m = np.zeros((6, 7, 8), bool)
            m[2:4, 2:5, 3:6] = True
            face = [slice(2, 4), slice(2, 5), slice(3, 6)]
            face[axis] = side
            m[tuple(face)] = True
            yield m
    for _ in range(200):
        dims = tuple(int(d) for d in rng.integers(1, 10, 3))
        yield rng.random(dims) < rng.uniform(0.0, 1.0)


def test_surface_voxels_match_fullgrid_oracle():
    for m in _surface_cases(np.random.default_rng(33)):
        got = surface_voxels(m)
        assert got.dtype == np.int64 and got.shape[1:] == (3,)
        assert np.array_equal(got, surface_voxels_fullgrid(m)), m.shape


def test_hd95_identical_and_single_pair():
    rng = np.random.default_rng(2)
    m = rand_mask(rng, (6, 6, 6))
    assert hd95(m, m) == 0.0
    a = np.zeros((4, 4, 4), bool)
    b = np.zeros((4, 4, 4), bool)
    a[1, 1, 1] = True
    b[1, 1, 2] = True
    assert hd95(mask(a), mask(b)) == pytest.approx(1.0)


def test_hd95_matches_bruteforce_oracle():
    rng = np.random.default_rng(3)
    for _ in range(30):
        dims = tuple(int(d) for d in rng.integers(1, 9, 3))
        a = rand_mask(rng, dims, p=float(rng.uniform(0.1, 0.6)))
        b = rand_mask(rng, dims, p=float(rng.uniform(0.1, 0.6)))
        assert hd95(a, b) == hd95_bruteforce(a, b)


NON_DYADIC = (0.35, 0.7, 0.9, 1.1, 1.3)


def test_hd95_exact_with_non_dyadic_spacings():
    """Bitwise equal to the all-pairs oracle where coordinates are inexact
    products, so equal-looking neighbours can differ in their last bits."""
    rng = np.random.default_rng(31)
    for _ in range(2000):
        dims = tuple(int(d) for d in rng.integers(1, 13, 3))
        sp = tuple(float(s) for s in rng.choice(NON_DYADIC, 3))
        a = rand_mask(rng, dims, p=float(rng.uniform(0.0, 0.7)), spacing=sp)
        b = rand_mask(rng, dims, p=float(rng.uniform(0.0, 0.7)), spacing=sp)
        assert hd95(a, b) == hd95_allpairs(a, b)


def test_hd95_exact_on_large_surfaces():
    """Shifted, jittered balls with over 500 surface points each: deep trees."""
    rng = np.random.default_rng(32)
    grid = np.indices((28, 28, 28)).transpose(1, 2, 3, 0)
    for _ in range(6):
        sp = tuple(float(s) for s in rng.choice(NON_DYADIC, 3))
        balls = [
            (((grid - rng.uniform(11, 17, 3)) ** 2).sum(-1) < rng.uniform(8, 12) ** 2)
            & (rng.random(grid.shape[:3]) < 0.97)
            for _ in range(2)
        ]
        a, b = (BinaryMask(m, sp) for m in balls)
        assert len(surface_voxels(a.data)) > 500
        assert hd95(a, b) == hd95_allpairs(a, b)


def test_hd95_symmetric_translation_and_scaling():
    rng = np.random.default_rng(4)
    a = rand_mask(rng, (6, 6, 6), p=0.4)
    b = rand_mask(rng, (6, 6, 6), p=0.4)
    assert hd95(a, b) == hd95(b, a)
    # translation invariance: shift both masks by one voxel inside a pad
    pa = np.zeros((8, 8, 8), bool)
    pb = np.zeros((8, 8, 8), bool)
    pa[1:7, 1:7, 1:7] = a.data
    pb[1:7, 1:7, 1:7] = b.data
    qa = np.zeros((8, 8, 8), bool)
    qb = np.zeros((8, 8, 8), bool)
    qa[2:8, 1:7, 1:7] = a.data
    qb[2:8, 1:7, 1:7] = b.data
    assert hd95(mask(pa), mask(pb)) == hd95(mask(qa), mask(qb))
    # uniform spacing scaling is linear
    s2 = hd95(BinaryMask(a.data, (2.0, 2.0, 2.0)), BinaryMask(b.data, (2.0, 2.0, 2.0)))
    assert s2 == pytest.approx(2.0 * hd95(a, b), rel=1e-12)


def test_hd95_empty_conventions():
    e = mask(np.zeros((4, 4, 4), bool))
    assert hd95(e, e) == 0.0
    f = np.zeros((4, 4, 4), bool)
    f[0, 0, 0] = True
    sentinel = math.sqrt(3 * 16.0)
    assert hd95(mask(f), e) == pytest.approx(sentinel)
    assert hd95(e, mask(f)) == pytest.approx(sentinel)


def test_hd95_spacing_mismatch():
    a = mask(np.ones((2, 2, 2), bool))
    b = BinaryMask(np.ones((2, 2, 2), bool), (2.0, 1.0, 1.0))
    with pytest.raises(ShapeError):
        hd95(a, b)


def test_brats_regions_ed_only():
    lab = LabelVolume(np.full((2, 2, 2), 2, np.int32), 4)  # all ED
    regions = brats_regions(lab, brats_region_spec())
    assert regions["WT"].data.all()
    assert not regions["TC"].data.any()
    assert not regions["ET"].data.any()


def test_brats_nesting_universal():
    rng = np.random.default_rng(5)
    spec = brats_region_spec()
    for _ in range(20):
        lab = LabelVolume(rng.integers(0, 4, (5, 5, 5)).astype(np.int32), 4)
        r = brats_regions(lab, spec)
        assert (r["WT"].data | r["TC"].data).sum() == r["WT"].data.sum()  # WT >= TC
        assert (r["TC"].data | r["ET"].data).sum() == r["TC"].data.sum()  # TC >= ET


def test_brats_counts_hand_case():
    lab = np.zeros((3, 3, 3), np.int32)
    lab[0, 0, 0] = 1  # NCR
    lab[1, 1, 1] = 2  # ED
    lab[2, 2, 2] = 3  # ET
    r = brats_regions(LabelVolume(lab, 4), brats_region_spec())
    assert int(r["WT"].data.sum()) == 3
    assert int(r["TC"].data.sum()) == 2
    assert int(r["ET"].data.sum()) == 1


def test_brats_unknown_label_rejected():
    lab = LabelVolume(np.full((2, 2, 2), 5, np.int32), 9)
    with pytest.raises(MappingError):
        brats_regions(lab, brats_region_spec())


def test_brats_regions_match_unique_isin_reference():
    from hrstnet.metrics import RegionSpec

    rng = np.random.default_rng(34)
    specs = [
        lambda nc: brats_region_spec(),
        perclass_region_spec,
        lambda nc: RegionSpec((("A", (1,)), ("B", (2, 2, 7)))),
        lambda nc: RegionSpec((("odd", tuple(range(1, nc, 2))),)),
    ]
    raised = 0
    for _ in range(200):
        nc = int(rng.integers(2, 7))
        dims = tuple(int(d) for d in rng.integers(1, 8, 3))
        high = int(rng.integers(1, nc + 1))
        lab = LabelVolume(rng.integers(0, high, dims).astype(np.int32), nc, (0.9, 1.1, 1.3))
        for make in specs:
            spec = make(nc)
            try:
                want = brats_regions_reference(lab, spec, (0.9, 1.1, 1.3))
            except MappingError as err:
                with pytest.raises(MappingError) as got:
                    brats_regions(lab, spec)
                assert str(got.value) == str(err)
                raised += 1
                continue
            got = brats_regions(lab, spec)
            assert list(got) == list(want)
            for name in want:
                assert got[name].spacing == want[name].spacing
                assert np.array_equal(got[name].data, want[name].data)
    assert raised > 50


def test_evaluate_case_perfect():
    rng = np.random.default_rng(6)
    lab = LabelVolume(rng.integers(0, 4, (6, 6, 6)).astype(np.int32), 4)
    rep = evaluate_case(lab, lab, brats_region_spec(), case_id="perfect")
    assert all(v == 1.0 for v in rep.dice.values())
    assert all(v == 0.0 for v in rep.hd95.values())
    assert rep.dice_mean == 1.0 and rep.hd95_mean == 0.0
    assert rep.sentinel_regions == []


def test_evaluate_case_empty_prediction_sentinel():
    rng = np.random.default_rng(7)
    gt = LabelVolume((rng.random((5, 5, 5)) < 0.5).astype(np.int32) * 3, 4)
    pred = LabelVolume(np.zeros((5, 5, 5), np.int32), 4)
    rep = evaluate_case(pred, gt, brats_region_spec())
    assert all(v == 0.0 for v in rep.dice.values())
    assert set(rep.sentinel_regions) == {"WT", "ET", "TC"}
    assert rep.hd95_mean == rep.sentinel  # all-sentinel fallback


def test_evaluate_case_toy_averages():
    lab_gt = np.zeros((4, 4, 4), np.int32)
    lab_gt[0, 0, :3] = (1, 2, 3)
    lab_pr = np.zeros((4, 4, 4), np.int32)
    lab_pr[0, 0, :3] = (1, 2, 0)  # ET missed
    rep = evaluate_case(LabelVolume(lab_pr, 4), LabelVolume(lab_gt, 4), brats_region_spec())
    assert rep.dice_mean == pytest.approx(np.mean(list(rep.dice.values())))
    clean = [rep.hd95[n] for n in rep.hd95 if n not in rep.sentinel_regions]
    assert rep.hd95_mean == pytest.approx(np.mean(clean))


def test_evaluate_case_measures_at_ground_truth_spacing():
    spacing = (0.5, 1.0, 2.0)
    zz, yy, xx = np.meshgrid(*[np.arange(16)] * 3, indexing="ij")
    gt = ((zz - 8) ** 2 + (yy - 8) ** 2 + (xx - 8) ** 2 <= 25).astype(np.int32)
    pred = ((zz - 7) ** 2 + (yy - 8) ** 2 + (xx - 9) ** 2 <= 16).astype(np.int32)
    empty = np.zeros_like(gt)
    spec = perclass_region_spec(2)
    rep = evaluate_case(LabelVolume(pred, 2, spacing), LabelVolume(gt, 2, spacing), spec)
    assert rep.hd95["class1"] == hd95(BinaryMask(pred == 1, spacing), BinaryMask(gt == 1, spacing))
    assert rep.hd95["class1"] != hd95(BinaryMask(pred == 1), BinaryMask(gt == 1))
    miss = evaluate_case(LabelVolume(empty, 2, spacing), LabelVolume(gt, 2, spacing), spec)
    assert miss.sentinel == miss.hd95["class1"] == diagonal_sentinel((16, 16, 16), spacing)


def test_evaluate_case_rejects_a_spacing_mismatch():
    lab = np.zeros((4, 4, 4), np.int32)
    lab[1:3, 1:3, 1:3] = 1
    with pytest.raises(ShapeError, match="spacing"):
        evaluate_case(LabelVolume(lab, 2), LabelVolume(lab, 2, (0.5, 1.0, 2.0)), perclass_region_spec(2))


def test_report_serialization_and_column_order():
    lab = LabelVolume(np.zeros((2, 2, 2), np.int32), 4)
    rep = evaluate_case(lab, lab, brats_region_spec(), case_id="c0")
    header = rep.csv_header()
    assert header.startswith("case,hd95_avg,dsc_avg,hd95_WT,dsc_WT,hd95_ET,dsc_ET,hd95_TC,dsc_TC")
    assert len(rep.csv_row().split(",")) == len(header.split(","))
    assert rep.csv_row().startswith("c0,")


def test_perclass_spec():
    spec = perclass_region_spec(3)
    assert spec.names == ["class1", "class2"]
    lab = LabelVolume(np.array([[[0, 1], [2, 2]]], np.int32).reshape(1, 2, 2), 3)
    r = brats_regions(lab, spec)
    assert int(r["class1"].data.sum()) == 1
    assert int(r["class2"].data.sum()) == 2


def test_region_spec_rejects_empty_sets():
    from hrstnet.metrics import RegionSpec

    with pytest.raises(MappingError):
        RegionSpec((("WT", ()),))

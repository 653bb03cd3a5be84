"""Evaluation metrics: per-class Dice, 95th-percentile Hausdorff distance,
region mapping (whole tumor / tumor core / enhancing tumor style) and case
reports.

Conventions, recorded in every report:
  - Dice of two empty masks is 1.0.
  - hd95 of two empty masks is 0.0; exactly one empty mask yields the
    volume-diagonal sentinel (spacing-weighted).
  - Report means skip sentinel entries; sentinel regions are listed.

Surfaces are foreground voxels with at least one 6-neighbour that is
background or outside the array. Directed nearest-surface distances are
pooled from both directions and the 95th percentile is taken with linear
interpolation. Distances are spacing-weighted Euclidean, in millimeters.

The nearest-surface search is a k-d tree (`scipy.spatial.cKDTree`, Bentley
1975) over one surface, queried with k=1 by every point of the other, so
it costs O(n log m) instead of the O(n*m) of comparing every pair. The
result is bitwise that of the all-pairs minimum. The tree ranks candidates
by the same per-axis squared differences summed in the same order, so the
neighbour it returns holds the least all-pairs value, and a tie is a tie at
an equal value. Its squared distance is then recomputed from the returned
index with the all-pairs expression `((p - q) ** 2).sum(-1)` rather than
taken back from the tree's square root. scipy.spatial is imported on the
first search only, keeping it out of processes that never compute HD95.

`evaluate_case` scores a case of SPLIT_ELEMS voxels or more on the engine's
two workers (`autodiff._split`), as two concurrent pieces each time: the
prediction's region masks on the caller and the ground truth's on the pool
thread, then each region's Dice and HD95 as one unit, the first half of the
regions (rounded down) on the caller and the rest on the pool thread. For
BraTS that is WT against ET and TC, whose HD95s take about as long. Each
number comes from the same calls as on one worker and lands in its region's
place, so every report is bitwise the one-worker report; the caller's piece
holds the prediction, so its `MappingError` wins over the ground truth's as
on one worker. Smaller cases run whole on the caller: there, handing half
the calls to a second thread costs more time than it saves.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import MappingError, ShapeError
from .volume import LabelVolume


@dataclass
class BinaryMask:
    data: np.ndarray
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)

    def __post_init__(self):
        self.data = np.ascontiguousarray(self.data, dtype=bool)
        if self.data.ndim != 3:
            raise ShapeError(f"mask must be 3D, got shape {self.data.shape}")
        self.spacing = tuple(float(s) for s in self.spacing)


@dataclass(frozen=True)
class RegionSpec:
    """Ordered named regions, each the union of a set of raw label ids."""

    regions: tuple[tuple[str, tuple[int, ...]], ...]

    def __post_init__(self):
        for name, ids in self.regions:
            if not ids:
                raise MappingError(f"region {name} has an empty label set")

    @property
    def names(self) -> list[str]:
        return [name for name, _ in self.regions]

    def covered_labels(self) -> set[int]:
        out = {0}
        for _, ids in self.regions:
            out.update(ids)
        return out


def brats_region_spec() -> RegionSpec:
    """Default nested regions over labels NCR = 1, ED = 2, ET = 3:
    WT = {NCR, ED, ET}, TC = {NCR, ET}, ET = {ET}."""
    return RegionSpec((("WT", (1, 2, 3)), ("ET", (3,)), ("TC", (1, 3))))


def perclass_region_spec(num_classes: int) -> RegionSpec:
    """One region per foreground class, for non-BraTS label sets."""
    return RegionSpec(tuple((f"class{c}", (c,)) for c in range(1, num_classes)))


def dice_score(a: BinaryMask, b: BinaryMask) -> float:
    """2|A n B| / (|A| + |B|); 1.0 when both masks are empty."""
    if a.data.shape != b.data.shape:
        raise ShapeError(f"mask dims differ: {a.data.shape} vs {b.data.shape}")
    sa, sb = int(np.count_nonzero(a.data)), int(np.count_nonzero(b.data))
    if sa + sb == 0:
        return 1.0
    return 2.0 * int(np.count_nonzero(a.data & b.data)) / (sa + sb)


def surface_voxels(mask: np.ndarray) -> np.ndarray:
    """[n, 3] voxel coordinates of the 6-neighbourhood boundary, in C order.

    Only the mask's tight bounding box is scanned, padded by one background
    voxel: every neighbour outside the box is background in the full grid
    too, either inside the array or beyond its edge.
    """
    fg = np.asarray(mask, dtype=bool)
    depth = np.flatnonzero(fg.any(axis=(1, 2)))
    if not len(depth):
        return np.zeros((0, 3), dtype=np.int64)
    plane = fg.any(axis=0)
    hits = (depth, np.flatnonzero(plane.any(axis=1)), np.flatnonzero(plane.any(axis=0)))
    box = tuple(slice(h[0], h[-1] + 1) for h in hits)
    padded = np.pad(fg[box], 1)
    core = (slice(1, -1),) * 3
    interior = padded[core].copy()
    for axis in range(3):
        for side in (slice(None, -2), slice(2, None)):  # both neighbours along axis
            interior &= padded[core[:axis] + (side,) + core[axis + 1:]]
    return np.argwhere(padded[core] & ~interior) + [h[0] for h in hits]


def diagonal_sentinel(dims: tuple[int, int, int], spacing) -> float:
    return float(np.sqrt(sum((d * s) ** 2 for d, s in zip(dims, spacing))))


def _nearest_sq(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Per src point, squared distance to the nearest dst point (float64)."""
    from scipy.spatial import cKDTree

    _, j = cKDTree(dst).query(src, k=1)
    return ((src - dst[j]) ** 2).sum(-1)


def hd95(a: BinaryMask, b: BinaryMask) -> float:
    """95th percentile of pooled directed surface distances, in mm."""
    if a.data.shape != b.data.shape:
        raise ShapeError(f"mask dims differ: {a.data.shape} vs {b.data.shape}")
    if a.spacing != b.spacing:
        raise ShapeError(f"mask spacings differ: {a.spacing} vs {b.spacing}")
    ea, eb = not a.data.any(), not b.data.any()
    if ea and eb:
        return 0.0
    if ea or eb:
        return diagonal_sentinel(a.data.shape, a.spacing)
    sp = np.asarray(a.spacing, dtype=np.float64)
    pa = surface_voxels(a.data) * sp
    pb = surface_voxels(b.data) * sp
    pooled = np.concatenate([_nearest_sq(pa, pb), _nearest_sq(pb, pa)])
    return float(np.percentile(np.sqrt(pooled), 95.0))


def brats_regions(labels: LabelVolume, spec: RegionSpec) -> dict[str, BinaryMask]:
    """Region masks as unions of member-label voxels, at the labels' spacing."""
    data = labels.data  # values lie in [0, num_classes)
    covered = spec.covered_labels()
    unknown = [c for c in range(labels.num_classes) if c not in covered and (data == c).any()]
    if unknown:
        raise MappingError(f"label ids {unknown} not covered by region spec")
    out = {}
    for name, ids in spec.regions:
        region = data == ids[0]
        for i in ids[1:]:
            region |= data == i
        out[name] = BinaryMask(region, labels.spacing)
    return out


@dataclass
class CaseReport:
    """Per-region Dice/HD95 for one case, plus means.

    `hd95_mean` averages non-sentinel entries only (all-sentinel cases keep
    the sentinel value); `sentinel_regions` lists where the one-empty-mask
    sentinel fired. Conventions echoed in `conventions`.
    """

    case_id: str
    dice: dict[str, float]
    hd95: dict[str, float]
    dice_mean: float
    hd95_mean: float
    sentinel: float
    sentinel_regions: list[str] = field(default_factory=list)
    conventions: str = (
        "dice(empty,empty)=1; hd95(empty,empty)=0; one-empty=diagonal sentinel; "
        "hd95 mean over non-sentinel regions"
    )

    def csv_header(self) -> str:
        cols = ["case", "hd95_avg", "dsc_avg"]
        for name in self.dice:
            cols += [f"hd95_{name}", f"dsc_{name}"]
        return ",".join(cols)

    def values(self) -> list[float]:
        """The numbers of the csv row, in column order."""
        out = [self.hd95_mean, self.dice_mean]
        for name in self.dice:
            out += [self.hd95[name], self.dice[name]]
        return out

    def csv_row(self) -> str:
        return ",".join([self.case_id, *map(str, self.values())])


def evaluate_case(
    pred: LabelVolume, gt: LabelVolume, spec: RegionSpec, case_id: str = "case",
) -> CaseReport:
    """Dice and HD95 per region; prediction and ground truth must share dims and spacing."""
    if pred.dims != gt.dims:
        raise ShapeError(f"pred dims {pred.dims} != gt dims {gt.dims}")
    if pred.spacing != gt.spacing:
        raise ShapeError(f"pred spacing {pred.spacing} != gt spacing {gt.spacing}")
    names = spec.names
    split = pred.data.size >= ad.SPLIT_ELEMS
    masks = [None, None]

    def regions(lo, hi):  # 0: pred's masks, 1: gt's
        for k in range(lo, hi):
            masks[k] = brats_regions((pred, gt)[k], spec)

    ad._split(regions, 2, int(split))
    pm, gm = masks
    sentinel = diagonal_sentinel(gt.dims, gt.spacing)
    scores = [None] * len(names)

    def score(lo, hi):
        for k in range(lo, hi):
            p, g = pm[names[k]], gm[names[k]]
            dsc, d = dice_score(p, g), hd95(p, g)
            scores[k] = (dsc, d, d == sentinel and p.data.any() != g.data.any())

    ad._split(score, len(names), len(names) // 2 if split else 0)
    dice = {name: s[0] for name, s in zip(names, scores)}
    dists = {name: s[1] for name, s in zip(names, scores)}
    sentinel_regions = [name for name, s in zip(names, scores) if s[2]]
    clean = [v for k, v in dists.items() if k not in sentinel_regions]
    hd_mean = float(np.mean(clean)) if clean else sentinel
    return CaseReport(
        case_id=case_id,
        dice=dice,
        hd95=dists,
        dice_mean=float(np.mean(list(dice.values()))),
        hd95_mean=hd_mean,
        sentinel=sentinel,
        sentinel_regions=sentinel_regions,
    )

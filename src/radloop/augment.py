"""Box-aware augmentation and deterministic evaluation preprocessing.

Spatial transforms act on normalized boxes; pixel-side parameters (contrast
equalization) are drawn here and recorded on the instance so an image
pipeline can replay them. Responses of augmented instances are always
regenerated through the template renderer, never string-edited.

Mirroring transforms are deliberately absent from the parameter space:
left/right anatomy words in the text would silently contradict flipped
boxes.
"""

from __future__ import annotations

import array
import hashlib
import math
import random
from dataclasses import dataclass, fields, replace
from functools import partial
from itertools import accumulate
from typing import Any, Sequence

from .core import (
    AnnotationRecord,
    Finding,
    InstructionInstance,
    NormBox,
    Rules,
    check_fields,
    clamp_box,
    config_from_json,
    intersection,
    is_int,
    json_object,
    positive_range,
    ruled,
    seeded,
    spread,
    uniform,
)
from .errors import EmptyAfterClamp, FormatError, GridTooFine
from .taskgen import render_instruction

#: Deterministic evaluation-path contrast parameters and target size.
EVAL_CLAHE_CLIP = 3.0
EVAL_CLAHE_GRID = (8, 8)
EVAL_RESIZE = (448, 448)

#: Deepest level a grid document may declare: 16 bits, the deepest a
#: radiograph stores. :func:`clahe` builds ``max_level + 1`` bins per tile.
MAX_GRID_LEVEL = 65535

#: Pixels :func:`clahe` blends at a time; bounds its float temporaries.
_BLEND_BAND_PIXELS = 1 << 16

#: Narrowest crop window side a policy may draw, as a fraction of the frame.
MIN_CROP_SIDE = 1e-6

#: The training-time range of each affine parameter, in draw order.
AFFINE_POLICY_RANGES = {
    "tx": (-0.10, 0.10),
    "ty": (-0.10, 0.10),
    "sx": (0.90, 1.10),
    "sy": (0.90, 1.10),
    "theta": (-15.0, 15.0),
}


@dataclass(frozen=True)
class AffineParams:
    """Affine transform about the image center: scale, then rotate, then shift.

    The transform itself accepts arbitrary values; the training-time sampler
    draws from :data:`AFFINE_POLICY_RANGES`, which :func:`in_policy_range`
    checks: |tx|, |ty| <= 0.10 (fractions of the image size), scales in
    [0.90, 1.10] and rotations in [-15, 15] degrees.
    """

    tx: float = 0.0
    ty: float = 0.0
    sx: float = 1.0
    sy: float = 1.0
    theta: float = 0.0

    def in_policy_range(self) -> bool:
        return all(lo <= getattr(self, k) <= hi for k, (lo, hi) in AFFINE_POLICY_RANGES.items())


@dataclass(frozen=True)
class CropParams:
    """Crop window in unit coordinates, resized back to the full frame."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self) -> None:
        inside = 0.0 <= self.x1 < self.x2 <= 1.0 and 0.0 <= self.y1 < self.y2 <= 1.0
        if not inside:
            raise ValueError(f"bad crop window {(self.x1, self.y1, self.x2, self.y2)}")


@dataclass(frozen=True)
class AugPolicy:
    """Sampling policy for per-instance augmentation draws."""

    p_clahe: float = ruled(Rules.UNIT, 0.5)
    clahe_clip_range: tuple[float, float] = ruled(positive_range(), (1.0, 4.0))
    clahe_grid: tuple[int, int] = ruled(
        (lambda v: isinstance(v, (list, tuple)) and len(v) == 2 and all(map(Rules.POSITIVE_INT[0], v)),
         "two positive integers"), (8, 8))
    p_crop: float = ruled(Rules.UNIT, 0.3)
    crop_scale_range: tuple[float, float] = ruled(positive_range(1.0), (0.8, 1.0))
    crop_aspect_range: tuple[float, float] = ruled(positive_range(), (0.9, 1.1))
    p_affine: float = ruled(Rules.UNIT, 0.5)
    p_bypass: float = ruled(Rules.UNIT, 0.3)
    min_box_visibility: float = ruled(Rules.UNIT, 0.25)

    def __post_init__(self) -> None:
        check_fields(self)
        for name in ("clahe_clip_range", "clahe_grid", "crop_scale_range", "crop_aspect_range"):
            object.__setattr__(self, name, tuple(getattr(self, name)))  # a JSON array is a list
        scale_lo, (aspect_lo, aspect_hi) = self.crop_scale_range[0], self.crop_aspect_range
        # Squared width and height of the narrowest window _sample_crop can draw.
        if min(scale_lo * aspect_lo, scale_lo / aspect_hi) < MIN_CROP_SIDE**2:
            raise ValueError(f"crop_scale_range and crop_aspect_range: window side below {MIN_CROP_SIDE}")

    @classmethod
    def from_json(cls, obj: Any) -> "AugPolicy":
        return config_from_json(cls, obj, "policy")


DEFAULT_POLICY = AugPolicy()


def apply_affine_to_box(box: NormBox, params: AffineParams) -> NormBox:
    """Transform a box through the affine map and take the axis-aligned hull.

    The four corners are scaled about the image center, rotated, then
    translated; the output box is the tight axis-aligned hull of the
    transformed corners, clamped to the unit square.
    :class:`EmptyAfterClamp` propagates when nothing remains inside, and is
    raised when the hull is no box in doubles: a side rounds to 0, or a
    corner, the centre or a side overflows.
    """
    x1, y1, x2, y2 = box.corners()
    cos_t = math.cos(math.radians(params.theta))
    sin_t = math.sin(math.radians(params.theta))
    xs = []
    ys = []
    for px, py in ((x1, y1), (x2, y1), (x1, y2), (x2, y2)):
        dx = (px - 0.5) * params.sx
        dy = (py - 0.5) * params.sy
        rx = cos_t * dx - sin_t * dy
        ry = sin_t * dx + cos_t * dy
        xs.append(rx + 0.5 + params.tx)
        ys.append(ry + 0.5 + params.ty)
    try:
        hull = NormBox.from_corners(min(xs), min(ys), max(xs), max(ys))
    except ValueError as exc:
        raise EmptyAfterClamp(f"the affine image of box {box.to_list()} is no box in doubles") from exc
    return clamp_box(hull)


def random_resized_crop(
    boxes: Sequence[NormBox],
    crop: CropParams,
    min_box_visibility: float = DEFAULT_POLICY.min_box_visibility,
) -> tuple[list[NormBox], bool]:
    """Map boxes into a crop window rescaled to the full frame.

    Boxes are clipped to the window; a box keeping less than
    ``min_box_visibility`` of its original area is dropped. Returns the
    surviving boxes and a fallback flag that is True when a non-empty input
    lost every box. A box that meets the window but whose area underflows
    to 0 raises :class:`EmptyAfterClamp`: its visibility cannot be measured.
    """
    cw = crop.x2 - crop.x1
    ch = crop.y2 - crop.y1
    out: list[NormBox] = []
    for box in boxes:
        inside = intersection(box.corners(), (crop.x1, crop.y1, crop.x2, crop.y2))
        if inside is None:
            continue
        ix1, iy1, ix2, iy2 = inside
        if box.area() == 0.0:
            raise EmptyAfterClamp(f"box {box.to_list()} has no area in doubles")
        visibility = ((ix2 - ix1) * (iy2 - iy1)) / box.area()
        if visibility < min_box_visibility:
            continue
        out.append(
            NormBox.from_corners(
                (ix1 - crop.x1) / cw,
                (iy1 - crop.y1) / ch,
                (ix2 - crop.x1) / cw,
                (iy2 - crop.y1) / ch,
            )
        )
    fallback = bool(boxes) and not out
    return out, fallback


# ---------------------------------------------------------------------------
# Contrast-limited adaptive histogram equalization on integer grids


@dataclass
class IntensityGrid:
    """A single-channel integer image: row-major values in [0, max_level]."""

    width: int = ruled(Rules.POSITIVE_INT)
    height: int = ruled(Rules.POSITIVE_INT)
    max_level: int = ruled((lambda v: is_int(v) and 1 <= v <= MAX_GRID_LEVEL,
                            f"an integer in [1, {MAX_GRID_LEVEL}]"))
    values: np.ndarray

    def __post_init__(self) -> None:
        import numpy as np
        check_fields(self, prefix="grid ")
        self.values = np.asarray(self.values, dtype=np.int64)
        if self.values.size != self.width * self.height:
            raise ValueError(f"grid has {self.values.size} values, not width * height = {self.width * self.height}")
        self.values = self.values.reshape(self.height, self.width)
        if self.values.min() < 0 or self.values.max() > self.max_level:
            raise ValueError("grid values must lie in [0, max_level]")

    def __eq__(self, other: object) -> bool:
        """Equal sizes and levels, then equal values as a whole; a grid stays unhashable."""
        if not isinstance(other, IntensityGrid):
            return NotImplemented
        sizes = (self.width, self.height, self.max_level)
        return sizes == (other.width, other.height, other.max_level) and bool((self.values == other.values).all())

    @classmethod
    def from_json(cls, obj: Any) -> "IntensityGrid":
        """Decode a grid document: an object of the grid's fields alone, its values a flat
        array of JSON integers, then the grid's own rules."""
        import numpy as np
        values = json_object(obj, "grid", [f.name for f in fields(cls)], partial(FormatError, 0))["values"]
        if not isinstance(values, list):
            raise FormatError(0, "grid values must be a flat array of JSON integers")
        try:
            # array("q") takes ints and bools; floats, strings, nulls, arrays
            # and ints beyond 64 bits raise.
            flat = np.frombuffer(array.array("q", values), dtype=np.int64)
        except (TypeError, OverflowError) as exc:
            raise FormatError(0, f"grid values must be JSON integers: {exc}") from exc
        # A true or false reads as 1 or 0, so only those positions need a look.
        if any(type(values[i]) is bool for i in np.flatnonzero(flat <= 1).tolist()):
            raise FormatError(0, "grid values must be JSON integers, not true or false")
        try:
            return cls(obj["width"], obj["height"], obj["max_level"], flat)
        except ValueError as exc:
            raise FormatError(0, str(exc)) from exc

    def to_json(self) -> dict[str, Any]:
        return {**vars(self), "values": self.values.ravel().tolist()}


def _tile_bounds(size: int, tiles: int) -> list[tuple[int, int]]:
    # Integer partition: the first (size % tiles) tiles get one extra pixel.
    stops = list(accumulate(spread(size, tiles)))
    return list(zip([0] + stops, stops))


def _tile_lut(tile: np.ndarray, bins: int, max_level: int, clip_limit: float | None) -> np.ndarray:
    import numpy as np
    hist = np.bincount(tile.ravel(), minlength=bins).astype(np.float64)
    if np.count_nonzero(hist) == 1:
        # Equalization is underdetermined on a constant tile; identity keeps
        # constant images exactly invariant.
        return np.arange(bins, dtype=np.float64)
    n = tile.size
    if clip_limit is not None and math.isfinite(clip_limit):
        limit = clip_limit * n / bins
        excess = np.maximum(hist - limit, 0.0).sum()
        hist = np.minimum(hist, limit) + excess / bins
    cdf = np.cumsum(hist) / n
    return np.rint(max_level * cdf)


def _lerp(a: np.ndarray, b: np.ndarray, t: np.ndarray) -> np.ndarray:
    """``a + t * (b - a)``, computed in place in ``a`` and ``b``."""
    b -= a
    b *= t
    a += b
    return a


def clahe(
    grid: IntensityGrid,
    clip_limit: float | None = EVAL_CLAHE_CLIP,
    tiles: tuple[int, int] = EVAL_CLAHE_GRID,
) -> IntensityGrid:
    """Contrast-limited adaptive histogram equalization.

    Per-tile histograms over ``max_level + 1`` bins are clipped at
    ``clip_limit * tile_pixels / bins`` with the excess redistributed
    uniformly, turned into lookup tables, and blended bilinearly between
    tile centers (clamped at the borders). ``clip_limit=None`` or infinity
    disables clipping, leaving plain per-tile equalization.

    Raises :class:`GridTooFine` when the image cannot host the tile grid.
    """
    import numpy as np
    gx, gy = tiles
    if gx < 1 or gy < 1 or grid.width < gx or grid.height < gy:
        raise GridTooFine(f"grid {tiles} does not fit a {grid.width}x{grid.height} image")
    if clip_limit is not None and not (clip_limit > 0):
        raise ValueError(f"clip_limit must be positive, got {clip_limit}")
    bins = grid.max_level + 1
    col_bounds = _tile_bounds(grid.width, gx)
    row_bounds = _tile_bounds(grid.height, gy)

    luts = np.empty((gy, gx, bins), dtype=np.float64)
    for r, (y0, y1) in enumerate(row_bounds):
        for c, (x0, x1) in enumerate(col_bounds):
            luts[r, c] = _tile_lut(grid.values[y0:y1, x0:x1], bins, grid.max_level, clip_limit)

    # Tile centers sit at the midpoint of each tile's pixel index range, so
    # pixels at those midpoints take their own tile's mapping unmixed.
    cxs = np.array([(x0 + x1) / 2 for x0, x1 in col_bounds])
    cys = np.array([(y0 + y1) / 2 for y0, y1 in row_bounds])

    def _axis_blend(coords: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        lo = np.clip(np.searchsorted(centers, coords, side="right") - 1, 0, len(centers) - 1)
        hi = np.minimum(lo + 1, len(centers) - 1)
        span = centers[hi] - centers[lo]
        frac = np.where(span > 0, (coords - centers[lo]) / np.where(span > 0, span, 1.0), 0.0)
        frac = np.clip(frac, 0.0, 1.0)
        return lo, hi, frac

    px = np.arange(grid.width, dtype=np.float64)
    py = np.arange(grid.height, dtype=np.float64)
    c0, c1, ux = _axis_blend(px, cxs)
    r0, r1, uy = _axis_blend(py, cys)

    # Blend in bands of rows, in place, so the float temporaries stay a fixed
    # size whatever the image size. Each pixel reads its four tables from the
    # flattened LUT array at offset row tile, column tile, then its value.
    flat = luts.reshape(-1)
    col0, col1 = c0 * bins, c1 * bins
    row0, row1 = r0 * (gx * bins), r1 * (gx * bins)
    out = np.empty_like(grid.values)
    band = max(1, _BLEND_BAND_PIXELS // grid.width)
    for y in range(0, grid.height, band):
        rows = slice(y, y + band)
        left = grid.values[rows] + col0
        right = grid.values[rows] + col1
        # Nested linear blends keep the result exact when all four tables agree.
        top = _lerp(flat.take(left + row0[rows, None]), flat.take(right + row0[rows, None]), ux)
        bottom = _lerp(flat.take(left + row1[rows, None]), flat.take(right + row1[rows, None]), ux)
        blended = _lerp(top, bottom, uy[rows, None])
        out[rows] = np.clip(np.rint(blended, out=blended), 0, grid.max_level, out=blended)
    return IntensityGrid(grid.width, grid.height, grid.max_level, out)


def resize_bilinear(grid: IntensityGrid, width: int, height: int) -> IntensityGrid:
    """Bilinear resize of an intensity grid (align-corners convention)."""
    import numpy as np
    src = grid.values
    if width < 1 or height < 1:
        raise ValueError("target size must be positive")
    xs = np.linspace(0, grid.width - 1, width)
    ys = np.linspace(0, grid.height - 1, height)
    x0 = np.floor(xs).astype(np.int64)
    y0 = np.floor(ys).astype(np.int64)
    x1 = np.minimum(x0 + 1, grid.width - 1)
    y1 = np.minimum(y0 + 1, grid.height - 1)
    wx = (xs - x0)[None, :]
    wy = (ys - y0)[:, None]
    tl = src[y0[:, None], x0[None, :]]
    tr = src[y0[:, None], x1[None, :]]
    bl = src[y1[:, None], x0[None, :]]
    br = src[y1[:, None], x1[None, :]]
    top = tl + wx * (tr - tl)
    bottom = bl + wx * (br - bl)
    out = np.clip(np.rint(top + wy * (bottom - top)), 0, grid.max_level).astype(np.int64)
    return IntensityGrid(width, height, grid.max_level, out)


def preprocess_eval(grid: IntensityGrid, resize: tuple[int, int] = EVAL_RESIZE) -> IntensityGrid:
    """Deterministic evaluation path: fixed-parameter CLAHE, then resize."""
    out = clahe(grid, EVAL_CLAHE_CLIP, EVAL_CLAHE_GRID)
    return resize_bilinear(out, resize[0], resize[1])


# ---------------------------------------------------------------------------
# Instance-level augmentation


def instance_seed(global_seed: int, image_id: str, index: int) -> int:
    """Stable per-instance seed; order of processing cannot change draws."""
    digest = hashlib.sha256(f"{global_seed}:{image_id}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _sample_affine(rng: random.Random) -> AffineParams:
    ranges = AFFINE_POLICY_RANGES.items()
    return AffineParams(**{name: uniform(rng, lo, hi) for name, (lo, hi) in ranges})


def _sample_crop(rng: random.Random, policy: AugPolicy) -> CropParams:
    area = uniform(rng, *policy.crop_scale_range)
    aspect = uniform(rng, *policy.crop_aspect_range)
    cw = min(math.sqrt(area * aspect), 1.0)
    ch = min(math.sqrt(area / aspect), 1.0)
    x1 = uniform(rng, 0.0, 1.0 - cw)
    y1 = uniform(rng, 0.0, 1.0 - ch)
    return CropParams(x1, y1, x1 + cw, y1 + ch)


def _transform_record(
    record: AnnotationRecord,
    crop: CropParams | None,
    affine: AffineParams | None,
    policy: AugPolicy,
) -> AnnotationRecord | None:
    """Apply spatial transforms to a record's boxes; None means a box group lost them all."""

    def moved(boxes: Sequence[NormBox]) -> tuple[NormBox, ...]:
        if crop is not None and boxes:
            boxes, lost = random_resized_crop(boxes, crop, policy.min_box_visibility)
            if lost:
                raise EmptyAfterClamp("the crop window holds none of the boxes")
        if affine is not None:
            boxes = [apply_affine_to_box(box, affine) for box in boxes]
        return tuple(boxes)

    try:
        if record.findings:
            findings = tuple(Finding(f.text, moved(f.boxes)) for f in record.findings)
            return replace(record, findings=findings)
        return replace(record, boxes=moved(record.boxes))
    except EmptyAfterClamp:
        return None


def augment_instance(
    instance: InstructionInstance,
    policy: AugPolicy = DEFAULT_POLICY,
    seed: int = 0,
) -> InstructionInstance:
    """Draw one augmentation for an instance and regenerate its response.

    Draw order is fixed: bypass, contrast, crop, affine. A bypass draw routes
    the instance through the deterministic evaluation path (no spatial
    change; fixed contrast parameters are recorded). When a transform would
    leave a grounded finding without boxes, or cannot map or measure a box
    in doubles, the original instance is returned unchanged. The response is
    rebuilt from the transformed record by the template renderer. Every draw
    comes from ``seeded(seed)``.
    """
    rng = seeded(seed)
    record = instance.structured
    if rng.random() < policy.p_bypass:
        aug: dict[str, Any] = {"pipeline": "eval", "clahe_clip": EVAL_CLAHE_CLIP,
                               "clahe_grid": list(EVAL_CLAHE_GRID)}
    else:
        aug = {"pipeline": "train"}
        if rng.random() < policy.p_clahe:
            aug["clahe_clip"] = uniform(rng, *policy.clahe_clip_range)
            aug["clahe_grid"] = list(policy.clahe_grid)
        crop = _sample_crop(rng, policy) if rng.random() < policy.p_crop else None
        affine = _sample_affine(rng) if rng.random() < policy.p_affine else None
        if crop is not None:
            aug["crop"] = [crop.x1, crop.y1, crop.x2, crop.y2]
        if affine is not None:
            aug["affine"] = vars(affine).copy()
        record = _transform_record(record, crop, affine, policy)
        if record is None:
            return instance
    return render_instruction(replace(record, meta={**record.meta, **aug}))

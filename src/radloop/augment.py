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
from dataclasses import dataclass, replace
from typing import Any, Mapping, Sequence

import numpy as np

from .core import (
    AnnotationRecord,
    Finding,
    InstructionInstance,
    NormBox,
    clamp_box,
    config_from_json,
)
from .errors import EmptyAfterClamp, FormatError, GridTooFine
from .taskgen import render_instruction

#: Deterministic evaluation-path contrast parameters and target size.
EVAL_CLAHE_CLIP = 3.0
EVAL_CLAHE_GRID = (8, 8)
EVAL_RESIZE = (448, 448)

#: Pixels :func:`clahe` blends at a time; bounds its float temporaries.
_BLEND_BAND_PIXELS = 1 << 16


@dataclass(frozen=True)
class AffineParams:
    """Affine transform about the image center: scale, then rotate, then shift.

    The transform itself accepts arbitrary values; the training-time sampler
    draws translations as fractions of the image size with |tx|, |ty| <= 0.10,
    scales in [0.90, 1.10] and rotations in [-15, 15] degrees
    (:func:`in_policy_range` checks those bounds).
    """

    tx: float = 0.0
    ty: float = 0.0
    sx: float = 1.0
    sy: float = 1.0
    theta: float = 0.0

    def in_policy_range(self) -> bool:
        return (
            abs(self.tx) <= 0.10
            and abs(self.ty) <= 0.10
            and 0.90 <= self.sx <= 1.10
            and 0.90 <= self.sy <= 1.10
            and abs(self.theta) <= 15.0
        )


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

    p_clahe: float = 0.5
    clahe_clip_range: tuple[float, float] = (1.0, 4.0)
    clahe_grid: tuple[int, int] = (8, 8)
    p_crop: float = 0.3
    crop_scale_range: tuple[float, float] = (0.8, 1.0)
    crop_aspect_range: tuple[float, float] = (0.9, 1.1)
    p_affine: float = 0.5
    p_bypass: float = 0.3
    min_box_visibility: float = 0.25

    def __post_init__(self) -> None:
        for name in ("p_clahe", "p_crop", "p_affine", "p_bypass", "min_box_visibility"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a probability, got {value}")

    @classmethod
    def from_json(cls, obj: Any) -> "AugPolicy":
        pairs = ("clahe_clip_range", "crop_scale_range", "crop_aspect_range", "clahe_grid")
        return config_from_json(cls, obj, "policy", **dict.fromkeys(pairs, tuple))


DEFAULT_POLICY = AugPolicy()


def apply_affine_to_box(box: NormBox, params: AffineParams) -> NormBox:
    """Transform a box through the affine map and take the axis-aligned hull.

    The four corners are scaled about the image center, rotated, then
    translated; the output box is the tight axis-aligned hull of the
    transformed corners, clamped to the unit square.
    :class:`EmptyAfterClamp` propagates when nothing remains inside.
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
    hull = NormBox.from_corners(min(xs), min(ys), max(xs), max(ys))
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
    lost every box.
    """
    cw = crop.x2 - crop.x1
    ch = crop.y2 - crop.y1
    out: list[NormBox] = []
    for box in boxes:
        x1, y1, x2, y2 = box.corners()
        ix1, iy1 = max(x1, crop.x1), max(y1, crop.y1)
        ix2, iy2 = min(x2, crop.x2), min(y2, crop.y2)
        if ix2 <= ix1 or iy2 <= iy1:
            continue
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

    width: int
    height: int
    max_level: int
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.int64).reshape(self.height, self.width)
        if self.max_level < 1:
            raise ValueError("max_level must be at least 1")
        if self.values.min() < 0 or self.values.max() > self.max_level:
            raise ValueError("values must lie in [0, max_level]")

    @classmethod
    def from_json(cls, obj: Mapping[str, Any]) -> "IntensityGrid":
        """Decode a grid document; every number in it must be a JSON integer."""
        for key in ("width", "height", "max_level"):
            if type(obj[key]) is not int or obj[key] < 1:
                raise FormatError(0, f"grid {key} must be a positive JSON integer, got {obj[key]!r}")
        values = obj["values"]
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
        return cls(obj["width"], obj["height"], obj["max_level"], flat)

    def to_json(self) -> dict[str, Any]:
        return {
            "width": self.width,
            "height": self.height,
            "max_level": self.max_level,
            "values": self.values.ravel().tolist(),
        }


def _tile_bounds(size: int, tiles: int) -> list[tuple[int, int]]:
    # Integer partition: the first (size % tiles) tiles get one extra pixel.
    base, extra = divmod(size, tiles)
    bounds = []
    start = 0
    for i in range(tiles):
        stop = start + base + (1 if i < extra else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


def _tile_lut(tile: np.ndarray, bins: int, max_level: int, clip_limit: float | None) -> np.ndarray:
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


def _sample_affine(rng: np.random.Generator) -> AffineParams:
    return AffineParams(
        tx=rng.uniform(-0.10, 0.10),
        ty=rng.uniform(-0.10, 0.10),
        sx=rng.uniform(0.90, 1.10),
        sy=rng.uniform(0.90, 1.10),
        theta=rng.uniform(-15.0, 15.0),
    )


def _sample_crop(rng: np.random.Generator, policy: AugPolicy) -> CropParams:
    area = rng.uniform(*policy.crop_scale_range)
    aspect = rng.uniform(*policy.crop_aspect_range)
    cw = min(math.sqrt(area * aspect), 1.0)
    ch = min(math.sqrt(area / aspect), 1.0)
    x1 = rng.uniform(0.0, 1.0 - cw)
    y1 = rng.uniform(0.0, 1.0 - ch)
    return CropParams(x1, y1, x1 + cw, y1 + ch)


def _transform_record(
    record: AnnotationRecord,
    crop: CropParams | None,
    affine: AffineParams | None,
    policy: AugPolicy,
) -> AnnotationRecord | None:
    """Apply spatial transforms to a record's boxes; None means fall back."""

    def transform_group(boxes: tuple[NormBox, ...]) -> tuple[NormBox, ...] | None:
        current = list(boxes)
        if crop is not None and current:
            current, lost = random_resized_crop(current, crop, policy.min_box_visibility)
            if lost:
                return None
        if affine is not None and current:
            moved = []
            for box in current:
                try:
                    moved.append(apply_affine_to_box(box, affine))
                except EmptyAfterClamp:
                    return None
            current = moved
        return tuple(current)

    if record.findings:
        new_findings = []
        for finding in record.findings:
            if not finding.boxes:
                new_findings.append(finding)
                continue
            boxes = transform_group(finding.boxes)
            if boxes is None or not boxes:
                return None
            new_findings.append(Finding(finding.text, boxes))
        return replace(record, findings=tuple(new_findings))

    if record.boxes:
        boxes = transform_group(record.boxes)
        if boxes is None or not boxes:
            return None
        return replace(record, boxes=boxes)

    return record


def augment_instance(
    instance: InstructionInstance,
    policy: AugPolicy = DEFAULT_POLICY,
    seed: int = 0,
) -> InstructionInstance:
    """Draw one augmentation for an instance and regenerate its response.

    Draw order is fixed: bypass, contrast, crop, affine. A bypass draw routes
    the instance through the deterministic evaluation path (no spatial
    change; fixed contrast parameters are recorded). When a transform would
    leave a grounded finding without boxes, the original instance is
    returned unchanged. The response is rebuilt from the transformed record
    by the template renderer.
    """
    rng = np.random.default_rng(seed)
    if rng.random() < policy.p_bypass:
        meta = dict(instance.structured.meta)
        meta["pipeline"] = "eval"
        meta["clahe_clip"] = EVAL_CLAHE_CLIP
        meta["clahe_grid"] = list(EVAL_CLAHE_GRID)
        record = replace(instance.structured, meta=meta)
        return render_instruction(record)

    aug: dict[str, Any] = {"pipeline": "train"}
    if rng.random() < policy.p_clahe:
        aug["clahe_clip"] = float(rng.uniform(*policy.clahe_clip_range))
        aug["clahe_grid"] = list(policy.clahe_grid)
    crop = _sample_crop(rng, policy) if rng.random() < policy.p_crop else None
    affine = _sample_affine(rng) if rng.random() < policy.p_affine else None
    if crop is not None:
        aug["crop"] = [crop.x1, crop.y1, crop.x2, crop.y2]
    if affine is not None:
        aug["affine"] = {
            "tx": affine.tx,
            "ty": affine.ty,
            "sx": affine.sx,
            "sy": affine.sy,
            "theta": affine.theta,
        }

    transformed = _transform_record(instance.structured, crop, affine, policy)
    if transformed is None:
        return instance
    meta = dict(transformed.meta)
    meta.update(aug)
    record = replace(transformed, meta=meta)
    return render_instruction(record)

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from radloop import augment
from radloop.augment import (
    EVAL_CLAHE_CLIP,
    EVAL_CLAHE_GRID,
    AffineParams,
    AugPolicy,
    CropParams,
    IntensityGrid,
    apply_affine_to_box,
    augment_instance,
    clahe,
    instance_seed,
    preprocess_eval,
    random_resized_crop,
    resize_bilinear,
)
from radloop.core import AnnotationRecord, Finding, NormBox, Task, load_json
from radloop.errors import EmptyAfterClamp, FormatError, GridTooFine
from radloop.evalkit import parse_output
from radloop.taskgen import render_instruction


class TestAffine:
    def test_identity(self):
        box = NormBox(0.4, 0.6, 0.2, 0.3)
        out = apply_affine_to_box(box, AffineParams())
        assert out.to_list() == pytest.approx(box.to_list(), abs=1e-12)

    def test_quarter_turn_swaps_sides(self):
        out = apply_affine_to_box(NormBox(0.5, 0.5, 0.4, 0.2), AffineParams(theta=90.0))
        assert out.to_list() == pytest.approx([0.5, 0.5, 0.2, 0.4], abs=1e-9)

    def test_translation(self):
        out = apply_affine_to_box(NormBox(0.5, 0.5, 0.2, 0.2), AffineParams(tx=0.1, ty=-0.05))
        assert out.to_list() == pytest.approx([0.6, 0.45, 0.2, 0.2], abs=1e-12)

    def test_scale_about_center(self):
        out = apply_affine_to_box(NormBox(0.5, 0.5, 0.2, 0.2), AffineParams(sx=1.1, sy=0.9))
        assert out.to_list() == pytest.approx([0.5, 0.5, 0.22, 0.18], abs=1e-12)

    def test_rotation_grows_hull(self):
        # A rotated square's axis-aligned hull is strictly larger.
        out = apply_affine_to_box(NormBox(0.5, 0.5, 0.2, 0.2), AffineParams(theta=45.0))
        assert out.w == pytest.approx(0.2 * np.sqrt(2), abs=1e-9)

    def test_pushed_outside_raises(self):
        with pytest.raises(EmptyAfterClamp):
            apply_affine_to_box(NormBox(0.05, 0.05, 0.05, 0.05), AffineParams(tx=-0.5, ty=-0.5))

    def test_clamped_at_border(self):
        out = apply_affine_to_box(NormBox(0.9, 0.5, 0.2, 0.2), AffineParams(tx=0.1))
        x1, _, x2, _ = out.corners()
        assert x2 == 1.0 and x1 == pytest.approx(0.9)

    def test_in_policy_range(self):
        assert AffineParams(tx=0.1, sx=1.1, theta=-15.0).in_policy_range()
        assert not AffineParams(theta=90.0).in_policy_range()


class TestCrop:
    def test_full_window_identity(self):
        boxes = [NormBox(0.5, 0.5, 0.2, 0.2)]
        out, fallback = random_resized_crop(boxes, CropParams(0.0, 0.0, 1.0, 1.0))
        assert not fallback
        assert out[0].to_list() == pytest.approx(boxes[0].to_list(), abs=1e-12)

    def test_rescaling_into_window(self):
        # Crop the left half: a centered box maps to the right edge, doubled in x.
        out, fallback = random_resized_crop(
            [NormBox(0.25, 0.5, 0.2, 0.2)], CropParams(0.0, 0.0, 0.5, 1.0)
        )
        assert not fallback
        assert out[0].to_list() == pytest.approx([0.5, 0.5, 0.4, 0.2], abs=1e-12)

    def test_low_visibility_dropped(self):
        # Only 25% of the box area survives the window; threshold 0.5 drops it.
        out, fallback = random_resized_crop(
            [NormBox(0.5, 0.5, 0.2, 0.2)],
            CropParams(0.0, 0.0, 0.5, 0.5),
            min_box_visibility=0.5,
        )
        assert fallback and out == []

    def test_empty_input_no_fallback(self):
        out, fallback = random_resized_crop([], CropParams(0.0, 0.0, 0.5, 0.5))
        assert out == [] and not fallback

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError):
            CropParams(0.5, 0.0, 0.4, 1.0)


class TestPolicy:
    def test_defaults(self):
        policy = AugPolicy()
        assert policy.p_bypass == 0.3
        assert policy.p_clahe == 0.5
        assert policy.clahe_clip_range == (1.0, 4.0)
        assert policy.p_crop == 0.3
        assert policy.crop_scale_range == (0.8, 1.0)
        assert policy.crop_aspect_range == (0.9, 1.1)
        assert policy.p_affine == 0.5
        assert policy.min_box_visibility == 0.25

    def test_from_json_round_trip(self):
        policy = AugPolicy.from_json({"p_bypass": 0.0, "crop_scale_range": [0.9, 1.0]})
        assert policy.p_bypass == 0.0
        assert policy.crop_scale_range == (0.9, 1.0)

    def test_bad_probability(self):
        with pytest.raises(ValueError):
            AugPolicy(p_crop=1.5)


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(["width", "height", "max_level", "values"]), children),
    max_leaves=12,
)


def _clahe_reference(grid, clip_limit, tiles):
    """The whole-image blend, all temporaries at once: the banded one must match it."""
    gx, gy = tiles
    bins = grid.max_level + 1
    col_bounds = augment._tile_bounds(grid.width, gx)
    row_bounds = augment._tile_bounds(grid.height, gy)
    luts = np.empty((gy, gx, bins))
    for r, (y0, y1) in enumerate(row_bounds):
        for c, (x0, x1) in enumerate(col_bounds):
            luts[r, c] = augment._tile_lut(grid.values[y0:y1, x0:x1], bins, grid.max_level, clip_limit)

    def axis(size, bounds):
        centers = np.array([(a + b) / 2 for a, b in bounds])
        coords = np.arange(size, dtype=np.float64)
        lo = np.clip(np.searchsorted(centers, coords, side="right") - 1, 0, len(centers) - 1)
        hi = np.minimum(lo + 1, len(centers) - 1)
        span = centers[hi] - centers[lo]
        frac = np.where(span > 0, (coords - centers[lo]) / np.where(span > 0, span, 1.0), 0.0)
        return lo, hi, np.clip(frac, 0.0, 1.0)

    c0, c1, ux = axis(grid.width, col_bounds)
    r0, r1, uy = axis(grid.height, row_bounds)
    v = grid.values
    tl = luts[r0[:, None], c0[None, :], v]
    tr = luts[r0[:, None], c1[None, :], v]
    bl = luts[r1[:, None], c0[None, :], v]
    br = luts[r1[:, None], c1[None, :], v]
    top = tl + ux[None, :] * (tr - tl)
    bottom = bl + ux[None, :] * (br - bl)
    blended = top + uy[:, None] * (bottom - top)
    return np.clip(np.rint(blended), 0, grid.max_level).astype(np.int64)


def _resize_reference(grid, width, height):
    """Bilinear resize on a float64 copy of the values."""
    src = grid.values.astype(np.float64)
    xs = np.linspace(0, grid.width - 1, width)
    ys = np.linspace(0, grid.height - 1, height)
    x0 = np.floor(xs).astype(np.int64)
    y0 = np.floor(ys).astype(np.int64)
    x1 = np.minimum(x0 + 1, grid.width - 1)
    y1 = np.minimum(y0 + 1, grid.height - 1)
    wx = (xs - x0)[None, :]
    wy = (ys - y0)[:, None]
    tl, tr = src[y0[:, None], x0[None, :]], src[y0[:, None], x1[None, :]]
    bl, br = src[y1[:, None], x0[None, :]], src[y1[:, None], x1[None, :]]
    top = tl + wx * (tr - tl)
    bottom = bl + wx * (br - bl)
    return np.clip(np.rint(top + wy * (bottom - top)), 0, grid.max_level).astype(np.int64)


def _smooth_grid(width, height, max_level, seed):
    rng = np.random.default_rng(seed)
    y, x = np.mgrid[0:height, 0:width] / max(width, height)
    base = 0.5 + 0.3 * np.sin(6 * x) * np.cos(4 * y) + rng.normal(0.0, 0.05, size=(height, width))
    values = np.clip(np.rint(base * max_level), 0, max_level).astype(np.int64)
    return IntensityGrid(width, height, max_level, values)


class TestIntensityGrid:
    def test_json_round_trip(self):
        grid = IntensityGrid(3, 2, 255, np.arange(6).reshape(2, 3))
        back = IntensityGrid.from_json(grid.to_json())
        assert back.width == 3 and back.height == 2
        assert (back.values == grid.values).all()

    def test_range_check(self):
        with pytest.raises(ValueError):
            IntensityGrid(2, 2, 255, np.array([[0, 1], [2, 300]]))

    @pytest.mark.parametrize("value", [1.5, -0.5, 1.0, "3", True, False, 1e300, 2**70, None, [1]])
    def test_decoder_takes_only_json_integers(self, value):
        doc = {"width": 2, "height": 2, "max_level": 255, "values": [0, 5, value, 7]}
        with pytest.raises(FormatError, match="grid values must be JSON integers"):
            IntensityGrid.from_json(doc)

    @pytest.mark.parametrize("key,value", [("width", 2.0), ("height", "2"), ("max_level", True),
                                           ("width", 0), ("max_level", -1)])
    def test_decoder_takes_only_positive_integer_sizes(self, key, value):
        doc = {"width": 2, "height": 2, "max_level": 255, "values": [0, 5, 6, 7], key: value}
        with pytest.raises(FormatError, match=f"grid {key} must be a positive JSON integer"):
            IntensityGrid.from_json(doc)

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(values=st.lists(_json_values, max_size=12), max_level=st.sampled_from([1, 3, 255]))
    def test_decoder_accepts_exactly_integers_in_range(self, tmp_path, values, max_level):
        path = tmp_path / "grid.json"
        doc = {"width": 1, "height": len(values) or 1, "max_level": max_level, "values": values}
        path.write_text(json.dumps(doc), encoding="utf-8")
        valid = bool(values) and all(type(v) is int and 0 <= v <= max_level for v in values)
        try:
            grid = load_json(path, IntensityGrid.from_json)
        except FormatError:
            assert not valid
            return
        assert valid and grid.values.ravel().tolist() == values

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(doc=_json_values)
    def test_any_document_is_a_grid_or_a_format_error(self, tmp_path, doc):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        try:
            assert isinstance(load_json(path, IntensityGrid.from_json), IntensityGrid)
        except FormatError:
            pass


class TestClahe:
    def test_constant_image_invariant_exactly(self):
        for level in (0, 1, 77, 255):
            grid = IntensityGrid(16, 16, 255, np.full((16, 16), level))
            out = clahe(grid, clip_limit=3.0, tiles=(2, 2))
            assert (out.values == level).all()

    def test_eval_defaults(self):
        assert EVAL_CLAHE_CLIP == 3.0
        assert EVAL_CLAHE_GRID == (8, 8)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        values = rng.integers(0, 256, size=(32, 32))
        grid = IntensityGrid(32, 32, 255, values)
        a = clahe(grid, 2.5, (4, 4))
        b = clahe(IntensityGrid(32, 32, 255, values.copy()), 2.5, (4, 4))
        assert (a.values == b.values).all()

    def test_unclipped_equals_equalization_at_tile_centers(self):
        # With clipping off, a pixel at a tile center takes exactly its own
        # tile's equalization LUT: round(max * cdf(v)).
        rng = np.random.default_rng(5)
        values = rng.integers(0, 16, size=(16, 16))
        values[0, 0] = 0
        values[8, 8] = 15  # keep both tiles non-constant
        grid = IntensityGrid(16, 16, 15, values)
        out = clahe(grid, clip_limit=None, tiles=(2, 2))
        for ty in range(2):
            for tx in range(2):
                tile = values[ty * 8 : (ty + 1) * 8, tx * 8 : (tx + 1) * 8]
                hist = np.bincount(tile.ravel(), minlength=16)
                cdf = np.cumsum(hist) / tile.size
                cy, cx = ty * 8 + 4, tx * 8 + 4
                expected = np.rint(15 * cdf[values[cy, cx]])
                assert out.values[cy, cx] == expected

    def test_clipping_reduces_contrast_stretch(self):
        # A concentrated histogram gets a steep cdf; clipping flattens it.
        values = np.zeros((16, 16), dtype=np.int64)
        values[:8] = 3
        values[8:] = 4
        values[0, 0] = 0
        values[15, 15] = 15
        grid = IntensityGrid(16, 16, 15, values)
        hard = clahe(grid, clip_limit=None, tiles=(1, 1))
        soft = clahe(grid, clip_limit=2.0, tiles=(1, 1))
        assert int(np.ptp(soft.values)) <= int(np.ptp(hard.values))

    def test_grid_too_fine(self):
        grid = IntensityGrid(4, 4, 255, np.zeros((4, 4)))
        with pytest.raises(GridTooFine):
            clahe(grid, 3.0, (8, 8))

    def test_bad_clip(self):
        grid = IntensityGrid(16, 16, 255, np.zeros((16, 16)))
        with pytest.raises(ValueError):
            clahe(grid, clip_limit=0.0, tiles=(2, 2))

    def test_output_range(self):
        rng = np.random.default_rng(9)
        grid = IntensityGrid(24, 24, 255, rng.integers(0, 256, size=(24, 24)))
        out = clahe(grid, 3.0, (3, 3))
        assert out.values.min() >= 0 and out.values.max() <= 255

    @pytest.mark.parametrize("band_pixels", [1, 37, 4096, 1 << 16])
    def test_banded_blend_equals_whole_image_blend(self, band_pixels, monkeypatch):
        # Bands of one row, bands that split tiles and a last short band.
        monkeypatch.setattr(augment, "_BLEND_BAND_PIXELS", band_pixels)
        rng = np.random.default_rng(band_pixels)
        for width, height, max_level, tiles, clip in [
            (37, 23, 15, (3, 5), 2.0), (64, 64, 255, (8, 8), 3.0), (50, 9, 4095, (7, 2), None),
            (8, 8, 1, (8, 8), float("inf")), (100, 61, 255, (1, 1), 1.5),
        ]:
            values = rng.integers(0, max_level + 1, size=(height, width))
            for grid in (IntensityGrid(width, height, max_level, values),
                         _smooth_grid(width, height, max_level, band_pixels)):
                expected = _clahe_reference(grid, clip, tiles)
                assert np.array_equal(clahe(grid, clip, tiles).values, expected)

    def test_peak_memory_below_three_inputs(self):
        grid = _smooth_grid(1024, 1024, 4095, 1)
        clahe(grid)
        tracemalloc.start()
        try:
            clahe(grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * grid.values.nbytes


class TestResize:
    def test_equals_float_copy_reference(self):
        for width, height, max_level in [(37, 23, 15), (64, 64, 4095), (5, 300, 1)]:
            grid = _smooth_grid(width, height, max_level, width)
            for size in [(1, 1), (448, 448), (width, height), (13, 700)]:
                assert np.array_equal(resize_bilinear(grid, *size).values, _resize_reference(grid, *size))

    def test_constant_invariant(self):
        grid = IntensityGrid(16, 16, 255, np.full((16, 16), 42))
        out = resize_bilinear(grid, 448, 448)
        assert out.width == out.height == 448
        assert (out.values == 42).all()

    def test_identity_size(self):
        rng = np.random.default_rng(1)
        values = rng.integers(0, 256, size=(8, 8))
        grid = IntensityGrid(8, 8, 255, values)
        out = resize_bilinear(grid, 8, 8)
        assert (out.values == values).all()

    def test_preprocess_eval_shape(self):
        rng = np.random.default_rng(2)
        grid = IntensityGrid(64, 64, 255, rng.integers(0, 256, size=(64, 64)))
        out = preprocess_eval(grid)
        assert (out.width, out.height) == (448, 448)


class TestInstanceSeed:
    def test_deterministic(self):
        assert instance_seed(7, "img-1", 3) == instance_seed(7, "img-1", 3)

    def test_distinct_inputs_differ(self):
        seeds = {
            instance_seed(7, "img-1", 3),
            instance_seed(7, "img-1", 4),
            instance_seed(7, "img-2", 3),
            instance_seed(8, "img-1", 3),
        }
        assert len(seeds) == 4


def _pg_instance():
    rec = AnnotationRecord(
        image_id="i",
        source_id="s",
        task=Task.PG,
        category="opacity",
        text="Focal opacity",
        boxes=(NormBox(0.5, 0.5, 0.3, 0.3),),
    )
    return render_instruction(rec)


class TestAugmentInstance:
    def test_deterministic_per_seed(self):
        inst = _pg_instance()
        a = augment_instance(inst, seed=123)
        b = augment_instance(inst, seed=123)
        assert a == b

    def test_bypass_records_eval_parameters(self):
        inst = _pg_instance()
        policy = AugPolicy(p_bypass=1.0)
        out = augment_instance(inst, policy, seed=0)
        assert out.structured.meta["pipeline"] == "eval"
        assert out.structured.meta["clahe_clip"] == 3.0
        assert out.structured.meta["clahe_grid"] == [8, 8]
        assert out.structured.boxes == inst.structured.boxes

    def test_response_regenerated_not_edited(self):
        inst = _pg_instance()
        policy = AugPolicy(p_bypass=0.0, p_clahe=0.0, p_crop=0.0, p_affine=1.0)
        for seed in range(40):
            out = augment_instance(inst, policy, seed=seed)
            if out is inst:
                continue
            reparsed = parse_output(out.response, Task.PG)
            assert len(reparsed.boxes) == len(out.structured.boxes)
            for got, want in zip(reparsed.boxes, out.structured.boxes):
                for a, b in zip(got.to_list(), want.to_list()):
                    assert abs(a - b) <= 0.005

    def test_affine_parameters_within_policy(self):
        inst = _pg_instance()
        policy = AugPolicy(p_bypass=0.0, p_clahe=0.0, p_crop=0.0, p_affine=1.0)
        for seed in range(40):
            out = augment_instance(inst, policy, seed=seed)
            aff = out.structured.meta.get("affine")
            if aff is None:
                continue
            assert AffineParams(**aff).in_policy_range()

    def test_fallback_returns_original(self):
        # A tiny corner box with an aggressive crop policy falls back often.
        rec = AnnotationRecord(
            image_id="i",
            source_id="s",
            task=Task.PG,
            category="c",
            text="tiny corner marker",
            boxes=(NormBox(0.02, 0.02, 0.02, 0.02),),
        )
        inst = render_instruction(rec)
        policy = AugPolicy(
            p_bypass=0.0, p_clahe=0.0, p_crop=1.0, p_affine=0.0,
            crop_scale_range=(0.5, 0.6), min_box_visibility=1.0,
        )
        fallbacks = sum(augment_instance(inst, policy, seed=s) is inst for s in range(60))
        assert fallbacks > 0

    def test_grg_findings_transformed_together(self):
        rec = AnnotationRecord(
            image_id="g",
            source_id="s",
            task=Task.GRG,
            category="report",
            findings=(
                Finding("left effusion", (NormBox(0.3, 0.7, 0.2, 0.2),)),
                Finding("no pneumothorax", ()),
            ),
        )
        inst = render_instruction(rec)
        policy = AugPolicy(p_bypass=0.0, p_clahe=0.0, p_crop=0.0, p_affine=1.0)
        out = augment_instance(inst, policy, seed=11)
        assert len(out.structured.findings) == 2
        assert out.structured.findings[1].boxes == ()
        reparsed = parse_output(out.response, Task.GRG)
        assert [f.text for f in reparsed.findings] == ["left effusion", "no pneumothorax"]

    def test_clahe_draw_recorded_in_range(self):
        inst = _pg_instance()
        policy = AugPolicy(p_bypass=0.0, p_clahe=1.0, p_crop=0.0, p_affine=0.0)
        out = augment_instance(inst, policy, seed=5)
        clip = out.structured.meta["clahe_clip"]
        assert 1.0 <= clip <= 4.0
        assert out.structured.meta["pipeline"] == "train"

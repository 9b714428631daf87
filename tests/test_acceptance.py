"""Acceptance gate: one test per release criterion, each printing a PASS line.

Every expected value is either computed by an independent reference, from
`reference.py` or inside the test, or verified by hand; tolerances are pinned
here and nowhere else.
"""

import json
import math
import time

import numpy as np
import pytest

import reference as ref
from nightbev.bev import DepthContext, bev_pool, refine_bev
from nightbev.cli import main as cli_main
from nightbev.core import (
    PixelCoord,
    Tensor3,
    bilinear_sample,
    bilinear_sample_grad,
    finite_diff_check,
)
from nightbev.geometry import BevSpec, illumination_field, project_point
from nightbev.guided_sampling import build_guidance, modulate_offsets
from nightbev.illumination import illumination_factor, retinex_enhance
from nightbev.losses import total_loss, weighted_ce, weighted_ce_grad
from nightbev.metrics import OccupancyGrid, miou
from nightbev.selective import FactorPopulation, otsu_threshold, selective_enhance


def ok(criterion: int, message: str) -> None:
    print(f"[AC-{criterion:02d}] PASS {message}")


# --------------------------------------------------------------------------
# 1. Threshold selection against an exhaustive independent scan
# --------------------------------------------------------------------------


def test_c01_threshold_matches_exhaustive_scan():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    for trial in range(200):
        n = int(rng.integers(8000, 10001)) if trial < 5 else int(rng.integers(20, 1501))
        modes = int(rng.integers(1, 4))
        chunks = []
        for _ in range(modes):
            center = rng.uniform(0.05, 0.95)
            spread = rng.uniform(0.01, 0.08)
            chunks.append(rng.normal(center, spread, size=n // modes + 1))
        factors = ref.dyadic(np.clip(np.concatenate(chunks)[:n], 0.001, 1.0))

        report = otsu_threshold(FactorPopulation(factors, bins=256))
        assert report.sigma_b2 == ref.otsu_scan(factors, 256).max()
        assert ref.otsu_sigma(factors, report.t_star) == report.sigma_b2
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"threshold criterion took {elapsed:.2f}s"
    ok(1, f"200 populations, exact sigma match with exhaustive scan in {elapsed:.2f}s")


# --------------------------------------------------------------------------
# 2. Selective branch with inclusive boundary
# --------------------------------------------------------------------------


def test_c02_selective_branch_boundary_inclusive():
    x = Tensor3.full(3, 4, 4, 0.2)

    dark = Tensor3.full(1, 4, 4, 0.3)
    out, flag = selective_enhance(x, dark, 0.4)
    assert flag and out.data.tobytes() == retinex_enhance(x, dark).data.tobytes()

    boundary = Tensor3.full(1, 4, 4, 0.4)
    assert illumination_factor(boundary) == 0.4  # 16 equal values: exact mean
    out, flag = selective_enhance(x, boundary, 0.4)
    assert flag, "boundary factor == threshold must still enhance"

    bright = Tensor3.full(1, 4, 4, 0.5)
    out, flag = selective_enhance(x, bright, 0.4)
    assert not flag
    assert out.data.tobytes() == x.data.tobytes()
    ok(2, "enhancement fires iff factor <= threshold; pass-through is bit-identical")


# --------------------------------------------------------------------------
# 3. Retinex round trip
# --------------------------------------------------------------------------


def test_c03_retinex_round_trip():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(50):
        x = Tensor3(rng.uniform(0.0, 1.0, size=(3, 8, 10)))
        ceiling = x.data.max(axis=0)
        i = Tensor3(np.clip(ceiling + rng.uniform(0.0, 1.0 - ceiling), 0.01, 1.0)[None])
        recovered = retinex_enhance(x, i).data * i.data
        worst = max(worst, float(np.abs(recovered - x.data).max()))
    assert worst < 1e-6
    ok(3, f"50 enhance-then-multiply round trips, max abs error {worst:.2e}")


# --------------------------------------------------------------------------
# 4. Offset modulation law and guidance extremes
# --------------------------------------------------------------------------


def test_c04_offset_modulation_law():
    rng = np.random.default_rng(104)
    for _ in range(20):
        i_prime = Tensor3(rng.uniform(0.02, 1.0, size=(1, 6, 8)))
        _, g = build_guidance(i_prime, 6, 8)
        dp = Tensor3(rng.normal(scale=2.0, size=(8, 6, 8)))
        dp_mod = modulate_offsets(dp, g)
        assert np.array_equal(np.abs(dp_mod.data), g.data * np.abs(dp.data))
        assert g.data.flat[i_prime.data.argmax()] == 0.0
        assert g.data.flat[i_prime.data.argmin()] == 1.0

    _, g = build_guidance(Tensor3.full(1, 4, 4, 0.37), 4, 4)
    assert np.array_equal(g.data, np.zeros((1, 4, 4)))
    ok(4, "componentwise |offset| scaling exact; guidance extremes 0/1; constant map 0")


# --------------------------------------------------------------------------
# 5. Gradient checks, double precision
# --------------------------------------------------------------------------


def test_c05_gradient_checks():
    rng = np.random.default_rng(105)

    worst_bilinear = 0.0
    feature = Tensor3(rng.normal(size=(2, 6, 8)))
    proj = rng.normal(size=2)
    for _ in range(100):
        u = rng.integers(0, feature.width - 1) + rng.uniform(0.1, 0.9)
        v = rng.integers(0, feature.height - 1) + rng.uniform(0.1, 0.9)
        _, du, dv = bilinear_sample_grad(feature, PixelCoord(u, v))
        analytic = np.array([proj @ du, proj @ dv])

        def scalar(p):
            return float(proj @ bilinear_sample(feature, PixelCoord(p[0], p[1])))

        err = finite_diff_check(scalar, np.array([u, v]), 1e-5, analytic)
        worst_bilinear = max(worst_bilinear, err)
    assert worst_bilinear < 1e-3

    worst_ce = 0.0
    for _ in range(100):
        logits = rng.normal(size=(5, 4))
        labels = rng.integers(0, 4, size=5)
        weights = rng.uniform(0.5, 3.0, size=4)
        _, grad = weighted_ce_grad(logits, labels, weights)

        def ce(flat):
            return weighted_ce(flat.reshape(5, 4), labels, weights)

        err = finite_diff_check(ce, logits.ravel(), 1e-5, grad.ravel())
        worst_ce = max(worst_ce, err)
    assert worst_ce < 1e-4
    ok(5, f"offset grads {worst_bilinear:.1e} < 1e-3; CE grads {worst_ce:.1e} < 1e-4")


# --------------------------------------------------------------------------
# 6. Projection identity
# --------------------------------------------------------------------------


def test_c06_projection_identity():
    rng = np.random.default_rng(106)
    checked = 0
    behind = 0
    worst = 0.0
    while checked < 100:
        cam = ref.random_camera(rng)
        pt = rng.uniform(-5.0, 5.0, size=3)
        proj = project_point(cam, *pt)
        expected = cam.matrix @ np.append(pt, 1.0)
        if expected[2] <= 1e-6:
            assert not proj.valid
            behind += 1
            continue
        assert proj.valid
        residual = proj.depth * np.array([proj.u, proj.v, 1.0]) - expected
        worst = max(worst, float(np.abs(residual).max()))
        checked += 1
    assert worst < 1e-9
    assert behind > 0, "sampler never produced a behind-camera point"
    ok(6, f"100 reprojections, max residual {worst:.1e}; {behind} invalid points flagged")


# --------------------------------------------------------------------------
# 7. Illumination field contracts
# --------------------------------------------------------------------------


def test_c07_illumination_field():
    rng = np.random.default_rng(107)
    covered_any = False
    for _ in range(20):
        cam = ref.random_camera(rng)
        spec = BevSpec(x_range=(-2, 2), y_range=(-2, 2), z_range=(0, 2), voxel=0.5)

        c = float(rng.uniform(0.05, 1.0))
        const_field = illumination_field(Tensor3.full(1, 6, 8, c), cam, spec, n_z=5)
        covered = const_field != 0.0
        covered_any |= bool(covered.any())
        np.testing.assert_allclose(const_field[covered], c, rtol=1e-12)

        base = rng.uniform(0.01, 0.8, size=(1, 6, 8))
        bumped = np.clip(base + rng.uniform(0.0, 0.2, size=base.shape), 0.01, 1.0)
        f1 = illumination_field(Tensor3(base), cam, spec, n_z=5)
        f2 = illumination_field(Tensor3(bumped), cam, spec, n_z=5)
        assert f1.min() >= 0.0 and f1.max() <= 1.0
        assert f2.min() >= 0.0 and f2.max() <= 1.0
        assert (f2 >= f1 - 1e-12).all()
    assert covered_any, "no random scene ever covered a cell"
    ok(7, "constant maps recovered on covered cells; range and monotonicity hold")


# --------------------------------------------------------------------------
# 8. BEV pooling conservation
# --------------------------------------------------------------------------


def test_c08_bev_pool_conservation():
    rng = np.random.default_rng(108)
    cam = ref.identity_camera()
    spec = BevSpec(x_range=(-3, 3), y_range=(-3, 3), z_range=(0, 3), voxel=1.0)

    logits = rng.normal(size=(4, 3, 4))
    depth = Tensor3(np.exp(logits) / np.exp(logits).sum(axis=0, keepdims=True))
    ones = Tensor3(np.ones((1, 3, 4)))
    centers = np.array([0.6, 1.7, 2.9, 4.1])
    dc = DepthContext(f_ctx=ones, depth=depth, bin_centers=centers)
    mass_grid = bev_pool(dc, cam, spec).data[0]
    recount = ref.bev_pool(dc, cam, spec)[0]  # plain loops, same (b, v, u) order
    assert np.array_equal(mass_grid, recount), "scattered mass differs from recount"
    assert mass_grid.sum() == recount.sum()
    assert mass_grid.sum() > 0

    # Single pixel, single bin: identity camera maps pixel (0,0) at depth 1.5
    # to world (0.75, 0.75, 1.5), i.e. cell (0, 0) of a unit grid at origin.
    f_ctx = Tensor3(np.array([2.0, -3.0]).reshape(2, 1, 1))
    one_dc = DepthContext(
        f_ctx=f_ctx, depth=Tensor3(np.ones((1, 1, 1))), bin_centers=np.array([1.5])
    )
    spot = bev_pool(
        one_dc, cam, BevSpec(x_range=(0, 4), y_range=(0, 4), z_range=(0, 4), voxel=1.0)
    )
    np.testing.assert_array_equal(spot.data[:, 0, 0], [2.0, -3.0])
    assert np.abs(spot.data).sum() == 5.0  # nothing anywhere else
    ok(8, "scatter equals independent recount exactly; hand-placed cell correct")


# --------------------------------------------------------------------------
# 9. Refinement contracts
# --------------------------------------------------------------------------


def test_c09_refinement_contracts():
    rng = np.random.default_rng(109)
    q = Tensor3(rng.normal(size=(3, 5, 5)))
    q_res = rng.normal(size=(3, 5, 5))

    passthrough = refine_bev(q, Tensor3(q_res), np.zeros((5, 5)))
    assert passthrough.data.tobytes() == q.data.tobytes()

    s1 = rng.uniform(0.0, 0.5, size=(5, 5))
    s2 = s1 + rng.uniform(0.0, 0.5, size=(5, 5))
    r1 = np.abs(refine_bev(q, Tensor3(q_res), s1).data - q.data)
    r2 = np.abs(refine_bev(q, Tensor3(q_res), s2).data - q.data)
    assert (r2 >= r1 - 1e-12).all()

    base = refine_bev(q, Tensor3(q_res), s1).data - q.data
    for beta in (0.5, 2.0, 3.7):
        scaled = refine_bev(q, Tensor3(beta * q_res), s1).data - q.data
        np.testing.assert_allclose(scaled, beta * base, atol=1e-9)
    ok(9, "zero field is bitwise passthrough; residual monotone in field; affine")


# --------------------------------------------------------------------------
# 10. mIoU against brute-force counting
# --------------------------------------------------------------------------


def test_c10_miou_oracle():
    rng = np.random.default_rng(110)
    names = tuple(f"c{i}" for i in range(5))
    for _ in range(100):
        a = rng.integers(0, 5, size=(16, 16, 8))
        b = rng.integers(0, 5, size=(16, 16, 8))
        report = miou(OccupancyGrid(a, names), OccupancyGrid(b, names))
        inter, union, expected = ref.miou(a, b, 5)
        assert list(report.intersections) == inter
        assert list(report.unions) == union
        assert report.miou == expected

    gt = OccupancyGrid(np.array([0, 0, 1, 1]).reshape(1, 1, 4), ("free", "a"))
    pred = OccupancyGrid(np.array([0, 1, 1, 1]).reshape(1, 1, 4), ("free", "a"))
    assert miou(pred, gt).miou == pytest.approx(7 / 12, abs=1e-15)
    ok(10, "100 random grids match the triple-loop counter exactly; hand case 7/12")


# --------------------------------------------------------------------------
# 11. Loss defaults
# --------------------------------------------------------------------------


def test_c11_loss_defaults():
    assert total_loss(1.0, 0.0, 0.0) == 10.0
    uniform = weighted_ce(np.zeros((1, 2)), [0], [1.0, 1.0])
    assert abs(uniform - math.log(2.0)) < 1e-9
    ok(11, "total_loss(1,0,0)=10 with defaults; uniform-logit CE = ln 2")


# --------------------------------------------------------------------------
# 12. End-to-end smoke with bit-identical re-run
# --------------------------------------------------------------------------


def test_c12_end_to_end_smoke(tmp_path):
    scene_cfg = {
        "seed": 12,
        "height": 64,
        "width": 96,
        "random_boxes": 4,
        "lights": [{"u": 48, "v": 30, "intensity": 4.0, "radius": 12.0}],
        "ambient": 0.05,
    }
    cfg_path = tmp_path / "scene.json"
    cfg_path.write_text(json.dumps(scene_cfg))
    pc_path = tmp_path / "pipeline.json"
    pc_path.write_text(json.dumps({"seed": 0, "t_star": {"fixed": 0.45}}))

    scene_out = tmp_path / "scene"
    assert cli_main(["gen-scene", "--config", str(cfg_path), "--out", str(scene_out)]) == 0

    start = time.perf_counter()
    code = cli_main(
        [
            "pipeline",
            "--config",
            str(pc_path),
            "--scene",
            str(scene_out),
            "--out",
            str(tmp_path / "run1"),
            "--dump-intermediates",
        ]
    )
    elapsed = time.perf_counter() - start
    assert code == 0
    assert elapsed < 10.0, f"pipeline took {elapsed:.1f}s"

    report = json.loads((tmp_path / "run1" / "report.json").read_text())
    assert report["grid_dims"] == [20, 20, 8]
    for name in report["manifest"]:
        assert (tmp_path / "run1" / name).is_file(), f"manifest entry missing: {name}"

    code = cli_main(
        [
            "pipeline",
            "--config",
            str(pc_path),
            "--scene",
            str(scene_out),
            "--out",
            str(tmp_path / "run2"),
            "--dump-intermediates",
        ]
    )
    assert code == 0
    report2 = json.loads((tmp_path / "run2" / "report.json").read_text())
    assert report2["manifest"] == report["manifest"]
    for name in report["manifest"]:
        assert (tmp_path / "run1" / name).read_bytes() == (
            tmp_path / "run2" / name
        ).read_bytes(), f"artifact differs across reruns: {name}"
    ok(12, f"pipeline ran in {elapsed:.2f}s; manifest valid; re-run bit-identical")

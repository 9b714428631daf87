"""The references composed as `run_pipeline` composes the stages, compared byte
for byte with its artifacts; and the import rule that keeps the references
independent of the code they check."""

import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest

import reference as ref
from nightbev.bev import DepthContext, depth_bin_centers
from nightbev.core import Tensor3
from nightbev.geometry import BevSpec, CameraMatrix
from nightbev.guided_sampling import _sigmoid_open, build_guidance, modulate_offsets
from nightbev.illumination import estimate_illumination
from nightbev.losses import class_weights_from_labels
from nightbev.pipeline import PipelineConfig, build_params, run_pipeline
from nightbev.scene import Light, SceneConfig, gen_scene
from nightbev.selective import selective_enhance

# What reference.py may import from nightbev: value types and constants.
VALUE_TYPES = {
    "AttentionParams", "BevSpec", "CameraMatrix", "ConvParams", "DEPTH_EPS",
    "DepthContext", "OccupancyGrid", "PixelCoord", "Tensor3",
}


def test_references_import_only_value_types_from_nightbev():
    tree = ast.parse(Path(ref.__file__).read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):  # a module gives access to every function in it
            imported += [a.name for a in node.names if a.name.split(".")[0] == "nightbev"]
        elif isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("nightbev")):
            imported += [a.name for a in node.names if node.level or a.name not in VALUE_TYPES]
    assert imported == []


def reference_run(pc, bundle):
    """Every stage as `run_pipeline` wires it, from the references where a stage has
    one and from the library where it has none. Returns each dumped tensor by file
    name, the weighted CE, the mIoU and the branch taken."""
    spec, classes = bundle.bev, bundle.classes
    params = build_params(pc, len(classes), spec.nz)
    bev_camera = bundle.camera  # the camera bev_pool and residual_query get
    field_camera = bundle.camera  # the camera illumination_field gets

    illum = estimate_illumination(bundle.image, pc.estimator)
    enhanced, flag = selective_enhance(bundle.image, illum, pc.t_star.fixed)
    f_img = Tensor3(ref.conv2d_pool2(Tensor3(ref.conv2d_pool2(enhanced, params.enc1)), params.enc2))
    i_prime, guidance = build_guidance(illum, f_img.height, f_img.width, pc.estimator.floor)
    raw = ref.conv2d(i_prime, params.igs_conv.kernel, params.igs_conv.bias)
    k = pc.igs_k
    dp_mod = modulate_offsets(Tensor3(raw[: 2 * k]), guidance)
    dw = Tensor3(_sigmoid_open(raw[2 * k :]))
    f_warped = Tensor3(ref.guided_warp(f_img, dp_mod, dw, params.igs_point_weights))
    split = ref.conv2d(f_warped, params.depth_conv.kernel, params.depth_conv.bias)
    centers = depth_bin_centers(pc.depth_min, pc.depth_max, pc.depth_bins)
    c = pc.depth_c_ctx
    dc = DepthContext(Tensor3(split[:c]), Tensor3(ref.softmax(split[c:], axis=0)), centers)
    q = ref.bev_pool(dc, bev_camera, spec)
    q_res, _ = ref.residual_query(Tensor3(q), dc.f_ctx, bev_camera, spec, pc.n_z, params.attn)
    s_field = ref.illumination_field(illum, field_camera, spec, pc.n_z)
    f_bev = np.where(s_field != 0.0, q + q_res * s_field, q)

    logits = np.einsum("oc,cxy->oxy", params.head_weights, f_bev) + params.head_bias[:, None, None]
    zgrid = logits.reshape(spec.nz, len(classes), spec.nx, spec.ny)
    labels = zgrid.argmax(axis=1)  # (Z, X, Y)
    gt = bundle.occupancy.labels
    weights = class_weights_from_labels(bundle.occupancy, len(classes))
    ce = ref.weighted_ce(zgrid.transpose(2, 3, 0, 1), gt, weights)
    _, _, miou = ref.miou(labels.transpose(1, 2, 0), gt, len(classes))
    tensors = {
        "illumination": illum.data, "f_img": f_img.data, "i_prime": i_prime.data,
        "guidance": guidance.data, "offsets_mod": dp_mod.data, "f_warped": f_warped.data,
        "f_ctx": dc.f_ctx.data, "depth": dc.depth.data, "q": q, "q_res": q_res,
        "s_field": s_field[None], "f_bev": f_bev, "occupancy_pred": labels, "logits": logits,
    }
    return tensors, ce, miou, flag


# 5 x 5 x 2 cells of 1.6 m over the desk scene's extent.
COARSE = BevSpec(x_range=(0.0, 8.0), y_range=(-4.0, 4.0), z_range=(-1.0, 2.2), voxel=1.6)


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("lit", [False, True], ids=["dark", "lit"])
@pytest.mark.parametrize("scale", [1.0, 0.25])
def test_composed_references_equal_run_pipeline(tmp_path, seed, lit, scale):
    """Scale 0.25 shrinks the camera's first two rows, so that the residual query
    reaches at least 20 of its 25 cells; the scene camera reaches at most one."""
    light = Light(12.0, 8.0, 4.0, 200.0) if lit else Light(6.0, 10.0, 0.3, 4.0)
    cfg = SceneConfig(seed=seed, height=16, width=24, bev=COARSE, random_boxes=3, lights=(light,))
    bundle = gen_scene(cfg)
    m = bundle.camera.matrix * np.array([[scale], [scale], [1.0]])
    bundle = dataclasses.replace(bundle, camera=CameraMatrix(m))
    pc = PipelineConfig(seed=seed)
    report = run_pipeline(pc, bundle, tmp_path, dump_intermediates=True)
    tensors, ce, miou, flag = reference_run(pc, bundle)
    for name, want in tensors.items():
        _, payload = (tmp_path / f"{name}.rt").read_bytes().split(b"\n", 1)
        assert payload == want.astype("<f4").tobytes(), name
    assert np.float64(report.ce).tobytes() == np.float64(ce).tobytes()
    assert (report.iou.miou, report.enhanced) == (miou, flag)
    assert flag != lit
    assert scale == 1.0 or (tensors["q_res"] != 0.0).any(axis=0).sum() >= 20

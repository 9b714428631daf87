"""End-to-end pipeline behavior, configuration plumbing, and batch evaluation."""

import json
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, reject, settings
from hypothesis import strategies as st

import nightbev.bev
import nightbev.core
import nightbev.formats
import nightbev.guided_sampling
import nightbev.illumination
import nightbev.pipeline
import reference as ref
from nightbev.core import Tensor3, read_raw_tensor, write_raw_tensor
from nightbev.formats import write_pgm
from nightbev.geometry import BevSpec
from nightbev.illumination import EstimatorConfig
from nightbev.losses import class_weights_from_labels, weighted_ce
from nightbev.metrics import OccupancyGrid
from nightbev.pipeline import (
    ParamSource,
    PipelineConfig,
    StageError,
    _class_argmax,
    build_params,
    encode_image,
    eval_batch,
    head_stage,
    resolve_t_star,
    run_pipeline,
)
from nightbev.scene import Box, Light, SceneConfig, gen_scene, load_scene, save_scene


def scene_dir(tmp_path, name="scene", **kwargs):
    defaults = dict(
        seed=5,
        random_boxes=3,
        lights=(Light(48.0, 30.0, 3.0, 12.0),),
        ambient=0.06,
    )
    defaults.update(kwargs)
    bundle = gen_scene(SceneConfig(**defaults))
    save_scene(bundle, tmp_path / name)
    return tmp_path / name


class TestPipelineConfig:
    def test_defaults(self):
        pc = PipelineConfig()
        assert pc.encoder_channels == (8, 8)
        assert pc.igs_k == 9
        assert pc.t_star.fixed == 0.45

    def test_from_json(self, tmp_path):
        cfg = {
            "seed": 7,
            "estimator": {"stages": 2, "blur_kernel": 5},
            "t_star": {"fixed": 0.5},
            "encoder": {"channels": [4, 6]},
            "igs": {"k_points": 1},
            "depth": {"c_ctx": 6, "bins": 8, "d_min": 0.5, "d_max": 10.0},
            "attention": {"k_points": 2},
            "n_z": 4,
            "loss": {"alpha": 1.0},
        }
        path = tmp_path / "pc.json"
        path.write_text(json.dumps(cfg))
        pc = PipelineConfig.from_json_file(path)
        assert pc.seed == 7
        assert pc.encoder_channels == (4, 6)
        assert pc.depth_bins == 8
        assert pc.loss.alpha == 1.0

    def test_missing_parameter_file_rejected(self, tmp_path):
        cfg = {"igs": {"source": {"files": {"kernel": "nope.rt"}}}}
        path = tmp_path / "pc.json"
        path.write_text(json.dumps(cfg))
        with pytest.raises(ValueError, match="missing"):
            PipelineConfig.from_json_file(path)

    def test_bad_t_star_rejected(self, tmp_path):
        path = tmp_path / "pc.json"
        path.write_text(json.dumps({"t_star": {"fixed": 1.5}}))
        with pytest.raises(ValueError, match="t_star"):
            PipelineConfig.from_json_file(path)

    def test_t_star_population_resolution(self, tmp_path):
        maps = tmp_path / "maps"
        maps.mkdir()
        for idx, value in enumerate((0.1, 0.12, 0.82, 0.85)):
            write_raw_tensor(Tensor3.full(1, 4, 4, value), maps / f"m{idx}.rt", dtype="f32")
        pc = PipelineConfig.from_dict(
            {"t_star": {"population_dir": str(maps), "bins": 64}}, base_dir=tmp_path
        )
        t = resolve_t_star(pc)
        assert 0.12 < t < 0.82


class TestRunPipeline:
    def test_dark_scene_takes_enhancement_branch(self, tmp_path):
        bundle = load_scene(scene_dir(tmp_path, ambient=0.02, lights=()))
        report = run_pipeline(PipelineConfig(), bundle, tmp_path / "out")
        assert report.enhanced
        assert report.lam <= report.t_star

    def test_bright_scene_passes_through_bitwise(self, tmp_path):
        # Inject the bright ground-truth map so the factor sits above t*.
        sdir = scene_dir(tmp_path, ambient=0.9, lights=())
        pc = PipelineConfig(illumination_file=sdir / "illumination_gt.rt")
        report = run_pipeline(pc, load_scene(sdir), tmp_path / "out")
        assert not report.enhanced
        assert report.lam > report.t_star
        assert (tmp_path / "out" / "enhanced.ppm").read_bytes() == (
            sdir / "image.ppm"
        ).read_bytes()

    def test_grid_dims_match_spec(self, tmp_path):
        bundle = load_scene(scene_dir(tmp_path))
        report = run_pipeline(PipelineConfig(), bundle, tmp_path / "out")
        assert report.grid_dims == (bundle.bev.nx, bundle.bev.ny, bundle.bev.nz)
        pred = read_raw_tensor(tmp_path / "out" / "occupancy_pred.rt")
        assert pred.shape == (bundle.bev.nz, bundle.bev.nx, bundle.bev.ny)

    def test_rerun_is_bit_identical(self, tmp_path):
        bundle = load_scene(scene_dir(tmp_path))
        pc = PipelineConfig(seed=3)
        r1 = run_pipeline(pc, bundle, tmp_path / "a", dump_intermediates=True)
        r2 = run_pipeline(pc, bundle, tmp_path / "b", dump_intermediates=True)
        assert r1.manifest == r2.manifest
        for name in r1.manifest:
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes(), name

    def test_different_seed_changes_outputs(self, tmp_path):
        bundle = load_scene(scene_dir(tmp_path))
        r1 = run_pipeline(PipelineConfig(seed=1), bundle, tmp_path / "a")
        r2 = run_pipeline(PipelineConfig(seed=2), bundle, tmp_path / "b")
        assert (tmp_path / "a" / "occupancy_pred.rt").read_bytes() != (
            tmp_path / "b" / "occupancy_pred.rt"
        ).read_bytes() or r1.ce != r2.ce

    def test_disable_idp_passes_query_through(self, tmp_path):
        bundle = load_scene(scene_dir(tmp_path))
        pc = PipelineConfig(disable_idp=True)
        run_pipeline(pc, bundle, tmp_path / "out", dump_intermediates=True)
        q = (tmp_path / "out" / "q.rt").read_bytes()
        f_bev = (tmp_path / "out" / "f_bev.rt").read_bytes()
        assert q.split(b"\n", 1)[1] == f_bev.split(b"\n", 1)[1]
        s = read_raw_tensor(tmp_path / "out" / "s_field.rt")
        np.testing.assert_array_equal(s.data, 0.0)

    def test_manifest_files_exist_and_round_trip(self, tmp_path):
        from nightbev.formats import read_pgm, read_ppm, write_ppm

        bundle = load_scene(scene_dir(tmp_path))
        report = run_pipeline(
            PipelineConfig(), bundle, tmp_path / "out", dump_intermediates=True
        )
        for name in report.manifest:
            path = tmp_path / "out" / name
            assert path.is_file(), name
            again = tmp_path / f"again_{name.replace('/', '_')}"
            if name.endswith(".rt"):
                write_raw_tensor(read_raw_tensor(path), again, dtype="f32")
            elif name.endswith(".pgm"):
                write_pgm(read_pgm(path), again)
            elif name.endswith(".ppm"):
                write_ppm(read_ppm(path), again)
            else:
                continue  # csv is not a tensor format
            assert again.read_bytes() == path.read_bytes(), name
        assert report.manifest == [
            "enhanced.ppm",
            "illumination.rt",
            "illumination.pgm",
            "f_img.rt",
            "i_prime.rt",
            "guidance.rt",
            "guidance.pgm",
            "offsets_mod.rt",
            "offset_mag.pgm",
            "f_warped.rt",
            "f_ctx.rt",
            "depth.rt",
            "q.rt",
            "q_res.rt",
            "s_field.rt",
            "s_field.pgm",
            "f_bev.rt",
            "occupancy_pred.rt",
            "logits.rt",
            "metrics.csv",
        ]

    def test_writes_go_through_rebindable_codecs(self, tmp_path, monkeypatch):
        # A timing harness wraps the codecs by rebinding module attributes; the
        # writer must look them up per call or those wrappers see no write.
        bundle = load_scene(scene_dir(tmp_path))
        calls = {"write_raw_tensor": 0, "write_pgm": 0}
        for name in calls:
            real = getattr(nightbev.formats, name)

            def counting(*args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(nightbev.formats, name, counting)
        run_pipeline(PipelineConfig(), bundle, tmp_path / "out", dump_intermediates=True)
        assert calls == {"write_raw_tensor": 14, "write_pgm": 4}

    def test_report_json_written(self, tmp_path):
        bundle = load_scene(scene_dir(tmp_path))
        report = run_pipeline(PipelineConfig(), bundle, tmp_path / "out")
        obj = json.loads((tmp_path / "out" / "report.json").read_text())
        assert obj["enhanced"] == report.enhanced
        assert obj["losses"]["total"] == report.total
        assert set(obj["timings"]) == {
            "enhance",
            "encode",
            "guided_sampling",
            "depth_split",
            "bev_pool",
            "residual_query",
            "illumination_field",
            "refine",
            "head",
            "loss",
            "metrics",
        }
        assert obj["manifest"] == report.manifest

    def test_aux_hooks_feed_total_loss(self, tmp_path):
        bundle = load_scene(scene_dir(tmp_path))
        report = run_pipeline(
            PipelineConfig(),
            bundle,
            tmp_path / "out",
            aux_sem_hook=lambda logits, labels: 1.0,
            aux_geo_hook=lambda logits, labels: 2.0,
        )
        assert report.aux_sem == 1.0
        assert report.aux_geo == 2.0
        assert report.total == pytest.approx(10.0 * report.ce + 0.2 + 0.4)

    def test_aux_hooks_receive_the_voxel_layout(self, tmp_path):
        bundle = load_scene(scene_dir(tmp_path))
        seen = []

        def hook(logits, labels):
            seen.append((logits, labels))
            return 0.5

        report = run_pipeline(PipelineConfig(), bundle, tmp_path / "out", aux_sem_hook=hook)
        (logits, labels), = seen
        spec, n_cla = bundle.bev, len(bundle.classes)
        assert logits.shape == (spec.nx, spec.ny, spec.nz, n_cla)
        assert labels.shape == (spec.nx, spec.ny, spec.nz)
        np.testing.assert_array_equal(labels, bundle.occupancy.labels)
        weights = class_weights_from_labels(bundle.occupancy, n_cla)
        assert weighted_ce(logits, labels, weights) == report.ce
        assert report.ce_per_voxel == report.ce / labels.size
        pred = read_raw_tensor(tmp_path / "out" / "occupancy_pred.rt").data.transpose(1, 2, 0)
        np.testing.assert_array_equal(pred, logits.argmax(axis=-1))

    def test_stage_error_carries_stage_name(self, tmp_path, monkeypatch):
        def broken(*args):
            raise ValueError("broken refine")

        monkeypatch.setattr(nightbev.pipeline, "refine_bev", broken)
        with pytest.raises(StageError, match="stage 'refine' failed: broken refine") as info:
            run_pipeline(PipelineConfig(), load_scene(scene_dir(tmp_path)), tmp_path / "out")
        assert info.value.stage == "refine"
        assert not (tmp_path / "out").exists()

    def test_injected_map_size_checked_before_output(self, tmp_path):
        bad_map = tmp_path / "small.rt"
        write_raw_tensor(Tensor3.full(1, 4, 4, 0.5), bad_map, dtype="f32")
        pc = PipelineConfig(illumination_file=bad_map)
        with pytest.raises(ValueError, match="illumination_file is 4x4, image is 64x96"):
            run_pipeline(pc, load_scene(scene_dir(tmp_path)), tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_loadable_parameter_files(self, tmp_path):
        # A full file-backed parameter set must reproduce the seeded run
        # that generated it.
        from nightbev.pipeline import build_params

        sdir = scene_dir(tmp_path)
        bundle = load_scene(sdir)
        pc = PipelineConfig(seed=11)
        params = build_params(pc, len(bundle.classes), bundle.bev.nz)

        pdir = tmp_path / "params"
        pdir.mkdir()

        def dump_conv(cp, stem):
            k = cp.kernel
            write_raw_tensor(
                Tensor3(k.reshape(k.shape[0], k.shape[1] * k.shape[2], k.shape[3])),
                pdir / f"{stem}_kernel.rt",
                dtype="f64",
            )
            write_raw_tensor(
                Tensor3(cp.bias.reshape(-1, 1, 1)), pdir / f"{stem}_bias.rt", dtype="f64"
            )

        dump_conv(params.enc1, "enc1")
        dump_conv(params.enc2, "enc2")
        dump_conv(params.igs_conv, "igs")
        dump_conv(params.depth_conv, "depth")
        write_raw_tensor(
            Tensor3(params.igs_point_weights.reshape(1, 1, -1)),
            pdir / "points.rt",
            dtype="f64",
        )
        write_raw_tensor(
            Tensor3(params.attn.offset_weights[None]), pdir / "attn_off.rt", dtype="f64"
        )
        write_raw_tensor(
            Tensor3(params.attn.attn_weights[None]), pdir / "attn_w.rt", dtype="f64"
        )
        write_raw_tensor(
            Tensor3(params.head_weights[None]), pdir / "head_w.rt", dtype="f64"
        )
        write_raw_tensor(
            Tensor3(params.head_bias.reshape(-1, 1, 1)), pdir / "head_b.rt", dtype="f64"
        )

        cfg = {
            "seed": 11,
            "encoder": {
                "channels": [8, 8],
                "source": {
                    "files": {
                        "conv1_kernel": "params/enc1_kernel.rt",
                        "conv1_bias": "params/enc1_bias.rt",
                        "conv2_kernel": "params/enc2_kernel.rt",
                        "conv2_bias": "params/enc2_bias.rt",
                    }
                },
            },
            "igs": {
                "k_points": 9,
                "source": {
                    "files": {
                        "kernel": "params/igs_kernel.rt",
                        "bias": "params/igs_bias.rt",
                        "point_weights": "params/points.rt",
                    }
                },
            },
            "depth": {
                "source": {
                    "files": {
                        "kernel": "params/depth_kernel.rt",
                        "bias": "params/depth_bias.rt",
                    }
                }
            },
            "attention": {
                "k_points": 4,
                "source": {
                    "files": {
                        "offset_weights": "params/attn_off.rt",
                        "attn_weights": "params/attn_w.rt",
                    }
                },
            },
            "head": {
                "source": {
                    "files": {"weights": "params/head_w.rt", "bias": "params/head_b.rt"}
                }
            },
        }
        cfg_path = tmp_path / "pc.json"
        cfg_path.write_text(json.dumps(cfg))
        pc_files = PipelineConfig.from_json_file(cfg_path)

        r_seeded = run_pipeline(pc, bundle, tmp_path / "seeded")
        r_files = run_pipeline(pc_files, bundle, tmp_path / "files")
        assert r_files.ce == r_seeded.ce
        assert (tmp_path / "seeded" / "occupancy_pred.rt").read_bytes() == (
            tmp_path / "files" / "occupancy_pred.rt"
        ).read_bytes()


def class_argmax(zgrid):
    """`_class_argmax` into labels of the dtype `head_stage` gives it."""
    out = np.empty(zgrid[:, 0].shape, np.min_scalar_type(zgrid.shape[1] - 1))
    assert _class_argmax(zgrid, out=out) is out
    return out


def wide_scene_config() -> SceneConfig:
    """bev_wide's shape: a dark 128 x 192 image on a 200 x 200 x 16 grid."""
    bev = BevSpec(x_range=(0.0, 40.0), y_range=(-20.0, 20.0), z_range=(-1.0, 2.2), voxel=0.2)
    return SceneConfig(
        seed=5, height=128, width=192, bev=bev, random_boxes=12,
        lights=(Light(60.0, 64.0, 1.0, 20.0),), ambient=0.04,
    )


class TestWideRunMemory:
    def test_dump_run_holds_each_output_once(self, tmp_path, peak_bytes):
        # bev_wide's shape: a 128 x 192 image on a 200 x 200 x 16 grid. With every
        # intermediate dumped, the 64 x 200 x 200 logits (19.5 MiB) and each stage
        # output exist once; a second copy of the logits alone would pass the bound.
        bundle = gen_scene(wide_scene_config())
        peak = peak_bytes(run_pipeline, PipelineConfig(n_z=16), bundle, tmp_path / "out", True)
        assert peak < 50 << 20

    def test_run_without_dump_peaks_below_15_mib(self, tmp_path, peak_bytes):
        # The same shape without the dump: no logits are kept, q and q_res are
        # dropped after refine, and the column stages run in blocks of cell rows.
        bundle = gen_scene(wide_scene_config())
        assert peak_bytes(run_pipeline, PipelineConfig(n_z=16), bundle, tmp_path / "out") < 15 << 20


class TestHiresRunMemory:
    def test_dumped_job_holds_the_enhanced_image_as_samples(self, tmp_path, peak_bytes):
        # hires_near's job: load a dark 448 x 800 scene, then run it with every
        # intermediate dumped. After the encoder the enhanced image is kept as its
        # 1 MiB of 8-bit samples, not as 8.2 MiB of float64; the job peaked at
        # 37.2 MiB when it kept the float64 image to the end.
        lights = (Light(200.0, 150.0, 1.2, 50.0), Light(600.0, 300.0, 0.9, 70.0), Light(420.0, 220.0, 1.5, 40.0))
        cfg = SceneConfig(seed=5, height=448, width=800, random_boxes=4, lights=lights, ambient=0.04)
        save_scene(gen_scene(cfg), tmp_path / "scene")

        def job():
            bundle = load_scene(tmp_path / "scene")
            report = run_pipeline(PipelineConfig(), bundle, tmp_path / "out", True)
            assert report.enhanced

        assert peak_bytes(job) < 33 << 20


class TestClassArgmax:
    """The head's per-class label passes against `argmax` over the class axis."""

    @settings(max_examples=150)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dims=st.tuples(st.integers(1, 4), st.integers(1, 140), st.integers(1, 5), st.integers(1, 5)),
        values=st.sampled_from(["normal", "ties", "nan", "special"]),
    )
    @example(seed=0, dims=(2, 3, 4, 4), values="nan")
    @example(seed=1, dims=(1, 300, 2, 2), values="ties")
    def test_equals_argmax(self, seed, dims, values):
        rng = np.random.default_rng(seed)
        if values == "normal":
            zgrid = rng.normal(size=dims)
        else:
            zgrid = rng.integers(-2, 3, size=dims).astype(np.float64)
        if values in ("nan", "special"):
            extra = [np.nan] if values == "nan" else [np.nan, np.inf, -np.inf, 0.0, -0.0]
            mask = rng.random(dims) < 0.2
            zgrid[mask] = rng.choice(extra, size=int(mask.sum()))
        labels = class_argmax(zgrid)
        np.testing.assert_array_equal(labels, zgrid.argmax(axis=1))

    def test_first_maximum_and_first_nan_win(self):
        nan = np.nan
        rows = [[1.0, 3.0, 3.0], [nan, 5.0, nan], [0.0, nan, nan], [-0.0, 0.0, -1.0], [2.0, 2.0, nan]]
        zgrid = np.array(rows).T.reshape(1, 3, 1, 5)
        np.testing.assert_array_equal(class_argmax(zgrid).ravel(), [1, 0, 1, 0, 2])


class TestHeadStage:
    """The head and its CE in blocks of z-levels against one whole-grid einsum,
    argmax and the reference CE."""

    @staticmethod
    def case(grid_z, nx=9, ny=11, classes=("free", "box", "wall")):
        rng = np.random.default_rng(grid_z)
        n_cla, c = len(classes), 8
        weights = rng.normal(size=(grid_z * n_cla, c))
        bias = rng.normal(size=grid_z * n_cla)
        f_bev = Tensor3(rng.normal(size=(c, nx, ny)))
        gt = OccupancyGrid(rng.integers(0, n_cla, size=(nx, ny, grid_z)), classes)
        want = np.einsum("oc,cxy->oxy", weights, f_bev.data)
        want += bias[:, None, None]
        return (f_bev, weights, bias, gt), want

    @pytest.mark.parametrize("grid_z,levels", [(5, 2), (7, 3), (4, 1), (3, 5)])
    def test_bytes_equal_whole_grid(self, monkeypatch, grid_z, levels):
        args, want = self.case(grid_z)
        gt = args[3]
        nx, ny, n_cla = gt.dims[0], gt.dims[1], len(gt.class_names)
        monkeypatch.setattr(nightbev.core, "LEVEL_BLOCK_BYTES", (levels * n_cla * nx * ny + 5) * 8)
        zgrid = want.reshape(grid_z, n_cla, nx, ny)
        weights = class_weights_from_labels(gt, n_cla)
        want_ce = ref.weighted_ce(zgrid.transpose(2, 3, 0, 1), gt.labels, weights)
        for keep_logits in (False, True):
            pred, ce, logits = head_stage(*args, keep_logits)
            np.testing.assert_array_equal(pred.labels, zgrid.argmax(axis=1).transpose(1, 2, 0))
            assert np.float64(ce).tobytes() == np.float64(want_ce).tobytes()
            if keep_logits:
                assert logits.tobytes() == want.tobytes()
            else:
                assert logits is None

    def test_aux_hook_view_equals_whole_grid_logits(self, tmp_path, monkeypatch):
        # Blocks of 3 of the 8 levels, the last one short: the view a hook gets
        # holds the whole-grid einsum's bytes, and the run's CE is weighted_ce over it.
        bundle = load_scene(scene_dir(tmp_path))
        spec, n_cla = bundle.bev, len(bundle.classes)
        monkeypatch.setattr(nightbev.core, "LEVEL_BLOCK_BYTES", 3 * n_cla * spec.nx * spec.ny * 8)
        refined = []

        def keep_refined(*args):
            refined.append(nightbev.bev.refine_bev(*args))
            return refined[-1]

        monkeypatch.setattr(nightbev.pipeline, "refine_bev", keep_refined)
        seen = []
        report = run_pipeline(
            PipelineConfig(), bundle, tmp_path / "out",
            aux_geo_hook=lambda logits, labels: seen.append(logits.copy()) or 0.0,
        )
        params = build_params(PipelineConfig(), n_cla, spec.nz)
        want = np.einsum("oc,cxy->oxy", params.head_weights, refined[0].data)
        want += params.head_bias[:, None, None]
        vox = want.reshape(spec.nz, n_cla, spec.nx, spec.ny).transpose(2, 3, 0, 1)
        assert seen[0].tobytes() == vox.tobytes()
        weights = class_weights_from_labels(bundle.occupancy, n_cla)
        assert weighted_ce(vox, bundle.occupancy.labels, weights) == report.ce

    def test_ground_truth_must_match_the_grid(self):
        (f_bev, weights, bias, gt), _ = self.case(4)
        short = OccupancyGrid(gt.labels[:, :, :3], gt.class_names)
        with pytest.raises(ValueError, match="ground truth of"):
            head_stage(f_bev, weights, bias, short)

    def test_peak_memory_below_the_full_logits(self, peak_bytes):
        # bev_wide's head: 64 x 200 x 200 logits (16 levels of 4 classes), 20.5 MB
        # when held whole, which only a run that reads them allocates.
        rng = np.random.default_rng(3)
        classes, grid_z, nx, ny = ("free", "crate", "pillar", "barrier"), 16, 200, 200
        f_bev = Tensor3(rng.normal(size=(8, nx, ny)))
        weights = rng.normal(size=(grid_z * len(classes), 8))
        bias = rng.normal(size=grid_z * len(classes))
        gt = OccupancyGrid(rng.integers(0, len(classes), size=(nx, ny, grid_z)), classes)
        full = grid_z * len(classes) * nx * ny * 8
        assert peak_bytes(head_stage, f_bev, weights, bias, gt) < full
        assert peak_bytes(head_stage, f_bev, weights, bias, gt, True) > full
        # The CE terms exist once, as one float64 grid, beside block-sized scratch.
        assert peak_bytes(head_stage, f_bev, weights, bias, gt) < 2 * grid_z * nx * ny * 8


def scene_configs():
    """Small random scenes: size, boxes, lights, ambient light and BEV extent."""
    light = st.builds(
        Light,
        u=st.floats(0.0, 64.0),
        v=st.floats(0.0, 48.0),
        intensity=st.floats(0.0, 4.0),
        radius=st.floats(2.0, 40.0),
    )
    bev = st.builds(
        BevSpec,
        x_range=st.just((0.0, 6.4)),
        y_range=st.sampled_from([(-3.2, 3.2), (-1.6, 1.6)]),
        z_range=st.just((-1.0, 2.2)),
        voxel=st.sampled_from([0.4, 0.8]),
    )
    return st.builds(
        SceneConfig,
        seed=st.integers(0, 2**16),
        height=st.sampled_from([16, 32, 48]),
        width=st.sampled_from([32, 48, 64]),
        bev=bev,
        random_boxes=st.integers(0, 4),
        lights=st.lists(light, max_size=2).map(tuple),
        ambient=st.floats(0.02, 1.0),
    )


class TestRerunProperty:
    @settings(max_examples=12, suppress_health_check=[HealthCheck.too_slow])
    @given(cfg=scene_configs(), seed=st.integers(0, 2**16), n_z=st.integers(1, 4))
    def test_reruns_are_bit_identical(self, cfg, seed, n_z):
        pc = PipelineConfig(seed=seed, n_z=n_z)
        try:
            bundle = gen_scene(cfg)
        except ValueError:  # gen_scene refuses a scene whose boxes are all out of view
            reject()
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            save_scene(bundle, root / "scene")
            save_scene(gen_scene(cfg), root / "again")
            for p in (root / "scene").iterdir():
                assert (root / "again" / p.name).read_bytes() == p.read_bytes(), p.name
            runs = [
                run_pipeline(pc, load_scene(root / "scene"), root / out, dump_intermediates=True)
                for out in ("a", "b")
            ]
            assert runs[0].manifest == runs[1].manifest
            for name in runs[0].manifest:
                assert (root / "a" / name).read_bytes() == (root / "b" / name).read_bytes(), name
            a, b = (json.loads((root / out / "report.json").read_text()) for out in ("a", "b"))
            assert {**a, "timings": None} == {**b, "timings": None}


class TestBuildParams:
    def test_load_reshapes_kernel_file(self, tmp_path):
        kernel = np.arange(2 * 3 * 3 * 3, dtype=np.float64).reshape(2, 3, 3, 3)
        files = {
            "conv1_kernel": Tensor3(kernel.reshape(2, 9, 3)),
            "conv1_bias": Tensor3(np.array([1.0, 2.0]).reshape(2, 1, 1)),
            "conv2_kernel": Tensor3.zeros(1, 2 * 3, 3),
            "conv2_bias": Tensor3.zeros(1, 1, 1),
        }
        for name, t in files.items():
            write_raw_tensor(t, tmp_path / f"{name}.rt", dtype="f64")
        source = ParamSource(files={name: tmp_path / f"{name}.rt" for name in files})
        pc = PipelineConfig(encoder_channels=(2, 1), encoder_source=source)
        params = build_params(pc, 2, 1)
        np.testing.assert_array_equal(params.enc1.kernel, kernel)
        np.testing.assert_array_equal(params.enc1.bias, [1.0, 2.0])
        assert params.enc2.kernel.shape == (1, 2, 3, 3)

    @pytest.mark.parametrize("head_files", [False, True])
    def test_every_array_is_read_only(self, tmp_path, head_files):
        source = ParamSource()
        if head_files:  # a loaded block as well as generated ones
            write_raw_tensor(Tensor3.zeros(1, 16, 8), tmp_path / "w.rt")
            write_raw_tensor(Tensor3.zeros(16, 1, 1), tmp_path / "b.rt")
            source = ParamSource(files={"weights": tmp_path / "w.rt", "bias": tmp_path / "b.rt"})
        params = build_params(PipelineConfig(head_source=source), 2, 8)
        arrays = {}
        for name, value in vars(params).items():
            inner = vars(value) if hasattr(value, "__dict__") else {"": value}
            arrays.update({f"{name}.{k}": v for k, v in inner.items()})
        assert len(arrays) == 13
        assert [k for k, a in arrays.items() if a.flags.writeable] == []


class TestEncodeImage:
    def test_peak_memory_below_one_full_resolution_map(self, peak_bytes):
        # The conv output is pooled band by band, so no (8, 448, 800) map is ever held.
        params = build_params(PipelineConfig(), 2, 8)
        assert params.enc1.out_channels == params.enc2.out_channels == 8
        x = Tensor3(np.random.default_rng(0).uniform(size=(3, 448, 800)))
        peak = peak_bytes(encode_image, x, params.enc1, params.enc2)
        assert peak < 8 * 448 * 800 * 8


def hires_stage_calls():
    """Each image-side stage that keeps a map, called on inputs of `hires_near`'s
    shapes (a 3 x 448 x 800 image, an 8 x 112 x 200 feature) with the pipeline's
    generated parameters: {name: (stage, args, outputs of the call)}."""
    rng = np.random.default_rng(71)
    pc = PipelineConfig()
    params = build_params(pc, 2, 8)
    image = Tensor3(rng.uniform(0.0, 0.2, size=(3, 448, 800)))
    illum = Tensor3(rng.uniform(0.01, 1.0, size=(1, 448, 800)))
    i_prime = Tensor3(rng.uniform(0.01, 1.0, size=(1, 112, 200)))
    g = Tensor3(rng.uniform(0.0, 1.0, size=(1, 112, 200)))
    dp = Tensor3(rng.normal(scale=2.0, size=(18, 112, 200)))
    f_img = Tensor3(rng.normal(size=(8, 112, 200)))
    centers = nightbev.bev.depth_bin_centers(pc.depth_min, pc.depth_max, pc.depth_bins)
    gs = nightbev.guided_sampling
    return {
        "retinex_enhance": (nightbev.illumination.retinex_enhance, (image, illum), lambda t: [t]),
        "conv2d_pool2": (gs.conv2d_pool2, (image, params.enc1), lambda t: [t]),
        "generate_offsets": (gs.generate_offsets, (i_prime, params.igs_conv), list),
        "modulate_offsets": (gs.modulate_offsets, (dp, g), lambda t: [t]),
        "depth_context_split": (
            nightbev.bev.depth_context_split,
            (f_img, params.depth_conv, centers),
            lambda dc: [dc.f_ctx, dc.depth],
        ),
    }


class TestImageStagesAtHiresShapes:
    """Every image-side stage computes each output in the array it keeps: no
    stage copies a map it has just made."""

    # Traced peak over the bytes of the outputs, and the extra MiB allowed.
    BOUNDS = {
        "retinex_enhance": (1.25, 0),  # the quotient, clipped in place
        "conv2d_pool2": (1.0, 2),  # band buffers only, no padded copy of the image
        "generate_offsets": (2.0, 0),  # the weights' logits live until the sigmoid is made
        "modulate_offsets": (1.5, 0),
        "depth_context_split": (2.0, 0),  # the depth logits live until the softmax is made
    }

    @pytest.mark.parametrize("name", sorted(BOUNDS))
    def test_peak_memory(self, name, peak_bytes):
        stage, args, outputs = hires_stage_calls()[name]
        kept = sum(t.data.nbytes for t in outputs(stage(*args)))
        scale, extra_mib = self.BOUNDS[name]
        assert peak_bytes(stage, *args) < scale * kept + (extra_mib << 20)

    @pytest.mark.parametrize("name", sorted(BOUNDS))
    def test_outputs_are_taken_over_not_copied(self, name, monkeypatch):
        # Tensor3's constructor copies through core.frozen_array; none may run.
        def no_copy(*args, **kwargs):
            raise AssertionError("a stage output went through Tensor3's copying constructor")

        stage, args, outputs = hires_stage_calls()[name]
        monkeypatch.setattr(nightbev.core, "frozen_array", no_copy)
        for t in outputs(stage(*args)):
            assert t.data.base is None and not t.data.flags.writeable

    def test_offset_magnitude_peaks_below_one_and_a_half_length_maps(self, peak_bytes):
        dp_mod = hires_stage_calls()["modulate_offsets"][1][0]
        lengths_bytes = dp_mod.data.nbytes // 2  # one (K, H, W) map of point lengths
        assert peak_bytes(nightbev.pipeline.offset_magnitude, dp_mod) < 1.5 * lengths_bytes


ONE_CLASS = dict(classes=("free",), random_boxes=0)


class TestEvalBatch:
    def test_single_scene_matches_single_run(self, tmp_path):
        sdir = scene_dir(tmp_path)
        pc = PipelineConfig()
        single = run_pipeline(pc, load_scene(sdir), tmp_path / "single")
        aggregate = eval_batch([sdir], pc, tmp_path / "eval")
        assert aggregate.miou == single.iou.miou
        assert aggregate.per_class == single.iou.per_class

    def test_duplicated_scene_leaves_aggregate_unchanged(self, tmp_path):
        sdir = scene_dir(tmp_path)
        pc = PipelineConfig()
        once = eval_batch([sdir], pc, tmp_path / "once")
        twice = eval_batch([sdir, sdir], pc, tmp_path / "twice")
        assert twice.miou == once.miou
        assert twice.per_class == once.per_class

    def test_disjoint_class_sets_union(self, tmp_path):
        a = scene_dir(
            tmp_path,
            "a",
            random_boxes=0,
            boxes=(Box((3.0, 0.0, 0.2), (1.5, 1.5, 1.5), 1),),
        )
        b = scene_dir(
            tmp_path,
            "b",
            random_boxes=0,
            boxes=(Box((3.0, 0.0, 0.2), (1.5, 1.5, 1.5), 2),),
        )
        aggregate = eval_batch([a, b], PipelineConfig(), tmp_path / "eval")
        assert {0, 1, 2}.issubset(set(aggregate.evaluated_classes))
        assert (tmp_path / "eval" / "aggregate.csv").is_file()
        assert (tmp_path / "eval" / "eval.json").is_file()

    def test_stage_failure_in_first_scene_leaves_nothing(self, tmp_path, monkeypatch):
        def broken(*args):
            raise ValueError("broken refine")

        sdir = scene_dir(tmp_path)
        monkeypatch.setattr(nightbev.pipeline, "refine_bev", broken)
        with pytest.raises(StageError, match="stage 'refine' failed"):
            eval_batch([sdir], PipelineConfig(), tmp_path / "eval")
        assert not (tmp_path / "eval").exists()

    def test_empty_scene_list_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="at least one"):
            eval_batch([], PipelineConfig(), tmp_path / "eval")

    def test_single_class_rejected_before_any_scene(self, tmp_path):
        dirs = [scene_dir(tmp_path, "a", classes=("free",), random_boxes=0)]
        with pytest.raises(ValueError, match="at least 2 classes"):
            eval_batch(dirs, PipelineConfig(), tmp_path / "eval")
        assert not (tmp_path / "eval").exists()

    @pytest.mark.parametrize(
        "first,second,where",
        [
            ({}, dict(classes=("free", "crate", "pillar")), "b: uses a different class table"),
            (ONE_CLASS, ONE_CLASS, "a: pipeline needs at least 2 classes for the prediction head"),
            ({}, dict(height=62), "b: image 62x96: height and width must be divisible by 4"),
        ],
        ids=["class_table", "one_class", "stride"],
    )
    def test_manifest_problem_fails_before_any_scene_runs(
        self, tmp_path, monkeypatch, first, second, where
    ):
        def must_not_run(*args, **kwargs):
            pytest.fail("a scene ran before every manifest was checked")

        dirs = [scene_dir(tmp_path, "a", **first), scene_dir(tmp_path, "b", **second)]
        monkeypatch.setattr(nightbev.pipeline, "run_pipeline", must_not_run)
        with pytest.raises(ValueError) as info:
            eval_batch(dirs, PipelineConfig(), tmp_path / "eval")
        assert str(info.value) == f"scene {tmp_path}/{where}"
        assert not (tmp_path / "eval").exists()

    def test_parameters_built_once_per_scene(self, tmp_path, monkeypatch):
        calls = []
        real = nightbev.pipeline.build_params

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(nightbev.pipeline, "build_params", counting)
        eval_batch(batch_dirs(tmp_path), PipelineConfig(), tmp_path / "eval")
        assert len(calls) == 3

    @pytest.mark.parametrize("error", [ValueError("broken refine"), KeyboardInterrupt()])
    @pytest.mark.parametrize("existed", [False, True])
    def test_failure_in_a_later_scene(self, tmp_path, monkeypatch, error, existed):
        """Removes the output directory if the batch created it, and only then."""
        calls = []
        real = nightbev.pipeline.refine_bev

        def second_fails(*args):
            calls.append(args)
            if len(calls) == 2:
                raise error
            return real(*args)

        out = tmp_path / "eval"
        if existed:
            out.mkdir()
            (out / "keep.txt").write_text("kept")
        dirs = batch_dirs(tmp_path, 2)
        monkeypatch.setattr(nightbev.pipeline, "refine_bev", second_fails)
        with pytest.raises((StageError, KeyboardInterrupt)) as info:
            eval_batch(dirs, PipelineConfig(), out)
        if isinstance(error, ValueError):
            assert str(info.value) == f"scene {dirs[1]}: stage 'refine' failed: broken refine"
            assert info.value.stage == "refine" and info.value.__cause__ is error
        assert len(calls) == 2
        assert out.exists() == existed
        if existed:
            assert (out / "keep.txt").read_text() == "kept"


def population(tmp_path, levels=(0.1, 0.12, 0.3, 0.82, 0.85)):
    """A map directory of flat 64x96 maps, alternating .rt and .pgm files."""
    maps = tmp_path / "maps"
    maps.mkdir()
    for idx, value in enumerate(levels):
        if idx % 2:
            write_pgm(np.full((64, 96), value), maps / f"m{idx}.pgm")
        else:
            write_raw_tensor(Tensor3.full(1, 64, 96, value), maps / f"m{idx}.rt", dtype="f32")
    return PipelineConfig.from_dict({"t_star": {"population_dir": "maps"}}, base_dir=tmp_path)


def batch_dirs(tmp_path, n=3):
    """Dark and bright scenes alternating, so both enhancement branches run."""
    bright = dict(lights=(Light(48.0, 32.0, 4.0, 200.0),), ambient=1.0)
    return [
        scene_dir(tmp_path, f"s{idx}", seed=idx, **(bright if idx % 2 else {}))
        for idx in range(n)
    ]


class TestEvalBatchPopulation:
    def test_population_read_once_per_batch(self, tmp_path, monkeypatch):
        pc = population(tmp_path)
        calls = []
        real = nightbev.pipeline.load_illumination

        def counting(path, *args):
            calls.append(path)
            return real(path, *args)

        monkeypatch.setattr(nightbev.pipeline, "load_illumination", counting)
        eval_batch(batch_dirs(tmp_path), pc, tmp_path / "eval")
        assert sorted(p.name for p in calls) == sorted(p.name for p in (tmp_path / "maps").iterdir())

    def test_scene_outputs_equal_single_runs(self, tmp_path):
        pc = population(tmp_path)
        dirs = batch_dirs(tmp_path)
        eval_batch(dirs, pc, tmp_path / "eval")
        branches = set()
        for idx, sdir in enumerate(dirs):
            report = run_pipeline(pc, load_scene(sdir), tmp_path / f"single{idx}")
            branches.add(report.enhanced)
            batch, single = tmp_path / "eval" / f"scene_{idx:03d}", tmp_path / f"single{idx}"
            names = sorted(p.name for p in single.iterdir())
            assert sorted(p.name for p in batch.iterdir()) == names
            for name in names:
                a, b = (batch / name).read_bytes(), (single / name).read_bytes()
                if name == "report.json":
                    a, b = ({**json.loads(x), "timings": None} for x in (a, b))
                assert a == b, (idx, name)
        assert branches == {True, False}

    def test_population_maps_clamp_at_the_run_floor(self, tmp_path):
        """Every lambda of a run with floor 0.2 is at least 0.2, and so are the population's."""
        pc = population(tmp_path, (0.05, 0.06, 0.5, 0.55))
        pc = replace(pc, estimator=EstimatorConfig(floor=0.2))
        assert resolve_t_star(pc) == 0.349609375  # 0.279296875 at the default floor 0.01

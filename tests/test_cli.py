"""CLI subcommands, flags, and exit codes."""

import json
import subprocess
import sys

import pytest

from nightbev.cli import main
from nightbev.core import Tensor3, write_raw_tensor


@pytest.fixture
def scene_config(tmp_path):
    cfg = {
        "seed": 5,
        "height": 64,
        "width": 96,
        "random_boxes": 3,
        "lights": [{"u": 48, "v": 30, "intensity": 3.0, "radius": 12.0}],
        "ambient": 0.06,
    }
    path = tmp_path / "scene_cfg.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture
def pipeline_config(tmp_path):
    path = tmp_path / "pipeline.json"
    path.write_text(json.dumps({"seed": 0, "t_star": {"fixed": 0.45}}))
    return path


@pytest.fixture
def scene(tmp_path, scene_config):
    out = tmp_path / "scene"
    assert main(["gen-scene", "--config", str(scene_config), "--out", str(out)]) == 0
    return out


class TestGenScene:
    def test_writes_scene_files(self, scene):
        for name in ("scene.json", "image.ppm", "camera.json", "occupancy_gt.rt"):
            assert (scene / name).is_file()

    def test_seed_flag_changes_output(self, tmp_path, scene_config, scene):
        other = tmp_path / "scene2"
        code = main(
            ["gen-scene", "--config", str(scene_config), "--out", str(other), "--seed", "9"]
        )
        assert code == 0
        assert (other / "occupancy_gt.rt").read_bytes() != (
            scene / "occupancy_gt.rt"
        ).read_bytes()

    def test_bad_config_returns_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"ambient": 0.0}))
        assert main(["gen-scene", "--config", str(path), "--out", str(tmp_path / "o")]) == 2

    def test_missing_config_returns_2(self, tmp_path):
        assert (
            main(["gen-scene", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
            == 2
        )


class TestEnhance:
    def test_enhances_dark_image(self, tmp_path, pipeline_config, scene):
        out = tmp_path / "enh"
        code = main(
            [
                "enhance",
                "--config",
                str(pipeline_config),
                "--image",
                str(scene / "image.ppm"),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        report = json.loads((out / "enhance_report.json").read_text())
        assert report["enhanced"] is True
        assert (out / "enhanced.ppm").is_file()
        assert (out / "illumination.pgm").is_file()

    def test_explicit_illumination_map(self, tmp_path, pipeline_config, scene):
        bright = tmp_path / "bright.rt"
        write_raw_tensor(Tensor3.full(1, 64, 96, 0.9), bright, dtype="f32")
        out = tmp_path / "enh2"
        code = main(
            [
                "enhance",
                "--config",
                str(pipeline_config),
                "--image",
                str(scene / "image.ppm"),
                "--illum",
                str(bright),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        report = json.loads((out / "enhance_report.json").read_text())
        assert report["enhanced"] is False
        assert (out / "enhanced.ppm").read_bytes() == (scene / "image.ppm").read_bytes()


class TestThreshold:
    def test_report_fields(self, tmp_path):
        maps = tmp_path / "maps"
        maps.mkdir()
        for idx, value in enumerate((0.1, 0.15, 0.8, 0.85)):
            write_raw_tensor(
                Tensor3.full(1, 4, 4, value), maps / f"m{idx}.rt", dtype="f32"
            )
        out = tmp_path / "thr"
        code = main(["threshold", "--maps", str(maps), "--bins", "64", "--out", str(out)])
        assert code == 0
        report = json.loads((out / "threshold.json").read_text())
        assert report["n_images"] == 4
        assert 0.15 < report["t_star"] < 0.8
        assert sum(report["histogram"]) == 4
        assert len(report["histogram"]) == 64

    def test_empty_directory_returns_2(self, tmp_path):
        maps = tmp_path / "maps"
        maps.mkdir()
        assert main(["threshold", "--maps", str(maps), "--out", str(tmp_path / "o")]) == 2


class TestIgsAndField:
    def test_igs_dumps_artifacts(self, tmp_path, pipeline_config, scene):
        out = tmp_path / "igs"
        code = main(
            ["igs", "--config", str(pipeline_config), "--scene", str(scene), "--out", str(out)]
        )
        assert code == 0
        for name in ("guidance.pgm", "offset_mag.pgm", "f_warped.rt"):
            assert (out / name).is_file()

    def test_illum_field_dumps_artifacts(self, tmp_path, pipeline_config, scene):
        out = tmp_path / "field"
        code = main(
            [
                "illum-field",
                "--config",
                str(pipeline_config),
                "--scene",
                str(scene),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert (out / "s_field.rt").is_file()
        assert (out / "s_field.pgm").is_file()


class TestPipelineCommand:
    def test_full_run_writes_report(self, tmp_path, pipeline_config, scene):
        out = tmp_path / "run"
        code = main(
            [
                "pipeline",
                "--config",
                str(pipeline_config),
                "--scene",
                str(scene),
                "--out",
                str(out),
                "--dump-intermediates",
            ]
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        for name in report["manifest"]:
            assert (out / name).is_file()
        assert report["grid_dims"] == [20, 20, 8]

    def test_stage_failure_returns_1(self, tmp_path, scene):
        small = tmp_path / "small.rt"
        write_raw_tensor(Tensor3.full(1, 4, 4, 0.5), small, dtype="f32")
        cfg = tmp_path / "pc_bad.json"
        cfg.write_text(json.dumps({"illumination_file": str(small)}))
        code = main(
            ["pipeline", "--config", str(cfg), "--scene", str(scene), "--out", str(tmp_path / "o")]
        )
        assert code == 1

    def test_missing_scene_returns_2(self, tmp_path, pipeline_config):
        code = main(
            [
                "pipeline",
                "--config",
                str(pipeline_config),
                "--scene",
                str(tmp_path / "nope"),
                "--out",
                str(tmp_path / "o"),
            ]
        )
        assert code == 2


class TestEvalCommand:
    def test_aggregates_scene_directories(self, tmp_path, pipeline_config, scene_config):
        scenes = tmp_path / "scenes"
        for idx in range(2):
            code = main(
                [
                    "gen-scene",
                    "--config",
                    str(scene_config),
                    "--out",
                    str(scenes / f"s{idx}"),
                    "--seed",
                    str(idx),
                ]
            )
            assert code == 0
        out = tmp_path / "eval"
        code = main(
            ["eval", "--config", str(pipeline_config), "--scenes", str(scenes), "--out", str(out)]
        )
        assert code == 0
        assert (out / "aggregate.csv").is_file()
        summary = json.loads((out / "eval.json").read_text())
        assert len(summary["scenes"]) == 2


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "nightbev.cli", "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        for sub in ("gen-scene", "enhance", "threshold", "igs", "illum-field", "pipeline", "eval"):
            assert sub in proc.stdout


class TestSubcommandsMatchPipeline:
    def test_outputs_equal_pipeline_intermediates(self, tmp_path, pipeline_config, scene):
        full = tmp_path / "full"
        common = ["--config", str(pipeline_config), "--out"]
        dump = ["--scene", str(scene), "--dump-intermediates"]
        assert main(["pipeline", *common, str(full), *dump]) == 0
        runs = {
            "enhance": (
                ["--image", str(scene / "image.ppm")],
                ("enhanced.ppm", "illumination.pgm", "illumination.rt"),
            ),
            "igs": (["--scene", str(scene)], ("guidance.pgm", "offset_mag.pgm", "f_warped.rt")),
            "illum-field": (["--scene", str(scene)], ("s_field.rt", "s_field.pgm")),
        }
        for cmd, (extra, files) in runs.items():
            assert main([cmd, *common, str(tmp_path / cmd), *extra]) == 0
            for name in files:
                assert (tmp_path / cmd / name).read_bytes() == (full / name).read_bytes(), name

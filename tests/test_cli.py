"""CLI subcommands, flags, and exit codes."""

import argparse
import json
import subprocess
import sys

import numpy as np
import pytest

import nightbev.cli
import nightbev.illumination
import nightbev.pipeline
from nightbev.cli import build_parser, main
from nightbev.core import Tensor3, read_raw_tensor, write_raw_tensor
from nightbev.formats import write_pgm
from nightbev.illumination import load_illumination
from nightbev.pipeline import PipelineConfig, build_params
from nightbev.scene import load_scene


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

    def test_illum_field_refuses_wrong_size_map(self, tmp_path, capsys, scene):
        small = tmp_path / "small.rt"
        write_raw_tensor(Tensor3.full(1, 32, 48, 0.5), small, dtype="f32")
        config = tmp_path / "injected.json"
        config.write_text(json.dumps({"illumination_file": str(small)}))
        out = tmp_path / "field"
        code = main(["illum-field", "--config", str(config), "--scene", str(scene), "--out", str(out)])
        assert code == 2
        assert "illumination_file is 32x48, image is 64x96" in capsys.readouterr().err
        assert not out.exists()

    def test_igs_refuses_wrong_size_map(self, tmp_path, capsys, scene):
        small = tmp_path / "small.rt"
        write_raw_tensor(Tensor3.full(1, 32, 48, 0.5), small, dtype="f32")
        config = tmp_path / "injected.json"
        config.write_text(json.dumps({"illumination_file": str(small)}))
        out = tmp_path / "igs"
        code = main(["igs", "--config", str(config), "--scene", str(scene), "--out", str(out)])
        assert code == 2
        assert "illumination_file is 32x48, image is 64x96" in capsys.readouterr().err
        assert not out.exists()

    def test_igs_size_not_divisible_by_4_exits_2(self, tmp_path, capsys, scene_config, pipeline_config):
        cfg = json.loads(scene_config.read_text())
        cfg.update(height=66, width=98)
        scene_config.write_text(json.dumps(cfg))
        scene = tmp_path / "odd"
        assert main(["gen-scene", "--config", str(scene_config), "--out", str(scene)]) == 0
        out = tmp_path / "igs"
        code = main(["igs", "--config", str(pipeline_config), "--scene", str(scene), "--out", str(out)])
        assert code == 2
        assert "image 66x98: height and width must be divisible by 4" in capsys.readouterr().err
        assert not out.exists()


class TestNegativeSeed:
    @pytest.mark.parametrize(
        "command", ["gen-scene", "enhance", "igs", "illum-field", "pipeline", "eval"]
    )
    def test_exits_2_naming_the_seed_before_output(
        self, tmp_path, capsys, scene_config, pipeline_config, scene, command
    ):
        args = {
            "gen-scene": ["--config", str(scene_config)],
            "enhance": ["--config", str(pipeline_config), "--image", str(scene / "image.ppm")],
            "eval": ["--config", str(pipeline_config), "--scenes", str(scene)],
        }.get(command, ["--config", str(pipeline_config), "--scene", str(scene)])
        out = tmp_path / "out"
        assert main([command, *args, "--seed", "-1", "--out", str(out)]) == 2
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()


class TestSeedFlag:
    def test_subcommands_that_take_seed(self):
        parser = build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        takes = {
            name for name, p in sub.choices.items()
            if any("--seed" in a.option_strings for a in p._actions)
        }
        assert takes == {"gen-scene", "enhance", "igs", "illum-field", "pipeline", "eval"}
        assert set(sub.choices) - takes == {"threshold"}

    def test_pipeline_seed_equals_config_seed(self, tmp_path, pipeline_config, scene):
        config7 = tmp_path / "seed7.json"
        config7.write_text(json.dumps({**json.loads(pipeline_config.read_text()), "seed": 7}))
        flag, key = tmp_path / "flag", tmp_path / "key"
        common = ["pipeline", "--scene", str(scene), "--dump-intermediates"]
        assert main([*common, "--config", str(pipeline_config), "--seed", "7", "--out", str(flag)]) == 0
        assert main([*common, "--config", str(config7), "--out", str(key)]) == 0
        names = sorted(p.name for p in flag.iterdir())
        assert names == sorted(p.name for p in key.iterdir())
        for name in names:
            if name == "report.json":  # its stage timings differ from run to run
                reports = [json.loads((d / name).read_text()) for d in (flag, key)]
                for report in reports:
                    del report["timings"]
                assert reports[0] == reports[1]
            else:
                assert (flag / name).read_bytes() == (key / name).read_bytes(), name


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

    def test_stage_failure_returns_1(self, tmp_path, monkeypatch, pipeline_config, scene):
        def broken(*args):
            raise ValueError("broken refine")

        monkeypatch.setattr(nightbev.pipeline, "refine_bev", broken)
        code = main(
            ["pipeline", "--config", str(pipeline_config), "--scene", str(scene), "--out", str(tmp_path / "o")]
        )
        assert code == 1
        assert not (tmp_path / "o").exists()

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


    def test_directory_without_scenes_exits_2_naming_it(self, tmp_path, capsys, pipeline_config):
        empty = tmp_path / "empty"
        (empty / "notes").mkdir(parents=True)  # a subdirectory without scene.json
        out = tmp_path / "eval"
        code = main(["eval", "--config", str(pipeline_config), "--scenes", str(empty), "--out", str(out)])
        assert code == 2
        assert f"error: no scene directory (holding scene.json) in {empty}" in capsys.readouterr().err
        assert not out.exists()


class TestCommentLedPgm:
    """A PGM whose header starts with a comment is read wherever a map is: as
    `--illum`, as `illumination_file` and in a `t_star.population_dir`. Each
    run reports what the same maps without the comment give."""

    @pytest.mark.parametrize("where", ["--illum", "illumination_file", "population_dir"])
    def test_runs_as_the_plain_maps(self, tmp_path, scene, where):
        reports = []
        for lead in (b"", b"# made by hand\n"):
            maps = tmp_path / f"maps{len(lead)}"
            maps.mkdir()
            for k, value in enumerate((0.1, 0.3, 0.7, 0.9)):
                path = maps / f"m{k}.pgm"
                write_pgm(Tensor3.full(1, 64, 96, value), path)
                path.write_bytes(lead + path.read_bytes())
            cfg = tmp_path / "pc.json"
            t_star = {"population_dir": str(maps)} if where == "population_dir" else 0.45
            injected = {"illumination_file": str(maps / "m1.pgm")} if where == "illumination_file" else {}
            cfg.write_text(json.dumps({"t_star": t_star, **injected}))
            out = tmp_path / f"out{len(lead)}"
            if where == "--illum":
                args = ["enhance", "--image", str(scene / "image.ppm"), "--illum", str(maps / "m1.pgm")]
            else:
                args = ["pipeline", "--scene", str(scene)]
            assert main([*args, "--config", str(cfg), "--out", str(out)]) == 0
            report = json.loads(next(out.glob("*report.json")).read_text())
            report.pop("timings", None)
            reports.append(report)
        assert reports[1] == reports[0]
        # The maps set the number: the injected map's mean, or t* between the population's levels.
        key, want = ("t_star", 255 / 512) if where == "population_dir" else ("lambda", 76 / 255)
        assert reports[0][key] == pytest.approx(want)


class TestInternalError:
    def test_key_error_is_a_bug_not_a_validation_error(self, tmp_path, monkeypatch, capsys):
        def broken(maps_dir):
            raise KeyError("x")

        monkeypatch.setattr(nightbev.cli, "population_factors", broken)
        code = main(["threshold", "--maps", str(tmp_path), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "internal error: 'x'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestReadOnce:
    """An injected illumination map is read once per run: once per command, and
    once per scene under `eval`."""

    @pytest.mark.parametrize(
        "command,reads",
        [("pipeline", 1), ("igs", 1), ("illum-field", 1), ("enhance", 1), ("eval", 3)],
    )
    def test_injected_map_reads(self, tmp_path, monkeypatch, scene_config, command, reads):
        scenes = tmp_path / "scenes"
        for idx in range(3 if command == "eval" else 1):
            out = scenes / f"s{idx}"
            assert main(["gen-scene", "--config", str(scene_config), "--out", str(out)]) == 0
        map_path = tmp_path / "map.rt"
        write_raw_tensor(Tensor3.full(1, 64, 96, 0.5), map_path, dtype="f32")
        cfg = tmp_path / "pc.json"
        cfg.write_text(json.dumps({"illumination_file": str(map_path)}))
        calls = []

        def counting(path, *args, **kwargs):
            calls.append(path)
            return load_illumination(path, *args, **kwargs)

        for module in (nightbev.illumination, nightbev.pipeline):
            monkeypatch.setattr(module, "load_illumination", counting)
        where = {
            "eval": ["--scenes", str(scenes)],
            "enhance": ["--image", str(scenes / "s0" / "image.ppm"), "--illum", str(map_path)],
        }.get(command, ["--scene", str(scenes / "s0")])
        assert main([command, "--config", str(cfg), *where, "--out", str(tmp_path / "o")]) == 0
        assert len(calls) == reads


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


def _set(obj, dotted, value):
    *parents, key = dotted.split(".")
    for p in parents:
        obj = obj[p]
    if value is None:
        del obj[key]
    else:
        obj[key] = value


# (file in the scene directory, dotted key, new value or None to delete, text the error names)
SCENE_FILE_PROBES = [
    ("camera.json", "matrix", {"a": 1}, "camera.json: matrix: must be an array of 12"),
    ("camera.json", "matrix", [1.0] * 11, "matrix: must be an array of 12"),
    ("camera.json", "matrix", None, "matrix: missing"),
    ("camera.json", "focal", 2.0, "focal: unknown key"),
    ("scene.json", "classes", "ab", "classes: must be an array"),
    ("scene.json", "files", None, "scene.json: files: missing"),
    ("scene.json", "files.camera", None, "files.camera: missing"),
    ("scene.json", "files.image", "nope.ppm", "files.image: file missing"),
    ("scene.json", "bev.voxell", 0.4, "bev.voxell: unknown key"),
    ("scene.json", "height", 63, "does not match the 64x96 image"),
]


class TestSceneFiles:
    @pytest.mark.parametrize(
        "name,key,value,where", SCENE_FILE_PROBES, ids=[w for *_, w in SCENE_FILE_PROBES]
    )
    def test_bad_scene_file_exits_2_naming_the_key(
        self, tmp_path, capsys, pipeline_config, scene, name, key, value, where
    ):
        obj = json.loads((scene / name).read_text())
        _set(obj, key, value)
        (scene / name).write_text(json.dumps(obj))
        out = tmp_path / "out"
        code = main(["pipeline", "--config", str(pipeline_config), "--scene", str(scene), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert where in err and "internal error" not in err
        assert not out.exists()


class TestDeeplyNestedJson:
    """JSON nested deeper than the parser recurses exits 2 and names the file."""

    @pytest.mark.parametrize(
        "command,name",
        [
            ("pipeline", "pipeline.json"),
            ("gen-scene", "scene_cfg.json"),
            ("pipeline", "scene/scene.json"),
            ("pipeline", "scene/camera.json"),
        ],
        ids=["pipeline_config", "scene_config", "scene_manifest", "camera"],
    )
    def test_exits_2_naming_the_file(
        self, tmp_path, capsys, pipeline_config, scene_config, scene, command, name
    ):
        (tmp_path / name).write_text("[" * 100_000)
        out = tmp_path / "out"
        config = pipeline_config if command == "pipeline" else scene_config
        where = ["--scene", str(scene)] if command == "pipeline" else []
        code = main([command, "--config", str(config), *where, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert f"{tmp_path / name}: " in err and "recursion" in err
        assert "internal error" not in err
        assert not out.exists()


def _relabel(value):
    def edit(data):
        data = data.copy()
        data[0, 0, 0] = value
        return data

    return edit


OCC, ILLUM = "occupancy_gt.rt", "illumination_gt.rt"
# (probe id, grid file, edit of its values, text the error names)
SCENE_GRID_PROBES = [
    ("few-heights", OCC, lambda d: d[:4], f"{OCC}: must be [8, 20, 20], got [4, 20, 20]"),
    ("narrow", OCC, lambda d: d[:, :, :10], "must be [8, 20, 20], got [8, 20, 10]"),
    ("fraction", OCC, _relabel(1.4), f"{OCC}: labels must be integers in [0, 4)"),
    ("negative", OCC, _relabel(-1.0), "labels must be integers in [0, 4)"),
    ("no-such-class", OCC, _relabel(4.0), "labels must be integers in [0, 4)"),
    ("small-map", ILLUM, lambda d: d[:, :4, :4], f"{ILLUM}: must be [1, 64, 96], got [1, 4, 4]"),
    ("three-channels", ILLUM, lambda d: d.repeat(3, axis=0), "must be [1, 64, 96], got [3, 64, 96]"),
]


class TestSceneGrids:
    @pytest.mark.parametrize(
        "name,edit,where", [p[1:] for p in SCENE_GRID_PROBES], ids=[p[0] for p in SCENE_GRID_PROBES]
    )
    def test_bad_grid_exits_2_naming_the_file(
        self, tmp_path, capsys, pipeline_config, scene, name, edit, where
    ):
        path = scene / name
        write_raw_tensor(Tensor3(edit(read_raw_tensor(path).data)), path, dtype="f32")
        out = tmp_path / "out"
        code = main(["pipeline", "--config", str(pipeline_config), "--scene", str(scene), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert where in err and "internal error" not in err
        assert not out.exists()

    def test_unreadable_grid_names_the_file(self, tmp_path, capsys, pipeline_config, scene):
        (scene / "occupancy_gt.rt").write_bytes(b"not a tensor")
        out = tmp_path / "out"
        code = main(["pipeline", "--config", str(pipeline_config), "--scene", str(scene), "--out", str(out)])
        assert code == 2
        assert "occupancy_gt.rt: malformed raw tensor header" in capsys.readouterr().err
        assert not out.exists()


# (probe id, command, file cut one byte short, text the error gives after its path)
CUT_FILE_PROBES = [
    ("pipeline_image", "pipeline", "scene/image.ppm", "truncated P6 payload"),
    ("eval_image", "eval", "scene/image.ppm", "truncated P6 payload"),
    ("enhance_image", "enhance", "scene/image.ppm", "truncated P6 payload"),
    ("enhance_illum", "enhance", "map.rt", "raw tensor payload is 24575 bytes, expected 24576"),
    ("threshold_pgm", "threshold", "maps/m1.pgm", "truncated P5 payload"),
    ("threshold_rt", "threshold", "maps/m2.rt", "raw tensor payload is 63 bytes, expected 64"),
]


class TestCutFiles:
    """An input file cut short exits 2, names the file and writes nothing."""

    @pytest.mark.parametrize(
        "command,name,what", [p[1:] for p in CUT_FILE_PROBES], ids=[p[0] for p in CUT_FILE_PROBES]
    )
    def test_exits_2_naming_the_file(
        self, tmp_path, capsys, pipeline_config, scene, command, name, what
    ):
        write_raw_tensor(Tensor3.full(1, 64, 96, 0.5), tmp_path / "map.rt", dtype="f32")
        maps = tmp_path / "maps"  # a map population
        maps.mkdir()
        write_pgm(Tensor3.full(1, 2, 4, 0.1), maps / "m0.pgm")
        write_pgm(Tensor3.full(1, 2, 4, 0.3), maps / "m1.pgm")
        write_raw_tensor(Tensor3.full(1, 2, 4, 0.5), maps / "m2.rt")
        path = tmp_path / name
        path.write_bytes(path.read_bytes()[:-1])
        args = {
            "pipeline": ["--config", str(pipeline_config), "--scene", str(scene)],
            "eval": ["--config", str(pipeline_config), "--scenes", str(scene)],
            "enhance": ["--config", str(pipeline_config), "--image", str(scene / "image.ppm"),
                        "--illum", str(tmp_path / "map.rt")],
            "threshold": ["--maps", str(tmp_path / "maps")],
        }[command]
        out = tmp_path / "out"
        code = main([command, *args, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert f"{path}: {what}" in err and "internal error" not in err
        assert not out.exists()


class TestEncoderStride:
    def test_size_not_divisible_by_4_exits_2_before_any_output(
        self, tmp_path, capsys, scene_config, pipeline_config
    ):
        cfg = json.loads(scene_config.read_text())
        cfg.update(height=62, width=94, lights=[{"u": 40, "v": 30, "intensity": 3.0, "radius": 12.0}])
        scene_config.write_text(json.dumps(cfg))
        scene = tmp_path / "odd"
        assert main(["gen-scene", "--config", str(scene_config), "--out", str(scene)]) == 0
        out = tmp_path / "out"
        code = main(["pipeline", "--config", str(pipeline_config), "--scene", str(scene), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert "image 62x94: height and width must be divisible by 4" in err
        assert not out.exists()


class TestFailBeforeOutput:
    """Batch and population errors exit 2 and leave no output directory; so does
    a later scene's bad file, and a later scene's stage failure exits 1."""

    def _gen(self, tmp_path, scene_config, name, **changes):
        cfg = json.loads(scene_config.read_text())
        cfg.update(changes)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "scenes" / name
        assert main(["gen-scene", "--config", str(path), "--out", str(out)]) == 0
        return out

    def _config(self, tmp_path, t_star):
        path = tmp_path / "pc.json"
        path.write_text(json.dumps({"seed": 0, "t_star": t_star}))
        return path

    @pytest.mark.parametrize(
        "second,where",
        [
            ({"height": 62, "width": 94}, "image 62x94: height and width must be divisible by 4"),
            ({"classes": ["free", "car", "tree"]}, "uses a different class table"),
        ],
        ids=["mixed_size", "class_table"],
    )
    def test_bad_later_scene(self, tmp_path, capsys, scene_config, second, where):
        self._gen(tmp_path, scene_config, "s0")
        bad = self._gen(tmp_path, scene_config, "s1", **second)
        out = tmp_path / "eval"
        cfg = self._config(tmp_path, 0.45)
        code = main(["eval", "--config", str(cfg), "--scenes", str(tmp_path / "scenes"), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert f"scene {bad}: {where}" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "pipeline"])
    def test_injected_map_of_another_size(self, tmp_path, capsys, scene_config, command):
        self._gen(tmp_path, scene_config, "s0")
        bad = self._gen(tmp_path, scene_config, "s1", height=48, width=64)
        map_path = tmp_path / "map.rt"  # fits s0 only
        write_raw_tensor(Tensor3.full(1, 64, 96, 0.5), map_path, dtype="f32")
        cfg = tmp_path / "pc.json"
        cfg.write_text(json.dumps({"illumination_file": str(map_path)}))
        where = ["--scenes", str(tmp_path / "scenes")] if command == "eval" else ["--scene", str(bad)]
        out = tmp_path / "out"
        code = main([command, "--config", str(cfg), *where, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert "illumination_file is 64x96, image is 48x64" in err
        if command == "eval":
            assert f"scene {bad}: " in err
        assert not out.exists()

    @pytest.mark.parametrize("existed", [False, True])
    def test_singular_camera_in_a_later_scene(self, tmp_path, capsys, scene_config, existed):
        self._gen(tmp_path, scene_config, "s0")
        bad = self._gen(tmp_path, scene_config, "s1")
        (bad / "camera.json").write_text(json.dumps({"matrix": [1.0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1]}))
        out = tmp_path / "eval"
        if existed:  # an --out the call did not create is left as it is
            out.mkdir()
            (out / "keep.txt").write_text("kept")
        cfg = self._config(tmp_path, 0.45)
        code = main(["eval", "--config", str(cfg), "--scenes", str(tmp_path / "scenes"), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert f"scene {bad}: {bad / 'camera.json'}: camera matrix 3x3 block is singular" in err
        assert out.exists() == existed
        if existed:
            assert (out / "keep.txt").read_text() == "kept"

    def test_stage_failure_in_a_later_scene(self, tmp_path, capsys, monkeypatch, scene_config):
        self._gen(tmp_path, scene_config, "s0")
        bad = self._gen(tmp_path, scene_config, "s1")
        calls = []
        real = nightbev.pipeline.refine_bev

        def second_fails(*args):
            calls.append(args)
            if len(calls) == 2:
                raise ValueError("broken refine")
            return real(*args)

        monkeypatch.setattr(nightbev.pipeline, "refine_bev", second_fails)
        out = tmp_path / "eval"
        cfg = self._config(tmp_path, 0.45)
        code = main(["eval", "--config", str(cfg), "--scenes", str(tmp_path / "scenes"), "--out", str(out)])
        assert code == 1
        assert f"scene {bad}: stage 'refine' failed: broken refine" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "pipeline", "enhance", "igs"])
    def test_empty_population(self, tmp_path, capsys, scene_config, command):
        scene = self._gen(tmp_path, scene_config, "s0")
        (tmp_path / "maps").mkdir()
        cfg = self._config(tmp_path, {"population_dir": "maps"})
        where = {
            "eval": ["--scenes", str(tmp_path / "scenes")],
            "enhance": ["--image", str(scene / "image.ppm")],
        }.get(command, ["--scene", str(scene)])
        out = tmp_path / "out"
        code = main([command, "--config", str(cfg), *where, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert "no illumination maps" in err
        assert not out.exists()


# (probe id, command, module, function made to fail, the stage the error names)
STAGE_FAILURE_PROBES = [
    ("pipeline", "pipeline", nightbev.pipeline, "guided_warp", "guided_sampling"),
    ("igs", "igs", nightbev.pipeline, "guided_warp", "guided_sampling"),
    ("enhance", "enhance", nightbev.pipeline, "selective_enhance", "enhance"),
    ("illum_field_estimate", "illum-field", nightbev.pipeline, "estimate_illumination", "enhance"),
    ("illum_field", "illum-field", nightbev.cli, "illumination_field", "illumination_field"),
]


class TestStageFailures:
    """A stage failure exits 1 and names the stage in every command; an input
    error is checked before the first stage and exits 2."""

    def _args(self, command, scene, pipeline_config):
        where = ["--image", str(scene / "image.ppm")] if command == "enhance" else ["--scene", str(scene)]
        return [command, "--config", str(pipeline_config), *where]

    @pytest.mark.parametrize(
        "command,module,name,stage",
        [p[1:] for p in STAGE_FAILURE_PROBES],
        ids=[p[0] for p in STAGE_FAILURE_PROBES],
    )
    def test_stage_failure_exits_1(
        self, tmp_path, capsys, monkeypatch, pipeline_config, scene, command, module, name, stage
    ):
        def broken(*args):
            raise ValueError(f"broken {name}")

        monkeypatch.setattr(module, name, broken)
        out = tmp_path / "out"
        code = main([*self._args(command, scene, pipeline_config), "--out", str(out)])
        assert code == 1
        assert f"error: stage '{stage}' failed: broken {name}" in capsys.readouterr().err
        assert not out.exists()

    def test_illum_map_of_another_size_exits_2(self, tmp_path, capsys, pipeline_config, scene):
        small = tmp_path / "small.rt"
        write_raw_tensor(Tensor3.full(1, 32, 48, 0.5), small, dtype="f32")
        out = tmp_path / "out"
        args = [*self._args("enhance", scene, pipeline_config), "--illum", str(small)]
        assert main([*args, "--out", str(out)]) == 2
        assert "--illum is 32x48, image is 64x96" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "content,what",
        [
            (None, "No such file or directory"),
            (b"not a tensor", "malformed raw tensor header"),
            (b'{"dtype":"f64","shape":[3,1,1]}\n' + bytes(24), "illumination map must have 1 channel"),
        ],
        ids=["missing", "malformed", "three-channels"],
    )
    def test_unreadable_illum_map_exits_2_naming_the_flag(
        self, tmp_path, capsys, pipeline_config, scene, content, what
    ):
        bad = tmp_path / "bad.rt"
        if content is not None:
            bad.write_bytes(content)
        out = tmp_path / "out"
        args = [*self._args("enhance", scene, pipeline_config), "--illum", str(bad)]
        assert main([*args, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error: --illum: " in err and str(bad) in err and what in err
        assert not out.exists()


def _param_files(params):
    """Every tensor of a ResolvedParams in its file layout, by block and name."""

    def conv(cp, prefix=""):
        k = cp.kernel
        return {
            f"{prefix}kernel": k.reshape(k.shape[0], k.shape[1] * k.shape[2], k.shape[3]),
            f"{prefix}bias": cp.bias.reshape(-1, 1, 1),
        }

    return {
        "encoder": {**conv(params.enc1, "conv1_"), **conv(params.enc2, "conv2_")},
        "igs": {**conv(params.igs_conv), "point_weights": params.igs_point_weights.reshape(1, 1, -1)},
        "depth": conv(params.depth_conv),
        "attention": {
            "offset_weights": params.attn.offset_weights[None],
            "attn_weights": params.attn.attn_weights[None],
        },
        "head": {"weights": params.head_weights[None], "bias": params.head_bias.reshape(-1, 1, 1)},
    }


def _write_block(tmp_path, block, arrays):
    """Write one block's files; return the pipeline config that loads them."""
    files = {}
    for name, data in arrays.items():
        files[name] = str(tmp_path / f"{block}_{name}.rt")
        write_raw_tensor(Tensor3(data), files[name], dtype="f64")
    path = tmp_path / "pc_files.json"
    path.write_text(json.dumps({"seed": 0, block: {"source": {"files": files}}}))
    return path


# (probe id, block, file name -> wrong file layout, the file the error names).
# Every other file of the block keeps the layout the default config needs.
PARAM_PROBES = [
    ("igs_kernel", "igs", {"kernel": (24, 3, 3)}, "kernel"),
    ("depth_kernel", "depth", {"kernel": (24, 4, 1)}, "kernel"),
    ("attention_c", "attention", {"offset_weights": (1, 8, 6), "attn_weights": (1, 4, 6)}, "offset_weights"),
    ("attention_k", "attention", {"offset_weights": (1, 6, 8), "attn_weights": (1, 3, 8)}, "offset_weights"),
    ("encoder_conv2_out", "encoder", {"conv2_kernel": (6, 24, 3), "conv2_bias": (6, 1, 1)}, "conv2_kernel"),
    ("point_weights_3x3x1", "igs", {"point_weights": (3, 3, 1)}, "point_weights"),
]


class TestParameterFiles:
    """A parameter file must hold exactly the layout the config and scene need."""

    @pytest.fixture
    def seeded(self, scene):
        bundle = load_scene(scene)
        return _param_files(build_params(PipelineConfig(), len(bundle.classes), bundle.bev.nz))

    @pytest.mark.parametrize(
        "block,wrong,name", [p[1:] for p in PARAM_PROBES], ids=[p[0] for p in PARAM_PROBES]
    )
    def test_wrong_layout_exits_2_before_output(
        self, tmp_path, capsys, scene, seeded, block, wrong, name
    ):
        arrays = {**seeded[block], **{n: np.full(shape, 0.01) for n, shape in wrong.items()}}
        cfg = _write_block(tmp_path, block, arrays)
        out = tmp_path / "out"
        code = main(["pipeline", "--config", str(cfg), "--scene", str(scene), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert f"{block}.source.files.{name}: {tmp_path / f'{block}_{name}.rt'}: must be" in err
        assert not out.exists()

    def test_reader_error_names_the_key(self, tmp_path, capsys, scene, seeded):
        cfg = _write_block(tmp_path, "head", seeded["head"])
        (tmp_path / "head_bias.rt").write_bytes(b"not a tensor")
        out = tmp_path / "out"
        code = main(["pipeline", "--config", str(cfg), "--scene", str(scene), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert "head.source.files.bias: " in err and "malformed raw tensor header" in err
        assert not out.exists()

    def test_head_file_fitting_only_the_first_scene(self, tmp_path, capsys, scene_config, seeded):
        cfg = json.loads(scene_config.read_text())
        scenes = tmp_path / "scenes"
        low = {"x_range": [0.0, 8.0], "y_range": [-4.0, 4.0], "z_range": [-1.0, 1.4], "voxel": 0.4}
        for name, extra in (("s0", {}), ("s1", {"bev": low})):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({**cfg, **extra}))
            assert main(["gen-scene", "--config", str(path), "--out", str(scenes / name)]) == 0
        pc = _write_block(tmp_path, "head", seeded["head"])  # fits n_z 8, not s1's 6
        out = tmp_path / "eval"
        code = main(["eval", "--config", str(pc), "--scenes", str(scenes), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert f"scene {scenes / 's1'}: head.source.files.weights: " in err
        assert "must be [1, 24, 8], got [1, 32, 8]" in err
        assert not out.exists()

"""Command-line entry point.

Exit codes: 0 on success, 2 on validation errors (bad configs, malformed or
missing files), 1 on runtime failures.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .formats import read_ppm, write_artifacts
from .geometry import field_to_tensor, illumination_field
from .pipeline import PipelineConfig, StageError, _Stages, _with_fixed_t_star, build_params
from .pipeline import check_image_size, encode_image, enhance_stage, eval_batch
from .pipeline import igs_stage, illumination_map, injected_map, offset_magnitude
from .pipeline import population_factors, run_pipeline
from .scene import SceneConfig, gen_scene, load_scene, save_scene
from .selective import FactorPopulation, factor_histogram, otsu_threshold


def _config(cls, args):
    """`args.config` parsed as a `cls`, with `--seed` applied if given."""
    cfg = cls.from_json_file(args.config)
    return cfg if args.seed is None else replace(cfg, seed=args.seed)


def _cmd_gen_scene(args) -> int:
    bundle = gen_scene(_config(SceneConfig, args))
    save_scene(bundle, args.out)
    print(f"scene written to {args.out}")
    return 0


def _cmd_enhance(args) -> int:
    pc = _config(PipelineConfig, args)
    image = read_ppm(args.image)
    # A standalone image takes its map from --illum, never from the config.
    injected = injected_map(args.illum, pc.estimator.floor, image, "--illum")
    illum, t_star, lam, enhanced_img, enhanced = _Stages().run(
        "enhance", enhance_stage, _with_fixed_t_star(pc), image, injected
    )
    write_artifacts(args.out, [
        ("enhanced.ppm", enhanced_img),
        ("illumination.pgm", illum),
        ("illumination.rt", illum),
        ("enhance_report.json", {"lambda": lam, "t_star": t_star, "enhanced": enhanced}),
    ])
    print(f"lambda={lam:.6f} t_star={t_star:.6f} enhanced={enhanced}")
    return 0


def _cmd_threshold(args) -> int:
    factors = np.array(population_factors(args.maps))
    pop = FactorPopulation(factors, bins=args.bins)
    report = otsu_threshold(pop)
    summary = {
        "t_star": report.t_star,
        "sigma_b2": report.sigma_b2,
        "n_images": int(factors.size),
        "degenerate": report.degenerate,
        "histogram": [int(c) for c in factor_histogram(factors, args.bins)],
    }
    write_artifacts(args.out, [("threshold.json", summary)])
    print(f"t_star={report.t_star:.6f} sigma_b2={report.sigma_b2:.6g} n={factors.size}")
    return 0


def _cmd_igs(args) -> int:
    pc = _config(PipelineConfig, args)
    bundle = load_scene(args.scene)
    check_image_size(bundle.image.height, bundle.image.width)
    injected = injected_map(pc.illumination_file, pc.estimator.floor, bundle.image)
    params = build_params(pc, len(bundle.classes), bundle.bev.nz)
    pc = _with_fixed_t_star(pc)
    stages = _Stages()
    illum, _, _, enhanced_img, _ = stages.run("enhance", enhance_stage, pc, bundle.image, injected)
    f_img = stages.run("encode", encode_image, enhanced_img, params.enc1, params.enc2)
    _, guidance, dp_mod, warped = stages.run(
        "guided_sampling", igs_stage, pc, params, illum, f_img
    )
    write_artifacts(args.out, [
        ("guidance.pgm", guidance),
        ("offset_mag.pgm", offset_magnitude(dp_mod)),
        ("f_warped.rt", warped),
    ])
    print(f"guided sampling artifacts written to {args.out}")
    return 0


def _cmd_illum_field(args) -> int:
    pc = _config(PipelineConfig, args)
    bundle = load_scene(args.scene)
    injected = injected_map(pc.illumination_file, pc.estimator.floor, bundle.image)
    stages = _Stages()
    illum = stages.run("enhance", illumination_map, pc, bundle.image, injected)
    field = stages.run(
        "illumination_field", illumination_field, illum, bundle.camera, bundle.bev, pc.n_z
    )
    write_artifacts(args.out, [("s_field.rt", field_to_tensor(field)), ("s_field.pgm", field)])
    print(f"illumination field written to {args.out}")
    return 0


def _cmd_pipeline(args) -> int:
    pc = _config(PipelineConfig, args)
    bundle = load_scene(args.scene)
    report = run_pipeline(pc, bundle, args.out, dump_intermediates=args.dump_intermediates)
    print(
        f"enhanced={report.enhanced} lambda={report.lam:.4f} "
        f"total_loss={report.total:.4f} ce_per_voxel={report.ce_per_voxel:.4f} "
        f"miou={report.iou.miou:.4f}"
    )
    return 0


def _cmd_eval(args) -> int:
    pc = _config(PipelineConfig, args)
    scenes_root = Path(args.scenes)
    if not scenes_root.is_dir():
        raise ValueError(f"scene directory missing: {scenes_root}")
    scene_dirs = sorted(
        p for p in scenes_root.iterdir() if p.is_dir() and (p / "scene.json").is_file()
    )
    if (scenes_root / "scene.json").is_file():
        scene_dirs = [scenes_root]
    if not scene_dirs:
        raise ValueError(f"no scene directory (holding scene.json) in {scenes_root}")
    aggregate = eval_batch(scene_dirs, pc, args.out)
    print(f"aggregate miou={aggregate.miou:.4f} over {len(scene_dirs)} scene(s)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nightbev",
        description="Illumination-guided nighttime BEV occupancy pipeline (desk scale)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config=True):
        if config:
            p.add_argument("--config", required=True, help="JSON config file")
            p.add_argument("--seed", type=int, default=None, help="seed override")
        p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("gen-scene", help="generate a synthetic night scene")
    common(p)
    p.set_defaults(fn=_cmd_gen_scene)

    p = sub.add_parser("enhance", help="selective enhancement of one image")
    common(p)
    p.add_argument("--image", required=True, help="input PPM image")
    p.add_argument("--illum", default=None, help="optional illumination map file")
    p.set_defaults(fn=_cmd_enhance)

    p = sub.add_parser("threshold", help="derive the enhancement threshold")
    common(p, config=False)
    p.add_argument("--maps", required=True, help="directory of illumination maps")
    p.add_argument("--bins", type=int, default=256)
    p.set_defaults(fn=_cmd_threshold)

    p = sub.add_parser("igs", help="dump guided-sampling intermediates")
    common(p)
    p.add_argument("--scene", required=True, help="scene directory")
    p.set_defaults(fn=_cmd_igs)

    p = sub.add_parser("illum-field", help="dump the BEV illumination field")
    common(p)
    p.add_argument("--scene", required=True, help="scene directory")
    p.set_defaults(fn=_cmd_illum_field)

    p = sub.add_parser("pipeline", help="run the full pipeline on one scene")
    common(p)
    p.add_argument("--scene", required=True, help="scene directory")
    p.add_argument("--dump-intermediates", action="store_true")
    p.set_defaults(fn=_cmd_pipeline)

    p = sub.add_parser("eval", help="evaluate the pipeline over many scenes")
    common(p)
    p.add_argument("--scenes", required=True, help="directory of scene directories")
    p.set_defaults(fn=_cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - unexpected
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

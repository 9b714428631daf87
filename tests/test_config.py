"""Strict config parsing: unknown keys, bad values and their exit codes."""

import copy
import json

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from nightbev.cli import main
from nightbev.core import Tensor3, write_raw_tensor
from nightbev.formats import write_pgm
from nightbev.illumination import EstimatorConfig
from nightbev.losses import LossConfig
from nightbev.pipeline import ParamSource, PipelineConfig, TStarSource
from nightbev.scene import SceneConfig

VALID_PIPELINE = {
    "seed": 2,
    "estimator": {"stages": 2, "blur_kernel": 5, "floor": 0.02},
    "illumination_file": None,
    "t_star": {"fixed": 0.4},
    "encoder": {"channels": [4, 6], "source": None},
    "igs": {"k_points": 25, "source": {"seed": 4}},
    "depth": {"c_ctx": 5, "bins": 7, "d_min": 0.5, "d_max": 9.0, "source": {}},
    "attention": {"k_points": 3, "source": None},
    "head": {"source": {"seed": 8}},
    "n_z": 6,
    "loss": {"alpha": 1.0, "beta": 0.5, "gamma": 0.25},
    "disable_idp": True,
}
PARSED_PIPELINE = PipelineConfig(
    seed=2,
    estimator=EstimatorConfig(stages=2, blur_kernel=5, floor=0.02),
    t_star=TStarSource(fixed=0.4),
    encoder_channels=(4, 6),
    igs_k=25,
    igs_source=ParamSource(seed=4),
    depth_c_ctx=5,
    depth_bins=7,
    depth_min=0.5,
    depth_max=9.0,
    attn_k=3,
    head_source=ParamSource(seed=8),
    n_z=6,
    loss=LossConfig(alpha=1.0, beta=0.5, gamma=0.25),
    disable_idp=True,
)

VALID_SCENE = {
    "seed": 5,
    "height": 64,
    "width": 96,
    "bev": {"x_range": [0, 8], "y_range": [-4, 4], "z_range": [-1, 2.2], "voxel": 0.4},
    "classes": ["free", "crate", "pillar", "barrier"],
    "boxes": [{"center": [3.0, 0.0, 0.2], "size": [1.2, 1.2, 1.2], "cls": 1}],
    "random_boxes": 3,
    "lights": [{"u": 48, "v": 30, "intensity": 3.0, "radius": 12.0}],
    "ambient": 0.06,
    "camera_height": 1.4,
    "focal": None,
}

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(2**1100), max_value=2**1100)
    | st.floats()
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)


def _paths(obj, prefix=()):
    """Every (container path, key or index) inside a parsed JSON value."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, value in items:
        yield prefix, key
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


def _mutated(valid, data):
    cfg = copy.deepcopy(valid)
    prefix, key = data.draw(st.sampled_from(list(_paths(valid))))
    parent = cfg
    for step in prefix:
        parent = parent[step]
    if isinstance(parent, dict) and data.draw(st.booleans()):
        parent[data.draw(st.text(max_size=8))] = parent.pop(key)
    else:
        parent[key] = data.draw(json_values)
    return cfg


def _parses_or_rejects(parse, obj):
    try:
        parse(obj)
    except ValueError:
        pass


PARSERS = {"pipeline": PipelineConfig.from_dict, "scene": SceneConfig.from_dict}
VALID = {"pipeline": VALID_PIPELINE, "scene": VALID_SCENE}


def test_every_key_reaches_its_field():
    assert PipelineConfig.from_dict(VALID_PIPELINE) == PARSED_PIPELINE
    assert PipelineConfig.from_dict({"t_star": 0.4}).t_star == TStarSource(fixed=0.4)
    scene = SceneConfig.from_dict(VALID_SCENE)
    assert (scene.bev.voxel, scene.boxes[0].size, scene.lights[0].radius) == (0.4, (1.2,) * 3, 12.0)


@pytest.mark.parametrize("kind", sorted(PARSERS))
@settings(max_examples=150, suppress_health_check=[HealthCheck.too_slow])
@given(obj=json_values)
@example(obj={"bev": {"voxel": 5e-324}})
@example(obj={"ambient": 2**1100})
@example(obj={"depth": {"d_min": 2**1100}})
@example(obj={"t_star": float("nan")})
def test_arbitrary_json_returns_or_raises_value_error(kind, obj):
    _parses_or_rejects(PARSERS[kind], obj)


@pytest.mark.parametrize("kind", sorted(PARSERS))
@settings(max_examples=300, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_one_broken_key_returns_or_raises_value_error(kind, data):
    _parses_or_rejects(PARSERS[kind], _mutated(VALID[kind], data))


@pytest.fixture(scope="module")
def probe_scene(tmp_path_factory):
    root = tmp_path_factory.mktemp("probe")
    cfg = root / "scene_cfg.json"
    cfg.write_text(json.dumps({"seed": 5, "random_boxes": 3, "ambient": 0.06}))
    assert main(["gen-scene", "--config", str(cfg), "--out", str(root / "scene")]) == 0
    return root / "scene"


PIPELINE_PROBES = [
    ({"n_zz": 3}, "n_zz"),
    ({"t_star": "abc"}, "t_star"),
    ({"estimator": {"stagez": 2}}, "estimator.stagez"),
    ({"loss": {"alphaa": 1}}, "loss.alphaa"),
    ([1, 2], "top level: must be a JSON object"),
    ({"igs": {"k_points": 4}}, "igs.k_points"),
    ({"loss": {"class_weights": [1, 1, 1, 1]}}, "loss.class_weights"),
    ({"depth": {"d_min": 5, "d_max": 2}}, "depth.d_min"),
    ({"t_star": {"fixed": 0.4, "bins": 0}}, "t_star"),
    (
        {"encoder": {"source": {"files": {"conv1_kernel": "scene_cfg.json"}}}},
        "encoder.source.files.conv1_bias",
    ),
    ({"seed": -1}, "seed must be >= 0"),
    ({"encoder": {"source": {"seed": -2}}}, "encoder.source: seed must be >= 0"),
    ({"t_star": {"population_dir": "pgm_maps"}}, "pgm_maps/m1.pgm: truncated P5 payload"),
    ({"t_star": {"population_dir": "rt_maps"}}, "rt_maps/m1.rt: raw tensor payload is 31 bytes, expected 32"),
]

SCENE_PROBES = [
    ({"ambiant": 0.5}, "ambiant"),
    ({"bev": {"voxell": 0.2}}, "bev.voxell"),
    (
        {"boxes": [{"center": [1, 0, 0], "size": [1, 1, 1], "cls": 1, "colour": 3}]},
        "boxes[0].colour",
    ),
    ({"classes": "abc"}, "classes"),
    ({"lights": [{"u": 1, "v": 2, "intensity": 1}]}, "lights[0].radius"),
    ({"seed": -3}, "seed must be >= 0"),
    ({"boxes": [{"center": [1, 0, 0], "size": [-1, 1, 1], "cls": 1}]}, "boxes[0]: box size must be positive"),
    ({"focal": 0}, "focal"),
]


@pytest.mark.parametrize("cfg,where", PIPELINE_PROBES, ids=[w for _, w in PIPELINE_PROBES])
def test_pipeline_config_error_exits_2_before_output(tmp_path, capsys, probe_scene, cfg, where):
    (tmp_path / "scene_cfg.json").write_text("{}")  # the file the `files` probe names
    for kind, write in (("pgm", write_pgm), ("rt", write_raw_tensor)):  # the t_star probes' maps
        maps = tmp_path / f"{kind}_maps"
        maps.mkdir()
        write(Tensor3.full(1, 2, 2, 0.3), maps / f"m0.{kind}")
        write(Tensor3.full(1, 2, 2, 0.6), maps / f"m1.{kind}")
        cut = maps / f"m1.{kind}"  # the second map is one byte short
        cut.write_bytes(cut.read_bytes()[:-1])
    path = tmp_path / "pc.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    code = main(["pipeline", "--config", str(path), "--scene", str(probe_scene), "--out", str(out)])
    assert code == 2
    assert where in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("cfg,where", SCENE_PROBES, ids=[w for _, w in SCENE_PROBES])
def test_scene_config_error_exits_2_before_output(tmp_path, capsys, cfg, where):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["gen-scene", "--config", str(path), "--out", str(out)]) == 2
    assert where in capsys.readouterr().err
    assert not out.exists()

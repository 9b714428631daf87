"""Synthetic scene generation: determinism, lighting regimes, ground truth."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nightbev.core
import reference as ref
from nightbev.geometry import BevSpec
from nightbev.scene import (
    Box,
    Light,
    SceneConfig,
    _light_field,
    _occupancy_labels,
    default_camera,
    gen_scene,
    load_scene,
    save_scene,
)


def boxy_config(**kwargs) -> SceneConfig:
    defaults = dict(
        seed=5,
        boxes=(
            Box((3.0, 0.0, 0.2), (1.2, 1.2, 1.2), 1),
            Box((5.0, -2.0, 0.0), (1.0, 1.0, 1.5), 2),
        ),
        lights=(Light(48.0, 30.0, 2.0, 10.0),),
        ambient=0.08,
    )
    defaults.update(kwargs)
    return SceneConfig(**defaults)


def hires_config() -> SceneConfig:
    """`hires_near`'s shape: a dark 448 x 800 image on the desk grid."""
    lights = (Light(200.0, 150.0, 1.2, 50.0), Light(600.0, 300.0, 0.9, 70.0), Light(420.0, 220.0, 1.5, 40.0))
    return SceneConfig(seed=5, height=448, width=800, random_boxes=4, lights=lights, ambient=0.04)


WIDE_BEV = BevSpec(x_range=(0.0, 40.0), y_range=(-20.0, 20.0), z_range=(-1.0, 2.2), voxel=0.2)


class TestSceneConfig:
    def test_rejects_zero_ambient(self):
        with pytest.raises(ValueError, match="ambient"):
            SceneConfig(ambient=0.0)

    def test_rejects_box_class_zero(self):
        with pytest.raises(ValueError, match="box class"):
            SceneConfig(boxes=(Box((1, 0, 0), (1, 1, 1), 0),))

    def test_json_round_trip(self, tmp_path):
        import json

        obj = {
            "seed": 9,
            "height": 32,
            "width": 48,
            "bev": {"x_range": [0, 4], "y_range": [-2, 2], "z_range": [-1, 1], "voxel": 0.5},
            "classes": ["free", "thing"],
            "boxes": [{"center": [2, 0, 0], "size": [1, 1, 1], "cls": 1}],
            "lights": [{"u": 24, "v": 16, "intensity": 1.0, "radius": 8.0}],
            "ambient": 0.1,
        }
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(obj))
        cfg = SceneConfig.from_json_file(path)
        assert cfg.seed == 9
        assert cfg.bev.nx == 8
        assert cfg.boxes[0].cls == 1


class TestGenScene:
    def test_deterministic_for_same_seed(self):
        a = gen_scene(boxy_config(random_boxes=3))
        b = gen_scene(boxy_config(random_boxes=3))
        assert a.image.data.tobytes() == b.image.data.tobytes()
        assert a.occupancy.labels.tobytes() == b.occupancy.labels.tobytes()
        assert a.illumination_gt.data.tobytes() == b.illumination_gt.data.tobytes()

    def test_seed_changes_random_boxes(self):
        a = gen_scene(boxy_config(random_boxes=4))
        b = gen_scene(boxy_config(random_boxes=4, seed=6))
        assert not np.array_equal(a.occupancy.labels, b.occupancy.labels)

    def test_underexposure_regime(self):
        bundle = gen_scene(boxy_config(lights=(), ambient=0.01))
        np.testing.assert_array_equal(bundle.illumination_gt.data, 0.01)
        assert bundle.image.data.max() < 0.02

    def test_overexposure_regime(self):
        bundle = gen_scene(
            boxy_config(lights=(Light(48.0, 32.0, 60.0, 15.0),), ambient=0.05)
        )
        assert bundle.illumination_gt.data.max() == 1.0
        assert (bundle.image.data == 1.0).sum() > 100  # saturated patch

    def test_occupancy_matches_box_membership(self):
        cfg = boxy_config()
        bundle = gen_scene(cfg)
        spec = cfg.bev
        labels = bundle.occupancy.labels
        xs, ys, zs = spec.x_centers(), spec.y_centers(), spec.z_centers()
        for box in cfg.boxes:
            lo = np.array(box.center) - np.array(box.size) / 2
            hi = np.array(box.center) + np.array(box.size) / 2
            inside = (
                (xs[:, None, None] >= lo[0]) & (xs[:, None, None] <= hi[0])
                & (ys[None, :, None] >= lo[1]) & (ys[None, :, None] <= hi[1])
                & (zs[None, None, :] >= lo[2]) & (zs[None, None, :] <= hi[2])
            )
            assert (labels[inside] == box.cls).all()
        assert (labels[labels > 0] > 0).sum() > 0

    def test_grid_dims_match_spec(self):
        bundle = gen_scene(boxy_config())
        spec = bundle.bev
        assert bundle.occupancy.dims == (spec.nx, spec.ny, spec.nz)

    def test_boxes_visible_in_image(self):
        bundle = gen_scene(boxy_config(lights=(), ambient=0.5))
        # box albedos differ from background, so some pixels must differ
        background = np.array([0.18, 0.18, 0.20]) * 0.5
        diff = np.abs(bundle.image.data - background[:, None, None]).sum(axis=0)
        assert (diff > 0.05).sum() > 50

    def test_all_boxes_behind_camera_rejected(self):
        cfg = boxy_config(
            boxes=(Box((-6.0, 0.0, 0.0), (1.0, 1.0, 1.0), 1),),
            bev=SceneConfig().bev,
        )
        with pytest.raises(ValueError, match="degenerate camera"):
            gen_scene(cfg)

    def test_camera_looks_into_grid(self):
        cfg = boxy_config()
        cam = default_camera(cfg)
        from nightbev.geometry import project_point

        center = project_point(cam, 4.0, 0.0, 0.5)
        assert center.valid
        assert 0 <= center.u <= cfg.width
        assert 0 <= center.v <= cfg.height


# Box centres in quarter metres and sizes in half metres put every face on a
# multiple of 0.25 m, so about half of them land exactly on a cell centre (odd
# multiples of 0.25 m); the wide centre range puts some boxes partly or wholly
# outside the grid.
QUARTER_GRID = BevSpec(x_range=(0.0, 4.0), y_range=(-2.0, 2.0), z_range=(-1.0, 1.0), voxel=0.5)
_QUARTERS = st.tuples(*[st.integers(-12, 28)] * 3)
_HALF_METRES = st.tuples(*[st.integers(1, 12)] * 3)
_BOXES = st.lists(st.tuples(_QUARTERS, _HALF_METRES, st.integers(1, 3)), max_size=6)
_LIGHTS = st.lists(
    st.tuples(
        st.floats(-60.0, 80.0), st.floats(-60.0, 80.0), st.floats(0.0, 5.0), st.floats(0.05, 200.0)
    ),
    max_size=4,
)


class TestPerAxisGridsMatchMeshgrids:
    @settings(max_examples=150)
    @given(raw=_BOXES)
    @example(raw=[((5, 0, 0), (2, 2, 2), 1)])  # faces at 0.75 and 1.75 m: cell centres
    @example(raw=[((-12, -12, -12), (1, 1, 1), 2), ((28, 28, 28), (3, 3, 3), 3)])  # outside
    def test_occupancy_labels(self, raw):
        boxes = [
            Box(tuple(0.25 * c for c in centre), tuple(0.5 * s for s in size), cls)
            for centre, size, cls in raw
        ]
        cfg = SceneConfig(bev=QUARTER_GRID)
        got = _occupancy_labels(cfg, boxes)
        expected = ref.occupancy_labels(cfg, boxes)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

    @settings(max_examples=150)
    @given(
        hw=st.tuples(st.integers(4, 20), st.integers(4, 20)),
        ambient=st.floats(0.01, 1.0),
        raw=_LIGHTS,
    )
    @example(hw=(4, 6), ambient=0.05, raw=[(-50.0, 3.0, 2.0, 4.0), (9.0, 70.0, 1.0, 0.5)])
    def test_light_field(self, hw, ambient, raw):
        cfg = SceneConfig(
            height=hw[0], width=hw[1], ambient=ambient, lights=tuple(Light(*a) for a in raw)
        )
        got = _light_field(cfg)
        expected = ref.light_field(cfg)
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()


class TestGenSceneInRowBlocks:
    """The rays are cast in blocks of image rows, and the image and the
    illumination are each formed in the array that is kept."""

    @pytest.mark.parametrize("rows_per_block", [1, 2, 5, 63])
    def test_bytes_do_not_depend_on_the_block_size(self, rows_per_block):
        cfg = boxy_config(random_boxes=3)
        whole = gen_scene(cfg)  # 64 rows: one block
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(nightbev.core, "LEVEL_BLOCK_BYTES", rows_per_block * 8 * 3 * cfg.width)
            blocked = gen_scene(cfg)
        assert blocked.image.data.tobytes() == whole.image.data.tobytes()
        assert blocked.illumination_gt.data.tobytes() == whole.illumination_gt.data.tobytes()

    def test_a_box_seen_only_in_a_late_block_counts_as_visible(self, monkeypatch):
        # A low, flat box fills only the bottom rows of the image.
        cfg = boxy_config(boxes=(Box((4.0, 0.0, -0.9), (1.0, 1.0, 0.1), 1),))
        monkeypatch.setattr(nightbev.core, "LEVEL_BLOCK_BYTES", 8 * 3 * cfg.width)
        box_rows = (gen_scene(cfg).image.data != gen_scene(boxy_config(boxes=())).image.data).any(axis=(0, 2))
        assert box_rows.any() and not box_rows[: cfg.height // 2].any()

    def test_image_and_illumination_own_their_memory(self):
        bundle = gen_scene(boxy_config())
        for t in (bundle.image, bundle.illumination_gt):
            assert t.data.base is None and not t.data.flags.writeable

    def test_peak_memory_at_hires_shape(self, peak_bytes):
        # Kept: the 8.2 MiB image, 2.7 MiB each of illumination, light and classes.
        # Casting every ray of the image at once peaked near 40 MiB.
        assert peak_bytes(gen_scene, hires_config()) < 26 << 20


class TestSceneIo:
    def test_save_load_round_trip(self, tmp_path):
        bundle = gen_scene(boxy_config(random_boxes=2))
        save_scene(bundle, tmp_path / "scene")
        back = load_scene(tmp_path / "scene")
        assert back.classes == bundle.classes
        assert back.bev == bundle.bev
        np.testing.assert_array_equal(back.occupancy.labels, bundle.occupancy.labels)
        np.testing.assert_array_equal(back.camera.matrix, bundle.camera.matrix)
        # image goes through 8-bit quantization
        assert np.abs(back.image.data - bundle.image.data).max() <= 0.5 / 255 + 1e-12

    @pytest.mark.parametrize(
        "value,message",
        [
            (-1.0, "labels must be integers in [0, 4)"),
            (1.5, "labels must be integers in [0, 4)"),
            (4.0, "labels must be integers in [0, 4)"),
            (np.nan, "Tensor3 values must be finite"),
        ],
        ids=["negative", "fraction", "no-such-class", "nan"],
    )
    def test_refuses_a_bad_label_before_the_cast(self, tmp_path, value, message):
        save_scene(gen_scene(boxy_config()), tmp_path)
        path = tmp_path / "occupancy_gt.rt"
        header, payload = path.read_bytes().split(b"\n", 1)
        grid = np.frombuffer(payload, dtype="<f4").copy()
        grid[-1] = value
        path.write_bytes(header + b"\n" + grid.tobytes())
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a cast of -1 or NaN to uint8 warns
            with pytest.raises(ValueError) as err:
                load_scene(tmp_path)
        assert str(err.value) == f"{path}: {message}"

    def test_peak_memory_of_a_wide_grid(self, tmp_path, peak_bytes):
        # bev_wide's 200 x 200 x 16 grid: its f32 payload (2.6 MB) and the float64
        # values read from it (5.1 MB) make the peak; the labels are 640 kB of uint8.
        bev = BevSpec(x_range=(0.0, 40.0), y_range=(-20.0, 20.0), z_range=(-1.0, 2.2), voxel=0.2)
        bundle = gen_scene(boxy_config(height=16, width=24, bev=bev, boxes=(), random_boxes=12))
        save_scene(bundle, tmp_path)
        assert peak_bytes(load_scene, tmp_path) < 10 << 20
        np.testing.assert_array_equal(load_scene(tmp_path).occupancy.labels, bundle.occupancy.labels)

    def test_peak_memory_of_a_hires_scene(self, tmp_path, peak_bytes):
        # The 8.2 MiB image is decoded straight into the array it keeps, beside
        # its 1 MiB of samples and the illumination.
        save_scene(gen_scene(hires_config()), tmp_path)
        assert peak_bytes(load_scene, tmp_path) < 14 << 20

    def test_labels_of_a_wide_grid_are_read_in_row_blocks(self, tmp_path, peak_bytes):
        # 640 kB of uint8 labels beside blocks of the f32 payload: no float64 grid.
        bundle = gen_scene(boxy_config(height=16, width=24, bev=WIDE_BEV, boxes=(), random_boxes=12))
        save_scene(bundle, tmp_path)
        assert peak_bytes(load_scene, tmp_path) < 2 << 20
        np.testing.assert_array_equal(load_scene(tmp_path).occupancy.labels, bundle.occupancy.labels)

    @pytest.mark.parametrize(
        "bad,message",
        [
            ({0: 9.0}, "labels must be integers in [0, 4)"),
            ({-1: 0.5}, "labels must be integers in [0, 4)"),
            ({0: 9.0, -1: np.nan}, "Tensor3 values must be finite"),
            ({0: np.inf, -1: 9.0}, "Tensor3 values must be finite"),
        ],
        ids=["first_block", "last_block", "nan_after_a_bad_label", "inf_before_a_bad_label"],
    )
    def test_any_block_refuses_the_scene(self, tmp_path, monkeypatch, bad, message):
        # Blocks of one row: a non-finite value anywhere wins over a bad label, as it
        # does when the whole grid is read at once.
        save_scene(gen_scene(boxy_config()), tmp_path)
        path = tmp_path / "occupancy_gt.rt"
        header, payload = path.read_bytes().split(b"\n", 1)
        grid = np.frombuffer(payload, dtype="<f4").copy()
        for index, value in bad.items():
            grid[index] = value
        path.write_bytes(header + b"\n" + grid.tobytes())
        monkeypatch.setattr(nightbev.core, "LEVEL_BLOCK_BYTES", 1)
        with pytest.raises(ValueError) as err:
            load_scene(tmp_path)
        assert str(err.value) == f"{path}: {message}"

    def test_saved_files_exist(self, tmp_path):
        manifest = save_scene(gen_scene(boxy_config()), tmp_path / "s")
        for name in manifest["files"].values():
            assert (tmp_path / "s" / name).is_file()

    def test_save_is_deterministic(self, tmp_path):
        cfg = boxy_config(random_boxes=3)
        save_scene(gen_scene(cfg), tmp_path / "a")
        save_scene(gen_scene(cfg), tmp_path / "b")
        for name in ("image.ppm", "occupancy_gt.rt", "illumination_gt.rt", "scene.json"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

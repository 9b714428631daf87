"""Illumination-guided nighttime BEV occupancy pipeline at desk scale."""

from .bev import (
    AttentionParams,
    DepthContext,
    bev_pool,
    depth_bin_centers,
    depth_context_split,
    refine_bev,
    residual_query,
)
from .core import (
    PixelCoord,
    Tensor3,
    bilinear_sample,
    bilinear_sample_grad,
    bilinear_sample_many,
    finite_diff_check,
    read_raw_tensor,
    write_raw_tensor,
)
from .geometry import (
    BevSpec,
    CameraMatrix,
    Projection,
    illumination_field,
    project_point,
    project_points,
    sample_heights,
)
from .guided_sampling import (
    ConvParams,
    build_guidance,
    conv2d_replicate,
    generate_offsets,
    guided_warp,
    kernel_grid,
    modulate_offsets,
)
from .illumination import (
    EstimatorConfig,
    estimate_illumination,
    illumination_factor,
    load_illumination,
    retinex_enhance,
)
from .losses import (
    LossConfig,
    class_weights_from_labels,
    total_loss,
    weighted_ce,
    weighted_ce_grad,
)
from .metrics import IoUReport, OccupancyGrid, miou, write_iou_csv
from .pipeline import PipelineConfig, RunReport, eval_batch, run_pipeline
from .scene import Box, Light, SceneBundle, SceneConfig, gen_scene, load_scene, save_scene
from .selective import (
    FactorPopulation,
    ThresholdReport,
    otsu_threshold,
    selective_enhance,
)

__version__ = "0.1.0"

"""Radio-region assisted detection post-processing toolkit."""

from .config import RadioParams, RunConfig
from .errors import InvalidInputError, SchemaError
from .fusion import proposals_to_detections, revise_detections
from .geometry import square
from .imaging import CameraModel, batch_project, project
from .metrics import (
    CocoMapResult,
    MetricsReport,
    coco_map,
    mr_fppi,
    truncate_to_gt_count,
    visual_metrics,
)
from .nms import NmsConfig, associate_regions, constrained_nms, standard_nms
from .radio import (
    AoaTofSpectrum,
    ArrayGeometry,
    CsiFrame,
    RadioEstimate,
    compute_spectrum,
    default_aoa_grid,
    default_tof_grid,
    fuse_axes,
    pick_peaks,
    synthesize_csi,
)
from .sim_regions import (
    NoiseParams,
    all_filter,
    build_simulative_set,
    draw_region_noise,
    reasonable_filter,
)
from .synth import SynthParams, generate, make_world
from .world import Annotation, Annotations, Detection, Detections, RadioRegion, Regions

__version__ = "0.1.0"

"""UWB radar SAR imaging and loop-closure detection for mobile robots.

Processing chain: raw echoes are range-compressed by a matched filter,
back-projected over known poses into a complex SAR image, enhanced into an
8-bit map, and candidate place revisits are confirmed by two binary
descriptors of shared segment-test keypoints whose transforms must agree.
"""

from .backprojection import ImageGrid, SarImage, build_sar, derive_grid, in_fov
from .features import (KEYPOINT, DetectorConfig, FeatureSet, detect_and_describe,
                       register_detector)
from .imgpost import GrayImage, gaussian_blur, positive_image, quantize
from .loopclose import (LoopDecision, MatchReport, SimilarityTransform, detect_and_match,
                        validate_loop)
from .radar import RadarConfig, compress_scan, pulse_value, radar_pulse, range_bin_spacing
from .runconfig import RunConfig, load_config
from .scanlog import ScanLog, load_scan_log, record_dtype, save_scan_log
from .simulate import (generate_trajectory, load_scene, load_trajectory, render_scene,
                       simulate_echo)

__version__ = "0.1.0"

"""UWB radar SAR imaging and loop-closure detection for mobile robots.

Processing chain: raw echoes are range-compressed by a matched filter,
back-projected over known poses into a complex SAR image, enhanced into an
8-bit map, and candidate place revisits are confirmed by two binary
descriptors of shared segment-test keypoints whose transforms must agree.
"""

from .backprojection import ImageGrid, SarImage, build_sar, derive_grid, in_fov
from .features import (KEYPOINT, DetectorConfig, FeatureSet, detect_and_describe,
                       register_detector)
from .geometry import Pose2, wrap_angle
from .imgpost import (GrayImage, cellwise_difference, gaussian_blur,
                      occupancy_from_image, otsu_threshold, positive_image, quantize)
from .loopclose import (LoopDecision, MatchReport, RansacConfig, SimilarityTransform,
                        ValidationThresholds, detect_and_match,
                        estimate_similarity_ransac, fuse_transform, knn_match,
                        ratio_test, validate_loop)
from .radar import (RadarConfig, analytic_signal, compress_scan, matched_filter, pulse_value,
                    radar_pulse, range_bin_spacing)
from .runconfig import RunConfig, load_config
from .scanlog import ScanLog, load_scan_log, record_dtype, save_scan_log
from .simulate import (generate_trajectory, load_scene, load_trajectory, noise_std_for_snr,
                       render_scene, simulate_echo)

__version__ = "0.1.0"

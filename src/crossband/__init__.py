"""Cross-spectral image registration and fusion.

Registers image pairs from different spectral bands with an edge-window
corner descriptor and an iterative consensus scheme, then fuses the aligned
pair with a multi-scale high-pass/low-pass blend and color restoration.
"""

from .descriptor import (EdgeDescriptor, build_descriptor, build_descriptors,
                         same_grad, score_matrix, similarity)
from .edges import CannyConfig, EdgeMap, canny, quantize_direction
from .errors import (DegenerateFitError, ImageIOError, RegistrationError,
                     SingularTransformError)
from .evaluation import (AccuracyReport, SimulationSpec, brute_force_translation,
                         run_benchmark, simulate_pair, synthetic_texture,
                         translation_error)
from .features import Corner, HarrisConfig, detect_corners, harris_score_map
from .fusion import (FusionConfig, fuse_hplp, fuse_pair, fuse_scales,
                     fuse_single_scale, restore_color, split_frequencies)
from .image import (gaussian_blur, gradients, replicate3, to_luminance,
                    warp_affine)
from .image_io import read_image, write_image
from .registration import (Match, RansacConfig, RegistrationResult,
                           fit_least_squares, match_all, ransac_once, register)
from .transform import AffineTransform, TransformKind, load_transform

__version__ = "0.1.0"

__all__ = [
    "AccuracyReport", "AffineTransform", "CannyConfig", "Corner",
    "DegenerateFitError", "EdgeDescriptor", "EdgeMap", "FusionConfig",
    "HarrisConfig", "ImageIOError", "Match", "RansacConfig",
    "RegistrationError", "RegistrationResult", "SimulationSpec",
    "SingularTransformError", "TransformKind",
    "brute_force_translation", "build_descriptor", "build_descriptors",
    "canny", "detect_corners", "fit_least_squares", "fuse_hplp", "fuse_pair",
    "fuse_scales", "fuse_single_scale", "gaussian_blur", "gradients", "harris_score_map",
    "load_transform", "match_all", "quantize_direction", "ransac_once",
    "read_image", "register", "replicate3", "restore_color",
    "run_benchmark", "same_grad", "score_matrix", "similarity", "simulate_pair",
    "split_frequencies", "synthetic_texture", "to_luminance",
    "translation_error", "warp_affine", "write_image",
]

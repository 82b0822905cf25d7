"""The public API: a removal or addition shows up as a diff of this file."""

import crossband

PUBLIC = [
    "AccuracyReport", "AffineTransform", "CannyConfig", "Corner",
    "DegenerateFitError", "EdgeDescriptor", "EdgeMap", "FusionConfig",
    "HarrisConfig", "ImageIOError", "Match", "RansacConfig",
    "RegistrationError", "RegistrationResult", "SimulationSpec",
    "SingularTransformError", "TransformKind", "brute_force_translation",
    "build_descriptors", "canny", "detect_corners", "fit_least_squares",
    "fuse_hplp", "fuse_pair", "fuse_scales", "gaussian_blur", "gradients",
    "harris_score_map", "load_transform", "match_all", "ransac_once",
    "read_image", "register", "restore_color", "run_benchmark", "score_matrix",
    "similarity", "simulate_pair", "split_frequencies", "synthetic_texture",
    "to_luminance", "translation_error", "warp_affine", "write_image",
]


def test_all_is_the_pinned_sorted_list():
    assert PUBLIC == sorted(PUBLIC)
    assert crossband.__all__ == PUBLIC


def test_every_public_name_resolves():
    for name in crossband.__all__:
        assert getattr(crossband, name) is not None, name

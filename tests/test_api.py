"""The public API: a removal or addition shows up as a diff of this file."""

import ast
import re
from pathlib import Path

import crossband

ROOT = Path(__file__).resolve().parents[1]

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


def _public_functions(tree):
    """(qualified name, name) of each module-level function and each method
    of a module-level class in a parsed module."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield node.name, node.name
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs):
                    yield f"{node.name}.{item.name}", item.name


def _referenced_names(tree):
    """Every name a parsed module reads: its Names, the attribute names it
    looks up, and the dotted parts of the names it imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield from node.name.split(".")


def _script_target():
    """(module, function) of the [project.scripts] entry in pyproject.toml,
    read as text: tomllib needs Python 3.11, and the project supports 3.10."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    section = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text,
                        re.M | re.S).group(1)
    target = re.search(r'^\s*\S+\s*=\s*"([\w.]+):(\w+)"', section, re.M)
    return target.group(1), target.group(2)


def test_every_public_function_has_a_caller():
    # a public function or method that only tests call is surface with no
    # use: delete it, or give it a caller in the library or the benchmark
    library = sorted((ROOT / "src" / "crossband").glob("*.py"))
    sources = library + sorted((ROOT / "bench").glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sources}
    referenced = {name for tree in trees.values()
                  for name in _referenced_names(tree)}
    script_module, script_function = _script_target()
    uncalled = []
    for path in library:
        module = f"crossband.{path.stem}"
        for qualified, name in _public_functions(trees[path]):
            if any(part.startswith("_") for part in qualified.split(".")):
                continue
            if qualified == name and name in crossband.__all__:
                continue
            if (module, qualified) == (script_module, script_function):
                continue
            if name not in referenced:
                uncalled.append(f"{path.stem}.{qualified}")
    assert not uncalled, f"no caller in src/ or bench/: {uncalled}"

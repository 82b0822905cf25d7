import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import crossband
from crossband.cli import main
from crossband.config import SCHEMA
from crossband.evaluation import SimulationSpec, simulate_pair, synthetic_texture
from crossband.image import replicate3, to_luminance
from crossband.image_io import read_image, write_image
from crossband.transform import AffineTransform, to_json_dict


@pytest.fixture(scope="module")
def texture_png(tmp_path_factory):
    path = tmp_path_factory.mktemp("fixtures") / "texture.png"
    write_image(path, synthetic_texture(128, seed=50))
    return path


def test_register_same_file_is_identity(tmp_path, texture_png, capsys):
    out = tmp_path / "t.json"
    code = main(["register", str(texture_png), str(texture_png), str(out)])
    assert code == 0
    obj = json.loads(out.read_text())
    assert obj["model"] == "translation"
    assert np.hypot(obj["matrix"][0][2], obj["matrix"][1][2]) < 0.5
    assert obj["support"] >= 4
    captured = capsys.readouterr().out
    assert "iteration 1" in captured and "iteration 3" in captured


def test_register_missing_input(tmp_path, capsys):
    out = tmp_path / "t.json"
    code = main(["register", "/no/such/visible.png", "/no/such/ir.png", str(out)])
    assert code == 1
    assert "/no/such/visible.png" in capsys.readouterr().err
    assert not out.exists()


def test_register_inverted_fixture(tmp_path):
    base = synthetic_texture(256, seed=51)
    spec = SimulationSpec(modality="invert", noise_sigma=0.0, rng_seed=9)
    v, ir, t_eff = simulate_pair(base, AffineTransform.translation(7, -3), spec)
    vp, ip = tmp_path / "v.png", tmp_path / "ir.png"
    write_image(vp, v, bitdepth=16)
    write_image(ip, ir, bitdepth=16)
    out = tmp_path / "t.json"
    assert main(["register", str(vp), str(ip), str(out)]) == 0
    obj = json.loads(out.read_text())
    err = np.hypot(obj["matrix"][0][2] - t_eff.m[0, 2],
                   obj["matrix"][1][2] - t_eff.m[1, 2])
    assert err < 1.0


def test_register_bad_config_key(tmp_path, texture_png, capsys):
    out = tmp_path / "t.json"
    code = main(["register", str(texture_png), str(texture_png), str(out),
                 "-o", "harris.bogus=1"])
    assert code == 1
    assert "harris.bogus" in capsys.readouterr().err


def test_register_invalid_config_value(tmp_path, texture_png, capsys):
    out = tmp_path / "t.json"
    code = main(["register", str(texture_png), str(texture_png), str(out),
                 "-o", "harris.k=0.9"])
    assert code == 1
    assert "k" in capsys.readouterr().err


def test_warp_identity_roundtrip(tmp_path, texture_png):
    t = tmp_path / "id.json"
    t.write_text(json.dumps(to_json_dict(AffineTransform.identity())))
    out = tmp_path / "warped.png"
    assert main(["warp", str(texture_png), str(t), str(out)]) == 0
    a = read_image(texture_png)
    b = read_image(out)
    assert np.max(np.abs(a - b)) <= 1.0 / 255  # one codec round trip each way


def test_warp_translation_shifts_pixels(tmp_path, texture_png):
    t = tmp_path / "t34.json"
    t.write_text(json.dumps(to_json_dict(AffineTransform.translation(3, 4))))
    out = tmp_path / "warped.png"
    assert main(["warp", str(texture_png), str(t), str(out)]) == 0
    a = read_image(texture_png)
    b = read_image(out)
    assert np.max(np.abs(b[4:, 3:] - a[:-4, :-3])) <= 1.0 / 255


def test_warp_invert_roundtrip_interior(tmp_path):
    from crossband.image import gaussian_blur
    smooth = tmp_path / "smooth.png"
    write_image(smooth, gaussian_blur(synthetic_texture(128, seed=56), 2.0),
                bitdepth=16)
    t = tmp_path / "s.json"
    t.write_text(json.dumps(to_json_dict(
        AffineTransform.similarity(1.01, 0.02, 2.0, -1.0))))
    once = tmp_path / "once.png"
    back = tmp_path / "back.png"
    assert main(["warp", str(smooth), str(t), str(once), "--bits", "16"]) == 0
    assert main(["warp", str(once), str(t), str(back), "--invert",
                 "--bits", "16"]) == 0
    a = read_image(smooth)
    b = read_image(back)
    interior = (slice(12, -12), slice(12, -12))
    assert np.max(np.abs(a[interior] - b[interior])) < 2e-2


def test_warp_singular_transform_exits_2(tmp_path, texture_png, capsys):
    t = tmp_path / "sing.txt"
    t.write_text("1.0 0.0 0.0\n1.0 0.0 0.0\n")
    out = tmp_path / "w.png"
    assert main(["warp", str(texture_png), str(t), str(out)]) == 2
    assert not out.exists()


def test_warp_overflowing_determinant_exits_2(tmp_path, texture_png):
    t = tmp_path / "huge.txt"
    t.write_text("1e200 1e200 0\n1e200 1e200 0\n")
    out = tmp_path / "w.png"
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["warp", str(texture_png), str(t), str(out)]) == 2
    assert not out.exists()


def test_warp_non_finite_transform_exits_1(tmp_path, texture_png, capsys):
    t = tmp_path / "nan.txt"
    t.write_text("1 0 nan\n0 1 0\n")
    out = tmp_path / "w.png"
    assert main(["warp", str(texture_png), str(t), str(out)]) == 1
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name, text", [
    ("nan.json", '{"model": "affine", "matrix": [[NaN, 0, 0], [0, 1, 0]]}'),
    ("inf.txt", "1 0 inf\n0 1 0\n"),
], ids=["nan-json", "inf-text"])
def test_warp_invert_non_finite_transform_exits_1(tmp_path, texture_png, capsys,
                                                  name, text):
    # rejected on reading, before the inverse: no singular-transform exit 2,
    # no floating-point warning
    t = tmp_path / name
    t.write_text(text)
    out = tmp_path / "w.png"
    assert main(["warp", str(texture_png), str(t), str(out), "--invert"]) == 1
    err = capsys.readouterr().err
    assert f"{name}: transform matrix holds a non-finite entry" in err
    assert not out.exists()


@pytest.mark.parametrize("fill", ["nan", "inf", "-inf"])
def test_warp_non_finite_fill_exits_1(tmp_path, texture_png, capsys, fill):
    t = tmp_path / "t34.json"
    t.write_text(json.dumps(to_json_dict(AffineTransform.translation(3, 4))))
    out = tmp_path / "w.png"
    assert main(["warp", str(texture_png), str(t), str(out),
                 f"--fill={fill}"]) == 1
    assert "--fill must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_warp_color_image(tmp_path):
    rng = np.random.default_rng(52)
    img = rng.random((70, 70, 3))
    src = tmp_path / "c.ppm"
    write_image(src, img)
    t = tmp_path / "t.json"
    t.write_text(json.dumps(to_json_dict(AffineTransform.translation(2, 1))))
    out = tmp_path / "c_w.ppm"
    assert main(["warp", str(src), str(t), str(out)]) == 0
    assert read_image(out).shape == img.shape


def test_fuse_self_fusion(tmp_path):
    g = synthetic_texture(96, seed=53)
    v = replicate3(g)
    vp, ip = tmp_path / "v.ppm", tmp_path / "ir.pgm"
    write_image(vp, v, bitdepth=16)
    write_image(ip, to_luminance(v), bitdepth=16)
    og, oc = tmp_path / "f.png", tmp_path / "fc.ppm"
    assert main(["fuse", str(vp), str(ip), str(og), str(oc),
                 "-o", "fusion.gain=1.0"]) == 0
    fused = read_image(og)
    assert np.max(np.abs(fused - g)) < 2e-2
    assert read_image(oc).shape == (96, 96, 3)


def test_fuse_dimension_mismatch(tmp_path, capsys):
    a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
    write_image(a, np.full((32, 40), 0.5))
    write_image(b, np.full((48, 48), 0.5))
    code = main(["fuse", str(a), str(b), str(tmp_path / "f.png"),
                 str(tmp_path / "fc.png")])
    assert code == 1
    err = capsys.readouterr().err
    assert "40x32" in err and "48x48" in err
    assert not (tmp_path / "f.png").exists()


def test_fuse_dump_scales(tmp_path):
    g = synthetic_texture(64, seed=57)
    vp, ip = tmp_path / "v.pgm", tmp_path / "ir.pgm"
    write_image(vp, g)
    write_image(ip, g)
    og, oc = tmp_path / "f.png", tmp_path / "fc.ppm"
    prefix = tmp_path / "scale"
    assert main(["fuse", str(vp), str(ip), str(og), str(oc),
                 "--dump-scales", str(prefix)]) == 0
    for sigma in ("1", "2", "4"):
        side = read_image(f"{prefix}-{sigma}.png")
        assert side.shape == (64, 64)


def test_fuse_constants(tmp_path):
    a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
    write_image(a, np.full((32, 32), 0.2))
    write_image(b, np.full((32, 32), 0.8))
    og, oc = tmp_path / "f.pgm", tmp_path / "fc.ppm"
    assert main(["fuse", str(a), str(b), str(og), str(oc)]) == 0
    fused = read_image(og)
    assert np.max(np.abs(fused - 0.5)) <= 1.0 / 255 + 1e-3


def test_eval_end_to_end_and_determinism(tmp_path, capsys):
    data = tmp_path / "data"
    data.mkdir()
    write_image(data / "base.png", synthetic_texture(128, seed=54))
    spec = tmp_path / "spec.cfg"
    spec.write_text("eval.trials = 2\n"
                    "eval.modality = invert\n"
                    "eval.noise_sigma = 0.0\n"
                    "eval.seed = 11\n")
    c1, c2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert main(["eval", str(data), str(spec), str(c1)]) == 0
    out = capsys.readouterr().out
    assert "mean_error" in out
    assert main(["eval", str(data), str(spec), str(c2)]) == 0
    assert c1.read_bytes() == c2.read_bytes()
    lines = c1.read_text().strip().split("\n")
    assert len(lines) == 3
    assert lines[0].startswith("trial,scale,")
    assert c1.read_text().count("\r") == 0  # LF line endings


def test_negative_seed_exits_1_before_registering(tmp_path, texture_png, capsys,
                                                  monkeypatch):
    from crossband import cli
    monkeypatch.setattr(cli, "register", None)  # any call would raise TypeError
    monkeypatch.setattr(cli, "run_benchmark", None)
    data = tmp_path / "data"
    data.mkdir()
    write_image(data / "base.png", synthetic_texture(96, seed=56))
    spec = tmp_path / "spec.cfg"
    spec.write_text("")
    out = tmp_path / "out"
    for argv, label in (
            (["register", str(texture_png), str(texture_png), str(out),
              "-o", "ransac.seed=-1"], "ransac.*"),
            (["eval", str(data), str(spec), str(out), "-o", "eval.seed=-1"],
             "eval.*")):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert label in err and "rng_seed must be >= 0, got -1" in err
        assert not out.exists()


def test_register_window_wider_than_the_images_exits_1(tmp_path, texture_png,
                                                        capsys):
    out = tmp_path / "t.json"
    code = main(["register", str(texture_png), str(texture_png), str(out),
                 "-o", "descriptor.window=201"])
    assert code == 1
    assert ("descriptor window 201 exceeds the visible image's smaller side, 128"
            in capsys.readouterr().err)
    assert not out.exists()


def test_eval_empty_dataset(tmp_path, capsys):
    data = tmp_path / "empty"
    data.mkdir()
    spec = tmp_path / "spec.cfg"
    spec.write_text("")
    code = main(["eval", str(data), str(spec), str(tmp_path / "r.csv")])
    assert code == 1
    assert "no images" in capsys.readouterr().err


def test_eval_missing_spec_file(tmp_path, capsys):
    data = tmp_path / "data"
    data.mkdir()
    write_image(data / "b.png", synthetic_texture(96, seed=55))
    code = main(["eval", str(data), str(tmp_path / "nope.cfg"),
                 str(tmp_path / "r.csv")])
    assert code == 1


def test_help_lists_every_config_key(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    for key in SCHEMA:
        assert key in out


def test_usage_error_exit_code_is_1(capsys):
    assert main(["frobnicate"]) == 1
    assert main([]) == 1


def test_module_entry_point_runs_main():
    src = str(Path(crossband.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "crossband.cli", "frobnicate"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert "invalid choice" in proc.stderr


_FLOAT_KEYS = [key for key, (_, default, _) in SCHEMA.items()
               if isinstance(default, (float, tuple))]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", _FLOAT_KEYS)
def test_non_finite_config_number_exits_1(tmp_path, texture_png, capsys, key,
                                          value):
    out = tmp_path / "t.json"
    code = main(["register", str(texture_png), str(texture_png), str(out),
                 "-o", f"{key}={value}"])
    assert code == 1
    assert key in capsys.readouterr().err
    assert not out.exists()


_JUST_OVER = repr(float(np.nextafter(100.0, np.inf)))


@pytest.mark.parametrize("command, outputs, key, value", [
    ("register", ["t.json"], "harris.window_sigma", _JUST_OVER),
    ("fuse", ["gray.png", "color.png"], "fusion.sigmas", f"1,2,{_JUST_OVER}"),
])
def test_oversize_sigma_exits_1(tmp_path, texture_png, capsys, command, outputs,
                                key, value):
    outs = [tmp_path / name for name in outputs]
    code = main([command, str(texture_png), str(texture_png), *map(str, outs),
                 "-o", f"{key}={value}"])
    assert code == 1
    err = capsys.readouterr().err
    assert key in err and "at most 100" in err
    assert not any(p.exists() for p in outs)


def test_no_partial_output_on_unwritable_path(tmp_path, texture_png):
    t = tmp_path / "id.json"
    t.write_text(json.dumps(to_json_dict(AffineTransform.identity())))
    missing_dir = tmp_path / "no" / "such" / "dir"
    out = missing_dir / "w.png"
    assert main(["warp", str(texture_png), str(t), str(out)]) == 1
    assert not missing_dir.exists()


def test_config_file_plus_override_precedence(tmp_path, texture_png):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("# comment line\nransac.model = similarity\n"
                   "harris.max_corners = 100\n")
    overridden, plain = tmp_path / "t.json", tmp_path / "plain.json"
    code = main(["register", str(texture_png), str(texture_png), str(overridden),
                 "-c", str(cfg), "-o", "ransac.model=translation"])
    assert code == 0
    assert json.loads(overridden.read_text())["model"] == "translation"
    code = main(["register", str(texture_png), str(texture_png), str(plain),
                 "-c", str(cfg)])
    assert code == 0
    assert json.loads(plain.read_text())["model"] == "similarity"

import json
import math
import os
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from zok import cli, crf, learner, zoomout
from zok.core_io import (read_ppm, read_tensor, rgb_to_lab, write_pgm, write_ppm,
                         write_tensor)
from zok.slic import labxy_means
from zok.synth import SyntheticSpec, synth_generate


def run(*argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture
def quad_image(tmp_path):
    spec = SyntheticSpec(size=32, num_classes=4, kind="quadrants")
    paths = synth_generate(spec, 1, 0, tmp_path / "data")
    return paths[0]


class TestSlicCommand:
    def test_writes_superpixel_map(self, tmp_path, quad_image):
        img_path, _ = quad_image
        out = tmp_path / "sp.zot"
        assert run("slic", "--input", img_path, "--k", 4, "--m", 10, "--out", out) == 0
        sp = read_tensor(out)
        assert sp.dtype == np.uint32 and sp.shape == (32, 32)
        assert sp.max() == 3

    def test_no_connectivity_flag(self, tmp_path, quad_image):
        img_path, _ = quad_image
        out = tmp_path / "sp.zot"
        assert run("slic", "--input", img_path, "--k", 4, "--no-connectivity",
                   "--out", out) == 0

    def test_missing_file_exit_2(self, tmp_path):
        assert run("slic", "--input", tmp_path / "nope.ppm", "--k", 4,
                   "--out", tmp_path / "o.zot") == 2

    def test_bad_value_exit_1(self, tmp_path, quad_image):
        img_path, _ = quad_image
        assert run("slic", "--input", img_path, "--k", 0,
                   "--out", tmp_path / "o.zot") == 1

    def test_usage_error_exit_1(self):
        assert run("slic", "--nonsense") == 1


class TestNonFiniteSlicSettings:
    """A NaN or infinite m, an m whose m/S times the image diagonal
    overflows, and a NaN residual threshold exit 1 with one error line that
    names the setting, for `slic` flags and a pipeline config alike, and
    write nothing."""

    # case -> (extra slic flags, or None for the pipeline, text the error holds)
    CASES = {
        "slic-m-nan": (["--m", "nan"], "m must be finite"),
        "slic-m-inf": (["--m", "inf"], "m must be finite"),
        "slic-m-overflows": (["--m", "1e308"], "m=1e+308 is too large"),
        "slic-residual-threshold-nan": (["--residual-threshold", "nan"],
                                        "residual_threshold"),
        "pipeline-m-nan": (None, "m must be finite"),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_exit_1_with_one_error_line(self, tmp_path, case):
        flags, text = self.CASES[case]
        spec = SyntheticSpec(size=32, num_classes=3, kind="blobs")
        img_path, _ = synth_generate(spec, 1, 4, tmp_path / "data")[0]
        out = tmp_path / "out"
        if flags is None:
            data = str(tmp_path / "data")
            cfg = {"train_dir": data, "test_dir": data, "classes": 3,
                   "slic": {"k": 16, "m": float("nan")}, "train": {"epochs": 1, "hidden": []},
                   "report": str(out)}
            (tmp_path / "cfg.json").write_text(json.dumps(cfg))  # writes the NaN literal
            argv = ["pipeline", "--config", tmp_path / "cfg.json"]
        else:
            argv = ["slic", "--input", img_path, "--k", 16, *flags, "--out", out]
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-m", "zok.cli", *map(str, argv)],
                              capture_output=True, text=True, env=env, timeout=300)
        err = proc.stderr.strip().splitlines()
        assert proc.returncode == 1, proc.stderr
        assert len(err) == 1 and err[0].startswith("error:") and text in err[0], proc.stderr
        assert not out.exists()


class TestRectCommand:
    def test_grid_partition(self, tmp_path):
        out = tmp_path / "r.zot"
        assert run("rect", "--width", 8, "--height", 8, "--count", 4, "--out", out) == 0
        sp = read_tensor(out)
        assert sp.shape == (8, 8) and sp.max() == 3

    def test_requires_size(self, tmp_path):
        assert run("rect", "--count", 4, "--out", tmp_path / "r.zot") == 1


class TestFeaturesAndPool:
    def test_local_proximal_features(self, tmp_path, quad_image):
        img_path, _ = quad_image
        sp_out = tmp_path / "sp.zot"
        run("slic", "--input", img_path, "--k", 4, "--out", sp_out)
        feat_out = tmp_path / "f.zot"
        assert run("features", "--image", img_path, "--superpixels", sp_out,
                   "--levels", "local,proximal:2", "--out", feat_out) == 0
        feats = read_tensor(feat_out)
        assert feats.shape == (4, 2 * 247)  # 243 color + 4 location, two levels

    def test_mirror_fusion(self, tmp_path, quad_image):
        img_path, _ = quad_image
        sp_out = tmp_path / "sp.zot"
        run("slic", "--input", img_path, "--k", 4, "--out", sp_out)
        out = tmp_path / "fm.zot"
        levels = "local,proximal:2"
        assert run("features", "--image", img_path, "--superpixels", sp_out,
                   "--levels", levels, "--mirror", "--out", out) == 0
        # the element-wise max of the features of the image and of its mirror
        img, sp = read_ppm(img_path), read_tensor(sp_out).astype(np.int32)
        expected = np.maximum(zoomout.build_features(img, sp, levels),
                              zoomout.build_features(img[:, ::-1], sp[:, ::-1], levels))
        written = read_tensor(out)
        assert written.dtype == np.float32 and written.shape == expected.shape
        assert written.tobytes() == expected.astype(np.float32).tobytes()

    def test_featmap_levels(self, tmp_path, quad_image):
        img_path, _ = quad_image
        sp_out = tmp_path / "sp.zot"
        run("slic", "--input", img_path, "--k", 4, "--out", sp_out)
        fm = np.arange(2 * 8 * 8, dtype=np.float32).reshape(2, 8, 8)
        write_tensor(fm, tmp_path / "fm.zot")
        out = tmp_path / "f.zot"
        assert run("features", "--image", img_path, "--superpixels", sp_out,
                   "--levels", "pooled,subscene:1,scene", "--featmap", tmp_path / "fm.zot",
                   "--out", out) == 0
        assert read_tensor(out).shape == (4, 6)

    @pytest.mark.parametrize("levels", ["local,proximal:0", "local,subscene:0",
                                        "local,subscene:-1", "local:5", "pooled:3",
                                        "local,scene:1", "local,bogus"])
    def test_bad_level_spec_exit_1(self, tmp_path, capsys, quad_image, levels):
        img_path, _ = quad_image
        sp_out = tmp_path / "sp.zot"
        run("slic", "--input", img_path, "--k", 4, "--out", sp_out)
        write_tensor(np.ones((2, 8, 8), dtype=np.float32), tmp_path / "fm.zot")
        out = tmp_path / "f.zot"
        capsys.readouterr()
        assert run("features", "--image", img_path, "--superpixels", sp_out,
                   "--featmap", tmp_path / "fm.zot", "--levels", levels, "--out", out) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert not out.exists()

    @pytest.mark.parametrize("case", ["featmap-unread", "upsample-without-featmap"])
    def test_flag_that_does_nothing_exit_1(self, tmp_path, capsys, quad_image, case):
        # the --featmap given is no file: it is refused before it is read
        img_path, _ = quad_image
        sp_out = tmp_path / "sp.zot"
        run("slic", "--input", img_path, "--k", 4, "--out", sp_out)
        flag, argv = {
            "featmap-unread": ("--featmap", ["--levels", "local,proximal:2",
                                             "--featmap", tmp_path / "none.zot"]),
            "upsample-without-featmap": ("--upsample", ["--upsample", "bilinear"]),
        }[case]
        out = tmp_path / "f.zot"
        capsys.readouterr()
        assert run("features", "--image", img_path, "--superpixels", sp_out, *argv,
                   "--out", out) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and flag in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["features", "pool"])
    def test_rank_2_featmap_exit_1(self, tmp_path, capsys, quad_image, command):
        img_path, _ = quad_image
        sp_out = tmp_path / "sp.zot"
        run("slic", "--input", img_path, "--k", 4, "--out", sp_out)
        write_tensor(np.ones((8, 8), dtype=np.float32), tmp_path / "fm.zot")
        out = tmp_path / "o.zot"
        argv = {"features": ["--image", img_path, "--levels", "local,pooled"],
                "pool": []}[command]
        capsys.readouterr()
        assert run(command, *argv, "--superpixels", sp_out, "--featmap", tmp_path / "fm.zot",
                   "--out", out) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "--featmap" in err[0] and "(8, 8)" in err[0]
        assert not out.exists()

    def test_pool_command(self, tmp_path, quad_image):
        img_path, _ = quad_image
        sp_out = tmp_path / "sp.zot"
        run("slic", "--input", img_path, "--k", 4, "--out", sp_out)
        fm = np.full((3, 8, 8), 2.0, dtype=np.float32)
        write_tensor(fm, tmp_path / "fm.zot")
        out = tmp_path / "p.zot"
        assert run("pool", "--featmap", tmp_path / "fm.zot", "--superpixels", sp_out,
                   "--upsample", "nearest", "--out", out) == 0
        assert np.allclose(read_tensor(out), 2.0)


class TestTrainPredict:
    def test_train_and_predict_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        x = np.concatenate([rng.normal(-2, 0.3, (40, 2)), rng.normal(2, 0.3, (40, 2))])
        y = np.repeat([0, 1], 40).astype(np.uint32)
        write_tensor(x.astype(np.float32), tmp_path / "x.zot")
        write_tensor(y, tmp_path / "y.zot")
        model_path = tmp_path / "m.zom"
        assert run("train", "--features", tmp_path / "x.zot", "--labels", tmp_path / "y.zot",
                   "--hidden", "8", "--epochs", 40, "--lr", 0.1, "--seed", 7,
                   "--out", model_path) == 0
        pred_path = tmp_path / "p.zot"
        assert run("predict", "--model", model_path, "--features", tmp_path / "x.zot",
                   "--out", pred_path) == 0
        pred = read_tensor(pred_path)
        assert (pred == y).mean() >= 0.99

    def test_whole_float32_labels_match_uint32(self, tmp_path):
        rng = np.random.default_rng(6)
        write_tensor(rng.normal(size=(30, 3)).astype(np.float32), tmp_path / "x.zot")
        y = rng.integers(0, 3, size=30)
        for dtype in (np.uint32, np.float32):
            write_tensor(y.astype(dtype), tmp_path / "y.zot")
            assert run("train", "--features", tmp_path / "x.zot", "--labels", tmp_path / "y.zot",
                       "--hidden", "4", "--epochs", 3, "--seed", 5,
                       "--out", tmp_path / f"{np.dtype(dtype).name}.zom") == 0
        assert (tmp_path / "float32.zom").read_bytes() == (tmp_path / "uint32.zom").read_bytes()

    def test_deterministic_across_runs(self, tmp_path):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(30, 3)).astype(np.float32)
        y = rng.integers(0, 3, size=30).astype(np.uint32)
        write_tensor(x, tmp_path / "x.zot")
        write_tensor(y, tmp_path / "y.zot")
        for name in ("a.zom", "b.zom"):
            run("train", "--features", tmp_path / "x.zot", "--labels", tmp_path / "y.zot",
                "--epochs", 3, "--seed", 5, "--out", tmp_path / name)
        assert (tmp_path / "a.zom").read_bytes() == (tmp_path / "b.zom").read_bytes()


def model_bytes(tmp_path, hidden_in=4):
    """A ZOM1 file for a 3 -> 4 -> 2 MLP, 156 bytes: header [0, 12),
    layer 0 header/weights/bias [12, 20)/[20, 68)/[68, 84), layer 1
    [84, 92)/[92, 124)/[124, 132), mean [132, 144), std [144, 156).
    hidden_in != 4 gives layer 1 an input size that does not chain."""
    model = learner.MlpModel(
        [np.ones((4, 3)), np.ones((2, hidden_in))], [np.zeros(4), np.zeros(2)],
        np.zeros(3), np.ones(3),
    )
    learner.write_model(model, tmp_path / "m.zom")
    return (tmp_path / "m.zom").read_bytes()


class TestPredictMalformedModel:
    @pytest.mark.parametrize("case", [
        "no-layers", "short-header", "layer-header", "weights", "bias", "mean-std",
        "dims-mismatch", "nan-weight", "inf-bias", "nan-mean", "inf-std",
    ])
    def test_exit_2_with_one_error_line(self, tmp_path, capsys, case):
        data = model_bytes(tmp_path)
        assert len(data) == 156

        def poke(offset, value):
            return data[:offset] + struct.pack("<f", value) + data[offset + 4:]

        bad = {
            "no-layers": b"ZOM1" + struct.pack("<II", 2, 0),
            "short-header": data[:8],
            "layer-header": data[:16],
            "weights": data[:40],
            "bias": data[:76],
            "mean-std": data[:140],
            "dims-mismatch": model_bytes(tmp_path, hidden_in=5),
            "nan-weight": poke(96, float("nan")),
            "inf-bias": poke(68, float("inf")),
            "nan-mean": poke(136, float("nan")),
            "inf-std": poke(152, float("-inf")),
        }[case]
        (tmp_path / "bad.zom").write_bytes(bad)
        write_tensor(np.zeros((2, 3), dtype=np.float32), tmp_path / "x.zot")
        capsys.readouterr()
        assert run("predict", "--model", tmp_path / "bad.zom", "--features", tmp_path / "x.zot",
                   "--out", tmp_path / "p.zot") == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert not (tmp_path / "p.zot").exists()


class TestPredictMalformedFeatures:
    def test_dims_product_beyond_int64_exit_2(self, tmp_path, capsys):
        model_bytes(tmp_path)
        header = b"ZOT1" + bytes([0, 4]) + struct.pack("<4I", *[65536] * 4)
        (tmp_path / "x.zot").write_bytes(header)  # no payload
        capsys.readouterr()
        assert run("predict", "--model", tmp_path / "m.zom", "--features", tmp_path / "x.zot",
                   "--out", tmp_path / "p.zot") == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert not (tmp_path / "p.zot").exists()


def bad_spmap(kind):
    sp = np.zeros((32, 32), dtype=np.uint32)
    if kind == "gap":
        sp[:, 16:] = 5              # ids {0, 5}: not contiguous
    elif kind == "huge-id":
        sp[0, 0] = 2**31            # above the pixel count
    else:
        sp = sp[None]               # rank 3
    return sp


class TestSuperpixelMapValidation:
    @pytest.mark.parametrize("kind", ["gap", "huge-id", "rank-3"])
    def test_features_rejects_bad_map(self, tmp_path, capsys, quad_image, kind):
        img_path, _ = quad_image
        write_tensor(bad_spmap(kind), tmp_path / "sp.zot")
        capsys.readouterr()
        assert run("features", "--image", img_path, "--superpixels", tmp_path / "sp.zot",
                   "--levels", "local", "--out", tmp_path / "f.zot") == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert not (tmp_path / "f.zot").exists()

    @pytest.mark.parametrize("kind", ["gap", "huge-id", "rank-3"])
    def test_crf_rejects_bad_map(self, tmp_path, capsys, quad_image, kind):
        img_path, _ = quad_image
        write_tensor(bad_spmap(kind), tmp_path / "sp.zot")
        write_tensor(np.full((6, 2), 0.5, dtype=np.float32), tmp_path / "u.zot")
        capsys.readouterr()
        assert run("crf", "--unary", tmp_path / "u.zot", "--image", img_path,
                   "--superpixels", tmp_path / "sp.zot", "--out", tmp_path / "q.zot") == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert not (tmp_path / "q.zot").exists()


    def test_crf_rejects_map_size_mismatch(self, tmp_path, capsys, quad_image):
        img_path, _ = quad_image    # 32x32
        write_tensor(np.zeros((8, 8), dtype=np.uint32), tmp_path / "sp.zot")
        write_tensor(np.full((1, 2), 0.5, dtype=np.float32), tmp_path / "u.zot")
        capsys.readouterr()
        assert run("crf", "--unary", tmp_path / "u.zot", "--image", img_path,
                   "--superpixels", tmp_path / "sp.zot", "--out", tmp_path / "q.zot") == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "size" in err[0]
        assert not (tmp_path / "q.zot").exists()


class TestNonFiniteInputs:
    # case -> (input made non-finite, the value put in it, the name the
    # error gives it, argv before --out)
    CASES = {
        "features": ("x", np.nan, "features", ("train", "--features", "x", "--labels", "y",
                                               "--weights", "w", "--epochs", 1)),
        "weights": ("w", np.nan, "weights", ("train", "--features", "x", "--labels", "y",
                                             "--weights", "w", "--epochs", 1)),
        "unary": ("u", np.nan, "unary", ("crf", "--unary", "u", "--image", "img")),
        "predict-features": ("x", np.nan, "features", ("predict", "--model", "model",
                                                       "--features", "x")),
        "pool-featmap": ("fm", np.inf, "featmap", ("pool", "--featmap", "fm",
                                                   "--superpixels", "sp")),
        "features-featmap": ("fm", -np.inf, "featmap", ("features", "--image", "img",
                                                        "--superpixels", "sp", "--featmap", "fm",
                                                        "--levels", "local,pooled")),
        "sample-scores": ("scores", np.nan, "scores", ("sample", "--scores", "scores",
                                                       "--features", "field")),
        "sample-features": ("field", np.inf, "features", ("sample", "--scores", "scores",
                                                          "--features", "field")),
    }

    @pytest.mark.parametrize("bad", list(CASES))
    def test_exit_1_with_one_error_line(self, tmp_path, capsys, quad_image, bad):
        tensor, value, name, argv = self.CASES[bad]
        arrays = {
            "x": np.zeros((4, 2), dtype=np.float32),
            "w": np.ones(4, dtype=np.float32),
            "u": np.full((4, 32, 32), 0.25, dtype=np.float32),
            "fm": np.ones((2, 8, 8), dtype=np.float32),
            "scores": np.ones((2, 6, 6), dtype=np.float32),
            "field": np.arange(4 * 36, dtype=np.float32).reshape(4, 6, 6),
        }
        arrays[tensor].flat[1] = value
        paths = {"img": quad_image[0], "model": tmp_path / "m.zom", "y": tmp_path / "y.zot",
                 "sp": tmp_path / "sp.zot"}
        for key, arr in arrays.items():
            paths[key] = tmp_path / f"{key}.zot"
            write_tensor(arr, paths[key])
        write_tensor(np.array([0, 1, 0, 1], dtype=np.uint32), paths["y"])
        write_tensor(np.zeros((32, 32), dtype=np.uint32), paths["sp"])
        learner.write_model(learner.init_model([2, 2], seed=0), paths["model"])
        out = tmp_path / "out"
        capsys.readouterr()
        assert run(*(paths.get(a, a) for a in argv), "--out", out) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and name in err[0]
        assert not out.exists()


class TestSampleCommand:
    def test_points_tensor_layout(self, tmp_path):
        rng = np.random.default_rng(2)
        scores = rng.uniform(0.1, 1.0, size=(2, 6, 6)).astype(np.float32)
        field = rng.normal(size=(4, 6, 6)).astype(np.float32)
        write_tensor(scores, tmp_path / "s.zot")
        write_tensor(field, tmp_path / "z.zot")
        out = tmp_path / "pts.zot"
        assert run("sample", "--scores", tmp_path / "s.zot", "--features", tmp_path / "z.zot",
                   "--k", 3, "--mode", "diverse", "--bg", "--out", out) == 0
        pts = read_tensor(out)
        assert pts.shape == (3 * 3, 4)  # 2 classes + bg rows, (class,row,col,rank)
        assert set(pts[:, 0]) == {0, 1, 2}
        assert np.all(pts[:, 3] < 3)

    @pytest.mark.parametrize("flags", [["--mode", "diverse"], ["--mode", "topk", "--bg"]])
    def test_grid_mismatch_exit_1(self, tmp_path, capsys, flags):
        write_tensor(np.ones((2, 8, 8), dtype=np.float32), tmp_path / "s.zot")
        write_tensor(np.random.default_rng(3).normal(size=(3, 4, 4)).astype(np.float32),
                     tmp_path / "z.zot")
        out = tmp_path / "pts.zot"
        capsys.readouterr()
        assert run("sample", "--scores", tmp_path / "s.zot", "--features", tmp_path / "z.zot",
                   *flags, "--out", out) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "grid" in err[0]
        assert not out.exists()

    # a (1, 2, 2) field whose top row standardizes to two unit vectors and
    # whose bottom row, at the field's mean, to zero: two usable locations
    TWO_USABLE = np.array([[[0.0, 2.0], [1.0, 1.0]]], dtype=np.float32)

    @pytest.mark.parametrize("case", ["k-above-usable", "no-background-left", "constant-field"])
    def test_short_point_set_exit_1(self, tmp_path, capsys, case):
        field, flags, text = {
            "k-above-usable": (self.TWO_USABLE, ["--k", 3], "class 0 has only 2"),
            "no-background-left": (self.TWO_USABLE, ["--k", 2, "--bg"], "background has only 0"),
            "constant-field": (np.full((3, 2, 2), 5.0, dtype=np.float32), ["--k", 1],
                               "class 0 has only 0"),
        }[case]
        write_tensor(np.ones((1, 2, 2), dtype=np.float32), tmp_path / "s.zot")
        write_tensor(field, tmp_path / "z.zot")
        out = tmp_path / "pts.zot"
        capsys.readouterr()
        assert run("sample", "--scores", tmp_path / "s.zot", "--features", tmp_path / "z.zot",
                   *flags, "--out", out) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and text in err[0]
        assert not out.exists()


class TestCrfCommand:
    def test_pixel_mode_refines(self, tmp_path, quad_image):
        img_path, _ = quad_image
        rng = np.random.default_rng(3)
        probs = rng.dirichlet(np.ones(4), size=32 * 32).astype(np.float32)
        write_tensor(probs.T.reshape(4, 32, 32).copy(), tmp_path / "u.zot")
        out = tmp_path / "q.zot"
        assert run("crf", "--unary", tmp_path / "u.zot", "--image", img_path,
                   "--iters", 2, "--out", out) == 0
        q = read_tensor(out)
        assert q.shape == (4, 32, 32)
        assert np.allclose(q.sum(axis=0), 1.0, atol=1e-4)

    @pytest.mark.parametrize("flag", ["--sigma-xy", "--sigma-lab", "--sigma-xy-smooth"])
    def test_non_positive_sigma_exit_1(self, tmp_path, capsys, quad_image, flag):
        img_path, _ = quad_image
        write_tensor(np.full((4, 32, 32), 0.25, dtype=np.float32), tmp_path / "u.zot")
        capsys.readouterr()
        assert run("crf", "--unary", tmp_path / "u.zot", "--image", img_path,
                   flag, 0, "--out", tmp_path / "q.zot") == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "sigma" in err[0]

    @pytest.mark.parametrize("flag,value", [
        ("--w-appearance", "nan"), ("--w-appearance", "inf"), ("--w-appearance", -1),
        ("--w-smooth", "nan"), ("--sigma-xy", "inf"), ("--sigma-lab", "nan"),
        ("--sigma-xy-smooth", "nan"),
        # 1/sigma^2 is inf or 0 in float64
        *[(flag, value) for flag in ("--sigma-xy", "--sigma-lab", "--sigma-xy-smooth")
          for value in ("1e-300", "5e-324", "1e300", "1e308")]])
    def test_bad_kernel_setting_exit_1(self, tmp_path, capsys, quad_image, flag, value):
        img_path, _ = quad_image
        write_tensor(np.full((4, 32, 32), 0.25, dtype=np.float32), tmp_path / "u.zot")
        out = tmp_path / "q.zot"
        capsys.readouterr()
        assert run("crf", "--unary", tmp_path / "u.zot", "--image", img_path,
                   flag, value, "--out", out) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert flag[2:].replace("-", "_") in err[0]
        assert not out.exists()

    WIDE = ["--sigma-xy", "1e10", "--sigma-lab", "1e10", "--sigma-xy-smooth", "1e10"]

    @pytest.mark.parametrize("case,flags", [
        ("superpixels", ["--w-appearance", "1e308", "--w-smooth", "1e308", *WIDE]),
        ("pixels", ["--w-appearance", "1e308", "--w-smooth", "1e308", *WIDE]),
        ("superpixels", ["--w-appearance", "1.7e308"]),
        ("superpixels", ["--w-appearance", "1e308", "--w-smooth", "1e308", *WIDE,
                         "--mode", "sequential"])])
    def test_mean_field_overflow_exit_1(self, tmp_path, capsys, quad_image, case, flags):
        # K or a message leaves the float64 range: no NaN output, no file
        img_path, _ = quad_image
        rng = np.random.default_rng(6)
        if case == "pixels":
            unary = rng.dirichlet(np.ones(3), size=32 * 32).T.reshape(3, 32, 32).copy()
            more = []
        else:
            write_tensor(zoomout.rect_regions(32, 32, 16).astype(np.uint32), tmp_path / "sp.zot")
            unary = rng.dirichlet(np.ones(3), size=16)
            more = ["--superpixels", tmp_path / "sp.zot"]
        write_tensor(unary.astype(np.float32), tmp_path / "u.zot")
        out = tmp_path / "q.zot"
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run("crf", "--unary", tmp_path / "u.zot", "--image", img_path, *more,
                       *flags, "--out", out) == 1
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "float64 range" in err[0]
        assert not out.exists()

    def test_superpixel_mode(self, tmp_path, quad_image):
        img_path, _ = quad_image
        sp_out = tmp_path / "sp.zot"
        run("slic", "--input", img_path, "--k", 4, "--out", sp_out)
        rng = np.random.default_rng(4)
        probs = rng.dirichlet(np.ones(3), size=4).astype(np.float32)
        write_tensor(probs, tmp_path / "u.zot")
        out = tmp_path / "q.zot"
        assert run("crf", "--unary", tmp_path / "u.zot", "--image", img_path,
                   "--superpixels", sp_out, "--iters", 3, "--mode", "sequential",
                   "--out", out) == 0
        assert read_tensor(out).shape == (4, 3)

    def test_pixel_mode_size_guard(self, tmp_path):
        from zok.core_io import write_ppm
        big = np.zeros((70, 70, 3), dtype=np.uint8)
        write_ppm(big, tmp_path / "big.ppm")
        probs = np.full((2, 70, 70), 0.5, dtype=np.float32)
        write_tensor(probs, tmp_path / "u.zot")
        assert run("crf", "--unary", tmp_path / "u.zot", "--image", tmp_path / "big.ppm",
                   "--out", tmp_path / "q.zot") == 1


def reference_pixel_crf_nodes(lab):
    """Node Lab and (x, y) of pixel-mode `zok crf` before it shared
    labxy_means with the --superpixels mode."""
    h, w = lab.shape[:2]
    node_lab = lab.reshape(-1, 3)
    ys, xs = np.mgrid[0:h, 0:w]
    node_pos = np.stack([xs.ravel(), ys.ravel()], axis=1).astype(np.float64)
    return node_lab, node_pos


class TestCrfPixelModeOracle:
    def test_refined_q_matches_reference_bytes(self, tmp_path):
        rng = np.random.default_rng(12)
        for i in range(20):
            h, w = (int(v) for v in rng.integers(1, 41, size=2))
            if i % 4 == 0:  # flat image: every pixel has the same Lab
                img = np.broadcast_to(rng.integers(0, 256, 3), (h, w, 3)).astype(np.uint8)
            else:
                img = rng.integers(0, 256, (h, w, 3)).astype(np.uint8)
            c = int(rng.integers(2, 5))
            unary = rng.dirichlet(np.ones(c), size=h * w).T.reshape(c, h, w).astype(np.float32)
            write_ppm(img, tmp_path / "i.ppm")
            write_tensor(unary, tmp_path / "u.zot")
            assert run("crf", "--unary", tmp_path / "u.zot", "--image", tmp_path / "i.ppm",
                       "--iters", 3, "--out", tmp_path / "q.zot") == 0
            lab = rgb_to_lab(img)
            node_lab, node_pos = reference_pixel_crf_nodes(lab)
            node = labxy_means(lab, np.arange(h * w).reshape(h, w))
            assert node[:, :3].tobytes() == node_lab.tobytes()
            assert node[:, 3:].tobytes() == node_pos.tobytes()
            probs = unary.astype(np.float64).reshape(c, -1).T
            q_ref = crf.mean_field_refine(crf.image_crf(node_lab, probs, node_pos), 3).q
            q_new = crf.mean_field_refine(crf.image_crf(node[:, :3], probs, node[:, 3:]), 3).q
            assert q_new.tobytes() == q_ref.tobytes()
            expected = q_ref.T.reshape(unary.shape).astype(np.float32)
            assert read_tensor(tmp_path / "q.zot").tobytes() == expected.tobytes()


class TestEvalCommands:
    def test_eval_json_report(self, tmp_path, capsys):
        labels = np.array([[0, 1], [2, 3]])
        write_pgm(labels, tmp_path / "p.pgm")
        write_pgm(labels, tmp_path / "g.pgm")
        assert run("eval", "--pred", tmp_path / "p.pgm", "--gt", tmp_path / "g.pgm",
                   "--classes", 4, "--report", "json") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["mIoU"] == 1.0 and report["pixel_acc"] == 1.0
        assert report["per_class_iou"] == [1.0, 1.0, 1.0, 1.0]

    def test_all_ignore_gt_exit_1(self, tmp_path, capsys):
        write_pgm(np.zeros((4, 4), dtype=np.int64), tmp_path / "p.pgm")
        write_pgm(np.full((4, 4), 255), tmp_path / "g.pgm")
        out = tmp_path / "r.json"
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run("eval", "--pred", tmp_path / "p.pgm", "--gt", tmp_path / "g.pgm",
                       "--classes", 3, "--out", out) == 1
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "no scored pixel" in err[0]
        assert str(tmp_path / "g.pgm") in err[0]
        assert captured.out == "" and not out.exists()

    def test_eval_depth(self, tmp_path, capsys):
        gt = np.full((4, 4), 2.0, dtype=np.float32)
        write_tensor(gt, tmp_path / "g.zot")
        write_tensor(gt * 1.2, tmp_path / "p.zot")
        assert run("eval-depth", "--pred", tmp_path / "p.zot", "--gt", tmp_path / "g.zot",
                   "--report", "json") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["delta_1"] == 1.0
        assert report["rmse_log"] == pytest.approx(0.1823, abs=1e-4)

    def test_unknown_rel_denominator_exit_1(self, tmp_path, capsys):
        write_tensor(np.full((4, 4), 2.0, dtype=np.float32), tmp_path / "g.zot")
        (tmp_path / "c.json").write_text(json.dumps({"rel_denominator": "bogus"}))
        out = tmp_path / "r.json"
        capsys.readouterr()
        assert run("eval-depth", "--pred", tmp_path / "g.zot", "--gt", tmp_path / "g.zot",
                   "--config", tmp_path / "c.json", "--out", out) == 1
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "rel_denominator" in err[0]
        assert captured.out == "" and not out.exists()

    def test_report_emit_nulls_roundtrip(self, tmp_path):
        scores = {"mIoU": 0.5, "per_class_iou": [0.5, float("nan")]}
        text = cli.report_emit(scores, tmp_path / "r.json", "json")
        parsed = json.loads(text)
        assert parsed["per_class_iou"] == [0.5, None]
        assert json.loads((tmp_path / "r.json").read_text()) == parsed

    def test_report_emit_text_table(self):
        text = cli.report_emit({"mIoU": 0.123456, "n": 3}, None, "text")
        assert "0.1235" in text and "n" in text

    # one report of every kind of value, and its renderings as the
    # four-decimal JSON and text renderers wrote them before they shared
    # one cleaning pass
    GOLDEN_SCORES = {
        "mIoU": float("nan"), "f32": np.float32(0.1), "i64": np.int64(7), "n": 3,
        "per_class": [0.123456, None, float("nan"), np.float32(0.25), np.int64(2), 1],
        "crf": {"mIoU": 0.5, "n": 2},
    }
    GOLDEN_JSON = ('{\n  "mIoU": null,\n  "f32": 0.1,\n  "i64": 7,\n  "n": 3,\n'
                   '  "per_class": [\n    0.1235,\n    null,\n    null,\n    0.25,\n'
                   '    2,\n    1\n  ],\n  "crf": {\n    "mIoU": 0.5,\n    "n": 2\n  }\n}')
    GOLDEN_TEXT = ("mIoU       null\nf32        0.1000\ni64        7\nn          3\n"
                   "per_class  0.1235 null null 0.2500 2.0000 1.0000\n"
                   "crf        {'mIoU': 0.5, 'n': 2}\n")

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_report_emit_golden(self, tmp_path, fmt):
        golden = {"json": self.GOLDEN_JSON, "text": self.GOLDEN_TEXT}[fmt]
        assert cli.report_emit(self.GOLDEN_SCORES, tmp_path / "r", fmt) == golden
        assert (tmp_path / "r").read_text() == golden

    def test_report_emit_text_renders_cleaned_values(self):
        # None reads null as in JSON, and a nested dict shows rounded Python numbers
        scores = {"none": None, "crf": {"a": np.float64(0.123456), "b": float("nan")}}
        text = cli.report_emit(scores, None, "text")
        assert text == "none  null\ncrf   {'a': 0.1235, 'b': None}\n"


class TestConfigMerge:
    def test_flags_override_config(self, tmp_path, quad_image):
        img_path, _ = quad_image
        cfg = {"k": 9, "m": 10.0}
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "sp.zot"
        assert run("slic", "--config", cfg_path, "--input", img_path,
                   "--k", 4, "--out", out) == 0
        assert read_tensor(out).max() == 3  # explicit --k 4 wins

    def test_config_supplies_missing_values(self, tmp_path, quad_image):
        img_path, _ = quad_image
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps({"k": 4}))
        out = tmp_path / "sp.zot"
        assert run("slic", "--config", cfg_path, "--input", img_path, "--out", out) == 0
        assert read_tensor(out).max() == 3

    def test_unknown_config_key_rejected(self, tmp_path, quad_image):
        img_path, _ = quad_image
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps({"k": 4, "bogus": 1}))
        assert run("slic", "--config", cfg_path, "--input", img_path,
                   "--out", tmp_path / "sp.zot") == 1


class TestSynthCommand:
    def test_generates_dataset(self, tmp_path):
        out = tmp_path / "data"
        assert run("synth", "--out", out, "--count", 2, "--size", 16,
                   "--classes", 3, "--kind", "stripes") == 0
        assert len(list(out.iterdir())) == 4

    def test_size_below_one_rejected(self, tmp_path):
        out = tmp_path / "data"
        assert run("synth", "--out", out, "--count", 2, "--size", 0) == 1
        assert not out.exists()

    @pytest.mark.parametrize("size", [1, 2])
    def test_blobs_below_size_3_exit_1(self, tmp_path, capsys, size):
        out = tmp_path / "data"
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run("synth", "--out", out, "--size", size) == 1
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "size >= 3" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("count", [0, -1])
    def test_count_below_one_exit_1(self, tmp_path, capsys, count):
        out = tmp_path / "data"
        capsys.readouterr()
        assert run("synth", "--out", out, "--size", 8, "--count", count) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "count" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("noise", ["nan", -1, "inf"])
    def test_bad_noise_exit_1(self, tmp_path, capsys, noise):
        out = tmp_path / "data"
        capsys.readouterr()
        assert run("synth", "--out", out, "--size", 8, "--noise", noise) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "noise" in err[0]
        assert not out.exists()


class TestPipelineCommand:
    def test_oracle_pipeline_miou_one(self, tmp_path, capsys):
        spec = SyntheticSpec(size=32, num_classes=4, kind="quadrants")
        synth_generate(spec, 2, 0, tmp_path / "test")
        cfg = {
            "test_dir": str(tmp_path / "test"),
            "classes": 4,
            "oracle": True,
            "slic": {"k": 4, "m": 10},
            "report": str(tmp_path / "report.json"),
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run("pipeline", "--config", cfg_path) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["mIoU"] == 1.0

    def test_identical_config_identical_artifacts(self, tmp_path):
        spec = SyntheticSpec(size=32, num_classes=4, kind="quadrants")
        synth_generate(spec, 2, 0, tmp_path / "test")
        reports = []
        for name in ("r1.json", "r2.json"):
            cfg = {"test_dir": str(tmp_path / "test"), "classes": 4, "oracle": True,
                   "slic": {"k": 4, "m": 10}, "report": str(tmp_path / name)}
            p = tmp_path / ("cfg_" + name)
            p.write_text(json.dumps(cfg))
            assert run("pipeline", "--config", p) == 0
            reports.append((tmp_path / name).read_bytes())
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("section", ["top", "slic", "train", "crf"])
    def test_unknown_key_rejected(self, tmp_path, capsys, section):
        spec = SyntheticSpec(size=32, num_classes=4, kind="quadrants")
        synth_generate(spec, 1, 0, tmp_path / "test")
        cfg = {"train_dir": str(tmp_path / "test"), "test_dir": str(tmp_path / "test"),
               "classes": 4, "slic": {"k": 4, "m": 10}, "train": {"epochs": 1},
               "crf": {"iters": 1}, "report": str(tmp_path / "report.json")}
        typo = "proximal_raduis" if section == "top" else "sigma_xyz"
        (cfg if section == "top" else cfg[section])[typo] = 3
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        capsys.readouterr()
        assert run("pipeline", "--config", cfg_path) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and typo in err[0]
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("empty", ["train_dir", "test_dir"])
    def test_directory_without_images_exit_1(self, tmp_path, capsys, empty):
        synth_generate(SyntheticSpec(size=16, num_classes=4, kind="quadrants"), 1, 0,
                       tmp_path / "data")
        (tmp_path / "empty").mkdir()
        cfg = {"train_dir": str(tmp_path / "data"), "test_dir": str(tmp_path / "data"),
               "classes": 4, "slic": {"k": 4, "m": 10}, "train": {"epochs": 1},
               "report": str(tmp_path / "report.json")}
        cfg[empty] = str(tmp_path / "empty")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run("pipeline", "--config", cfg_path) == 1
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and str(tmp_path / "empty") in err[0]
        assert not (tmp_path / "report.json").exists()

    def test_all_ignore_test_dir_exit_1(self, tmp_path, capsys):
        synth_generate(SyntheticSpec(size=16, num_classes=4, kind="quadrants"), 1, 0,
                       tmp_path / "test")
        write_pgm(np.full((16, 16), 255), tmp_path / "test" / "gt_0000.pgm")
        cfg = {"test_dir": str(tmp_path / "test"), "classes": 4, "oracle": True,
               "slic": {"k": 4, "m": 10}, "report": str(tmp_path / "report.json")}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run("pipeline", "--config", cfg_path) == 1
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "no scored pixel" in err[0]
        assert not (tmp_path / "report.json").exists()

    def test_missing_dir_exit_2(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"test_dir": str(tmp_path / "none"),
                                        "classes": 4, "oracle": True}))
        assert run("pipeline", "--config", cfg_path) == 2


class TestConfigValueTypes:
    """Wrongly typed or out-of-range config values, for subcommands and the
    pipeline alike, exit 1 with one error line that names the key, never a
    traceback.  A pipeline value is checked before any image loads, so a
    bad value beside a missing train_dir ("MISSING") still exits 1."""

    # case -> (subcommand or "pipeline", config change, text the error holds)
    CASES = {
        "slic-k-str": ("slic", {"k": "a"}, "key 'k'"),
        "slic-k-bool": ("slic", {"k": True}, "key 'k'"),
        "slic-m-str": ("slic", {"k": 4, "m": "x"}, "key 'm'"),
        "rect-count-str": ("rect", {"count": "3"}, "key 'count'"),
        "crf-iters-float": ("crf", {"iters": 2.5}, "key 'iters'"),
        "train-hidden-list": ("train", {"hidden": [8]}, "key 'hidden'"),
        "pipeline-hidden-int": ("pipeline", {"train": {"hidden": 8}}, "key 'hidden'"),
        "pipeline-hidden-str-items": ("pipeline", {"train": {"hidden": ["a"]}}, "key 'hidden'"),
        "pipeline-k-str": ("pipeline", {"slic": {"k": "a"}}, "key 'k'"),
        "pipeline-classes-str": ("pipeline", {"classes": "3"}, "key 'classes'"),
        "pipeline-oracle-int": ("pipeline", {"oracle": 1}, "key 'oracle'"),
        "pipeline-epochs-float": ("pipeline", {"train": {"epochs": 2.5}}, "key 'epochs'"),
        "pipeline-crf-iters-str": ("pipeline", {"crf": {"iters": "5"}}, "key 'iters'"),
        "pipeline-crf-list": ("pipeline", {"crf": [1]}, "key 'crf'"),
        "pipeline-crf-sigma-zero": ("pipeline", {"crf": {"sigma_xy": 0}}, "sigma_xy"),
        "pipeline-classes-missing": ("pipeline", {"classes": None}, "['classes']"),
        "train-batch-size-negative": ("train", {"batch_size": -1}, "batch_size"),
        "train-batch-size-zero": ("train", {"batch_size": 0}, "batch_size"),
        "train-epochs-negative": ("train", {"epochs": -3}, "epochs"),
        "sample-topk-k-negative": ("sample", {"mode": "topk", "k": -1}, "k must be >= 1"),
        "sample-spatial-k-zero": ("sample", {"mode": "spatial", "k": 0}, "k must be >= 1"),
        "sample-diverse-k-zero": ("sample", {"mode": "diverse", "k": 0}, "k must be >= 1"),
        "rect-width-negative": ("rect", {"width": -5, "height": 4, "count": 3},
                                "width and height must be >= 1"),
        "rect-height-zero": ("rect", {"width": 8, "height": 0, "count": 3},
                             "width and height must be >= 1"),
        "pipeline-batch-size-negative": ("pipeline", {"train": {"batch_size": -1}},
                                         "batch_size"),
        "pipeline-epochs-negative": ("pipeline", {"train": {"epochs": -3}}, "epochs"),
        "pipeline-crf-iters-zero": ("pipeline", {"crf": {"iters": 0}}, "iters"),
        "pipeline-crf-damping-one": ("pipeline", {"crf": {"damping": 1.0}}, "damping"),
        "pipeline-crf-sigma-zero-no-train-dir": (
            "pipeline", {"crf": {"sigma_xy": 0}, "train_dir": "MISSING"}, "sigma_xy"),
        "pipeline-crf-iters-zero-no-train-dir": (
            "pipeline", {"crf": {"iters": 0}, "train_dir": "MISSING"}, "iters"),
        "pipeline-batch-size-zero-no-train-dir": (
            "pipeline", {"train": {"batch_size": 0}, "train_dir": "MISSING"}, "batch_size"),
        "pipeline-proximal-radius-zero-no-train-dir": (
            "pipeline", {"proximal_radius": 0, "train_dir": "MISSING"}, "radius >= 1"),
        "pipeline-hidden-zero-no-train-dir": (
            "pipeline", {"train": {"hidden": [0]}, "train_dir": "MISSING"}, "hidden"),
        "pipeline-lr-nan-no-train-dir": (
            "pipeline", {"train": {"learning_rate": math.nan}, "train_dir": "MISSING"},
            "learning rate"),
        "pipeline-crf-w-smooth-nan": ("pipeline", {"crf": {"w_smooth": math.nan}}, "w_smooth"),
        "pipeline-crf-w-smooth-nan-no-train-dir": (
            "pipeline", {"crf": {"w_smooth": math.nan}, "train_dir": "MISSING"}, "w_smooth"),
        "pipeline-classes-zero-no-train-dir": (
            "pipeline", {"classes": 0, "train_dir": "MISSING"}, "classes must be >= 1"),
        "pipeline-classes-negative-no-train-dir": (
            "pipeline", {"classes": -2, "train_dir": "MISSING"}, "classes must be >= 1"),
        "pipeline-crf-sigma-tiny-no-train-dir": (
            "pipeline", {"crf": {"sigma_xy": 1e-300}, "train_dir": "MISSING"}, "sigma_xy"),
        "pipeline-crf-sigma-huge-no-train-dir": (
            "pipeline", {"crf": {"sigma_lab": 1e308}, "train_dir": "MISSING"}, "sigma_lab"),
        "pipeline-lr-int-beyond-float-no-train-dir": (
            "pipeline", {"train": {"learning_rate": 10**400}, "train_dir": "MISSING"},
            "key 'learning_rate' is beyond the float range"),
        "pipeline-dropout-without-hidden-no-train-dir": (
            "pipeline", {"train": {"dropout": 0.5}, "train_dir": "MISSING"}, "dropout"),
        "pipeline-crf-overflow": (
            "pipeline", {"crf": {"w_appearance": 1e308, "w_smooth": 1e308, "sigma_xy": 1e10,
                                 "sigma_lab": 1e10, "sigma_xy_smooth": 1e10}},
            "[crf] mean field left the float64 range"),
        "slic-config-key": ("slic", {"k": 4, "config": "other.json"}, "'config'"),
        "rect-input-and-size": ("rect", {"input": "absent.ppm", "width": 5, "height": 3,
                                         "count": 3}, "not both"),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_exit_1_with_one_error_line(self, tmp_path, quad_image, case):
        command, change, text = self.CASES[case]
        img_path, _ = quad_image
        data = str(tmp_path / "data")  # where quad_image was written
        if command == "pipeline":
            cfg = {"train_dir": data, "test_dir": data, "classes": 4,
                   "slic": {"k": 4, "m": 10}, "train": {"epochs": 1, "hidden": []},
                   "crf": {"iters": 1}}
            for name, value in change.items():
                if isinstance(value, dict) and isinstance(cfg.get(name), dict):
                    cfg[name] = dict(cfg[name], **value)
                else:
                    cfg[name] = str(tmp_path / "missing") if value == "MISSING" else value
            argv = ["pipeline"]
        else:
            cfg = change
            rng = np.random.default_rng(5)
            write_tensor(rng.uniform(0.1, 1.0, (3, 5, 6)).astype(np.float32), tmp_path / "s.zot")
            write_tensor(rng.normal(size=(4, 5, 6)).astype(np.float32), tmp_path / "z.zot")
            argv = {"slic": [command, "--input", img_path, "--out", tmp_path / "o"],
                    "rect": [command, "--out", tmp_path / "o"],
                    "sample": [command, "--scores", tmp_path / "s.zot",
                               "--features", tmp_path / "z.zot", "--out", tmp_path / "o"],
                    "crf": [command, "--unary", tmp_path / "u.zot", "--image", img_path,
                            "--out", tmp_path / "o"],
                    "train": [command, "--features", tmp_path / "x.zot", "--labels",
                              tmp_path / "y.zot", "--out", tmp_path / "o"]}[command]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "zok.cli", *map(str, argv), "--config", str(cfg_path)],
            capture_output=True, text=True, env=env, timeout=300)
        err = proc.stderr.strip().splitlines()
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        assert len(err) == 1 and err[0].startswith("error:") and text in err[0]

    def test_int_accepted_where_float_declared(self, tmp_path, quad_image):
        img_path, _ = quad_image
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps({"k": 4, "m": 10, "residual_threshold": 1}))
        assert run("slic", "--config", cfg_path, "--input", img_path,
                   "--out", tmp_path / "sp.zot") == 0


class TestSeedFlag:
    """--seed is declared only where a handler reads it: train and synth."""

    @pytest.mark.parametrize("command", list(cli._SPECS))
    def test_seed_declared_only_where_read(self, capsys, command):
        parser = cli.build_parser()
        if command in ("train", "synth"):
            assert parser.parse_args([command, "--seed", "3"]).seed == 3
        else:
            with pytest.raises(SystemExit):
                parser.parse_args([command, "--seed", "3"])

    def test_slic_seed_flag_exit_1(self, tmp_path, capsys, quad_image):
        out = tmp_path / "sp.zot"
        assert run("slic", "--input", quad_image[0], "--k", 4, "--seed", 9, "--out", out) == 1
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()

    def test_pipeline_seed_flag_exit_1(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"test_dir": str(tmp_path), "classes": 2,
                                        "oracle": True}))
        assert run("pipeline", "--config", cfg_path, "--seed", 9) == 1
        assert "--seed" in capsys.readouterr().err

    def test_slic_seed_config_key_exit_1(self, tmp_path, capsys, quad_image):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps({"k": 4, "seed": 9}))
        capsys.readouterr()
        assert run("slic", "--config", cfg_path, "--input", quad_image[0],
                   "--out", tmp_path / "sp.zot") == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "'seed'" in err[0]

    def test_train_and_synth_honour_seed(self, tmp_path):
        rng = np.random.default_rng(6)
        write_tensor(rng.normal(size=(12, 3)).astype(np.float32), tmp_path / "x.zot")
        write_tensor(rng.integers(0, 3, size=12).astype(np.uint32), tmp_path / "y.zot")
        models, images = {}, {}
        for seed in (1, 1, 2):
            model = tmp_path / f"m{seed}.zom"
            assert run("train", "--features", tmp_path / "x.zot", "--labels",
                       tmp_path / "y.zot", "--epochs", 2, "--seed", seed, "--out", model) == 0
            models.setdefault(seed, []).append(model.read_bytes())
            data = tmp_path / f"d{seed}_{len(images.get(seed, []))}"
            assert run("synth", "--out", data, "--size", 16, "--noise", 5.0,
                       "--seed", seed) == 0
            images.setdefault(seed, []).append(
                b"".join(p.read_bytes() for p in sorted(data.iterdir())))
        for got in (models, images):
            assert got[1][0] == got[1][1] and got[1][0] != got[2][0]


class TestBadTrainingInputs:
    """Labels out of the class range, of the wrong length or not whole
    numbers, sample weights that are all zero or negative, settings that
    cannot train and training that diverges exit 1 with one error line for
    `train` and `pipeline` alike, never a traceback, a RuntimeWarning or a
    model file."""

    # case -> (array replaced, its new values, extra train flags, text the error holds);
    # the rows that test a flag rewrite w with its valid all-ones values
    CASES = {
        "train-label-above-classes": ("y", [0, 1, 0, 3], ["--classes", 3], "labels"),
        "train-labels-short": ("y", [0, 1, 0], [], "labels"),
        "train-labels-long": ("y", [0, 1, 0, 1, 0], [], "labels"),
        "train-labels-fractions": ("y", np.float32([0.5, 1.7, 0.2, 1.9]), [], "--labels"),
        "train-label-minus-half": ("y", np.float32([-0.5, 1, 0, 1]), [], "--labels"),
        "train-label-nan": ("y", np.float32([np.nan, 1, 0, 1]), [], "labels must be finite"),
        "train-label-beyond-int64": ("y", np.float32([1e30, 1, 0, 1]), [], "--labels"),
        "train-weights-all-zero": ("w", [0.0, 0.0, 0.0, 0.0], [], "weights"),
        "train-weights-negative": ("w", [1.0, -1.0, 1.0, 1.0], [], "weights"),
        "train-lr-diverges": ("w", [1.0, 1.0, 1.0, 1.0], ["--lr", 1e30, "--epochs", 5],
                              "float32"),
        "train-lr-overflows": ("w", [1.0, 1.0, 1.0, 1.0], ["--lr", 1e30, "--epochs", 50],
                               "diverged"),
        "train-momentum-negative": ("w", [1.0, 1.0, 1.0, 1.0], ["--momentum", -5],
                                    "momentum"),
        "train-momentum-one": ("w", [1.0, 1.0, 1.0, 1.0], ["--momentum", 1.0], "momentum"),
        "train-weight-decay-negative": ("w", [1.0, 1.0, 1.0, 1.0], ["--weight-decay", -1],
                                        "weight_decay"),
        "train-hidden-zero": ("w", [1.0, 1.0, 1.0, 1.0], ["--hidden", 0], "hidden"),
        "train-lr-nan": ("w", [1.0, 1.0, 1.0, 1.0], ["--lr", "nan"], "learning rate"),
        "train-weight-decay-nan": ("w", [1.0, 1.0, 1.0, 1.0], ["--weight-decay", "nan"],
                                   "weight_decay"),
        "train-dropout-without-hidden": ("w", [1.0, 1.0, 1.0, 1.0], ["--dropout", 0.5],
                                         "dropout"),
        "train-weights-with-symmetric-loss": ("w", [1.0, 1.0, 1.0, 1.0],
                                              ["--loss", "symmetric"], "--weights"),
        "pipeline-gt-label-above-classes": (None, None, None, "labels"),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_exit_1_with_one_error_line(self, tmp_path, capsys, quad_image, case):
        name, values, flags, text = self.CASES[case]
        out = tmp_path / "out"
        if name is None:
            # quad_image's ground truth holds labels 0..3, above classes=3
            data = str(tmp_path / "data")
            cfg = {"train_dir": data, "test_dir": data, "classes": 3,
                   "slic": {"k": 4, "m": 10}, "train": {"epochs": 1, "hidden": []},
                   "report": str(out)}
            (tmp_path / "cfg.json").write_text(json.dumps(cfg))
            argv = ["pipeline", "--config", tmp_path / "cfg.json"]
        else:
            arrays = {"x": np.zeros((4, 2), dtype=np.float32),
                      "y": np.array([0, 1, 0, 1], dtype=np.uint32),
                      "w": np.ones(4, dtype=np.float32)}
            if isinstance(values, list):
                values = np.array(values, dtype=arrays[name].dtype)
            arrays[name] = values
            for key, arr in arrays.items():
                write_tensor(arr, tmp_path / f"{key}.zot")
            argv = ["train", "--features", tmp_path / "x.zot", "--labels", tmp_path / "y.zot",
                    "--weights", tmp_path / "w.zot", "--epochs", 1, *flags, "--out", out]
        capsys.readouterr()
        assert run(*argv) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and text in err[0]
        assert not out.exists()


# file-input placeholder -> file name
INPUT_FILES = {
    "img": "i.ppm", "sp": "sp.zot", "fm": "fm.zot", "x": "x.zot", "y": "y.zot",
    "w": "w.zot", "model": "m.zom", "scores": "s.zot", "field": "f.zot", "u": "u.zot",
    "pred-pgm": "p.pgm", "gt-pgm": "g.pgm", "pred-depth": "p.zot", "gt-depth": "g.zot",
}


def valid_input_files(tmp_path):
    """{placeholder: path} of one valid file for every INPUT_FILES entry."""
    rng = np.random.default_rng(13)
    paths = {key: tmp_path / name for key, name in INPUT_FILES.items()}
    write_ppm(rng.integers(0, 256, (8, 8, 3)).astype(np.uint8), paths["img"])
    write_tensor(np.zeros((8, 8), dtype=np.uint32), paths["sp"])
    write_tensor(np.ones((2, 4, 4), dtype=np.float32), paths["fm"])
    write_tensor(rng.normal(size=(4, 2)).astype(np.float32), paths["x"])
    write_tensor(np.array([0, 1, 0, 1], dtype=np.uint32), paths["y"])
    write_tensor(np.ones(4, dtype=np.float32), paths["w"])
    learner.write_model(learner.init_model([2, 2], seed=0), paths["model"])
    write_tensor(rng.uniform(0.1, 1.0, (2, 6, 6)).astype(np.float32), paths["scores"])
    write_tensor(rng.normal(size=(4, 6, 6)).astype(np.float32), paths["field"])
    write_tensor(np.full((1, 2), 0.5, dtype=np.float32), paths["u"])
    for key in ("pred-pgm", "gt-pgm"):
        write_pgm(np.array([[0, 1], [2, 3]]), paths[key])
    for key in ("pred-depth", "gt-depth"):
        write_tensor(np.full((4, 4), 2.0, dtype=np.float32), paths[key])
    return paths


# subcommand -> valid argv (before --config and --out); a value that is an
# INPUT_FILES key is a file input
INPUT_ARGV = {
    "slic": ["--input", "img", "--k", 4],
    "rect": ["--input", "img", "--count", 4],
    "features": ["--image", "img", "--superpixels", "sp", "--featmap", "fm",
                 "--levels", "local,pooled"],
    "pool": ["--featmap", "fm", "--superpixels", "sp"],
    "train": ["--features", "x", "--labels", "y", "--weights", "w", "--epochs", 1],
    "predict": ["--model", "model", "--features", "x"],
    "sample": ["--scores", "scores", "--features", "field", "--k", 2],
    "crf": ["--unary", "u", "--image", "img", "--superpixels", "sp", "--iters", 1],
    "eval": ["--pred", "pred-pgm", "--gt", "gt-pgm", "--classes", 4],
    "eval-depth": ["--pred", "pred-depth", "--gt", "gt-depth"],
    "synth": ["--count", 1, "--size", 8],
    "pipeline": [],
}

FILE_FLAGS = [(command, flag) for command, argv in INPUT_ARGV.items()
              for flag, value in zip(argv[::2], argv[1::2]) if value in INPUT_FILES]

def input_argv(command, paths, replace=None, config=None):
    """INPUT_ARGV[command] with files filled in and one flag's file replaced."""
    argv = [command]
    spec = INPUT_ARGV[command]
    for flag, value in zip(spec[::2], spec[1::2]):
        if replace and flag == replace[0]:
            value = replace[1]
        argv += [flag, paths.get(value, value)]
    if config:
        argv += ["--config", config]
    if command != "pipeline":
        argv += ["--out", paths["out"]]
    return argv


BAD_FILES = {
    "truncated": lambda data: data[: len(data) // 2],
    "empty": lambda data: b"",
    "wrong-magic": lambda data: b"XX" + data[2:],
}


class TestMalformedInputFiles:
    """A malformed file given to any file-input flag, or as --config, exits 2
    with one error line."""

    def test_every_file_flag_listed(self):
        assert len(FILE_FLAGS) == 21
        assert set(INPUT_ARGV) == set(cli._SPECS)

    @pytest.mark.parametrize("command", [c for c in INPUT_ARGV if c not in ("synth", "pipeline")])
    def test_valid_files_exit_0(self, tmp_path, command):
        paths = dict(valid_input_files(tmp_path), out=tmp_path / "out")
        assert run(*input_argv(command, paths)) == 0

    @pytest.mark.parametrize("kind", list(BAD_FILES))
    @pytest.mark.parametrize("command,flag", FILE_FLAGS)
    def test_bad_file_exit_2(self, tmp_path, capsys, command, flag, kind):
        paths = dict(valid_input_files(tmp_path), out=tmp_path / "out")
        value = dict(zip(INPUT_ARGV[command][::2], INPUT_ARGV[command][1::2]))[flag]
        bad = tmp_path / ("bad" + paths[value].suffix)
        bad.write_bytes(BAD_FILES[kind](paths[value].read_bytes()))
        capsys.readouterr()
        assert run(*input_argv(command, paths, replace=(flag, bad))) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and str(bad) in err[0]
        assert not paths["out"].exists()

    @pytest.mark.parametrize("command", list(INPUT_ARGV))
    def test_malformed_config_exit_2(self, tmp_path, capsys, command):
        paths = dict(valid_input_files(tmp_path), out=tmp_path / "out")
        config = tmp_path / "c.json"
        config.write_bytes(b'{"k": 4,')
        capsys.readouterr()
        assert run(*input_argv(command, paths, config=config)) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and str(config) in err[0]
        assert not paths["out"].exists()

    @pytest.mark.parametrize("command", ["slic", "pipeline"])
    @pytest.mark.parametrize("body,code", [(b'\xff\xfe{"k": 4}', 2), (b"[4]", 1)])
    def test_config_encoding_and_shape(self, tmp_path, capsys, command, body, code):
        # bytes that are not UTF-8 are a malformed file; valid JSON that is
        # not an object is a bad value
        paths = dict(valid_input_files(tmp_path), out=tmp_path / "out")
        config = tmp_path / "c.json"
        config.write_bytes(body)
        capsys.readouterr()
        assert run(*input_argv(command, paths, config=config)) == code
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")


def written_finite(out):
    """Whether an output holds no NaN or inf: a model (read_model refuses
    non-finite parameters), a tensor, or a synth directory of 8-bit files."""
    if out.is_dir():
        return True
    if out.read_bytes()[:4] == b"ZOM1":
        return learner.read_model(out) is not None
    return bool(np.isfinite(read_tensor(out)).all())


FLOAT_FLAGS = [(command, "--" + key.replace("_", "-")) for command, spec in cli._SPECS.items()
               for key, (kind, *_) in spec.items() if kind is float]


class TestNanFloatFlags:
    """Every float flag of every subcommand, given NaN beside otherwise valid
    inputs, or a --config integer beyond the float range, exits 1 with one
    error line, writes nothing and warns nothing; given 1e-300 or 1e300 it
    does that or exits 0 with finite output."""

    def test_flags_found(self):
        assert ("train", "--lr") in FLOAT_FLAGS and ("synth", "--noise") in FLOAT_FLAGS
        assert len(FLOAT_FLAGS) == 13

    @pytest.mark.parametrize("command,flag", FLOAT_FLAGS)
    def test_nan_exit_1(self, tmp_path, capsys, command, flag):
        paths = dict(valid_input_files(tmp_path), out=tmp_path / "out")
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(*input_argv(command, paths), flag, "nan") == 1
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert not paths["out"].exists()

    @pytest.mark.parametrize("command,flag", FLOAT_FLAGS)
    def test_config_int_beyond_float_exit_1(self, tmp_path, capsys, command, flag):
        # JSON has integers of any size; 10**400 is no float
        paths = dict(valid_input_files(tmp_path), out=tmp_path / "out")
        config = tmp_path / "c.json"
        key = flag[2:].replace("-", "_")
        config.write_text(json.dumps({key: 10**400}))
        capsys.readouterr()
        assert run(*input_argv(command, paths, config=config)) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert f"key {key!r} is beyond the float range" in err[0]
        assert not paths["out"].exists()

    @pytest.mark.parametrize("value", ["1e-300", "1e300"])
    @pytest.mark.parametrize("command,flag", FLOAT_FLAGS)
    def test_extreme_value_exit_0_or_1(self, tmp_path, capsys, command, flag, value):
        # a value at either end of the float range either runs cleanly or is
        # refused with one error line; never a traceback, warning or NaN
        paths = dict(valid_input_files(tmp_path), out=tmp_path / "out")
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(*input_argv(command, paths), flag, value)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err.strip().splitlines()
        if code == 0:
            assert err == []
            assert written_finite(paths["out"])
        else:
            assert code == 1 and len(err) == 1 and err[0].startswith("error:")
            assert not paths["out"].exists()


# (subcommand, config key) of every option that lists its allowed values
CHOICE_KEYS = [(command, key) for command, spec in cli._SPECS.items()
               for key, (kind, *_) in spec.items() if isinstance(kind, tuple)]


class TestConfigChoices:
    """A --config value outside an option's allowed list is refused as the
    flag refuses it: exit 1 with one error line naming the key, and nothing
    written, even where no stage would read the value."""

    def test_keys_found(self):
        assert sorted(CHOICE_KEYS) == [
            ("crf", "mode"), ("eval", "report"), ("eval-depth", "rel_denominator"),
            ("eval-depth", "report"), ("features", "upsample"), ("pool", "upsample"),
            ("sample", "mode"), ("synth", "kind"), ("train", "loss")]

    @pytest.mark.parametrize("command,key", CHOICE_KEYS)
    def test_out_of_list_value_exit_1(self, tmp_path, capsys, command, key):
        paths = dict(valid_input_files(tmp_path), out=tmp_path / "out")
        config = tmp_path / "c.json"
        config.write_text(json.dumps({key: "cubic"}))
        if command == "features":
            # without --featmap, no stage reads upsample
            argv = [command, "--image", paths["img"], "--superpixels", paths["sp"],
                    "--config", config, "--out", paths["out"]]
        else:
            argv = input_argv(command, paths, config=config)
        capsys.readouterr()
        assert run(*argv) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and f"key {key!r}" in err[0]
        assert not paths["out"].exists()

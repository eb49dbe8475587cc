import json
import struct

import numpy as np
import pytest

from zok import cli, learner
from zok.core_io import read_tensor, write_pgm, write_tensor
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
        assert run("features", "--image", img_path, "--superpixels", sp_out,
                   "--mirror", "--out", out) == 0

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
        "dims-mismatch",
    ])
    def test_exit_2_with_one_error_line(self, tmp_path, capsys, case):
        data = model_bytes(tmp_path)
        assert len(data) == 156
        bad = {
            "no-layers": b"ZOM1" + struct.pack("<II", 2, 0),
            "short-header": data[:8],
            "layer-header": data[:16],
            "weights": data[:40],
            "bias": data[:76],
            "mean-std": data[:140],
            "dims-mismatch": model_bytes(tmp_path, hidden_in=5),
        }[case]
        (tmp_path / "bad.zom").write_bytes(bad)
        write_tensor(np.zeros((2, 3), dtype=np.float32), tmp_path / "x.zot")
        capsys.readouterr()
        assert run("predict", "--model", tmp_path / "bad.zom", "--features", tmp_path / "x.zot",
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
                                                        "--levels", "local")),
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


class TestEvalCommands:
    def test_eval_json_report(self, tmp_path, capsys):
        labels = np.array([[0, 1], [2, 3]])
        write_pgm(labels, tmp_path / "p.pgm")
        write_pgm(labels, tmp_path / "g.pgm")
        assert run("eval", "--pred", tmp_path / "p.pgm", "--gt", tmp_path / "g.pgm",
                   "--classes", 4, "--report", "json") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["mIoU"] == 1.0
        assert report["per_class_iou"] == [1.0, 1.0, 1.0, 1.0]

    def test_eval_depth(self, tmp_path, capsys):
        gt = np.full((4, 4), 2.0, dtype=np.float32)
        write_tensor(gt, tmp_path / "g.zot")
        write_tensor(gt * 1.2, tmp_path / "p.zot")
        assert run("eval-depth", "--pred", tmp_path / "p.zot", "--gt", tmp_path / "g.zot",
                   "--report", "json") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["delta_1"] == 1.0
        assert report["rmse_log"] == pytest.approx(0.1823, abs=1e-4)

    def test_report_emit_nulls_roundtrip(self, tmp_path):
        scores = {"mIoU": 0.5, "per_class_iou": [0.5, float("nan")]}
        text = cli.report_emit(scores, tmp_path / "r.json", "json")
        parsed = json.loads(text)
        assert parsed["per_class_iou"] == [0.5, None]
        assert json.loads((tmp_path / "r.json").read_text()) == parsed

    def test_report_emit_text_table(self):
        text = cli.report_emit({"mIoU": 0.123456, "n": 3}, None, "text")
        assert "0.1235" in text and "n" in text


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

    def test_threads_env_fallback(self, tmp_path, quad_image, monkeypatch):
        img_path, _ = quad_image
        monkeypatch.setenv("ZOK_THREADS", "2")
        assert run("slic", "--input", img_path, "--k", 4,
                   "--out", tmp_path / "sp.zot") == 0
        monkeypatch.setenv("ZOK_THREADS", "0")
        assert run("slic", "--input", img_path, "--k", 4,
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

    def test_missing_dir_exit_2(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"test_dir": str(tmp_path / "none"),
                                        "classes": 4, "oracle": True}))
        assert run("pipeline", "--config", cfg_path) == 2

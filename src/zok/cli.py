"""Command-line front end wiring the toolkit into pipelines.

One executable with subcommands: slic, rect, features, pool, train,
predict, sample, crf, eval, eval-depth, synth and pipeline.  A JSON file
passed via --config supplies defaults that explicit flags override;
unknown config keys are rejected.  Exit codes: 0 success, 1 validation
error, 2 I/O error.  Every subcommand is deterministic for a fixed
--seed.
"""

import argparse
import json
import math
import sys
import time

import numpy as np

from . import crf as crf_mod
from . import learner, metrics, weaksup, zoomout
from .core_io import (FormatError, read_pgm, read_ppm, read_tensor,
                      rgb_to_lab, write_pgm, write_tensor)
from .slic import SlicParams, run_slic
from .synth import SyntheticSpec, load_dataset, synth_generate


def _arg(*flags, **kwargs):
    return flags, kwargs


_COMMON = [
    _arg("--config", help="JSON file with defaults for this subcommand"),
    _arg("--seed", type=int, default=0),
]

_SPECS = {
    "slic": [
        _arg("--input", required=True),
        _arg("--k", type=int, required=True),
        _arg("--m", type=float, default=15.0),
        _arg("--max-iters", type=int, default=10),
        _arg("--residual-threshold", type=float, default=1.0),
        _arg("--no-connectivity", action="store_true"),
        _arg("--out", required=True),
    ],
    "rect": [
        _arg("--input", help="image whose size to partition"),
        _arg("--width", type=int),
        _arg("--height", type=int),
        _arg("--count", type=int, required=True),
        _arg("--out", required=True),
    ],
    "features": [
        _arg("--image", required=True),
        _arg("--superpixels", required=True),
        _arg("--levels", default="local,proximal:2"),
        _arg("--featmap", help="ZOT1 (C,H',W') map for pooled/subscene/scene levels"),
        _arg("--upsample", default="nearest", choices=["nearest", "bilinear"]),
        _arg("--mirror", action="store_true", help="max-fuse with mirror-image features"),
        _arg("--out", required=True),
    ],
    "pool": [
        _arg("--featmap", required=True),
        _arg("--superpixels", required=True),
        _arg("--upsample", default="nearest", choices=["nearest", "bilinear"]),
        _arg("--out", required=True),
    ],
    "train": [
        _arg("--features", required=True),
        _arg("--labels", required=True),
        _arg("--weights", help="optional per-sample weights (pixel counts)"),
        _arg("--classes", type=int),
        _arg("--hidden", default=""),
        _arg("--loss", default="asymmetric", choices=["asymmetric", "symmetric"]),
        _arg("--epochs", type=int, default=50),
        _arg("--batch-size", type=int, default=64),
        _arg("--lr", type=float, default=1e-4),
        _arg("--momentum", type=float, default=0.9),
        _arg("--weight-decay", type=float, default=1e-3),
        _arg("--dropout", type=float, default=0.0),
        _arg("--out", required=True),
    ],
    "predict": [
        _arg("--model", required=True),
        _arg("--features", required=True),
        _arg("--out", required=True),
    ],
    "sample": [
        _arg("--scores", required=True, help="ZOT1 (C,H,W) score fields"),
        _arg("--features", required=True, help="ZOT1 (D,H,W) feature field"),
        _arg("--k", type=int, default=20),
        _arg("--mode", default="diverse", choices=["diverse", "topk", "spatial"]),
        _arg("--bg", action="store_true", help="append background points as class C"),
        _arg("--out", required=True),
    ],
    "crf": [
        _arg("--unary", required=True, help="probabilities: (C,H,W), or (K,C) with --superpixels"),
        _arg("--image", required=True),
        _arg("--superpixels"),
        _arg("--iters", type=int, default=10),
        _arg("--mode", default="parallel", choices=["parallel", "sequential"]),
        _arg("--damping", type=float, default=0.5),
        _arg("--w-appearance", type=float, default=3.0),
        _arg("--w-smooth", type=float, default=1.0),
        _arg("--sigma-xy", type=float, default=10.0),
        _arg("--sigma-lab", type=float, default=10.0),
        _arg("--sigma-xy-smooth", type=float, default=3.0),
        _arg("--out", required=True),
    ],
    "eval": [
        _arg("--pred", required=True),
        _arg("--gt", required=True),
        _arg("--classes", type=int, required=True),
        _arg("--ignore", type=int, default=255),
        _arg("--report", default="text", choices=["json", "text"]),
        _arg("--out"),
    ],
    "eval-depth": [
        _arg("--pred", required=True),
        _arg("--gt", required=True),
        _arg("--rel-denominator", default="pred", choices=["pred", "gt"]),
        _arg("--report", default="text", choices=["json", "text"]),
        _arg("--out"),
    ],
    "synth": [
        _arg("--out", required=True),
        _arg("--count", type=int, default=1),
        _arg("--size", type=int, default=64),
        _arg("--classes", type=int, default=4),
        _arg("--kind", default="blobs", choices=["quadrants", "blobs", "stripes"]),
        _arg("--noise", type=float, default=0.0),
    ],
    "pipeline": [
        _arg("--report-out", help="override the report path from the config"),
    ],
}


def build_parser(suppress_defaults=False):
    parser = argparse.ArgumentParser(prog="zok")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, spec in _SPECS.items():
        sub = subs.add_parser(name)
        for flags, kwargs in spec + _COMMON:
            if suppress_defaults:
                kwargs = dict(kwargs, default=argparse.SUPPRESS)
                kwargs.pop("required", None)
            sub.add_argument(*flags, **kwargs)
    return parser


def _dest(flags):
    return flags[0].lstrip("-").replace("-", "_")


def _command_table(command):
    """(defaults, required dests) declared for one subcommand."""
    defaults, required = {}, set()
    for flags, kwargs in _SPECS[command] + _COMMON:
        dest = _dest(flags)
        if kwargs.get("action") == "store_true":
            defaults[dest] = False
        else:
            defaults[dest] = kwargs.get("default")
        if kwargs.get("required"):
            required.add(dest)
    return defaults, required


def _merge_config(explicit, command):
    """defaults <- config file <- explicit flags; validates keys."""
    defaults, required = _command_table(command)
    merged = dict(defaults)
    path = explicit.get("config")
    if path:
        with open(path) as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise ValueError("config must be a JSON object")
        unknown = set(cfg) - set(defaults)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        merged.update(cfg)
    merged.update(explicit)
    missing = [k for k in sorted(required) if merged.get(k) is None]
    if missing:
        raise ValueError(f"missing required options: {missing}")
    return merged


def _round4(value):
    if value is None:
        return None
    if isinstance(value, float):
        return None if math.isnan(value) else round(value, 4)
    return value


def report_emit(scores, path=None, fmt="json"):
    """Render a scores dict as JSON or an aligned text table.

    Floats are printed with 4 decimals; NaN becomes null.  Returns the
    rendered string and writes it to `path` when given.
    """
    if fmt == "json":
        def clean(obj):
            if isinstance(obj, dict):
                return {k: clean(v) for k, v in obj.items()}
            if isinstance(obj, (list, tuple, np.ndarray)):
                return [clean(v) for v in obj]
            if isinstance(obj, (np.floating, float)):
                return _round4(float(obj))
            if isinstance(obj, np.integer):
                return int(obj)
            return obj
        text = json.dumps(clean(scores), indent=2)
    elif fmt == "text":
        lines = []
        width = max((len(str(k)) for k in scores), default=0)
        for key, value in scores.items():
            if isinstance(value, (list, tuple, np.ndarray)):
                body = " ".join(
                    "null" if v is None or (isinstance(v, float) and math.isnan(v))
                    else f"{v:.4f}" for v in value
                )
            elif isinstance(value, (float, np.floating)):
                body = "null" if math.isnan(value) else f"{value:.4f}"
            else:
                body = str(value)
            lines.append(f"{key:<{width}}  {body}")
        text = "\n".join(lines) + "\n"
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def _write_spmap(spmap, path):
    write_tensor(spmap.astype(np.uint32), path)


def _read_spmap(path):
    sp = read_tensor(path)
    if sp.ndim != 2:
        raise ValueError("superpixel map must be a rank-2 tensor")
    if sp.max() >= sp.size:
        raise ValueError(f"superpixel ids must be below the pixel count {sp.size}")
    ids = np.unique(sp)
    if not np.array_equal(ids, np.arange(len(ids))):
        raise ValueError("superpixel ids must be contiguous 0..K-1")
    return sp.astype(np.int32)


def _read_finite(path, name):
    """read_tensor, rejecting NaN and inf; the dtype is kept as read."""
    x = read_tensor(path)
    if not np.isfinite(x).all():
        raise ValueError(f"{name} must be finite (found NaN or inf)")
    return x


def zoomout_features(img, spmap, proximal_radius=2):
    """local color+location features plus their proximal average, (K, D)."""
    lab = rgb_to_lab(img)
    graph = zoomout.build_adjacency(spmap)
    local = np.concatenate(
        [zoomout.local_color_features(lab, spmap), zoomout.location_features_all(spmap)],
        axis=1,
    )
    proximal = zoomout.proximal_average(local, graph, proximal_radius)
    return zoomout.concat_levels([local, proximal])


def _cmd_slic(args):
    img = read_ppm(args["input"])
    params = SlicParams(
        k=args["k"], m=args["m"], max_iters=args["max_iters"],
        residual_threshold=args["residual_threshold"],
        enforce_connectivity=not args["no_connectivity"],
    )
    _write_spmap(run_slic(img, params).spmap, args["out"])


def _cmd_rect(args):
    if args.get("input"):
        h, w = read_ppm(args["input"]).shape[:2]
    elif args.get("width") and args.get("height"):
        w, h = args["width"], args["height"]
    else:
        raise ValueError("rect needs --input or both --width and --height")
    _write_spmap(zoomout.rect_regions(w, h, args["count"]), args["out"])


def _parse_levels(text):
    levels = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        name, _, arg = item.partition(":")
        levels.append((name, int(arg) if arg else None))
    return levels


def _cmd_features(args):
    img = read_ppm(args["image"])
    spmap = _read_spmap(args["superpixels"])
    if spmap.shape != img.shape[:2]:
        raise ValueError("superpixel map size != image size")
    featmap = _read_finite(args["featmap"], "featmap") if args.get("featmap") else None

    def build(image, sp):
        lab = rgb_to_lab(image)
        graph = zoomout.build_adjacency(sp)
        local = np.concatenate(
            [zoomout.local_color_features(lab, sp), zoomout.location_features_all(sp)],
            axis=1,
        )
        k = int(sp.max()) + 1
        full = None
        if featmap is not None:
            full = zoomout.upsample_featuremap(featmap, *sp.shape, mode=args["upsample"])
        blocks = []
        for name, radius in _parse_levels(args["levels"]):
            if name == "local":
                blocks.append(local)
            elif name == "proximal":
                blocks.append(zoomout.proximal_average(local, graph, radius or 2))
            elif name in ("pooled", "subscene", "scene"):
                if full is None:
                    raise ValueError(f"level {name!r} requires --featmap")
                if name == "pooled":
                    blocks.append(zoomout.pool_over_superpixels(full, sp))
                elif name == "scene":
                    blocks.append(np.tile(zoomout.scene_pool(full), (k, 1)))
                else:
                    sub = np.empty((k, full.shape[0]))
                    boxes = zoomout.subscene_bboxes(sp, graph, radius or 3)
                    for s in range(k):
                        x0, y0, x1, y1 = boxes[s]
                        sub[s] = full[:, y0 : y1 + 1, x0 : x1 + 1].mean(axis=(1, 2))
                    blocks.append(sub)
            else:
                raise ValueError(f"unknown level {name!r}")
        return zoomout.concat_levels(blocks)

    feats = build(img, spmap)
    if args["mirror"]:
        feats = zoomout.mirror_max_fuse(feats, build(img[:, ::-1], spmap[:, ::-1]))
    write_tensor(feats.features.astype(np.float32), args["out"])


def _cmd_pool(args):
    featmap = _read_finite(args["featmap"], "featmap")
    spmap = _read_spmap(args["superpixels"])
    full = zoomout.upsample_featuremap(featmap, *spmap.shape, mode=args["upsample"])
    pooled = zoomout.pool_over_superpixels(full, spmap)
    write_tensor(pooled.astype(np.float32), args["out"])


def _parse_hidden(text):
    return tuple(int(t) for t in text.split(",") if t.strip())


def _cmd_train(args):
    features = _read_finite(args["features"], "features").astype(np.float64)
    labels = read_tensor(args["labels"]).astype(np.int64)
    weights = (_read_finite(args["weights"], "weights").astype(np.float64)
               if args.get("weights") else None)
    cfg = learner.TrainConfig(
        epochs=args["epochs"], batch_size=args["batch_size"],
        learning_rate=args["lr"], momentum=args["momentum"],
        weight_decay=args["weight_decay"], dropout=args["dropout"],
        seed=args["seed"], loss=args["loss"], hidden=_parse_hidden(args["hidden"]),
    )
    model = learner.train(features, labels, cfg, num_classes=args.get("classes"),
                          sample_weights=weights)
    learner.write_model(model, args["out"])


def _cmd_predict(args):
    model = learner.read_model(args["model"])
    features = _read_finite(args["features"], "features").astype(np.float64)
    write_tensor(learner.predict_labels(model, features).astype(np.uint32), args["out"])


def _cmd_sample(args):
    scores = _read_finite(args["scores"], "scores").astype(np.float64)
    field = _read_finite(args["features"], "features").astype(np.float64)
    if scores.ndim != 3 or field.ndim != 3:
        raise ValueError("scores must be (C,H,W) and features (D,H,W)")
    z, _, _ = weaksup.normalize_features([field])
    z = z[0]
    rows = []
    all_fg = []
    for c in range(scores.shape[0]):
        if args["mode"] == "diverse":
            pts = weaksup.diverse_sample_fg(scores[c], z, args["k"])
        elif args["mode"] == "topk":
            pts = weaksup.topk_sample(scores[c], args["k"])
        else:
            pts = weaksup.spatial_diverse_sample(scores[c], None, args["k"])
        all_fg.append(pts)
        rows.extend((c, int(r), int(col), rank) for rank, (r, col) in enumerate(pts))
    if args["bg"]:
        bg = weaksup.diverse_sample_bg(z, np.concatenate(all_fg), args["k"])
        rows.extend((scores.shape[0], int(r), int(col), rank)
                    for rank, (r, col) in enumerate(bg))
    write_tensor(np.array(rows, dtype=np.uint32).reshape(-1, 4), args["out"])


def _cmd_crf(args):
    unary = _read_finite(args["unary"], "unary").astype(np.float64)
    img = read_ppm(args["image"])
    lab = rgb_to_lab(img)
    h, w = lab.shape[:2]
    if args.get("superpixels"):
        spmap = _read_spmap(args["superpixels"])
        if spmap.shape != (h, w):
            raise ValueError("superpixel map size != image size")
        k = int(spmap.max()) + 1
        if unary.ndim != 2 or unary.shape[0] != k:
            raise ValueError("superpixel unary must be (K, C)")
        node_lab, node_pos = superpixel_stats(lab, spmap)
        probs = unary
    else:
        if unary.ndim != 3 or unary.shape[1:] != (h, w):
            raise ValueError("pixel unary must be (C, H, W) matching the image")
        if h * w > 4096:
            raise ValueError("pixel-mode CRF limited to 4096 pixels; pass --superpixels")
        node_lab = lab.reshape(-1, 3)
        ys, xs = np.mgrid[0:h, 0:w]
        node_pos = np.stack([xs.ravel(), ys.ravel()], axis=1).astype(np.float64)
        probs = unary.reshape(unary.shape[0], -1).T
    model, features = crf_mod.image_crf(
        node_lab, probs, node_pos,
        w_appearance=args["w_appearance"], w_smooth=args["w_smooth"],
        sigma_xy=args["sigma_xy"], sigma_lab=args["sigma_lab"],
        sigma_xy_smooth=args["sigma_xy_smooth"],
    )
    state = crf_mod.mean_field_refine(model, features, args["iters"],
                                      args["damping"], args["mode"])
    q = state.q
    if not args.get("superpixels"):
        q = q.T.reshape(unary.shape)
    write_tensor(q.astype(np.float32), args["out"])


def superpixel_stats(lab, spmap):
    """Mean Lab and mean (x, y) per superpixel."""
    k = int(spmap.max()) + 1
    flat = spmap.ravel()
    counts = np.bincount(flat, minlength=k).astype(np.float64)
    h, w = spmap.shape
    mean_lab = np.stack(
        [np.bincount(flat, weights=lab[:, :, c].ravel(), minlength=k) / counts for c in range(3)],
        axis=1,
    )
    xs = np.tile(np.arange(w, dtype=np.float64), h)
    ys = np.repeat(np.arange(h, dtype=np.float64), w)
    mean_pos = np.stack(
        [np.bincount(flat, weights=xs, minlength=k) / counts,
         np.bincount(flat, weights=ys, minlength=k) / counts],
        axis=1,
    )
    return mean_lab, mean_pos


def _seg_report(cm):
    scores = metrics.seg_scores(cm)
    return {
        "mIoU": scores.mean_iou,
        "per_class_iou": [None if math.isnan(v) else v for v in scores.per_class_iou],
        "pixel_acc": scores.pixel_accuracy,
        "class_acc": scores.class_accuracy,
    }


def _cmd_eval(args):
    pred = read_pgm(args["pred"]).astype(np.int64)
    gt = read_pgm(args["gt"]).astype(np.int64)
    cm = metrics.confusion(pred, gt, args["classes"], args["ignore"])
    text = report_emit(_seg_report(cm), args.get("out"), args["report"])
    print(text)


def _cmd_eval_depth(args):
    pred = read_tensor(args["pred"]).astype(np.float64)
    gt = read_tensor(args["gt"]).astype(np.float64)
    scores = metrics.depth_metrics(pred, gt, args["rel_denominator"])
    report = {
        "rmse_lin": scores.rmse_lin, "rmse_log": scores.rmse_log,
        "abs_rel": scores.abs_rel, "sqr_rel": scores.sqr_rel,
        "delta_1": scores.delta_1, "delta_2": scores.delta_2, "delta_3": scores.delta_3,
    }
    print(report_emit(report, args.get("out"), args["report"]))


def _cmd_synth(args):
    spec = SyntheticSpec(size=args["size"], num_classes=args["classes"],
                         kind=args["kind"], noise_sigma=args["noise"])
    synth_generate(spec, args["count"], args["seed"], args["out"])


def _stage(name, fn, *fn_args, **fn_kwargs):
    try:
        return fn(*fn_args, **fn_kwargs)
    except Exception as exc:
        exc.args = (f"[{name}] {exc}",) + exc.args[1:]
        raise


# the keys pipeline_run reads: top level, then each nested section
_PIPELINE_KEYS = {
    "config": {"train_dir", "test_dir", "classes", "ignore", "slic", "proximal_radius",
               "oracle", "train", "crf", "report"},
    "slic": {"k", "m", "max_iters"},
    "train": {"hidden", "epochs", "batch_size", "learning_rate", "momentum",
              "weight_decay", "dropout", "seed", "loss"},
    "crf": {"iters", "damping", "w_appearance", "w_smooth", "sigma_xy", "sigma_lab",
            "sigma_xy_smooth"},
}


def _check_pipeline_keys(config):
    """Reject a pipeline config with a key that pipeline_run would ignore."""
    for name, keys in _PIPELINE_KEYS.items():
        section = config if name == "config" else config.get(name, {})
        if name == "crf" and section is None:
            continue
        if not isinstance(section, dict):
            raise ValueError(f"pipeline {name} must be a JSON object")
        unknown = sorted(set(section) - keys)
        if unknown:
            raise ValueError(f"unknown pipeline {name} keys: {unknown}")


def pipeline_run(config):
    """slic -> features -> train/predict -> optional CRF -> eval.

    config keys: train_dir, test_dir, classes, ignore (default 255),
    slic {k, m, max_iters}, proximal_radius, oracle (bool), train
    {hidden, epochs, batch_size, learning_rate, momentum, weight_decay,
    dropout, seed, loss}, crf (null or {iters, damping, w_appearance,
    w_smooth, sigma_xy, sigma_lab, sigma_xy_smooth}), report (output
    path).  Any other key, at any level, raises ValueError.  Returns the
    report dict.
    """
    _check_pipeline_keys(config)
    timings = {}
    t0 = time.perf_counter()
    num_classes = config["classes"]
    ignore = config.get("ignore", 255)
    slic_cfg = config.get("slic", {})
    params = SlicParams(
        k=slic_cfg.get("k", 100), m=slic_cfg.get("m", 15.0),
        max_iters=slic_cfg.get("max_iters", 10),
    )
    radius = config.get("proximal_radius", 2)
    oracle = config.get("oracle", False)

    train_pairs = _stage("load", load_dataset, config["train_dir"]) if not oracle else []
    test_pairs = _stage("load", load_dataset, config["test_dir"])
    timings["load"] = time.perf_counter() - t0

    model = None
    if not oracle:
        t0 = time.perf_counter()
        xs, ys, ws = [], [], []
        for img, gt in train_pairs:
            res = _stage("slic", run_slic, img, params)
            feats = _stage("features", zoomout_features, img, res.spmap, radius)
            sp_labels = metrics.oracle_labels(gt, res.spmap, ignore)
            first = _first_label_per_superpixel(sp_labels, res.spmap)
            counts = np.bincount(res.spmap.ravel(), minlength=len(first))
            keep = first != ignore
            xs.append(feats.features[keep])
            ys.append(first[keep])
            ws.append(counts[keep])
        timings["train_features"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        train_cfg = config.get("train", {})
        cfg = learner.TrainConfig(
            epochs=train_cfg.get("epochs", 40),
            batch_size=train_cfg.get("batch_size", 128),
            learning_rate=train_cfg.get("learning_rate", 0.02),
            momentum=train_cfg.get("momentum", 0.9),
            weight_decay=train_cfg.get("weight_decay", 1e-4),
            dropout=train_cfg.get("dropout", 0.0),
            seed=train_cfg.get("seed", 0),
            loss=train_cfg.get("loss", "asymmetric"),
            hidden=tuple(train_cfg.get("hidden", [64])),
        )
        model = _stage(
            "train", learner.train,
            np.concatenate(xs), np.concatenate(ys).astype(np.int64), cfg,
            num_classes=num_classes, sample_weights=np.concatenate(ws),
        )
        timings["train"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    crf_cfg = config.get("crf")
    cm = np.zeros((num_classes, num_classes), dtype=np.int64)
    cm_crf = np.zeros_like(cm)
    for img, gt in test_pairs:
        res = _stage("slic", run_slic, img, params)
        if oracle:
            pred = metrics.oracle_labels(gt, res.spmap, ignore)
            cm += metrics.confusion(np.where(pred == ignore, 0, pred), gt, num_classes, ignore)
            continue
        feats = _stage("features", zoomout_features, img, res.spmap, radius)
        probs = learner.forward(model, feats.features)
        sp_pred = np.argmax(probs, axis=1)
        cm += metrics.confusion(sp_pred[res.spmap], gt, num_classes, ignore)
        if crf_cfg:
            lab = rgb_to_lab(img)
            node_lab, node_pos = superpixel_stats(lab, res.spmap)
            cmodel, cfeat = crf_mod.image_crf(
                node_lab, probs, node_pos,
                w_appearance=crf_cfg.get("w_appearance", 3.0),
                w_smooth=crf_cfg.get("w_smooth", 1.0),
                sigma_xy=crf_cfg.get("sigma_xy", 20.0),
                sigma_lab=crf_cfg.get("sigma_lab", 10.0),
                sigma_xy_smooth=crf_cfg.get("sigma_xy_smooth", 5.0),
            )
            state = _stage("crf", crf_mod.mean_field_refine, cmodel, cfeat,
                           crf_cfg.get("iters", 5), crf_cfg.get("damping", 0.5))
            cm_crf += metrics.confusion(
                crf_mod.map_labels(state)[res.spmap], gt, num_classes, ignore)
    timings["test"] = time.perf_counter() - t0

    report = _seg_report(cm)
    if crf_cfg and not oracle:
        report["crf"] = _seg_report(cm_crf)
    report["timings"] = {k: round(v, 4) for k, v in timings.items()}
    if config.get("report"):
        # wall-clock timings stay off disk so written artifacts are
        # byte-identical across identical runs
        report_emit({k: v for k, v in report.items() if k != "timings"},
                    config["report"], "json")
    return report


def _first_label_per_superpixel(label_map, spmap):
    """label_map is constant within each superpixel; pick its value."""
    k = int(spmap.max()) + 1
    first_idx = np.full(k, label_map.size, dtype=np.int64)
    np.minimum.at(first_idx, spmap.ravel(), np.arange(label_map.size))
    return label_map.ravel()[first_idx].astype(np.int64)


def _cmd_pipeline(args):
    if not args.get("config"):
        raise ValueError("pipeline requires --config")
    with open(args["config"]) as fh:
        config = json.load(fh)
    if args.get("report_out"):
        config["report"] = args["report_out"]
    report = pipeline_run(config)
    print(report_emit(report, None, "json"))


_HANDLERS = {
    "slic": _cmd_slic,
    "rect": _cmd_rect,
    "features": _cmd_features,
    "pool": _cmd_pool,
    "train": _cmd_train,
    "predict": _cmd_predict,
    "sample": _cmd_sample,
    "crf": _cmd_crf,
    "eval": _cmd_eval,
    "eval-depth": _cmd_eval_depth,
    "synth": _cmd_synth,
    "pipeline": _cmd_pipeline,
}


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    # the suppressed parser validates flag names/types but leaves required
    # options to the merge step, so a config file may supply them
    try:
        namespace = build_parser(suppress_defaults=True).parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; report them as validation errors
        return 0 if exc.code in (0, None) else 1
    try:
        explicit = vars(namespace)
        command = explicit.pop("command")
        if command == "pipeline":
            args = dict(_command_table(command)[0], **explicit)
        else:
            args = _merge_config(explicit, command)
        _HANDLERS[command](args)
        return 0
    except (FormatError, FileNotFoundError, IsADirectoryError, PermissionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

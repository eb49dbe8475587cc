"""Command-line front end wiring the toolkit into pipelines.

One executable with subcommands: slic, rect, features, pool, train,
predict, sample, crf, eval, eval-depth, synth and pipeline.  A JSON file
passed via --config supplies defaults that explicit flags override;
unknown config keys, and values the flag would refuse, are rejected.
Exit codes: 0 success, 1 validation error, 2 I/O error or malformed file
(a --config that is not valid UTF-8 JSON included).  Every subcommand is
deterministic; train and synth take a --seed, and the pipeline config a
train.seed.
"""

import argparse
import json
import math
import sys
import time

import numpy as np

from . import crf as crf_mod
from . import learner, metrics, weaksup, zoomout
from .core_io import (FormatError, _reader, read_pgm, read_ppm, read_tensor,
                      rgb_to_lab, write_pgm, write_tensor)
from .slic import SlicParams, labxy_means, run_slic
from .synth import SyntheticSpec, load_dataset, synth_generate


# The default of an option that a flag or --config must supply.
_REQUIRED = object()
_UPSAMPLE = ("nearest", "bilinear")
_REPORT = ("json", "text")
_LOSS = ("asymmetric", "symmetric")

# Each subcommand's options: key -> (type, default[, help]).  The flag is
# --key with "-" for "_"; a bool is a store_true flag and a tuple lists the
# allowed strings.  Flags and --config keys are checked against one table.
_SPECS = {
    "slic": {"input": (str, _REQUIRED), "k": (int, _REQUIRED), "m": (float, 15.0),
             "max_iters": (int, 10), "residual_threshold": (float, 1.0),
             "no_connectivity": (bool, False), "out": (str, _REQUIRED)},
    "rect": {"input": (str, None, "image whose size to partition"), "width": (int, None),
             "height": (int, None), "count": (int, _REQUIRED, "regions, 1 to width * height"),
             "out": (str, _REQUIRED)},
    "features": {"image": (str, _REQUIRED), "superpixels": (str, _REQUIRED),
                 "levels": (str, "local,proximal:2"),
                 "featmap": (str, None, "ZOT1 (C,H',W') map for pooled/subscene/scene levels"),
                 "upsample": (_UPSAMPLE, "nearest"),
                 "mirror": (bool, False, "max-fuse with the features of the left-right "
                            "mirrored image and map; the mirror's pooled and "
                            "subscene levels read the unmirrored --featmap "
                            "(a known fault)"),
                 "out": (str, _REQUIRED)},
    "pool": {"featmap": (str, _REQUIRED), "superpixels": (str, _REQUIRED),
             "upsample": (_UPSAMPLE, "nearest"), "out": (str, _REQUIRED)},
    "train": {"features": (str, _REQUIRED), "labels": (str, _REQUIRED),
              "weights": (str, None, "optional per-sample weights (pixel counts)"),
              "classes": (int, None), "hidden": (str, ""), "loss": (_LOSS, "asymmetric"),
              "epochs": (int, 50), "batch_size": (int, 64), "lr": (float, 1e-4),
              "momentum": (float, 0.9), "weight_decay": (float, 1e-3),
              "dropout": (float, 0.0), "seed": (int, 0), "out": (str, _REQUIRED)},
    "predict": {"model": (str, _REQUIRED), "features": (str, _REQUIRED),
                "out": (str, _REQUIRED)},
    "sample": {"scores": (str, _REQUIRED, "ZOT1 (C,H,W) score fields"),
               "features": (str, None, "ZOT1 (D,H,W) feature field; read by --mode "
                            "diverse and by --bg only"),
               "k": (int, 20), "mode": (("diverse", "topk", "spatial"), "diverse"),
               "bg": (bool, False, "append background points as class C"),
               "out": (str, _REQUIRED)},
    "crf": {"unary": (str, _REQUIRED, "probabilities: (C,H,W), or (K,C) with --superpixels"),
            "image": (str, _REQUIRED), "superpixels": (str, None), "iters": (int, 10),
            "mode": (("parallel", "sequential"), "parallel"), "damping": (float, 0.5),
            "w_appearance": (float, 3.0), "w_smooth": (float, 1.0),
            "sigma_xy": (float, 10.0), "sigma_lab": (float, 10.0),
            "sigma_xy_smooth": (float, 3.0), "out": (str, _REQUIRED)},
    "eval": {"pred": (str, _REQUIRED), "gt": (str, _REQUIRED), "classes": (int, _REQUIRED),
             "ignore": (int, 255), "report": (_REPORT, "text"), "out": (str, None)},
    "eval-depth": {"pred": (str, _REQUIRED), "gt": (str, _REQUIRED),
                   "rel_denominator": (("pred", "gt"), "pred"),
                   "report": (_REPORT, "text"), "out": (str, None)},
    "synth": {"out": (str, _REQUIRED), "count": (int, 1), "size": (int, 64),
              "classes": (int, 4), "kind": (("quadrants", "blobs", "stripes"), "blobs"),
              "noise": (float, 0.0), "seed": (int, 0)},
    "pipeline": {},
}


def build_parser():
    """Parser with one flag per _SPECS key that checks names, types and
    allowed values but sets no defaults.

    Required options and defaults are left to _merge_config, so that a
    --config file may supply them.
    """
    parser = argparse.ArgumentParser(prog="zok")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, spec in _SPECS.items():
        sub = subs.add_parser(name)
        for key, (kind, _, *text) in spec.items():
            kwargs = ({"action": "store_true"} if kind is bool else
                      {"choices": kind} if isinstance(kind, tuple) else {"type": kind})
            sub.add_argument("--" + key.replace("_", "-"), default=argparse.SUPPRESS,
                             help=text[0] if text else None, **kwargs)
        sub.add_argument("--config", default=argparse.SUPPRESS,
                         help="JSON file with defaults for this subcommand")
    return parser


def _is_a(value, kind):
    """JSON type check: an int passes as a float, a bool never as a number,
    and a tuple kind passes only the strings it lists."""
    if isinstance(value, bool):
        return kind is bool
    if isinstance(kind, tuple):
        return value in kind
    if kind is float:
        return isinstance(value, (int, float))
    if kind is list:
        return isinstance(value, list) and all(_is_a(v, int) for v in value)
    return isinstance(value, kind)


def _merge_section(table, values, where):
    """Defaults from a {key: (type, default[, help])} table, overlaid with
    values.

    Unknown keys and values of the wrong type raise ValueError; None is
    accepted where the default is None or _REQUIRED, and an int given for
    a float key becomes a float.
    """
    if not isinstance(values, dict):
        raise ValueError(f"{where} must be a JSON object")
    unknown = sorted(set(values) - set(table))
    if unknown:
        raise ValueError(f"unknown {where} keys: {unknown}")
    merged = {key: spec[1] for key, spec in table.items()}
    for key, value in values.items():
        kind, default = table[key][:2]
        if not (_is_a(value, kind) or (value is None and default in (None, _REQUIRED))):
            expected = f"one of {list(kind)}" if isinstance(kind, tuple) else kind.__name__
            raise ValueError(f"{where} key {key!r} must be {expected}, got {value!r}")
        if kind is float and isinstance(value, int):
            try:
                value = float(value)
            except OverflowError:
                raise ValueError(f"{where} key {key!r} is beyond the float range") from None
        merged[key] = value
    return merged


def _require(merged, keys, what):
    missing = [k for k in sorted(keys) if merged.get(k) in (None, _REQUIRED)]
    if missing:
        raise ValueError(f"missing required {what}: {missing}")


@_reader(b"")
def _load_json(data):
    """Parsed JSON file; bytes that are not UTF-8 JSON raise FormatError."""
    try:
        return json.loads(data.decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError or JSONDecodeError
        raise FormatError(f"not a UTF-8 JSON file: {exc}") from None


def _merge_config(explicit, command):
    """defaults <- config file <- explicit flags; validates keys and types."""
    table = _SPECS[command]
    cfg = _load_json(explicit["config"]) if explicit.get("config") else {}
    merged = dict(_merge_section(table, cfg, "config"), **explicit)
    _require(merged, [k for k, spec in table.items() if spec[1] is _REQUIRED], "options")
    return merged


def report_emit(scores, path=None, fmt="json"):
    """Render a scores dict as JSON or an aligned text table.

    Both formats render the same cleaned values: floats rounded to 4
    decimals, NaN as null, numpy scalars as Python numbers.  Returns the
    rendered string and writes it to `path` when given.
    """
    def clean(obj):
        if isinstance(obj, dict):
            return {k: clean(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple, np.ndarray)):
            return [clean(v) for v in obj]
        if isinstance(obj, (np.floating, float)):
            return None if math.isnan(obj) else round(float(obj), 4)
        if isinstance(obj, np.integer):
            return int(obj)
        return obj

    scores = clean(scores)
    if fmt == "json":
        text = json.dumps(scores, indent=2)
    elif fmt == "text":
        def cell(v):
            return "null" if v is None else f"{v:.4f}"
        width = max((len(str(k)) for k in scores), default=0)
        lines = []
        for key, value in scores.items():
            body = (" ".join(map(cell, value)) if isinstance(value, list) else
                    cell(value) if value is None or isinstance(value, float) else str(value))
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


def _read_spmap(path, shape=None):
    """The superpixel map at path as int32; shape, when given, is the image's."""
    sp = read_tensor(path)
    if sp.ndim != 2:
        raise ValueError("superpixel map must be a rank-2 tensor")
    if sp.max() >= sp.size:
        raise ValueError(f"superpixel ids must be below the pixel count {sp.size}")
    ids = np.unique(sp)
    if not np.array_equal(ids, np.arange(len(ids))):
        raise ValueError("superpixel ids must be contiguous 0..K-1")
    if shape is not None and sp.shape != shape:
        raise ValueError("superpixel map size != image size")
    return sp.astype(np.int32)


def _read_finite(path, name, ndim=None):
    """read_tensor, rejecting NaN and inf and, when ndim is given, another
    rank; the dtype is kept as read."""
    x = read_tensor(path)
    if not np.isfinite(x).all():
        raise ValueError(f"{name} must be finite (found NaN or inf)")
    if ndim is not None and x.ndim != ndim:
        raise ValueError(f"--{name} must be a rank-{ndim} tensor, got shape {x.shape}")
    return x


def _cmd_slic(args):
    img = read_ppm(args["input"])
    params = SlicParams(
        k=args["k"], m=args["m"], max_iters=args["max_iters"],
        residual_threshold=args["residual_threshold"],
        enforce_connectivity=not args["no_connectivity"],
    )
    _write_spmap(run_slic(rgb_to_lab(img), params).spmap, args["out"])


def _cmd_rect(args):
    sized = args.get("width") is not None or args.get("height") is not None
    if args.get("input") and sized:
        raise ValueError("rect takes --input or --width/--height, not both")
    if args.get("input"):
        h, w = read_ppm(args["input"]).shape[:2]
    elif args.get("width") is not None and args.get("height") is not None:
        w, h = args["width"], args["height"]
    else:
        raise ValueError("rect needs --input or both --width and --height")
    _write_spmap(zoomout.rect_regions(w, h, args["count"]), args["out"])


def _cmd_features(args):
    img = read_ppm(args["image"])
    spmap = _read_spmap(args["superpixels"], img.shape[:2])
    names = {name for name, _ in zoomout._parse_levels(args["levels"])}
    if args.get("featmap") and names.isdisjoint(zoomout.FEATMAP_LEVELS):
        raise ValueError(f"--featmap is read only by the pooled, subscene and scene levels, "
                         f"and --levels {args['levels']!r} has none")
    if args["upsample"] != "nearest" and not args.get("featmap"):
        raise ValueError(f"--upsample {args['upsample']} applies only to a --featmap")
    full = None
    if args.get("featmap"):
        full = zoomout.upsample_featuremap(_read_finite(args["featmap"], "featmap", 3),
                                           *spmap.shape, mode=args["upsample"])
    feats = zoomout.build_features(rgb_to_lab(img), spmap, args["levels"], full, args["mirror"])
    write_tensor(feats.astype(np.float32), args["out"])


def _cmd_pool(args):
    featmap = _read_finite(args["featmap"], "featmap", 3)
    spmap = _read_spmap(args["superpixels"])
    full = zoomout.upsample_featuremap(featmap, *spmap.shape, mode=args["upsample"])
    pooled = zoomout.pool_over_superpixels(full, spmap)
    write_tensor(pooled.astype(np.float32), args["out"])


def _cmd_train(args):
    text = args["hidden"]
    try:  # "" is no hidden layer, and every item of a list must be a width
        hidden = tuple(map(int, text.split(","))) if text.strip() else ()
    except ValueError:
        raise ValueError(f"--hidden must be comma-separated integers, got {text!r}") from None
    cfg = learner.TrainConfig(
        epochs=args["epochs"], batch_size=args["batch_size"],
        learning_rate=args["lr"], momentum=args["momentum"],
        weight_decay=args["weight_decay"], dropout=args["dropout"],
        seed=args["seed"], loss=args["loss"],
        hidden=hidden,
    )
    if args.get("classes") is not None:
        _check_classes(args["classes"])
    if args.get("weights") and cfg.loss == "symmetric":
        raise ValueError("--weights feeds the class frequencies of --loss asymmetric only")
    features = _read_finite(args["features"], "features").astype(np.float64)
    labels = _read_finite(args["labels"], "labels")
    bad = labels[(labels % 1 != 0) | (np.abs(labels) >= 2.0**63)]  # int64 holds no more
    if bad.size:
        raise ValueError(f"--labels must be whole class numbers, got {bad[0]}")
    labels = labels.astype(np.int64)
    weights = (_read_finite(args["weights"], "weights").astype(np.float64)
               if args.get("weights") else None)
    model = learner.train(features, labels, cfg, num_classes=args.get("classes"),
                          sample_weights=weights)
    learner.write_model(model, args["out"])


def _cmd_predict(args):
    model = learner.read_model(args["model"])
    features = _read_finite(args["features"], "features").astype(np.float64)
    write_tensor(learner.predict_labels(model, features).astype(np.uint32), args["out"])


def _cmd_sample(args):
    reads = args["mode"] == "diverse" or args["bg"]
    if reads:
        _require(args, ["features"], "options")
    elif args.get("features"):
        raise ValueError(f"--features is read only by --mode diverse and by --bg, and "
                         f"--mode {args['mode']} without --bg reads neither")
    scores = _read_finite(args["scores"], "scores", 3).astype(np.float64)
    # topk and spatial read no field: they get one of no channels on the scores' grid
    z = (weaksup.normalize_features([_read_finite(args["features"], "features", 3)])[0]
         if reads else np.zeros((0, *scores.shape[1:])))
    points = weaksup.sample_points(scores, z, args["k"], args["mode"], args["bg"])
    for c, pts in enumerate(points):
        if len(pts) < args["k"]:
            what = "background" if args["bg"] and c == len(points) - 1 else f"class {c}"
            raise ValueError(f"{what} has only {len(pts)} distinct points with nonzero "
                             f"features, fewer than --k {args['k']}")
    rows = [(c, int(r), int(col), rank) for c, pts in enumerate(points)
            for rank, (r, col) in enumerate(pts)]
    write_tensor(np.array(rows, dtype=np.uint32).reshape(-1, 4), args["out"])


def _crf_refine(lab, spmap, probs, iters, damping, mode="parallel", **kernels):
    """mean_field_refine's q over the image_crf of spmap's regions, each node
    its region's mean Lab and (x, y); kernels are image_crf's keywords."""
    node = labxy_means(lab, spmap)
    model = crf_mod.image_crf(node[:, :3], probs, node[:, 3:], **kernels)
    return crf_mod.mean_field_refine(model, iters, damping, mode).q


def _cmd_crf(args):
    unary = _read_finite(args["unary"], "unary").astype(np.float64)
    bad = unary[(unary < 0) | (unary > 1)]
    if bad.size:
        raise ValueError(f"--unary must hold probabilities in [0, 1], got {bad[0]}")
    lab = rgb_to_lab(read_ppm(args["image"]))
    h, w = lab.shape[:2]
    pixels = not args.get("superpixels")
    if pixels:
        if unary.ndim != 3 or unary.shape[1:] != (h, w):
            raise ValueError("pixel unary must be (C, H, W) matching the image")
        if h * w > 4096:
            raise ValueError("pixel-mode CRF limited to 4096 pixels; pass --superpixels")
        spmap = np.arange(h * w).reshape(h, w)  # every pixel is a node
        probs = unary.reshape(unary.shape[0], -1).T
    else:
        spmap = _read_spmap(args["superpixels"], (h, w))
        if unary.ndim != 2 or unary.shape[0] != int(spmap.max()) + 1:
            raise ValueError("superpixel unary must be (K, C)")
        probs = unary
    # a node's row need not sum to 1 (mean field reads only its ratios), but it needs mass
    empty = np.flatnonzero(~probs.any(axis=1))
    if empty.size:
        where = ("pixel (row {}, column {})".format(*divmod(int(empty[0]), w)) if pixels
                 else f"superpixel {empty[0]}")
        raise ValueError(f"--unary has no probability mass at {where}: every class is 0")
    q = _crf_refine(lab, spmap, probs, mode=args["mode"],
                    **{key: args[key] for key in _PIPELINE["crf"]})
    if pixels:
        q = q.T.reshape(unary.shape)
    write_tensor(q.astype(np.float32), args["out"])


def _seg_report(cm):
    return {
        "mIoU": metrics.mean_iou(cm),
        "per_class_iou": [None if math.isnan(v) else v for v in metrics.iou_per_class(cm)],
        "pixel_acc": metrics.pixel_accuracy(cm),
        "class_acc": metrics.class_accuracy(cm),
    }


def _check_classes(classes, ignore=None):
    """Refuse a class count below 1, and an ignore label that is also a class
    id: scoring would drop that class silently."""
    if classes < 1:
        raise ValueError(f"classes must be >= 1, got {classes}")
    if ignore is not None and 0 <= ignore < classes:
        raise ValueError(f"ignore {ignore} is one of the class ids 0..{classes - 1}; "
                         "pick a label outside them")


def _require_scored(gts, ignore, source):
    """Raise ValueError unless some ground-truth pixel is not `ignore`, since
    no score is defined over an all-ignore ground truth."""
    if not any((gt != ignore).any() for gt in gts):
        raise ValueError(f"no scored pixel in {source}: all ground truth is ignore ({ignore})")


def _cmd_eval(args):
    _check_classes(args["classes"], args["ignore"])
    pred = read_pgm(args["pred"]).astype(np.int64)
    gt = read_pgm(args["gt"]).astype(np.int64)
    _require_scored([gt], args["ignore"], args["gt"])
    cm = metrics.confusion(pred, gt, args["classes"], args["ignore"])
    text = report_emit(_seg_report(cm), args.get("out"), args["report"])
    print(text)


def _cmd_eval_depth(args):
    pred = _read_finite(args["pred"], "pred").astype(np.float64)
    gt = _read_finite(args["gt"], "gt").astype(np.float64)
    report = metrics.depth_metrics(pred, gt, args["rel_denominator"])
    print(report_emit(report, args.get("out"), args["report"]))


def _cmd_synth(args):
    spec = SyntheticSpec(size=args["size"], num_classes=args["classes"],
                         kind=args["kind"], noise_sigma=args["noise"])
    synth_generate(spec, args["count"], args["seed"], args["out"])


def _stage(timings, name, fn, *fn_args, **fn_kwargs):
    """Call fn, adding its wall time to timings[name] and "[name] " to its error."""
    start = time.perf_counter()
    try:
        return fn(*fn_args, **fn_kwargs)
    except Exception as exc:
        exc.args = (f"[{name}] {exc}",) + exc.args[1:]
        raise
    finally:
        timings[name] = timings.get(name, 0.0) + time.perf_counter() - start


# Pipeline config: key -> (type, default) for the top level and for each
# nested section, in the form of _SPECS.  The defaults differ from the
# subcommands' flags.
_PIPELINE = {
    "config": {"train_dir": (str, None), "test_dir": (str, None), "classes": (int, None),
               "ignore": (int, 255), "slic": (dict, {}), "proximal_radius": (int, 2),
               "oracle": (bool, False), "train": (dict, {}), "crf": (dict, None),
               "report": (str, None)},
    "slic": {"k": (int, 100), "m": (float, 15.0), "max_iters": (int, 10)},
    "train": {"hidden": (list, [64]), "epochs": (int, 40), "batch_size": (int, 128),
              "learning_rate": (float, 0.02), "momentum": (float, 0.9),
              "weight_decay": (float, 1e-4), "dropout": (float, 0.0), "seed": (int, 0),
              "loss": (_LOSS, "asymmetric")},
    "crf": {"iters": (int, 5), "damping": (float, 0.5), "w_appearance": (float, 3.0),
            "w_smooth": (float, 1.0), "sigma_xy": (float, 20.0), "sigma_lab": (float, 10.0),
            "sigma_xy_smooth": (float, 5.0)},
}


def _pipeline_section(values, name):
    return _merge_section(_PIPELINE[name], values, f"pipeline {name}")


def pipeline_run(config):
    """slic -> features -> train/predict -> optional CRF -> eval.

    The keys, their types and defaults are those of _PIPELINE; classes,
    test_dir and (unless oracle) train_dir are required.  crf null or {}
    skips the CRF stage, and report is the output path.  An unknown key, a
    wrongly typed value, classes below 1, an ignore label among the class
    ids, an out-of-range SLIC, train or CRF value at any level, or a key an
    oracle run never reads, raises ValueError before any image is loaded;
    so does a directory without images once it is read, and a test_dir
    whose ground truth is all ignore.  Returns the report dict; its timings
    are seconds per stage.
    """
    cfg = _pipeline_section(config, "config")
    oracle = cfg["oracle"]
    unread = sorted({"train_dir", "train", "crf", "proximal_radius"} & set(config))
    if oracle and unread:
        raise ValueError(f"an oracle pipeline reads none of the keys {unread}")
    _require(cfg, {"classes", "test_dir"} | (set() if oracle else {"train_dir"}),
             "pipeline keys")
    _check_classes(cfg["classes"], cfg["ignore"])
    params = SlicParams(**_pipeline_section(cfg["slic"], "slic"))
    train = _pipeline_section(cfg["train"], "train")
    train_cfg = learner.TrainConfig(**dict(train, hidden=tuple(train["hidden"])))
    crf_cfg = _pipeline_section(cfg["crf"], "crf") if cfg["crf"] else None
    if crf_cfg:
        kernels = dict(crf_cfg)
        crf_mod.check_mean_field(kernels.pop("iters"), kernels.pop("damping"))
        crf_mod.check_image_crf(**kernels)
    num_classes, ignore = cfg["classes"], cfg["ignore"]
    levels = f"local,proximal:{cfg['proximal_radius']}"
    zoomout._parse_levels(levels)  # rejects a radius below 1 before any image loads
    timings = {}
    train_pairs = [] if oracle else _stage(timings, "load", load_dataset, cfg["train_dir"])
    test_pairs = _stage(timings, "load", load_dataset, cfg["test_dir"])
    _require_scored([gt for _, gt in test_pairs], ignore, cfg["test_dir"])

    if not oracle:
        xs, ys, ws = [], [], []
        for img, gt in train_pairs:
            lab = _stage(timings, "slic", rgb_to_lab, img)  # once, for SLIC and the features
            res = _stage(timings, "slic", run_slic, lab, params)
            feats = _stage(timings, "features", zoomout.build_features, lab, res.spmap, levels)
            sp_labels = metrics.majority_labels(gt, res.spmap, ignore)
            counts = np.bincount(res.spmap.ravel(), minlength=len(sp_labels))
            keep = sp_labels != ignore
            xs.append(feats[keep])
            ys.append(sp_labels[keep])
            ws.append(counts[keep])
        features = np.concatenate(xs)
        del xs, lab  # the per-image arrays go before training, where the run peaks
        model = _stage(
            timings, "train", learner.train,
            features, np.concatenate(ys).astype(np.int64), train_cfg,
            num_classes=num_classes, sample_weights=np.concatenate(ws),
        )

    cm = np.zeros((num_classes, num_classes), dtype=np.int64)
    cm_crf = np.zeros_like(cm)
    for img, gt in test_pairs:
        lab = _stage(timings, "slic", rgb_to_lab, img)
        res = _stage(timings, "slic", run_slic, lab, params)
        if oracle:
            pred = metrics.oracle_labels(gt, res.spmap, ignore)
            cm += metrics.confusion(pred, gt, num_classes, ignore)
            continue
        feats = _stage(timings, "features", zoomout.build_features, lab, res.spmap, levels)
        probs = _stage(timings, "predict", learner.forward, model, feats)
        sp_pred = np.argmax(probs, axis=1)
        cm += metrics.confusion(sp_pred[res.spmap], gt, num_classes, ignore)
        if crf_cfg:
            q = _stage(timings, "crf", _crf_refine, lab, res.spmap, probs, **crf_cfg)
            cm_crf += metrics.confusion(
                crf_mod.map_labels(q)[res.spmap], gt, num_classes, ignore)

    report = _seg_report(cm)
    if crf_cfg:
        report["crf"] = _seg_report(cm_crf)
    report["timings"] = {k: round(v, 4) for k, v in timings.items()}
    if cfg["report"]:
        # wall-clock timings stay off disk so written artifacts are
        # byte-identical across identical runs
        report_emit({k: v for k, v in report.items() if k != "timings"},
                    cfg["report"], "json")
    return report


def _cmd_pipeline(args):
    if not args.get("config"):
        raise ValueError("pipeline requires --config")
    print(report_emit(pipeline_run(_load_json(args["config"])), None, "json"))


# each command's handler is _cmd_<command>, "-" becoming "_"
_HANDLERS = {name: globals()["_cmd_" + name.replace("-", "_")] for name in _SPECS}


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        namespace = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; report them as validation errors
        return 0 if exc.code in (0, None) else 1
    try:
        explicit = vars(namespace)
        command = explicit.pop("command")
        # the pipeline's --config is its whole config, not flag defaults
        args = explicit if command == "pipeline" else _merge_config(explicit, command)
        _HANDLERS[command](args)
        return 0
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's message names the size it could not allocate
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

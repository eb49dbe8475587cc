"""What the benchmark measures: workloads, metrics and their bounds.

`python3 bench/run.py --write-manifest` renders this table as the
repository's BENCHMARK.json, and `--self-test` checks that the file still
matches it, so the two cannot drift apart.

Which layer metric should move which end-to-end metric, on which
workload (a layer that a workload never calls reads 0 there):

* slic.enforce_connectivity.s, slic.assign_pixels.s, slic.update_centers.s,
  slic.perturb_centers.s and the slic.* counts move images_per_s and
  op_s.p50 on supervised-blobs only.
* zoomout.subscene_bbox.incl_s and zoomout.proximal_average.incl_s move
  op_s.p90 (the `features` call is the slowest of the three calls per
  image) and images_per_s on region-zoom; proximal_average is small on
  supervised-blobs, where K is about 144.
* learner.* move images_per_s on weak-points (thousands of 1-2 row steps)
  and on supervised-blobs (128-row batches over 494-dim features); a gain
  on one of them must not cost the other.
* weaksup.* move images_per_s on weak-points only.
* crf.* move op_s.p50 (the `crf` call is the median call) on region-zoom
  and nothing on supervised-blobs, where the CRF sees about 144 nodes.
* core_io.* move op_s.p50 on region-zoom and setup_s everywhere
  (setup.* metrics come from one traced set-up).
"""

COMMAND = ["python3", "bench/run.py"]
PATHS = ["bench"]
RUN_SECONDS = 30

# Each workload runs in closed loop with a single caller.  The reason is
# also the record of which layers the workload bypasses, so a later change
# can name the workload on which its prediction is "no change".
WORKLOADS = [
    ("supervised-blobs",
     "Paper's main path via cli.pipeline_run: SLIC connectivity/assignment and "
     "128-row MLP batches dominate; CRF sees ~144 nodes. Bypasses weaksup."),
    ("weak-points",
     "weaksup.point_supervision_pipeline: thousands of 1-2 row learner steps, "
     "per-call overhead dominates. Bypasses slic, zoomout, crf and core_io files."),
    ("region-zoom",
     "cli.main rect/features/crf on ~2k regions: subscene/proximal loops, "
     "O(N^2 C) mean field and core_io on every call. Bypasses slic, learner, weaksup."),
]

# (name, unit, better, bound).  bound is the share of the parent's median
# by which the metric may worsen before a change counts as a regression.
# Timings get the widest bound allowed: on the two-vCPU virtual machine the
# benchmark was tuned on, run-to-run drift alone moves a run's median by
# about 10%.  mIoU is exact for a given seed (the pins guard it); its
# bound covers how much it varies from one seed to the next.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("images_per_s", "1/s", "higher", 0.25),
    ("op_s.p50", "s", "lower", 0.25),
    ("op_s.p90", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("miou", "ratio", "higher", 0.25),
    ("miou_crf", "ratio", "higher", 0.25),
    ("success_frac", "ratio", "higher", 0.01),
]

# (name, unit, better).  ".s" is self time per traced unit of work (the
# span minus its child spans), ".incl_s" the span's whole duration, and
# "count" metrics are per traced unit.
PER_LAYER = [
    ("slic.enforce_connectivity.s", "s", "lower"),
    ("slic.assign_pixels.s", "s", "lower"),
    ("slic.update_centers.s", "s", "lower"),
    ("slic.perturb_centers.s", "s", "lower"),
    ("slic.run_slic.s", "s", "lower"),
    ("slic.iterations", "count", "lower"),
    ("slic.window_evals", "count", "lower"),
    ("slic.superpixels", "count", "higher"),
    ("slic.enforce_connectivity.calls", "count", "lower"),
    ("zoomout.subscene_bbox.s", "s", "lower"),
    ("zoomout.subscene_bbox.incl_s", "s", "lower"),
    ("zoomout.subscene_bbox.calls", "count", "lower"),
    ("zoomout.superpixel_bboxes.s", "s", "lower"),
    ("zoomout.neighbors_within_radius.s", "s", "lower"),
    ("zoomout.proximal_average.s", "s", "lower"),
    ("zoomout.proximal_average.incl_s", "s", "lower"),
    ("zoomout.local_color_features.s", "s", "lower"),
    ("zoomout.build_adjacency.s", "s", "lower"),
    ("zoomout.pool_over_superpixels.s", "s", "lower"),
    ("learner.train.s", "s", "lower"),
    ("learner.train.incl_s", "s", "lower"),
    ("learner.backprop.s", "s", "lower"),
    ("learner.loss_gradient.s", "s", "lower"),
    ("learner.sgd_step.s", "s", "lower"),
    ("learner.logits.s", "s", "lower"),
    ("learner.forward.s", "s", "lower"),
    ("learner.logits.calls", "count", "lower"),
    ("learner.rows", "count", "lower"),
    ("weaksup.train_localizer.s", "s", "lower"),
    ("weaksup.train_localizer.incl_s", "s", "lower"),
    ("weaksup.image_loss_and_grad.s", "s", "lower"),
    ("weaksup.diverse_sample_fg.s", "s", "lower"),
    ("weaksup.diverse_sample_bg.s", "s", "lower"),
    ("crf.kernel_sum_matrix.s", "s", "lower"),
    ("crf.mean_field_refine.s", "s", "lower"),
    ("crf.mean_field_refine.incl_s", "s", "lower"),
    ("crf.free_energy.s", "s", "lower"),
    ("crf.pair_evals", "count", "lower"),
    ("core_io.read.s", "s", "lower"),
    ("core_io.write.s", "s", "lower"),
    ("core_io.rgb_to_lab.s", "s", "lower"),
    ("core_io.bytes", "count", "lower"),
    ("metrics.confusion.s", "s", "lower"),
    ("metrics.oracle_labels.s", "s", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("layer.core_io.s", "s", "lower"),
    ("layer.slic.s", "s", "lower"),
    ("layer.zoomout.s", "s", "lower"),
    ("layer.learner.s", "s", "lower"),
    ("layer.weaksup.s", "s", "lower"),
    ("layer.crf.s", "s", "lower"),
    ("layer.metrics.s", "s", "lower"),
    ("layer.synth.s", "s", "lower"),
    ("layer.cli.s", "s", "lower"),
    ("setup.layer.core_io.s", "s", "lower"),
    ("setup.layer.synth.s", "s", "lower"),
    ("setup.core_io.bytes", "count", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.unit_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

# Groups of spans reported under one name.
SPAN_GROUPS = {
    "core_io.read": ("core_io.read_ppm", "core_io.read_pgm", "core_io.read_tensor"),
    "core_io.write": ("core_io.write_ppm", "core_io.write_pgm", "core_io.write_tensor"),
}


def manifest():
    """The BENCHMARK.json document."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }

"""A loop split into chunks on threads: the split, the error state, and the
one-thread view a tracer that wraps zok's public functions relies on."""

import functools
import importlib
import inspect
import pkgutil
import sys
import threading

import numpy as np
import pytest

import zok
from zok import _parallel, cli, core_io, synth, zoomout


def force_cpus(monkeypatch, cpus):
    monkeypatch.setattr(_parallel, "cpu_count", lambda: cpus)


class TestRunChunks:
    @pytest.mark.parametrize("cpus", [1, 2, 3, 5])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 100])
    def test_chunks_cover_range_in_order(self, monkeypatch, cpus, n):
        force_cpus(monkeypatch, cpus)
        calls, lock = [], threading.Lock()

        def worker(start, stop):
            with lock:
                calls.append((start, stop))

        _parallel.run_chunks(n, worker)
        calls.sort()
        assert len(calls) == max(1, min(cpus, n))
        assert calls[0][0] == 0 and calls[-1][1] == n
        assert all(a[1] == b[0] for a, b in zip(calls, calls[1:]))
        assert n == 0 or all(stop > start for start, stop in calls)

    @pytest.mark.parametrize("cpus, n", [(1, 50), (4, 1), (4, 0)])
    def test_one_chunk_runs_inline(self, monkeypatch, cpus, n):
        force_cpus(monkeypatch, cpus)
        threads = []
        _parallel.run_chunks(n, lambda start, stop: threads.append(threading.current_thread()))
        assert threads == [threading.current_thread()]

    def test_workers_run_under_the_callers_error_state(self, monkeypatch):
        force_cpus(monkeypatch, 3)
        seen, lock = [], threading.Lock()

        def worker(start, stop):
            with lock:
                seen.append((threading.current_thread(), np.geterr()))

        with np.errstate(over="raise", divide="ignore", invalid="call", under="warn"):
            want = np.geterr()
            _parallel.run_chunks(3, worker)
        assert len(seen) == 3
        assert all(thread is not threading.current_thread() for thread, _ in seen)
        assert all(err == want for _, err in seen)

    def test_first_chunks_exception_after_every_chunk_finished(self, monkeypatch):
        force_cpus(monkeypatch, 4)
        finished, lock = [], threading.Lock()

        def worker(start, stop):
            if start > 0:
                with lock:
                    finished.append(start)
                raise ValueError(f"chunk at {start}")

        with pytest.raises(ValueError, match="chunk at 2"):
            _parallel.run_chunks(8, worker)
        assert sorted(finished) == [2, 4, 6]


def test_many_workers_with_a_short_switch_interval_match_the_reference(monkeypatch):
    # more threads than cores, switching often: a chunk writing another's
    # rows, or an update lost between them, would change bytes
    from test_zoomout import reference_box_means, wide_map

    force_cpus(monkeypatch, 16)
    rng = np.random.default_rng(21)
    fm = wide_map(rng, (3, 40, 50))
    xs = np.sort(rng.integers(0, 50, size=(400, 2)), axis=1)
    ys = np.sort(rng.integers(0, 40, size=(400, 2)), axis=1)
    boxes = np.stack([xs[:, 0], ys[:, 0], xs[:, 1], ys[:, 1]], axis=1)
    want = reference_box_means(fm, boxes).tobytes()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            assert zoomout._box_means(fm, boxes).tobytes() == want
    finally:
        sys.setswitchinterval(interval)


def wrap_public_functions(monkeypatch, record):
    """Wrap every public function of every zok module, in every zok module
    namespace that binds it, as the benchmark's span recorder does."""
    modules = [importlib.import_module(f"zok.{m.name}")
               for m in pkgutil.iter_modules(zok.__path__)]
    for mod in modules:
        for attr, fn in list(vars(mod).items()):
            if (attr.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__):
                continue

            @functools.wraps(fn)
            def traced(*args, _fn=fn, _name=f"{mod.__name__}.{attr}", **kwargs):
                record.append((_name, threading.current_thread()))
                return _fn(*args, **kwargs)

            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is fn:
                        monkeypatch.setattr(holder, key, traced)


def test_public_calls_stay_on_the_main_thread(tmp_path, monkeypatch):
    # features --mirror and crf on a 256^2 map of 2,116 rectangles, as the
    # region-zoom benchmark runs them, with the box sums forced onto 3 threads
    force_cpus(monkeypatch, 3)
    spec = synth.SyntheticSpec(size=256, num_classes=5, kind="blobs", noise_sigma=8.0)
    img, _ = synth.generate_dataset(spec, 1, 3)[0]
    rng = np.random.default_rng(0)
    rect = zoomout.rect_regions(256, 256, 2048)
    k = int(rect.max()) + 1
    paths = {name: str(tmp_path / name) for name in
             ("img.ppm", "sp.zot", "fm.zot", "unary.zot", "f.zot", "q.zot")}
    core_io.write_ppm(img, paths["img.ppm"])
    core_io.write_tensor(rect.astype(np.uint32), paths["sp.zot"])
    core_io.write_tensor(rng.normal(size=(4, 32, 32)).astype(np.float32), paths["fm.zot"])
    core_io.write_tensor(rng.dirichlet(np.ones(5), size=k).astype(np.float32),
                         paths["unary.zot"])

    calls, workers, lock = [], [], threading.Lock()
    box_sums = zoomout._box_sums

    def private(*args):
        with lock:
            workers.append(threading.current_thread())
        return box_sums(*args)

    monkeypatch.setattr(zoomout, "_box_sums", private)
    wrap_public_functions(monkeypatch, calls)

    assert cli.main(["features", "--image", paths["img.ppm"], "--superpixels", paths["sp.zot"],
                     "--levels", "pooled,subscene:3", "--featmap", paths["fm.zot"], "--mirror",
                     "--out", paths["f.zot"]]) == 0
    assert cli.main(["crf", "--unary", paths["unary.zot"], "--image", paths["img.ppm"],
                     "--superpixels", paths["sp.zot"], "--iters", "2",
                     "--out", paths["q.zot"]]) == 0
    names = {name for name, _ in calls}
    assert {"zok.zoomout.build_features", "zok.crf.kernel_sum_matrix",
            "zok._parallel.run_chunks"} <= names
    off_main = [name for name, thread in calls if thread is not threading.main_thread()]
    assert not off_main
    # the private box-sum workers did run on the pool's threads
    assert set(workers) - {threading.main_thread()}

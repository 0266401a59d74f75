"""In-memory span tracer around the public functions of rsadyn's layers.

The tracer replaces module attributes (and two `RasterGrid` methods) with
wrappers that record one span per call: name, parent span, thread id, start
and end. Because rsadyn calls across modules through the module object
(`salem.salem_certificate(...)`) and within a module through its globals,
replacing the attribute also catches nested calls, for example the second
certificate that `picard.entropy` builds inside a `salem` command.

A span opened in a thread that has no open span of its own (a raster worker
thread) is a child of the innermost span open in the installing thread, so
`probes.siegel_raster` owns the `_kernels.classify_block` calls its pool makes.
Self time is a span's duration minus the union of its children's intervals;
summed over threads it is busy time, reported beside the wall-clock union.

Spans stay in memory; `dump` writes them out once, when the traced command
ends. `summarize` turns spans and counts into the per-layer metrics.
"""

import contextlib
import functools
import json
import os
import threading
import time

# (module, attribute) pairs the tracer wraps. The metric prefix is the pair
# joined by a dot, with `_kernels` written `kernels`: metric names start with
# a letter.
TARGETS = (
    ("salem", "find_roots"),
    ("salem", "cyclotomic_part"),
    ("salem", "salem_certificate"),
    ("picard", "berkowitz_charpoly"),
    ("picard", "entropy"),
    ("family", "build_params"),
    ("family", "multipliers_at_fixed"),
    ("family", "orbit_identities"),
    ("blowup", "landing_condition"),
    ("blowup", "fiber_orbit_check"),
    ("series", "corner_return_map"),
    ("series", "infinity_return_map"),
    ("series", "linearize_diagonal"),
    ("series", "verify_conjugacy"),
    ("probes", "birkhoff_linearize"),
    ("probes", "siegel_raster"),
    ("probes", "RasterGrid.write_pgm"),
    ("probes", "RasterGrid.write_csv"),
    ("probes", "near_identity_returns"),
    ("probes", "slice_radius"),
    ("probes", "classify_point_mp"),
    ("_kernels", "classify_block"),
    ("_kernels", "h_orbit_distances"),
    ("_kernels", "classify_point"),
)

CLI_SPAN = "cli.main"

# Every per-layer metric, in report order. `trace_overhead_s` and
# `cli.process_s` need the untraced pass and the command wall, so run.py
# fills them in; the rest come from `summarize`.
PER_LAYER = (
    ("salem.find_roots.self_s", "s"),
    ("salem.find_roots.calls", "count"),
    ("salem.find_roots.degree_sum", "count"),
    ("salem.cyclotomic_part.self_s", "s"),
    ("salem.cyclotomic_part.calls", "count"),
    ("salem.salem_certificate.self_s", "s"),
    ("salem.salem_certificate.calls", "count"),
    ("picard.berkowitz_charpoly.self_s", "s"),
    ("picard.entropy.self_s", "s"),
    ("family.build_params.self_s", "s"),
    ("family.multipliers_at_fixed.self_s", "s"),
    ("family.orbit_identities.self_s", "s"),
    ("blowup.landing_condition.self_s", "s"),
    ("blowup.fiber_orbit_check.self_s", "s"),
    ("series.corner_return_map.self_s", "s"),
    ("series.infinity_return_map.self_s", "s"),
    ("series.linearize_diagonal.self_s", "s"),
    ("series.verify_conjugacy.self_s", "s"),
    ("series.max_degree", "count"),
    ("probes.birkhoff_linearize.self_s", "s"),
    ("kernels.classify_block.self_s", "s"),
    ("kernels.classify_block.wall_s", "s"),
    ("kernels.classify_block.cells", "count"),
    ("kernels.classify_block.map_steps", "count"),
    ("kernels.classify_block.map_steps_per_s", "1/s"),
    ("probes.siegel_raster.self_s", "s"),
    ("probes.RasterGrid.write_pgm.self_s", "s"),
    ("probes.RasterGrid.write_csv.self_s", "s"),
    ("probes.raster_bytes", "count"),
    ("probes.near_identity_returns.self_s", "s"),
    ("kernels.h_orbit_distances.self_s", "s"),
    ("kernels.h_orbit_distances.map_steps", "count"),
    ("probes.slice_radius.self_s", "s"),
    ("probes.slice_radius.probes", "count"),
    ("kernels.classify_point.self_s", "s"),
    ("kernels.classify_point.calls", "count"),
    ("probes.classify_point_mp.self_s", "s"),
    ("probes.classify_point_mp.calls", "count"),
    ("cli.main.self_s", "s"),
    ("cli.process_s", "s"),
    ("trace_overhead_s", "s"),
)

# counts merged across commands by max instead of sum
MAX_COUNTS = ("series.max_degree",)


def _count_hooks(kernels):
    """Work counts read from a wrapped call's arguments and result.

    Each hook maps (args, kwargs, result) to {count name: increment}. The
    map-step counts are computed from inputs and outputs, not measured.
    """
    import numpy as np

    def trunc(index):
        def hook(args, kwargs, _):
            d = kwargs["trunc"] if "trunc" in kwargs else args[index]
            return {"series.max_degree": int(d)}
        return hook

    def classify_block(args, _, result):
        n, candidates = int(args[5]), args[6]
        classes, steps = result
        recurrent = classes == kernels.CLASS_RECURRENT
        nonrecurrent = classes == kernels.CLASS_NONRECURRENT
        steps_sum = int(steps[recurrent].sum()) \
            + int(np.max(candidates)) * int(nonrecurrent.sum())
        return {"kernels.classify_block.cells": int(classes.shape[0]),
                "kernels.classify_block.map_steps": n * steps_sum}

    def written(args, kwargs, _):
        path = kwargs["path"] if "path" in kwargs else args[1]
        return {"probes.raster_bytes": os.path.getsize(path)}

    return {
        "salem.find_roots": lambda a, k, r: {
            "salem.find_roots.degree_sum": a[0].degree()},
        "series.corner_return_map": trunc(1),
        "series.infinity_return_map": trunc(2),
        "series.linearize_diagonal": trunc(3),
        "series.verify_conjugacy": trunc(4),
        "kernels.classify_block": classify_block,
        "kernels.h_orbit_distances": lambda a, k, r: {
            "kernels.h_orbit_distances.map_steps": int(a[5]) * int(a[6])},
        "probes.slice_radius": lambda a, k, r: {
            "probes.slice_radius.probes": int(r["probes"])},
        "probes.RasterGrid.write_pgm": written,
        "probes.RasterGrid.write_csv": written,
    }


class Tracer:
    """Records spans and counts; `install` wraps the TARGETS in place."""

    def __init__(self):
        self.spans = []            # [name, parent index, thread id, t0, t1]
        self.counts = {}
        self._stacks = {}
        self._home = threading.get_ident()
        self._lock = threading.Lock()
        self._saved = []

    def _open(self, name):
        tid = threading.get_ident()
        stack = self._stacks.setdefault(tid, [])
        if stack:
            parent = stack[-1]
        else:
            home = self._stacks.get(self._home)
            parent = home[-1] if home and tid != self._home else None
        span = [name, parent, tid, time.perf_counter(), None]
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return span

    def _close(self, span):
        span[4] = time.perf_counter()
        self._stacks[span[2]].pop()

    @contextlib.contextmanager
    def span(self, name):
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def _add_counts(self, delta):
        with self._lock:
            merge(self.counts, delta)

    def _wrap(self, name, fn, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if hook is not None:
                self._add_counts(hook(args, kwargs, result))
            return result
        return wrapper

    def install(self, package):
        """Wrap every target of the imported `package` (rsadyn)."""
        import importlib
        hooks = _count_hooks(importlib.import_module(package + "._kernels"))
        for module_name, attr in TARGETS:
            owner = importlib.import_module("%s.%s" % (package, module_name))
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            name = "%s.%s" % (module_name.lstrip("_"), attr)
            setattr(owner, leaf, self._wrap(name, original, hooks.get(name)))
            self._saved.append((owner, leaf, original))

    def uninstall(self):
        for owner, leaf, original in reversed(self._saved):
            setattr(owner, leaf, original)
        self._saved = []

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)


def _union(intervals):
    total, end = 0.0, None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def summarize(spans, counts):
    """Per-layer metrics of one traced run: self time, calls, work counts.

    Self time sums over threads (busy time); `.wall_s` of the block kernel is
    the union of its spans (wall time).
    """
    children = {}
    for span in spans:
        if span[1] is not None:
            children.setdefault(span[1], []).append(span)
    out = {}
    for index, (name, _, _, t0, t1) in enumerate(spans):
        covered = _union([(max(c[3], t0), min(c[4], t1))
                          for c in children.get(index, ())
                          if c[4] is not None and c[3] < t1])
        key = name + ".self_s"
        out[key] = out.get(key, 0.0) + (t1 - t0) - covered
        out[name + ".calls"] = out.get(name + ".calls", 0) + 1
    out["kernels.classify_block.wall_s"] = _union(
        [(s[3], s[4]) for s in spans if s[0] == "kernels.classify_block"])
    out.update(counts)
    return out


def merge(total, part):
    """Add one command's summary into a running total."""
    for key, value in part.items():
        if key in MAX_COUNTS:
            total[key] = max(total.get(key, 0), value)
        else:
            total[key] = total.get(key, 0) + value
    return total


def per_layer_metrics(total):
    """The full PER_LAYER set (zero where a layer was idle)."""
    out = {name: total.get(name, 0 if unit == "count" else 0.0)
           for name, unit in PER_LAYER}
    busy = out["kernels.classify_block.self_s"]
    out["kernels.classify_block.map_steps_per_s"] = \
        out["kernels.classify_block.map_steps"] / busy if busy > 0 else 0.0
    return out

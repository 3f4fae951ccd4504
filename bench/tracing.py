"""In-memory spans around the benchmark's calls into qpol2.

A traced run wraps every call the workloads make into a qpol2 module in a
span named ``<module>.<function>``; the parent of each such span is the
span of the work unit (item group) it belongs to.  Spans are kept in a
list and written out once, when the run ends.  The untraced run uses
``NullTracer``, which calls straight through.

The spans only cover calls made from the benchmark's own files; the
package is not instrumented.  No layer has a queue, so there is no
wait time to record: a span's duration is the layer's busy time.
"""

import json
import time
from contextlib import contextmanager

LAYERS = ("scatter", "channels", "metrics", "tomography", "fitting", "fileio",
          "polarization")


class NullTracer:
    """Untraced run: calls go straight to the program."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def note(self, **attrs):
        pass


class Tracer:
    """Traced run: records one span per call and one per work unit."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._parent = None

    def _record(self, name, start, end, parent, attrs):
        span = {"id": len(self.spans), "name": name, "start": start, "end": end,
                "parent": parent, "run": self.run_id, "attrs": attrs}
        self.spans.append(span)
        return span

    def call(self, name, fn, *args, **kwargs):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        end = time.perf_counter()
        self._record(name, start, end, self._parent, {})
        return result

    def note(self, **attrs):
        """Attach counts to the span of the most recent call."""
        self.spans[-1]["attrs"].update(attrs)

    @contextmanager
    def unit(self, name):
        span = self._record(name, time.perf_counter(), None, None, {})
        self._parent = span["id"]
        try:
            yield
        finally:
            span["end"] = time.perf_counter()
            self._parent = None

    def write(self, path, env):
        with open(path, "w") as fh:
            json.dump({"run": self.run_id, "env": env, "spans": self.spans}, fh)
            fh.write("\n")


def _sum(spans, key="dur"):
    return sum(s[key] if key == "dur" else s["attrs"].get(key, 0) for s in spans)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, untraced_wall):
    """Per-layer metrics of a traced run.

    ``spans`` are the spans of the timed units (warm-up excluded), plus any
    probe spans; ``untraced_wall`` is the wall time of the same units run
    without tracing, which gives the tracing overhead.
    """
    for s in spans:
        s["dur"] = s["end"] - s["start"]
    units = [s for s in spans if s["name"].startswith("bench.")]
    unit_ids = {s["id"] for s in units}
    calls = [s for s in spans if s["parent"] in unit_ids]
    probes = [s for s in spans if s["attrs"].get("probe")]
    wall = _sum(units)

    def named(*names):
        return [s for s in calls if s["name"] in names]

    out = {}

    def busy(metric, spans_):
        out[f"{metric}.busy_s"] = _sum(spans_)
        out[f"{metric}.calls"] = len(spans_)

    for layer in LAYERS:
        busy(layer, [s for s in calls if s["name"].split(".")[0] == layer])
    for name in ("scatter.simulate", "channels.mueller_from_kraus",
                 "channels.apply_one_photon", "channels.apply_two_photon_independent",
                 "channels.apply_two_photon_correlated", "fileio.kraus_to_json",
                 "fileio.kraus_from_json", "fileio.write_pixel_map",
                 "fitting.fit_diagonal", "fitting.fit_general",
                 "fitting.stabilizer_dimension", "fitting.reconstruct_image",
                 "tomography.simulate_counts", "tomography.reconstruct",
                 "metrics.metrics_report"):
        busy(name, named(name))
    busy("channels.ensemble", named("channels.KrausEnsemble"))
    grid = named("fileio.write_grid", "fileio.read_grid")
    busy("fileio.grid", grid)

    sim = named("scatter.simulate")
    for slab in ("thin", "thick"):
        mine = [s for s in sim if s["attrs"].get("slab") == slab]
        photons = _sum(mine, "photons")
        out[f"scatter.photons_per_s.{slab}"] = _ratio(photons, _sum(mine))
        out[f"scatter.accept_frac.{slab}"] = _ratio(_sum(mine, "paths"), photons)
        traced = [s for s in probes if s["attrs"].get("slab") == slab]
        out[f"scatter.events_per_photon.{slab}"] = _ratio(
            _sum(traced, "events"), _sum(traced, "photons"))

    writes = named("fileio.kraus_to_json")
    out["fileio.kraus_json.bytes"] = _ratio(_sum(writes, "bytes"), len(writes))
    grid_writes = named("fileio.write_grid")
    out["fileio.grid.bytes"] = _ratio(_sum(grid_writes, "bytes"), len(grid_writes))

    mk = named("channels.mueller_from_kraus")
    for size in ("small", "large"):
        mine = [s for s in mk if s["attrs"].get("size") == size]
        out[f"channels.mueller_from_kraus.paths_per_s.{size}"] = _ratio(
            _sum(mine, "paths"), _sum(mine))
    tpp = [s for s in named("channels.apply_two_photon_independent")
           if s["attrs"].get("size") == "large"]
    out["channels.apply_two_photon_independent.paths_per_s.large"] = _ratio(
        _sum(tpp, "paths"), _sum(tpp))
    # Computed, not measured: 64 B (one complex128 2x2 Jones matrix) per path
    # per call that reads an ensemble.
    out["channels.bytes_in"] = 64.0 * _sum(
        [s for s in calls if s["name"].startswith("channels.")], "paths")

    images = named("fitting.reconstruct_image")
    pixels = _sum(images, "pixels")
    out["fitting.pixels_per_s"] = _ratio(pixels, _sum(images))
    out["fitting.image.converged_frac"] = _ratio(_sum(images, "converged"), pixels)
    diag = named("fitting.fit_diagonal")
    out["fitting.fit_diagonal.nfev"] = _ratio(_sum(diag, "nfev"), len(diag))
    general = named("fitting.fit_general")
    out["fitting.fit_general.nfev"] = _ratio(_sum(general, "nfev"), len(general))
    out["fitting.fit_general.converged_frac"] = _ratio(
        _sum(general, "converged"), len(general))
    out["tomography.states"] = len(named("tomography.reconstruct"))

    out["bench.wall_s"] = wall
    out["bench.glue_frac"] = _ratio(wall - _sum(calls), wall)
    out["trace.overhead_frac"] = _ratio(wall, untraced_wall) - 1.0
    return out


def unit_of(name):
    """Unit of a per-layer metric, from its name."""
    if "_per_s" in name:
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if "frac" in name:
        return "frac"
    if name == "channels.bytes_in":
        return "B_computed"
    if "bytes" in name:
        return "B"
    return "count"

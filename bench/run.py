"""Run one qpol2 benchmark workload and print its metrics.

    python3 bench/run.py --workload {slab,image,recon} --seed N --seconds S --trace {0,1}

Run from the root of a qpol2 source checkout: the package is imported
from ``src/`` of the checkout this file sits in, never from an installed
copy.  The load is a closed loop with one process and one client thread:
each work unit starts after the previous one has finished.

``--trace 0`` prints the end-to-end metrics (``items_per_s``, ``setup_s``,
``peak_rss_mb``, ``ok_frac``), the two times scaled to a reference CPU
speed (see ``reference_kernel``); ``--trace 1`` runs every unit both with and
without spans (alternating which goes first), writes the spans to
``bench/out/`` and prints the per-layer metrics.  Either way the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exits 1 without that line
when the checkout has no ``src/qpol2``.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

# A typical time of reference_kernel(), in seconds, on the box the benchmark
# was defined on (Intel Xeon, 2 cores, Python 3.11.7, numpy 2.4.6; measured
# 10.6-14.8 ms).  Timings are scaled by REF_S over the kernel's time
# measured around them.
REF_S = 0.012

# Set-up (input generation and the warm-up item) is repeated this many
# times, each with another warm-up input, and its median reported, so that
# one slow repetition or one costly input does not move setup_s.
SETUP_REPS = 3


def import_qpol2():
    """Import qpol2 from this checkout's src/, or exit 1."""
    pkg = ROOT / "src" / "qpol2"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"error: {pkg} not found; run from a qpol2 source checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import qpol2

    if Path(qpol2.__file__).resolve().parent != pkg.resolve():
        sys.exit(f"error: imported qpol2 from {qpol2.__file__}, not from {pkg}")
    return qpol2


def git_commit():
    """The checkout's commit from .git, or None outside a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None if not found."""
    import ctypes
    import glob

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def environment(workload, seed):
    import numpy
    import scipy

    config = getattr(numpy.__config__, "CONFIG", {})
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "commit": git_commit(),
    }


def reference_kernel():
    """Time a fixed piece of pure-Python and small-numpy work.

    The box's CPUs are shared with other machines and their speed drifts by
    up to 1.7x over tens of seconds (NOTES.md).  Timing this kernel next to
    each unit tells how fast the CPU ran at the time; dividing it out cut
    the quartile spread of ten recon runs from 0.26 to 0.09 and of ten
    image runs from 0.08 to 0.04.  It uses no qpol2 code, so no change to
    the program can move it.
    """
    import numpy as np

    start = time.perf_counter()
    total = 0.0
    for i in range(60_000):
        total += math.sqrt(i * 0.5)
    step = 0.9 * np.eye(4)
    m = np.eye(4)
    for _ in range(3_000):
        m = step @ m
    return time.perf_counter() - start


def run_unit(wl, unit, tr):
    """Run one unit; returns (output or None if it raised, seconds, seconds
    scaled to the reference speed)."""
    before = reference_kernel()
    start = time.perf_counter()
    try:
        out = wl.run(unit, tr)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        out = None
    seconds = time.perf_counter() - start
    ref = 0.5 * (before + reference_kernel())
    return out, seconds, seconds * REF_S / ref


class Tally:
    """Items attempted and failed, and the reasons for failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def add(self, wl, units, outputs):
        failed, reasons = wl.check(units, outputs)
        self.attempted += sum(u.items for u in units)
        self.failed += failed
        self.reasons.extend(reasons)


def measure(wl, seconds, tracer):
    """The timed loop.  Returns (unit times by unit name, the same scaled to
    the reference speed, items by unit name, tally, untraced wall time).

    With a tracer, every unit also runs a second time without spans, the
    two in alternating order, and both outputs are checked.
    """
    tally = Tally()
    times = {}
    scaled = {}
    items = {}
    null = tracing.NullTracer()
    untraced_wall = 0.0
    deadline = time.perf_counter() + seconds
    last_round = 0.0
    j = 0
    # Start a round only if it should end by the deadline, judged by the
    # last round, so that a run takes no more than its seconds.
    while j == 0 or time.perf_counter() + last_round <= deadline:
        round_start = time.perf_counter()
        units = wl.round(j)
        outputs = []
        plain_outputs = []
        for unit in units:
            if tracer is None:
                out, dt, dt_ref = run_unit(wl, unit, null)
            else:
                for traced in ((True, False) if j % 2 == 0 else (False, True)):
                    if traced:
                        with tracer.unit(f"bench.{unit.name}"):
                            out, dt, dt_ref = run_unit(wl, unit, tracer)
                    else:
                        plain, plain_dt, _ = run_unit(wl, unit, null)
                        untraced_wall += plain_dt
                plain_outputs.append(plain)
            outputs.append(out)
            times.setdefault(unit.name, []).append(dt)
            scaled.setdefault(unit.name, []).append(dt_ref)
            items[unit.name] = unit.items
        tally.add(wl, units, outputs)
        if tracer is not None:
            tally.add(wl, units, plain_outputs)
        last_round = time.perf_counter() - round_start
        j += 1
    return times, scaled, items, tally, untraced_wall


def items_per_s(times, items):
    """Items of one round over the sum of each unit's median time.

    A round holds one unit of each name (thin and thick slab; small and
    large ensemble); taking the median per unit name keeps a slow unit of
    one kind from being paired with a fast one of the other.
    """
    return (sum(items.values())
            / sum(statistics.median(ts) for ts in times.values()))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=["slab", "image", "recon"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    os.environ.pop("QPOL2_THREADS", None)

    import_qpol2()
    import_s = time.perf_counter() - _T0
    import workloads

    setup_refs = [reference_kernel()]

    env = environment(args.workload, args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        reps = []
        for rep in range(SETUP_REPS):
            start = time.perf_counter()
            wl = workloads.WORKLOADS[args.workload](args.seed, str(workdir))
            for unit in wl.warm_up(rep):
                wl.run(unit, tracing.NullTracer())
            reps.append(time.perf_counter() - start)
            setup_refs.append(reference_kernel())
        setup_s = import_s + statistics.median(reps)
        setup_ref = statistics.median(setup_refs)

        run_id = f"{args.workload}-{args.seed}-{os.getpid()}"
        tracer = tracing.Tracer(run_id) if args.trace else None
        times, scaled, items, tally, untraced_wall = measure(wl, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer is None:
        metrics = {
            "items_per_s": (items_per_s(scaled, items), "1/s"),
            "setup_s": (setup_s * REF_S / setup_ref, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "MiB"),
            "ok_frac": (1.0 - tally.failed / tally.attempted, "frac"),
        }
    else:
        if hasattr(wl, "probe"):
            wl.probe(tracer)
        tracer.write(OUT / f"trace-{run_id}.json", env)
        metrics = {name: (value, tracing.unit_of(name))
                   for name, value in tracing.layer_metrics(tracer.spans,
                                                            untraced_wall).items()}

    for reason in tally.reasons:
        print(f"FAIL {reason}", file=sys.stderr)
    print(f"unscaled: items_per_s {items_per_s(times, items):.6g} 1/s, "
          f"setup_s {setup_s:.6g} s; reference kernel {setup_ref:.6g} s at set-up, "
          f"scaled to {REF_S} s")
    print(f"rounds={len(next(iter(times.values())))} attempted={tally.attempted} "
          f"failed={tally.failed} fail_frac={tally.failed / tally.attempted:.6g} frac")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-tests of the benchmark.

    PYTHONPATH=src python -m pytest bench -q

They check that the benchmark uses only qpol2's public API, that the slab
workload makes the same calls as the `mc` command, that every workload
prints exactly the metrics BENCHMARK.json names and passes its own checks,
and that the benchmark fails without the package.  This file, unlike the
benchmark's own files, imports qpol2.cli: the CLI is the reference here.
"""

import ast
import json
import os
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import qpol2
from qpol2 import cli, fileio

import run
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
BENCH_FILES = ("run.py", "workloads.py", "tracing.py")


def _public_api():
    top = {name for name in dir(qpol2) if not name.startswith("_")
           and not isinstance(getattr(qpol2, name), types.ModuleType)}
    # run.py reads qpol2.__file__ to check where the package was imported from.
    return top | {"fileio", "__file__"}, set(fileio.__all__)


def _api_violations(source):
    top, io = _public_api()
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names
                      if a.name.startswith("qpol2") and a.name not in ("qpol2", "qpol2.fileio")]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("qpol2"):
            allowed = {"qpol2": top, "qpol2.fileio": io}.get(node.module, set())
            found += [f"{node.module}.{a.name}" for a in node.names if a.name not in allowed]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            allowed = {"qpol2": top, "fileio": io}.get(node.value.id)
            if allowed is not None and node.attr not in allowed:
                found.append(f"{node.value.id}.{node.attr}")
        elif isinstance(node, ast.keyword) and node.arg == "threads":
            found.append("threads=")
    return found


@pytest.mark.parametrize("name", BENCH_FILES)
def test_benchmark_uses_only_public_api(name):
    assert _api_violations((BENCH / name).read_text()) == []


def test_api_scan_catches_private_names():
    source = ("import qpol2.cli\nfrom qpol2.fitting import fit_general\n"
              "from qpol2 import _x\nqpol2.fitting._diagonal_system\n"
              "fileio._matrix_payload\nqpol2.reconstruct_image(k, g, threads=2)\n")
    assert sorted(_api_violations(source)) == sorted([
        "qpol2.cli", "qpol2.fitting.fit_general", "qpol2._x", "qpol2.fitting",
        "fileio._matrix_payload", "threads="])


@pytest.mark.parametrize("max_paths", [10_000, 500])
def test_slab_matches_mc_command(tmp_path, capsys, max_paths):
    # The `mc` command on an eta grid makes the slab workload's two media;
    # with the default cap the ensembles are uncapped, with 500 both are capped.
    n_photons, seed = 2_000, 7
    config = tmp_path / "run.json"
    fileio.write_json({"mu_s": workloads.Slab.MU_S, "g": workloads.Slab.G,
                       "acceptance_deg": 45.0, "n_photons": n_photons, "seed": seed,
                       "eta_grid": [eta for _, eta in workloads.Slab.SLABS]}, config)
    prefix = str(tmp_path / "cli")
    assert cli.main(["mc", "--config", str(config), "--out", prefix,
                     "--max-paths", str(max_paths)]) == 0
    printed = capsys.readouterr().out.splitlines()

    slab = workloads.Slab(seed, str(tmp_path))
    for i, (name, _) in enumerate(workloads.Slab.SLABS):
        kraus = tmp_path / f"{name}.kraus.json"
        out = workloads.run_slab_medium(tracing.NullTracer(), slab.media[name], n_photons,
                                        seed, str(kraus), max_paths,
                                        workloads.Slab.TOMO_PAIRS)
        assert out["paths"] <= max_paths
        assert printed[i].endswith(f" m={out['m']:.17g}")
        mueller = tmp_path / f"{name}.mueller.csv"
        fileio.write_matrix_csv(out["mueller"], mueller)
        assert mueller.read_bytes() == Path(f"{prefix}.{i}.mueller.csv").read_bytes()
        assert kraus.read_bytes() == Path(f"{prefix}.{i}.kraus.json").read_bytes()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_run_prints_every_metric_and_passes_checks(workload, trace, capsys, monkeypatch):
    monkeypatch.setenv("QPOL2_THREADS", "2")
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    assert "QPOL2_THREADS" not in os.environ
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    if trace:
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        busy = sum(metrics[f"{layer}.busy_s"] for layer in tracing.LAYERS)
        assert busy / metrics["bench.wall_s"] + metrics["bench.glue_frac"] == (
            pytest.approx(1.0))


def test_run_fails_without_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "slab",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

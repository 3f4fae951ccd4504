"""Command-line interface wiring the simulation and reconstruction pipeline.

Subcommands: sweep (metric curves vs m), mc (Monte Carlo channel), propagate
(state through channel), tomo (tomography simulate + reconstruct), fit
(Mueller fits), image (per-pixel reconstruction).  Exit codes: 0 success,
1 runtime/domain failure, 2 usage or file-format error, 3 non-identifiable
fit.  All numeric output uses 17 significant digits; stochastic commands
require an explicit seed.
"""

import argparse
import math
import sys

import numpy as np

from . import fileio
from .channels import (
    apply_one_photon,
    apply_two_photon_correlated,
    apply_two_photon_independent,
    kraus_from_diagonal_mueller,
    KrausEnsemble,
    mueller_from_kraus,
)
from .exceptions import FormatError, QPolError, UnderdeterminedFitError
from .fitting import fit_diagonal, fit_general, reconstruct_image
from .metrics import metrics_report
from .polarization import bell_state, check_density, correlation_tensor
from .scatter import Medium, _bell_m, _seed_key, _slab_at_eta, effective_thickness, simulate
from .tomography import fidelity, reconstruct, simulate_counts

__all__ = ["main"]


class _UsageError(Exception):
    pass


def _fmt(x) -> str:
    return f"{x:.17g}"


def _seed(text) -> int:
    """``--seed`` argument: an integer in [0, 2**64), as in run configs."""
    try:
        return _seed_key(int(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


_SWEEP_METRICS = ("concurrence", "purity", "entropy", "dephasing")


def _cmd_sweep(args) -> int:
    if not (0 <= args.m_min < args.m_max <= 1):
        raise _UsageError("need 0 <= m-min < m-max <= 1")
    if args.steps < 2:
        raise _UsageError("need at least 2 steps")
    modes = ("opp", "tpp") if args.modes == "both" else (args.modes,)
    bell = bell_state()
    lines = [",".join(["m"] + [f"{name}_{mode}" for name in _SWEEP_METRICS for mode in modes])]
    for m in np.linspace(args.m_min, args.m_max, args.steps):
        ch = kraus_from_diagonal_mueller(m, m, m)
        reports = []
        for mode in modes:
            rho, _ = (apply_one_photon(ch, bell, arm="first") if mode == "opp"
                      else apply_two_photon_independent(ch, bell))
            reports.append(metrics_report(rho, bell))
        row = [m] + [getattr(rep, name) for name in _SWEEP_METRICS for rep in reports]
        lines.append(",".join(_fmt(v) for v in row))
    table = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", newline="\r\n") as fh:
            fh.write(table)
    else:
        print(table, end="")
    return 0


def _subsample(ensemble: KrausEnsemble, max_paths, seed) -> KrausEnsemble:
    n = ensemble.weights.size
    if n <= max_paths:
        return ensemble
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.choice(n, size=max_paths, replace=False))
    return KrausEnsemble(np.full(max_paths, 1.0 / max_paths), ensemble.jones[idx])


def _cmd_mc(args) -> int:
    if args.max_paths < 1:
        raise _UsageError("--max-paths must be at least 1")
    cfg = fileio.read_mc_config(args.config)
    n_photons, seed = cfg["n_photons"], cfg["seed"]
    try:
        medium = Medium(cfg["mu_s"], cfg["g"], cfg.get("d", 0.0),
                        math.radians(cfg.get("acceptance_deg", 5.0)))
        if "d" in cfg:
            media = [("", medium, effective_thickness(medium))]
        else:
            media = [(f".{i}", _slab_at_eta(medium, eta), eta)
                     for i, eta in enumerate(cfg["eta_grid"])]
    except ValueError as exc:
        raise FormatError(f"{args.config}: {exc}") from exc
    for tag, medium, eta in media:
        ensemble = _subsample(simulate(medium, n_photons, seed), args.max_paths, seed)
        mueller, _ = mueller_from_kraus(ensemble)
        m = _bell_m(mueller)
        fileio.kraus_to_json(ensemble, f"{args.out}{tag}.kraus.json")
        fileio.write_matrix_csv(mueller, f"{args.out}{tag}.mueller.csv")
        print(f"eta={_fmt(eta)} m={_fmt(m)}")
    return 0


def _cmd_propagate(args) -> int:
    rho_in = fileio.density_from_json(args.state)
    if rho_in.shape != (4, 4):
        raise FormatError("propagate expects a two-photon (dim 4) state")
    rho_in = check_density(rho_in, dim=4)
    ch = fileio.kraus_from_json(args.channel)
    if args.mode == "opp":
        rho_out, _ = apply_one_photon(ch, rho_in, arm="first")
    elif args.mode == "tpp-independent":
        rho_out, _ = apply_two_photon_independent(ch, rho_in)
    else:
        rho_out, _ = apply_two_photon_correlated(ch, rho_in)
    fileio.density_to_json(rho_out, f"{args.out}.state.json")
    fileio.write_matrix_csv(correlation_tensor(rho_out), f"{args.out}.tensor.csv")
    rep = metrics_report(rho_out, rho_in)
    fileio.write_json(rep.as_dict(), f"{args.out}.metrics.json")
    print(" ".join(f"{k}={_fmt(v)}" for k, v in rep.as_dict().items()
                   if v is not None))
    return 0


def _cmd_tomo(args) -> int:
    if args.pairs < 1:
        raise _UsageError("--pairs must be at least 1")
    if args.noisy and args.seed is None:
        raise _UsageError("--noisy requires --seed")
    rho = check_density(fileio.density_from_json(args.state), dim=4)
    records = simulate_counts(rho, args.pairs, seed=args.seed, noisy=args.noisy)
    fileio.write_counts_csv(records, f"{args.out}.counts.csv")
    rho_hat = reconstruct(records)
    fileio.density_to_json(rho_hat, f"{args.out}.state.json")
    print(f"fidelity={_fmt(fidelity(rho, rho_hat))}")
    return 0


def _cmd_fit(args) -> int:
    if len(args.kin) != len(args.kout):
        raise _UsageError("--kin and --kout must be given the same number of times")
    pairs = [(fileio.load_tensor(kin), fileio.load_tensor(kout))
             for kin, kout in zip(args.kin, args.kout)]
    if args.model == "general":
        seed = 0 if args.seed is None else args.seed
        result = fit_general(pairs, seed=seed)
    else:
        if len(pairs) != 1:
            raise _UsageError(f"model '{args.model}' takes exactly one pair")
        result = fit_diagonal(pairs[0][0], pairs[0][1], model=args.model)
    payload = result.as_dict()
    if args.out:
        fileio.write_json(payload, args.out)
    print(f"model={result.model} params="
          + ",".join(_fmt(p) for p in result.params)
          + f" residual={_fmt(result.residual)} converged={result.converged}")
    return 0 if result.converged else 1


def _cmd_image(args) -> int:
    k_in = fileio.load_tensor(args.kin)
    grid = fileio.read_grid(args.grid)
    pm = reconstruct_image(k_in, grid, model=args.model)
    summary = fileio.write_pixel_map(pm, args.out_dir)
    max_resid = summary["max_residual"]
    print(f"pixels={pm.width * pm.height} "
          f"max_residual={_fmt(float('nan') if max_resid is None else max_resid)} "
          f"n_failed={summary['n_failed']}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpol2",
        description="Two-photon polarimetry: channel simulation and Mueller reconstruction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="metric curves vs depolarization strength m")
    p.add_argument("--m-min", type=float, default=0.0)
    p.add_argument("--m-max", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=11)
    p.add_argument("--modes", choices=["both", "opp", "tpp"], default="both")
    p.add_argument("--out", help="output CSV path (stdout if omitted)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("mc", help="Monte Carlo scattering channel")
    p.add_argument("--config", required=True, help="run config JSON")
    p.add_argument("--out", required=True, help="output path prefix")
    p.add_argument("--max-paths", type=int, default=10_000,
                   help="subsample the stored ensemble to at most this many paths")
    p.set_defaults(func=_cmd_mc)

    p = sub.add_parser("propagate", help="send a two-photon state through a channel")
    p.add_argument("--state", required=True, help="density-matrix JSON")
    p.add_argument("--channel", required=True, help="Kraus ensemble JSON")
    p.add_argument("--mode", choices=["opp", "tpp-independent", "tpp-correlated"],
                   default="tpp-independent")
    p.add_argument("--out", required=True, help="output path prefix")
    p.set_defaults(func=_cmd_propagate)

    p = sub.add_parser("tomo", help="simulate and invert two-photon tomography")
    p.add_argument("--state", required=True, help="density-matrix JSON")
    p.add_argument("--pairs", type=int, default=10_000)
    p.add_argument("--seed", type=_seed)
    p.add_argument("--noisy", action="store_true", help="Poisson shot noise")
    p.add_argument("--out", required=True, help="output path prefix")
    p.set_defaults(func=_cmd_tomo)

    p = sub.add_parser("fit", help="fit a Mueller matrix to tensor pairs")
    p.add_argument("--kin", action="append", required=True,
                   help="input tensor (CSV) or state (JSON); repeatable")
    p.add_argument("--kout", action="append", required=True,
                   help="output tensor (CSV) or state (JSON); repeatable")
    p.add_argument("--model", choices=["isotropic", "diagonal", "general"],
                   default="diagonal")
    p.add_argument("--seed", type=_seed, help="multistart seed (general model)")
    p.add_argument("--out", help="write the fit result JSON here")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("image", help="per-pixel diagonal fits over a tensor grid")
    p.add_argument("--kin", required=True, help="shared input tensor (CSV or JSON)")
    p.add_argument("--grid", required=True, help="binary pixel-tensor grid")
    p.add_argument("--model", choices=["isotropic", "diagonal"], default="diagonal")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_image)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except (_UsageError, FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UnderdeterminedFitError as exc:
        payload = {"error": str(exc), "stabilizer": exc.report.as_dict()}
        if getattr(args, "out", None):
            fileio.write_json(payload, args.out)
        print(f"error: {exc} "
              f"(lie_algebra_dim={exc.report.lie_algebra_dim})", file=sys.stderr)
        return 3
    except (QPolError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's workloads: slab, image and recon.

Each workload turns the run seed into inputs, runs the program on them in
work units through the public API (``qpol2`` and ``qpol2.fileio``), and
checks every output.  Every call into a qpol2 module goes through the
tracer, under the span name ``<module>.<function>``.

A workload is a class with:

* ``__init__(seed, workdir)``: input generation that every round shares;
* ``warm_up(rep)``: the work units of the warm-up item of set-up ``rep``;
* ``round(j)``: the work units of timed round ``j``;
* ``run(unit, tr)``: the program's work on one unit (the timed part);
* ``check(units, outputs)``: the number of failed items in a round, and
  the reasons; an output of None means the unit raised.

Why each workload exists is recorded in NOTES.md.
"""

import math
import os
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import least_squares

import qpol2
from qpol2 import fileio


@dataclass
class Unit:
    """A group of items that one ``run`` call processes."""

    name: str
    items: int
    data: dict = field(default_factory=dict)


# Round key of the first warm-up item; timed rounds count up from 0.
_WARM_UP = 2**31


def _seed(*key):
    """A 32-bit seed derived from the run seed and a round/unit key."""
    return int(np.random.SeedSequence(list(key)).generate_state(1)[0])


def _congruent(k_out, m, k_in, tol):
    """K_out equals M K_in M^T up to intensity (tests/test_channels.py)."""
    pred = m @ k_in @ m.T
    return np.linalg.norm(k_out - pred / pred[0, 0]) <= tol


# Congruence tolerance for ensembles of up to 1e5 paths: far above the
# rounding of the sums (measured below 1e-13) and far below any real error.
_CONGRUENCE_TOL = 1e-10

# The input tensor the `mc` command fits its isotropic m against (Psi+).
BELL_TENSOR = np.diag([1.0, -1.0, 1.0, 1.0])


class Slab:
    """`mc -> propagate -> tomo -> fit` on a thin and a thick slab.

    An item is one launched photon; a round is one thin and one thick
    medium.  The call sequence follows the CLI's ``mc`` command (simulate,
    cap at --max-paths, Mueller matrix, isotropic fit, Kraus JSON), then
    ``propagate`` (Kraus JSON read, independent two-photon channel on the
    Bell state, metrics), ``tomo --noisy`` and ``fit --model diagonal``.
    """

    MU_S = 10.0                      # 1/mm, as in the README's run.json
    G = 0.9
    CONE = math.radians(45.0)
    SLABS = (("thin", 0.025), ("thick", 0.26))   # eta, transport mean free paths
    PHOTONS = 30_000                 # per slab per round
    WARM_UP_PHOTONS = 1_000
    MAX_PATHS = 10_000               # `mc --max-paths` default
    TOMO_PAIRS = 10_000              # `tomo --pairs` default
    PROBE_PHOTONS = 2_000            # trace_paths prefix for events per photon

    # Isotropic m of each slab, capped at MAX_PATHS paths: the mean over
    # `simulate` seeds 1000-1023 with 40 000 photons at the commit that
    # defined the benchmark, and the sd of one run times sqrt(paths),
    # rounded up (measured 0.0056 and 0.058).  The cap draws its paths at
    # random from independent paths, so any photon count that transmits
    # more than MAX_PATHS paths gives the same distribution.  A run's m must
    # lie within M_TOL_SIGMAS sd of the mean, the sd scaled to its paths.
    M_REF = {"thin": 0.999405, "thick": 0.98375}
    M_SD_ROOT_PATHS = {"thin": 0.006, "thick": 0.06}
    M_TOL_SIGMAS = 6.0

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.media = {
            name: qpol2.Medium(self.MU_S, self.G, eta / (self.MU_S * (1.0 - self.G)),
                               self.CONE)
            for name, eta in self.SLABS
        }

    def _units(self, j, photons):
        return [Unit(name, photons, {"medium": self.media[name],
                                     "seed": _seed(self.seed, j, i)})
                for i, (name, _) in enumerate(self.SLABS)]

    def warm_up(self, rep):
        return self._units(_WARM_UP + rep, self.WARM_UP_PHOTONS)

    def round(self, j):
        return self._units(j, self.PHOTONS)

    def run(self, unit, tr):
        d = unit.data
        path = os.path.join(self.workdir, f"{unit.name}.kraus.json")
        return run_slab_medium(tr, d["medium"], unit.items, d["seed"], path,
                               self.MAX_PATHS, self.TOMO_PAIRS, slab=unit.name)

    def probe(self, tr):
        """Trace-only probe: mean scattering events per photon on a prefix."""
        for name, medium in self.media.items():
            paths = tr.call("scatter.trace_paths", qpol2.trace_paths, medium,
                            self.PROBE_PHOTONS, self.seed)
            tr.note(probe=True, slab=name, photons=len(paths),
                    events=sum(p.n_events for p in paths))

    def check(self, units, outputs):
        reasons = []
        bad = set()
        for unit, out in zip(units, outputs):
            if out is None:
                bad.add(unit.name)
                reasons.append(f"{unit.name}: raised")
                continue
            m_ref = self.M_REF[unit.name]
            tol = (self.M_TOL_SIGMAS * self.M_SD_ROOT_PATHS[unit.name]
                   / math.sqrt(out["paths"]))
            checks = {
                "physical Mueller matrix": qpol2.mueller_maps_physical(out["mueller"]),
                "congruence K_out ~ M K_in M^T": _congruent(
                    out["k_out"], out["mueller"], out["k_in"], _CONGRUENCE_TOL),
                "noisy diagonal fit similarity > 0.9": qpol2.mueller_similarity(
                    out["fit"].mueller(), out["mueller"]) > 0.9,
                f"|m - {m_ref}| <= {tol:.3g}": abs(out["m"] - m_ref) <= tol,
            }
            for what, ok in checks.items():
                if not ok:
                    bad.add(unit.name)
                    reasons.append(f"{unit.name}: {what} fails (m={out['m']:.6g})")
        if not bad and not outputs[0]["m"] > outputs[1]["m"]:
            bad.update(u.name for u in units)
            reasons.append("m(thin) > m(thick) fails")
        return sum(u.items for u in units if u.name in bad), reasons


def cap_paths(tr, ensemble, max_paths, seed):
    """Subsample to at most ``max_paths`` equal-weight paths, as `mc` does."""
    n = ensemble.weights.size
    if n <= max_paths:
        return ensemble
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.choice(n, size=max_paths, replace=False))
    capped = tr.call("channels.KrausEnsemble", qpol2.KrausEnsemble,
                     np.full(max_paths, 1.0 / max_paths), ensemble.jones[idx])
    tr.note(paths=max_paths)
    return capped


def run_slab_medium(tr, medium, n_photons, seed, kraus_path, max_paths, tomo_pairs,
                    slab=None):
    """One medium through `mc`, `propagate`, `tomo --noisy` and `fit`."""
    ensemble = tr.call("scatter.simulate", qpol2.simulate, medium, n_photons, seed)
    tr.note(slab=slab, photons=n_photons, paths=ensemble.weights.size)
    ensemble = cap_paths(tr, ensemble, max_paths, seed)
    mueller, _ = tr.call("channels.mueller_from_kraus", qpol2.mueller_from_kraus,
                         ensemble)
    tr.note(paths=ensemble.weights.size)
    k_bell = tr.call("channels.propagate_tensor", qpol2.propagate_tensor, mueller,
                     BELL_TENSOR)
    iso = tr.call("fitting.fit_diagonal", qpol2.fit_diagonal, BELL_TENSOR, k_bell,
                  model="isotropic")
    tr.note(nfev=iso.iterations)
    tr.call("fileio.kraus_to_json", fileio.kraus_to_json, ensemble, kraus_path)
    tr.note(bytes=os.path.getsize(kraus_path))
    channel = tr.call("fileio.kraus_from_json", fileio.kraus_from_json, kraus_path)
    rho_in = tr.call("polarization.bell_state", qpol2.bell_state)
    rho_out, _ = tr.call("channels.apply_two_photon_independent",
                         qpol2.apply_two_photon_independent, channel, rho_in)
    tr.note(paths=channel.weights.size)
    report = tr.call("metrics.metrics_report", qpol2.metrics_report, rho_out, rho_in)
    counts = tr.call("tomography.simulate_counts", qpol2.simulate_counts, rho_out,
                     tomo_pairs, seed=seed, noisy=True)
    rho_rec = tr.call("tomography.reconstruct", qpol2.reconstruct, counts)
    k_in = tr.call("polarization.correlation_tensor", qpol2.correlation_tensor, rho_in)
    k_rec = tr.call("polarization.correlation_tensor", qpol2.correlation_tensor, rho_rec)
    fit = tr.call("fitting.fit_diagonal", qpol2.fit_diagonal, k_in, k_rec)
    tr.note(nfev=fit.iterations)
    return {"paths": ensemble.weights.size, "mueller": mueller,
            "m": float(iso.params[0]), "k_in": k_in,
            "k_out": qpol2.correlation_tensor(rho_out), "report": report, "fit": fit}


class Image:
    """`image`: grid file round trip, per-pixel diagonal fits, pixel-map files.

    An item is one pixel.  Each grid mixes, in equal shares and random
    positions, exact congruence outputs of random CP diagonal depolarizers,
    the same with symmetric noise at the level 36-setting tomography at
    1e4 pairs per setting gives, and exact outputs whose true parameters
    sit on the [0, 1] box bound.  The shared input is the Bell tensor, as
    in the acceptance test of image reconstruction.
    """

    SIDE = 32
    WARM_UP_SIDE = 4
    # Noise sd per tensor entry; tomography at 1e4 pairs per setting gives
    # 0.006 (first row and column) to 0.010 (3x3 block), see NOTES.md.
    NOISE = 0.008
    EXACT_TOL = 1e-8       # tests/test_acceptance.py::test_07
    KINDS = ("exact", "noisy", "boundary")
    _PAULI_SIGNS = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], float)

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.k_in = BELL_TENSOR

    def _cp(self, d):
        return ((1 + self._PAULI_SIGNS @ d) / 4).min() >= 0

    def _truth(self, rng, kind):
        while True:
            d = rng.uniform(0.0, 1.0, size=3)
            if kind == "boundary":
                pick = rng.integers(0, 3, size=3)      # 0: free, 1: at 0, 2: at 1
                if not pick.any():
                    continue
                d = np.where(pick == 1, 0.0, np.where(pick == 2, 1.0, d))
            if self._cp(d):
                return d

    def _unit(self, j, side):
        rng = np.random.default_rng(_seed(self.seed, j))
        n = side * side
        kinds = rng.permutation(np.arange(n) % len(self.KINDS)).reshape(side, side)
        truth = np.empty((side, side, 3))
        tensors = np.empty((side, side, 4, 4))
        for (h, w), kind in np.ndenumerate(kinds):
            d = self._truth(rng, self.KINDS[kind])
            m = np.diag(np.concatenate([[1.0], d]))
            k = m @ self.k_in @ m.T
            if self.KINDS[kind] == "noisy":
                e = rng.normal(0.0, self.NOISE, size=(4, 4))
                e = (e + e.T) / math.sqrt(2.0)
                e[0, 0] = 0.0
                k = k + e
            truth[h, w] = d
            tensors[h, w] = k
        return Unit("grid", n, {"kinds": kinds, "truth": truth, "tensors": tensors})

    def warm_up(self, rep):
        return [self._unit(_WARM_UP + rep, self.WARM_UP_SIDE)]

    def round(self, j):
        return [self._unit(j, self.SIDE)]

    def run(self, unit, tr):
        grid_path = os.path.join(self.workdir, "pixels.bin")
        tr.call("fileio.write_grid", fileio.write_grid, unit.data["tensors"], grid_path)
        tr.note(bytes=os.path.getsize(grid_path))
        grid = tr.call("fileio.read_grid", fileio.read_grid, grid_path)
        pm = tr.call("fitting.reconstruct_image", qpol2.reconstruct_image, self.k_in,
                     grid, model="diagonal")
        tr.note(pixels=pm.width * pm.height, converged=int(pm.converged.sum()))
        tr.call("fileio.write_pixel_map", fileio.write_pixel_map, pm, self._map_dir())
        return {"grid": grid, "values": pm.values}

    def _map_dir(self):
        return os.path.join(self.workdir, "map")

    def _mueller(self, d):
        return np.diag(np.concatenate([[1.0], d]))

    def _residual(self, d, k_out):
        m = self._mueller(d)
        return float(np.linalg.norm(m @ self.k_in @ m.T - k_out))

    def _reference_residual(self, k_out):
        """Residual of the scipy trust-region fit that `fit_diagonal` ran when
        the benchmark was defined: same start, Jacobian, bounds and
        tolerances."""
        k_in = self.k_in
        guess = np.full(3, 0.5)
        for a in (1, 2, 3):
            if abs(k_in[a, a]) > 0.05:
                guess[a - 1] = np.clip(np.sqrt(abs(k_out[a, a] / k_in[a, a])), 0.0, 1.0)

        def fun(d):
            m = self._mueller(d)
            return (m @ k_in @ m.T - k_out).ravel()

        def jac(d):
            m = self._mueller(d)
            cols = []
            for a in (1, 2, 3):
                e = np.zeros((4, 4))
                e[a, a] = 1.0
                cols.append((e @ k_in @ m.T + m @ k_in @ e).ravel())
            return np.array(cols).T

        res = least_squares(fun, guess, jac=jac, bounds=(0.0, 1.0), method="trf",
                            xtol=1e-14, ftol=1e-14, gtol=1e-14)
        return self._residual(res.x, k_out)

    def check(self, units, outputs):
        (unit,), (out,) = units, outputs
        if out is None:
            return unit.items, ["grid unit raised"]
        d = unit.data
        if not np.array_equal(out["grid"], d["tensors"]):
            return unit.items, ["grid file does not round-trip bitwise"]
        planes = np.stack([np.loadtxt(os.path.join(self._map_dir(), f"{name}.csv"),
                                      delimiter=",", ndmin=2)
                           for name in ("m11", "m22", "m33")], axis=2)
        if not np.array_equal(planes, out["values"]):
            return unit.items, ["pixel-map CSV planes differ from the fit values"]
        failed = 0
        reasons = []
        for (h, w), kind in np.ndenumerate(d["kinds"]):
            kind = self.KINDS[kind]
            params = out["values"][h, w]
            if kind == "noisy":
                k_out = d["tensors"][h, w]
                got = self._residual(params, k_out)
                ref = self._reference_residual(k_out)
                ok = bool(np.all(np.isfinite(params))) and got <= ref * (1 + 1e-9) + 1e-15
                what = f"residual {got:.3g} above reference {ref:.3g}"
            else:
                err = np.abs(params - d["truth"][h, w]).max()
                ok = bool(err <= self.EXACT_TOL)
                what = f"error {err:.3g} above {self.EXACT_TOL}"
            if not ok:
                failed += 1
                if len(reasons) < 5:
                    reasons.append(f"{kind} pixel ({h}, {w}): {what}")
        return failed, reasons


class Recon:
    """Random-retarder ensembles through every channel mode, tomography and
    general Mueller fits.

    An item is one ensemble; a round is one small (1e3 paths, 64 KB of
    Jones matrices, cache-resident) and one large (1e5 paths, 6.4 MB,
    above the 2 MiB L2) ensemble.  Each path is a unitary retarder whose
    axis and retardance scatter around a random mean, so the ensemble is
    a partial depolarizer with a general (non-diagonal) Mueller matrix.
    """

    SIZES = (("small", 1_000), ("large", 100_000))
    NOISELESS_PAIRS = 10**12   # counts = rint(pairs * rate): rounding below 1e-12
    NOISY_PAIRS = 10_000       # `tomo --pairs` default
    FIT_TOL = 1e-6             # tests/test_acceptance.py::test_08
    NOISY_SIMILARITY = 0.95

    def __init__(self, seed, workdir):
        self.seed = seed

    def _unit(self, j, i, size, n):
        rng = np.random.default_rng(_seed(self.seed, j, i))
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        axes = axis + 0.35 * rng.normal(size=(n, 3))
        axes /= np.linalg.norm(axes, axis=1)[:, None]
        theta = rng.uniform(0.3, 2.5) + 0.6 * rng.normal(size=n)
        gen = np.einsum("ki,iab->kab", axes, qpol2.PAULI[1:])
        jones = (np.cos(theta / 2)[:, None, None] * np.eye(2)
                 - 1j * np.sin(theta / 2)[:, None, None] * gen)
        products = [np.kron(self._pure(rng), self._pure(rng)) for _ in range(2)]
        return Unit(size, 1, {"size": size, "weights": np.full(n, 1.0 / n),
                              "jones": jones, "products": products,
                              "seed": _seed(self.seed, j, i, 1)})

    @staticmethod
    def _pure(rng):
        psi = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi /= np.linalg.norm(psi)
        return np.outer(psi, psi.conj())

    def warm_up(self, rep):
        return [self._unit(_WARM_UP + rep, 0, *self.SIZES[0])]

    def round(self, j):
        return [self._unit(j, i, size, n) for i, (size, n) in enumerate(self.SIZES)]

    def run(self, unit, tr):
        d = unit.data
        size = d["size"]
        n = d["weights"].size
        ens = tr.call("channels.KrausEnsemble", qpol2.KrausEnsemble, d["weights"],
                      d["jones"])
        tr.note(size=size, paths=n)
        mueller, _ = tr.call("channels.mueller_from_kraus", qpol2.mueller_from_kraus,
                             ens)
        tr.note(size=size, paths=n)
        bell = tr.call("polarization.bell_state", qpol2.bell_state)
        opp, _ = tr.call("channels.apply_one_photon", qpol2.apply_one_photon, ens, bell,
                         arm="first")
        tr.note(size=size, paths=n)
        inputs = [bell] + d["products"]
        outputs = []
        for rho in inputs:
            out, _ = tr.call("channels.apply_two_photon_independent",
                             qpol2.apply_two_photon_independent, ens, rho)
            tr.note(size=size, paths=n)
            outputs.append(out)
        corr, _ = tr.call("channels.apply_two_photon_correlated",
                          qpol2.apply_two_photon_correlated, ens, bell)
        tr.note(size=size, paths=n)
        report = tr.call("metrics.metrics_report", qpol2.metrics_report, outputs[0], bell)
        k_in = [tr.call("polarization.correlation_tensor", qpol2.correlation_tensor, r)
                for r in inputs]
        k_out = {}
        for noisy, pairs in ((False, self.NOISELESS_PAIRS), (True, self.NOISY_PAIRS)):
            k_out[noisy] = []
            for i, rho in enumerate(outputs):
                counts = tr.call("tomography.simulate_counts", qpol2.simulate_counts,
                                 rho, pairs, seed=d["seed"] + i, noisy=noisy)
                rho_rec = tr.call("tomography.reconstruct", qpol2.reconstruct, counts)
                k_out[noisy].append(tr.call("polarization.correlation_tensor",
                                            qpol2.correlation_tensor, rho_rec))
        stab3 = tr.call("fitting.stabilizer_dimension", qpol2.stabilizer_dimension, k_in)
        fits = {}
        for noisy in (False, True):
            fits[noisy] = tr.call("fitting.fit_general", qpol2.fit_general,
                                  list(zip(k_in, k_out[noisy])))
            tr.note(nfev=fits[noisy].iterations, converged=int(fits[noisy].converged))
        stab2 = tr.call("fitting.stabilizer_dimension", qpol2.stabilizer_dimension,
                        k_in[:2])
        fit2 = tr.call("fitting.fit_general", qpol2.fit_general,
                       list(zip(k_in[:2], k_out[False][:2])))
        tr.note(nfev=fit2.iterations, converged=int(fit2.converged))
        return {"mueller": mueller, "opp": opp, "corr": corr, "report": report,
                "inputs": inputs, "outputs": outputs, "stab3": stab3, "stab2": stab2,
                "fits": fits, "fit2": fit2}

    def check(self, units, outputs):
        failed = 0
        reasons = []
        for unit, out in zip(units, outputs):
            if out is None:
                failed += 1
                reasons.append(f"{unit.name}: raised")
                continue
            m = out["mueller"]
            k_bell = qpol2.correlation_tensor(out["inputs"][0])
            opp_pred = m @ k_bell
            checks = {
                "congruence K_out ~ M K_in M^T": all(
                    _congruent(qpol2.correlation_tensor(rho_out), m,
                               qpol2.correlation_tensor(rho_in), _CONGRUENCE_TOL)
                    for rho_in, rho_out in zip(out["inputs"], out["outputs"])),
                "one-photon law K_out ~ M K_in": np.linalg.norm(
                    qpol2.correlation_tensor(out["opp"]) - opp_pred / opp_pred[0, 0])
                    <= _CONGRUENCE_TOL,
                "correlated output is a density matrix": _is_density(out["corr"]),
                "stabilizer dimension 0 for three inputs":
                    out["stab3"].lie_algebra_dim == 0,
                "stabilizer dimension 1 for Bell plus product":
                    out["stab2"].lie_algebra_dim == 1,
                f"noiseless general fit within {self.FIT_TOL}": np.linalg.norm(
                    out["fits"][False].mueller() - m) < self.FIT_TOL,
                f"noisy general fit similarity > {self.NOISY_SIMILARITY}":
                    qpol2.mueller_similarity(out["fits"][True].mueller(), m)
                    > self.NOISY_SIMILARITY,
            }
            wrong = [what for what, ok in checks.items() if not ok]
            if wrong:
                failed += 1
                reasons.append(f"{unit.name}: " + "; ".join(wrong))
        return failed, reasons


def _is_density(rho, tol=1e-10):
    return (np.allclose(rho, rho.conj().T, atol=tol)
            and abs(np.trace(rho).real - 1.0) <= tol
            and np.linalg.eigvalsh(rho).min() >= -tol)


WORKLOADS = {"slab": Slab, "image": Image, "recon": Recon}

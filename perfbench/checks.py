"""Output checks: an expm oracle and properties of the method.

Every check returns a list of problems (empty when the output is right).
Nothing here compares against a stored copy of earlier output: the oracle
evolves the state with ``scipy.linalg.expm`` of the phase-space generator,
and the properties follow from global purity, subadditivity and the
definitions of the redundancy thresholds.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

import numpy as np

#: Relative agreement required between the oracle and the program.
ORACLE_RTOL = 1e-9
#: Absolute slack for identities that hold up to float rounding of sums.
IDENTITY_ATOL = 1e-9

#: Prefix of a problem that every run meets, from a fault of the program
#: that does not depend on the inputs: ``qbmlab analytic`` formats numpy
#: scalars with repr, so under numpy 2 its mi_analytic cells read
#: ``np.float64(...)``.  Operations with it count as failed; ``correct``
#: speaks of the operations that did not fail.
KNOWN_FAULT = "known fault: "


def entropy_h(nu: float) -> float:
    """Bosonic entropy of one symplectic eigenvalue, in nats."""
    if nu <= 0.5:
        return 0.0
    return (nu + 0.5) * math.log(nu + 0.5) - (nu - 0.5) * math.log(nu - 0.5)


def close(a: float, b: float, rtol: float, atol: float = 1e-12) -> bool:
    return abs(a - b) <= max(rtol * max(abs(a), abs(b)), atol)


class Oracle:
    """sigma(t) = Z sigma(0) Z^T with Z = expm(A t).

    A is the phase-space generator built entry by entry from the bath, as
    acceptance gate 2 builds it; the program's normal-mode propagator is
    not used.  The global state is pure, so H(S) = h(sqrt(det sigma_S)) and
    the f = 1 log-negativity is arccosh(2 sqrt(det sigma_S)).
    """

    def __init__(self, spec, bath, cov0):
        n = bath.n_oscillators + 1
        masses = np.concatenate(([spec.system_mass], bath.masses))
        a = np.zeros((2 * n, 2 * n))
        i = np.arange(n)
        a[2 * i, 2 * i + 1] = 1.0 / masses
        a[1, 0] = -spec.system_mass * spec.omega_s**2 - bath.counterterm
        k = np.arange(1, n)
        a[2 * k + 1, 2 * k] = -bath.masses * bath.frequencies**2
        a[1, 2 * k] = -bath.couplings
        a[2 * k + 1, 0] = -bath.couplings
        self.generator = a
        self.sigma0 = np.array(cov0.data)
        self._nu: dict[float, float] = {}
        # z' = A z = Omega M z for H = z^T M z / 2, so M = -Omega A
        omega = np.zeros_like(a)
        omega[2 * i, 2 * i + 1] = 1.0
        omega[2 * i + 1, 2 * i] = -1.0
        self.energy = 0.5 * float(np.sum((-omega @ a) * self.sigma0))

    def system_nu(self, t: float) -> float:
        if t not in self._nu:
            from scipy.linalg import expm

            z = expm(self.generator * t)[:2]
            block = z @ self.sigma0 @ z.T
            self._nu[t] = math.sqrt(max(float(np.linalg.det(block)), 0.25))
        return self._nu[t]

    def entropy(self, t: float) -> float:
        return entropy_h(self.system_nu(t))

    def e_full(self, t: float) -> float:
        return math.acosh(2.0 * self.system_nu(t))


def read_csv(path: str) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def group_by_t(rows: list[dict]) -> dict[float, list[dict]]:
    out: dict[float, list[dict]] = {}
    for row in rows:
        out.setdefault(float(row["t"]), []).append(row)
    return out


class Curves:
    """PI and PE curves of one run, parsed from its CSV files and sidecars."""

    def __init__(self, outdir: str, run_id: str):
        self.f: dict[float, np.ndarray] = {}
        self.mean: dict[str, dict[float, np.ndarray]] = {}
        self.n_samples: dict[str, dict[float, np.ndarray]] = {}
        self.h: dict[float, float] = {}
        for measure in ("mi", "neg"):
            side = read_json(os.path.join(outdir, f"{run_id}_{measure}.json"))
            h = dict(zip(side["t_values"], side["h_system"]))
            self.mean[measure], self.n_samples[measure] = {}, {}
            for t, rows in group_by_t(read_csv(os.path.join(outdir, f"{run_id}_{measure}.csv"))).items():
                rows.sort(key=lambda r: float(r["f"]))
                f = np.array([float(r["f"]) for r in rows])
                if t in self.f and not np.array_equal(self.f[t], f):
                    raise ValueError(f"t={t}: mi and neg grids differ")
                self.f[t] = f
                self.mean[measure][t] = np.array([float(r["mean"]) for r in rows])
                self.n_samples[measure][t] = np.array([int(r["n_samples"]) for r in rows])
                if t in self.h and self.h[t] != h[t]:
                    raise ValueError(f"t={t}: the two sidecars disagree on H(S)")
                self.h[t] = h[t]

    @property
    def times(self) -> list[float]:
        return sorted(self.f)


def check_curves(curves: Curves, oracle: Oracle, samples: int) -> list[str]:
    """Oracle values and purity identities of every PI/PE curve."""
    problems = []
    for t in curves.times:
        f, mi, neg = curves.f[t], curves.mean["mi"][t], curves.mean["neg"][t]
        h = curves.h[t]
        where = f"t={t:.6g}"
        if not (np.all(np.diff(f) > 0) and f[0] > 0 and f[-1] == 1.0):
            problems.append(f"{where}: f grid is not increasing in (0, 1] up to 1")
            continue
        if not close(h, oracle.entropy(t), ORACLE_RTOL, 1e-10):
            problems.append(f"{where}: H(S) {h!r} against oracle {oracle.entropy(t)!r}")
        if not close(neg[-1], oracle.e_full(t), ORACLE_RTOL, 1e-10):
            problems.append(f"{where}: E(1) {float(neg[-1])!r} against oracle {oracle.e_full(t)!r}")
        if abs(mi[-1] - 2 * h) > IDENTITY_ATOL:
            problems.append(f"{where}: I(1) = {float(mi[-1])!r} is not 2 H(S) = {2 * h!r}")
        for j, fj in enumerate(f[:-1]):
            mirror = np.flatnonzero(np.abs(f - (1.0 - fj)) < 1e-9)
            if mirror.size and abs(mi[j] + mi[mirror[0]] - 2 * h) > IDENTITY_ATOL:
                problems.append(f"{where}: I({fj:.4g}) + I(1-f) - 2 H(S) = {mi[j] + mi[mirror[0]] - 2 * h:.3e}")
        if np.any(mi < -IDENTITY_ATOL) or np.any(mi > 2 * h + IDENTITY_ATOL):
            problems.append(f"{where}: I(f) leaves [0, 2 H(S)]")
        if np.any(neg < 0):
            problems.append(f"{where}: negative log-negativity")
        for measure in ("mi", "neg"):
            n = curves.n_samples[measure][t]
            want = np.where(np.abs(f - 0.5) < 1e-9, 2 * samples, samples)
            want[-1] = 1
            if not np.array_equal(n, want):
                problems.append(f"{where}: {measure} sample counts {n.tolist()} are not {want.tolist()}")
    return problems


def check_bands(path: str, n_bath: int, n_bands: int, h_by_t: dict[float, float]) -> list[str]:
    """Band sizes partition the bath; band MI lies in [0, 2 H(S)]; E >= 0."""
    problems = []
    groups = group_by_t(read_csv(path))
    if sorted(groups) != sorted(h_by_t):
        problems.append(f"band times {sorted(groups)} are not {sorted(h_by_t)}")
    for t, rows in groups.items():
        sizes = [int(r["band_size"]) for r in rows]
        mi = np.array([float(r["mi"]) for r in rows])
        neg = np.array([float(r["neg"]) for r in rows])
        if len(rows) != n_bands or sum(sizes) != n_bath:
            problems.append(f"t={t:.6g}: {len(rows)} bands of total size {sum(sizes)}")
        h = h_by_t.get(t, float("nan"))
        if np.any(mi < -IDENTITY_ATOL) or np.any(mi > 2 * h + IDENTITY_ATOL) or np.any(neg < 0):
            problems.append(f"t={t:.6g}: band MI outside [0, 2 H(S)] or negative E")
    return problems


def check_state(path: str, oracle: Oracle) -> tuple[list[str], dict[float, float]]:
    """Global purity, energy conservation and H(S) of the state diagnostics."""
    problems, h_by_t = [], {}
    for row in read_csv(path):
        t = float(row["t"])
        where = f"t={t:.6g}"
        h_by_t[t] = float(row["system_entropy"])
        if abs(float(row["min_symplectic"]) - 0.5) > 1e-6:
            problems.append(f"{where}: min symplectic eigenvalue {row['min_symplectic']}")
        if float(row["symmetry_defect"]) > 1e-12:
            problems.append(f"{where}: symmetry defect {row['symmetry_defect']}")
        if not close(float(row["total_energy"]), oracle.energy, 1e-8):
            problems.append(f"{where}: energy {row['total_energy']} against oracle {oracle.energy!r}")
        if not close(h_by_t[t], oracle.entropy(t), ORACLE_RTOL, 1e-10):
            problems.append(f"{where}: H(S) {row['system_entropy']} against oracle {oracle.entropy(t)!r}")
    return problems, h_by_t


def check_reports(outdir: str, run_id: str, curves: Curves, delta_e: float, delta_i: float,
                  k_by_t: dict[float, float] | None = None) -> list[str]:
    """Redundancy reports agree with the benchmark's own reading of the curves.

    A finite R_E puts delta_E E(1) on the linear interpolation of the PE
    means at 1 - f_E, a finite R_I puts (1 - delta_I) H(S) on the PI means
    at f_I (unless I at the smallest fraction already exceeds it, and f_I is
    that fraction), and R = 1/f.  A missing R carries a flag.  With k_by_t, the analytic
    estimate is ((A + sqrt(A^2 - 1))^(2 delta_E) + 3) / 4, A = sqrt(1 + 8k).
    """
    problems = []
    times = curves.times
    rows = read_csv(os.path.join(outdir, f"{run_id}_redundancy.csv"))
    if [float(r["t"]) for r in rows] != times:
        return [f"redundancy rows at {[r['t'] for r in rows]}, curves at {times}"]
    for i, t in enumerate(times):
        rep = read_json(os.path.join(outdir, f"{run_id}_redundancy_{i:03d}.json"))
        where = f"t={t:.6g}"
        f, mi, neg, h = curves.f[t], curves.mean["mi"][t], curves.mean["neg"][t], curves.h[t]
        if rep["t"] != t or rep["h_s"] != h or rep["e_full"] != neg[-1]:
            problems.append(f"{where}: report t, H(S) or E(1) differ from the curves")
        if rep["delta_e"] != delta_e or rep["delta_i"] != delta_i:
            problems.append(f"{where}: report deficits {rep['delta_e']}, {rep['delta_i']}")
        if float(rows[i]["r_e"]) != rep["r_e"] and not (math.isnan(rep["r_e"]) and rows[i]["r_e"] == "nan"):
            problems.append(f"{where}: CSV and JSON R_E differ")
        flags = rep["flags"]
        if math.isfinite(rep["r_e"]):
            level = np.interp(1.0 - rep["f_e"], f, neg)
            if abs(level - delta_e * neg[-1]) > IDENTITY_ATOL * max(1.0, neg[-1]):
                problems.append(f"{where}: E(1 - f_E) = {float(level)!r}, not delta_E E(1) = {float(delta_e * neg[-1])!r}")
            if not close(rep["r_e"] * rep["f_e"], 1.0, 1e-12):
                problems.append(f"{where}: R_E is not 1/f_E")
        elif not any(flag.startswith("pe_") for flag in flags):
            problems.append(f"{where}: R_E missing without a pe_ flag")
        if math.isfinite(rep["r_i"]):
            target = (1.0 - delta_i) * h
            if rep["f_i"] == f[0]:
                ok = mi[0] >= target - IDENTITY_ATOL
            else:
                ok = abs(np.interp(rep["f_i"], f, mi) - target) <= IDENTITY_ATOL * max(1.0, h)
            if not ok:
                problems.append(f"{where}: I(f_I) does not reach (1 - delta_I) H(S)")
            if not close(rep["r_i"] * rep["f_i"], 1.0, 1e-12):
                problems.append(f"{where}: R_I is not 1/f_I")
        elif not any(flag.startswith("pi_") for flag in flags):
            problems.append(f"{where}: R_I missing without a pi_ flag")
        lo, hi = np.flatnonzero(f < 0.5 - 1e-12)[-1], np.flatnonzero(f > 0.5 + 1e-12)[0]
        slope = (mi[hi] - mi[lo]) / (f[hi] - f[lo])
        if not close(rep["i_nr"], slope, 1e-12, 1e-12):
            problems.append(f"{where}: I_NR {rep['i_nr']!r} is not the slope {slope!r} across f = 1/2")
        if k_by_t is not None and t > 0 and k_by_t[t] > 0:
            area = math.sqrt(1.0 + 8.0 * k_by_t[t])
            want = ((area + math.sqrt(area**2 - 1.0)) ** (2.0 * delta_e) + 3.0) / 4.0
            if not close(rep["analytic_r_e"], want, 1e-9):
                problems.append(f"{where}: analytic R_E {rep['analytic_r_e']!r} against {want!r}")
    return problems


def _is_float(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def check_analytic(path: str, delta_x_sq: float) -> tuple[list[str], dict[float, float]]:
    """Closed-form curves: mi(f) + mi(1-f) = 2 h(chi(1)), e(1) = arccosh(sqrt(1 + 8k))."""
    problems, k_by_t = [], {}
    rows = read_csv(path)
    bad = sorted({col for row in rows for col, cell in row.items() if not _is_float(cell)})
    if bad:
        return [f"{KNOWN_FAULT}columns {bad} hold cells that are not float literals"], k_by_t
    for t, group in group_by_t(rows).items():
        where = f"t={t:.6g}"
        f = np.array([float(r["f"]) for r in group])
        mi = np.array([float(r["mi_analytic"]) for r in group])
        e = np.array([float(r["e_analytic"]) for r in group])
        k = float(group[0]["d_dx2"])
        k_by_t[t] = k
        if any(float(r["d_dx2"]) != k for r in group) or k < 0:
            problems.append(f"{where}: d_dx2 is not one non-negative value")
        if not close(k, float(group[0]["d_total"]) * delta_x_sq, 1e-12):
            problems.append(f"{where}: d_dx2 is not d_total * dx^2")
        two_h = 2.0 * entropy_h(math.sqrt(0.25 + 2.0 * k))
        for j, fj in enumerate(f):
            mirror = np.flatnonzero(np.abs(f - (1.0 - fj)) < 1e-9)
            if mirror.size and abs(mi[j] + mi[mirror[0]] - two_h) > IDENTITY_ATOL * max(1.0, two_h):
                problems.append(f"{where}: mi({fj:.4g}) + mi(1-f) is not 2 h(chi(1))")
        if f[-1] == 1.0 and not close(e[-1], math.acosh(math.sqrt(1.0 + 8.0 * k)), 1e-9, 1e-12):
            problems.append(f"{where}: e(1) {e[-1]!r} is not arccosh(sqrt(1 + 8k))")
        if np.any(e < 0):
            problems.append(f"{where}: negative e(f)")
    return problems, k_by_t


def check_manifest(outdir: str, run_id: str) -> list[str]:
    """Every file the manifest lists exists with its recorded size and sha256."""
    problems = []
    for entry in read_json(os.path.join(outdir, f"{run_id}_manifest.json"))["files"]:
        path = os.path.join(outdir, entry["name"])
        with open(path, "rb") as fh:
            blob = fh.read()
        if len(blob) != entry["bytes"] or hashlib.sha256(blob).hexdigest() != entry["sha256"]:
            problems.append(f"{entry['name']}: size or sha256 differs from the manifest")
    return problems

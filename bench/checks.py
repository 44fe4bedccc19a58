"""Correctness checks on the files `epolsim run` writes.

Every expected value comes from `reference.py` or from a physical property,
never from a stored copy of earlier output.  Each check returns a list of
problems; an empty list means the output passed.
"""
from __future__ import annotations

import ast
import csv
import math
from pathlib import Path

import numpy as np

from reference import Cavity, LosslessPoint, poisson
from workloads import Point, points

HALVING_BOUND = 1e-6  # the program's step-halving gate
TOL = 1e-6  # accuracy the halving gate promises for every reported probability
BALANCE_TOL = 1e-9  # excitation conservation is exact up to round-off without loss
CZ_TOL = 1e-9
CZ_IDENTITY = "two-polariton controlled-Z"


def read_rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_distribution(path: Path) -> dict[str, float]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return {label: float(p) for label, p in rows}


def passed_gate(diag_row: dict[str, str]) -> bool:
    """A grid point counts as an operation done when it converged and passed step halving."""
    return diag_row["converged"] == "true" and float(diag_row["halving_delta"]) <= HALVING_BOUND


def _lossless_reference(p: Point) -> LosslessPoint:
    return LosslessPoint(p.kind, p.kappa, p.n_cut, p.rungs, p.g_q, p.q0_l, p.lower, p.upper, p.initial)


# ---------------------------------------------------------------------------
# grid-point checks


def check_fidelity_row(row: list[tuple[Point, float]]) -> list[str]:
    """Fidelities of one kappa row of a map: range, exact lossless value, and the Kerr loss ordering."""
    problems = []
    for p, f in row:
        if not 0.0 <= f <= 1.0:
            problems.append(f"fidelity {f!r} at kappa {p.kappa}, gamma {p.gamma} outside [0, 1]")
    exact = _lossless_reference(row[0][0]).blockade_fidelity()
    for p, f in row:
        if p.gamma == 0.0 and abs(f - exact) > TOL:
            problems.append(f"lossless fidelity {f!r} at kappa {p.kappa} differs from the exact {exact!r}")
    if row[0][0].kind == "kerr":
        ordered = sorted(row, key=lambda pf: pf[0].gamma)
        for (p0, f0), (p1, f1) in zip(ordered, ordered[1:]):
            if f1 > f0 + TOL:
                problems.append(f"Kerr fidelity rises with loss: {f0!r} at gamma {p0.gamma}, {f1!r} at gamma {p1.gamma}")
        for p, f in row:
            if f > exact + TOL:
                problems.append(f"Kerr fidelity {f!r} at gamma {p.gamma} above the exact lossless {exact!r}")
    return problems


def check_lossless_spectra(p: Point, eels: dict[str, float], stats: dict[str, float]) -> list[str]:
    """EELS and level statistics of a lossless point against the exact propagator."""
    ref = _lossless_reference(p)
    problems = []
    want_eels = ref.eels()
    for label, prob in eels.items():
        want = want_eels.get(int(label), 0.0)
        if abs(prob - want) > TOL:
            problems.append(f"g_q {p.g_q.real:.6f}: EELS sideband {label} is {prob!r}, exact {want!r}")
    want_stats = ref.level_populations()
    for label, prob in stats.items():
        want = want_stats.get(label, 0.0)
        if abs(prob - want) > TOL:
            problems.append(f"g_q {p.g_q.real:.6f}: level {label} population {prob!r}, exact {want!r}")
    return problems


def excitation_change(p: Point, eels: dict[str, float], stats: dict[str, float]) -> float:
    """<delta l> + <delta nu>: electron rung change plus cavity excitation change."""
    levels = Cavity(p.kind, p.kappa, p.n_cut).levels
    d_rung = sum(int(label) * prob for label, prob in eels.items())
    d_exc = sum(levels[label][1] * prob for label, prob in stats.items()) - levels[p.initial][1]
    return d_rung + d_exc


def check_excitation_balance(p: Point, eels: dict[str, float], stats: dict[str, float]) -> list[str]:
    """Zero without loss; with loss in [-gamma T n_cut, 0), as each lost photon removes one excitation."""
    cavity = Cavity(p.kind, p.kappa, p.n_cut)
    if set(stats) != set(cavity.levels):
        return [f"g_q {p.g_q.real:.6f}: level labels {sorted(stats)} differ from {sorted(cavity.levels)}"]
    change = excitation_change(p, eels, stats)
    if p.gamma == 0.0:
        if abs(change) > BALANCE_TOL:
            return [f"g_q {p.g_q.real:.6f}: lossless excitation change {change!r}, expected 0"]
        return []
    floor = -p.gamma * (p.q0_l / (1.0 + cavity.detuning(p.lower, p.upper))) * p.n_cut
    if not floor - BALANCE_TOL <= change < -BALANCE_TOL:
        return [f"g_q {p.g_q.real:.6f}: lossy excitation change {change!r} outside [{floor!r}, 0)"]
    return []


def check_poisson(p: Point, eels: dict[str, float], stats: dict[str, float]) -> list[str]:
    """Linear cavity: photon number and energy loss both Poisson with mean |g_q|^2."""
    want = poisson(abs(p.g_q) ** 2, p.n_cut)
    problems = []
    for n, w in enumerate(want):
        got_stats = stats.get(str(n), 0.0)
        got_eels = eels.get(str(-n), 0.0)
        if abs(got_stats - w) > TOL or abs(got_eels - w) > TOL:
            problems.append(f"g_q {p.g_q.real:.6f}: P({n}) is {got_stats!r} (photons), {got_eels!r} (EELS), "
                            f"Poisson {w!r}")
    return problems


def check_grid_config(cfg: dict, out_dir: Path) -> tuple[int, int, list[str]]:
    """(points, failed points, problems) for a fidelity_map or sweep_gq output directory."""
    pts = points(cfg)
    problems: list[str] = []
    if cfg["scenario"] == "fidelity_map":
        diag = read_rows(out_dir / "fidelity_diagnostics.csv")
        fid = read_rows(out_dir / "fidelity_map.csv")
    else:
        diag = read_rows(out_dir / "sweep_summary.csv")
        fid = None
    if len(diag) != len(pts):
        return len(pts), len(pts), [f"{out_dir.name}: {len(diag)} diagnostics rows for {len(pts)} points"]
    ok = [passed_gate(row) for row in diag]
    failed = ok.count(False)
    if fid is not None:
        rows: dict[float, list[tuple[Point, float]]] = {}
        for p, row, good in zip(pts, fid, ok):
            if good:
                rows.setdefault(p.kappa, []).append((p, float(row["fidelity"])))
        for row in rows.values():
            problems += check_fidelity_row(row)
        return len(pts), failed, problems
    for p, good in zip(pts, ok):
        if not good:
            continue
        point_dir = out_dir / f"point_{p.index:03d}"
        eels = read_distribution(point_dir / "eels.csv")
        stats = read_distribution(point_dir / "stats.csv")
        problems += check_excitation_balance(p, eels, stats)
        if p.gamma == 0.0:
            problems += check_lossless_spectra(p, eels, stats)
            if p.kappa == 0.0:
                problems += check_poisson(p, eels, stats)
    return len(pts), failed, problems


# ---------------------------------------------------------------------------
# gate checks


def reported_calibration(report: str) -> dict:
    for line in report.splitlines():
        if line.strip().startswith("calibration:"):
            return ast.literal_eval(line.split(":", 1)[1].strip())
    raise ValueError("report has no calibration line")


def cz_deviation(rungs: int, calibration: dict) -> float:
    """Recompose the controlled-Z at a calibration and return its distance from diag(1, 1, 1, -1).

    The circuit is the documented sequence: controlled-path gate on qubit 1,
    path-conditioned Z on qubit 2, electron Hadamard, path-conditioned Z on
    qubit 1, electron Hadamard.  With the electron entering at the centre rung
    on the near path, the output must factor into an ancilla state times
    CZ acting on the two polaritons; the factorization is read off the
    singular values of the (ancilla) x (polariton out, polariton in) matrix.
    """
    from epolsim import cep_rz, cpe_path, electron_hadamard, gate_space

    center = rungs // 2
    space = gate_space(rungs=rungs, n_qubits=2, with_path=True)
    cpe = cpe_path(space, center, "pol1", phase_first=float(calibration["pass_phase_difference"]),
                   loss_to_path=int(calibration["loss_to_path"])).matrix
    h = electron_hadamard(space).matrix
    u = h @ cep_rz(0.5 * math.pi, space, "pol1").matrix @ h @ cep_rz(0.5 * math.pi, space, "pol2").matrix @ cpe
    # factors (electron, path, pol1, pol2); inputs: rung `center`, near path (1), any polariton pair
    cols = (2 * center + 1) * 4 + np.arange(4)
    block = u[:, cols].reshape(2 * rungs, 16)  # (ancilla) x (polariton out, polariton in)
    _, sv, vh = np.linalg.svd(block)
    induced = sv[0] * vh[0].reshape(4, 4)
    target = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
    phase = np.angle(np.trace(target.conj().T @ induced))
    return max(float(sv[1]), float(np.max(np.abs(induced - np.exp(1j * phase) * target))))


def check_gate_config(cfg: dict, out_dir: Path) -> list[str]:
    """The controlled-Z of a passing suite, recomposed at the calibration its report gives."""
    rungs = cfg["gates"]["rungs"]
    report = (out_dir / "gates_report.txt").read_text()
    dev = cz_deviation(rungs, reported_calibration(report))
    if not dev <= CZ_TOL:
        return [f"controlled-Z recomposed at {rungs} rungs deviates by {dev:.3e} from diag(1, 1, 1, -1)"]
    return []


def check_negative_control(code: int, stderr: str) -> list[str]:
    """A skewed controlled-Z calibration must exit 1 and name the controlled-Z identity."""
    if code != 1 or CZ_IDENTITY not in stderr:
        return [f"corrupted controlled-Z run exited {code} with stderr {stderr.strip()!r}"]
    return []

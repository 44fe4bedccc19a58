"""Each output check passes on real epolsim output and fails once that output is perturbed.

    python3 -m pytest -q bench/test_checks.py
"""
import contextlib
import io
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from epolsim.cli import normalize_config, run_config  # noqa: E402

import checks  # noqa: E402
from workloads import points  # noqa: E402


def small(scenario: str, kind: str, kappa: float, n_cut: int, rungs: int, gamma: float, sweep: dict) -> dict:
    pair = ("0", "1") if kind == "kerr" else ("0*", "1-")
    return normalize_config({
        "schema_version": 1,
        "scenario": scenario,
        "model": {"kind": kind, "kappa_ratio": kappa, "n_cut": n_cut},
        "electron": {"rungs": rungs, "center": rungs // 2, "g_q": 0.7, "q0_l": 60.0, "tune_to_pair": True},
        "loss": {"gamma_ratio": gamma},
        "pair": {"lower": pair[0], "upper": pair[1]},
        "sweep": sweep,
    })


def run(cfg: dict, out: Path) -> Path:
    assert run_config(cfg, out) == 0
    return out


def rewrite_csv(path: Path, change) -> None:
    """Apply `change(rows)` to the data rows of a CSV file (a list of lists of strings)."""
    lines = path.read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    change(rows)
    path.write_text("\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n")


def move_probability(path: Path, src: int, dst: int, amount: float) -> None:
    def change(rows):
        rows[src][-1] = repr(float(rows[src][-1]) - amount)
        rows[dst][-1] = repr(float(rows[dst][-1]) + amount)
    rewrite_csv(path, change)


def assert_clean(cfg, out):
    n, failed, problems = checks.check_grid_config(cfg, out)
    assert (failed, problems) == (0, []) and n == len(points(cfg))


def problems(cfg, out):
    return checks.check_grid_config(cfg, out)[2]


@pytest.mark.parametrize("kind", ["kerr", "jc"])
def test_lossless_spectra_follow_the_exact_propagator(tmp_path, kind):
    cfg = small("sweep_gq", kind, 0.05, 9, 21, 0.0, {"g_q_values": [0.4, 0.9]})
    out = run(cfg, tmp_path)
    assert_clean(cfg, out)
    stats = out / "point_001" / "stats.csv"
    move_probability(stats, 0, 1, 1e-4)
    found = problems(cfg, out)
    assert any("population" in p for p in found)
    assert any("excitation change" in p for p in found)


def test_lossless_eels_perturbation_is_caught(tmp_path):
    cfg = small("sweep_gq", "kerr", 0.05, 6, 21, 0.0, {"g_q_values": [0.9]})
    out = run(cfg, tmp_path)
    eels = out / "point_000" / "eels.csv"
    rows = eels.read_text().splitlines()[1:]
    top = max(range(len(rows)), key=lambda i: float(rows[i].split(",")[1]))
    move_probability(eels, top, top + 1, 1e-5)
    assert any("EELS sideband" in p for p in problems(cfg, out))


@pytest.mark.parametrize("kind", ["kerr", "jc"])
def test_lossless_fidelity_follows_the_exact_propagator(tmp_path, kind):
    sweep = {"kappa_values": [0.05], "gamma_values": [0.0], "n_cut_values": [9], "rungs_values": [21]}
    cfg = small("fidelity_map", kind, 0.05, 9, 21, 0.0, sweep)
    out = run(cfg, tmp_path)
    assert_clean(cfg, out)

    def nudge(rows):
        rows[0][2] = repr(float(rows[0][2]) - 1e-5)
    rewrite_csv(out / "fidelity_map.csv", nudge)
    assert any("differs from the exact" in p for p in problems(cfg, out))


def test_lossy_kerr_fidelity_ordering(tmp_path):
    sweep = {"kappa_values": [0.05], "gamma_values": [1e-4, 1e-3], "n_cut_values": [6], "rungs_values": [21]}
    cfg = small("fidelity_map", "kerr", 0.05, 6, 21, 0.0, sweep)
    out = run(cfg, tmp_path)
    assert_clean(cfg, out)
    fid = out / "fidelity_map.csv"
    original = fid.read_text()

    def swap(rows):
        rows[0][2], rows[1][2] = rows[1][2], rows[0][2]
    rewrite_csv(fid, swap)
    assert any("rises with loss" in p for p in problems(cfg, out))

    fid.write_text(original)
    exact = checks.LosslessPoint("kerr", 0.05, 6, 21, 0.7, 60.0, "0", "1").blockade_fidelity()

    def above(rows):
        rows[0][2] = repr(exact + 1e-4)
        rows[1][2] = repr(exact + 1e-4)
    rewrite_csv(fid, above)
    assert any("above the exact lossless" in p for p in problems(cfg, out))

    def beyond(rows):
        rows[0][2] = "1.5"
        rows[1][2] = "1.5"
    rewrite_csv(fid, beyond)
    assert any("outside [0, 1]" in p for p in problems(cfg, out))


def test_lossy_excitation_balance(tmp_path):
    lossy = small("sweep_gq", "kerr", 0.05, 6, 21, 1e-3, {"g_q_values": [0.9]})
    out = run(lossy, tmp_path / "lossy")
    assert_clean(lossy, out)
    (p,) = points(lossy)
    eels = checks.read_distribution(out / "point_000" / "eels.csv")
    stats = checks.read_distribution(out / "point_000" / "stats.csv")
    assert checks.excitation_change(p, eels, stats) < 0
    # lossless output reported as lossy: no excitation lost
    clean = small("sweep_gq", "kerr", 0.05, 6, 21, 0.0, {"g_q_values": [0.9]})
    ref = run(clean, tmp_path / "clean")
    eels0 = checks.read_distribution(ref / "point_000" / "eels.csv")
    stats0 = checks.read_distribution(ref / "point_000" / "stats.csv")
    assert checks.check_excitation_balance(p, eels0, stats0)
    # a whole excitation lost, more than gamma * T * n_cut = 0.36 allows: the electron
    # gave up one quantum and the cavity is empty
    assert checks.check_excitation_balance(p, {"-1": 1.0}, {"0": 1.0})


def test_linear_cavity_statistics_are_poisson(tmp_path):
    cfg = small("sweep_gq", "kerr", 0.0, 10, 25, 0.0, {"g_q_values": [0.8]})
    out = run(cfg, tmp_path)
    assert_clean(cfg, out)
    (p,) = points(cfg)
    eels = checks.read_distribution(out / "point_000" / "eels.csv")
    stats = checks.read_distribution(out / "point_000" / "stats.csv")
    assert checks.check_poisson(p, eels, stats) == []
    stats["0"], stats["1"] = stats["1"], stats["0"]
    assert checks.check_poisson(p, eels, stats)


def gates_config(**gates) -> dict:
    return normalize_config({"schema_version": 1, "scenario": "gates", "gates": {"rungs": 7, **gates}})


def test_controlled_z_recomposition(tmp_path):
    cfg = gates_config()
    out = run(cfg, tmp_path)
    assert checks.check_gate_config(cfg, out) == []
    report = out / "gates_report.txt"
    cal = checks.reported_calibration(report.read_text())
    skewed = dict(cal, pass_phase_difference=cal["pass_phase_difference"] + 0.3)
    report.write_text(report.read_text().replace(repr(cal), repr(skewed)))
    assert any("controlled-Z" in p for p in checks.check_gate_config(cfg, out))


def test_negative_control(tmp_path):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run_config(gates_config(corrupt_cz_phase=0.3), tmp_path)
    assert checks.check_negative_control(code, err.getvalue()) == []
    assert checks.check_negative_control(0, "")
    assert checks.check_negative_control(1, "failing gate identities: something else")

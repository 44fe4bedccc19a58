"""Seeded workload inputs and their expansion into grid points.

Each workload is a list of raw `epolsim run` configs drawn from the seed.
Parameters that set a point's cost (kappa times cutoff, which fixes the RK4
step count, and the joint-space dimension) are drawn in narrow bands or in
antithetic pairs, so that one round costs about the same on every seed and
the run-to-run spread of ops/s is the machine's, not the draw's.  Every band
lies inside the region where all points pass the program's convergence gates.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

Q0_L = 472.43  # q0 * L of the 532 nm mode over 40 um, as in the paper's Fig. 5 presets
KERR_PAIR = ("0", "1")
JC_PAIR = ("0*", "1-")  # the Fig. 5a pair
JC_RABI_PAIR = ("0*", "1+")  # the Fig. 4c pair
KERR_G = math.pi / 2
JC_G = math.pi / math.sqrt(2)


def _log_uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _fidelity_map(kind: str, pair: tuple[str, str], g_q: float, rows: list[tuple[float, int, int]],
                  gammas: list[float]) -> dict:
    kappas = [r[0] for r in rows]
    n_cuts = [r[1] for r in rows]
    rungs = [r[2] for r in rows]
    return {
        "schema_version": 1,
        "scenario": "fidelity_map",
        "model": {"kind": kind, "kappa_ratio": kappas[-1], "n_cut": n_cuts[-1]},
        "electron": {"rungs": rungs[-1], "center": rungs[-1] // 2, "g_q": g_q, "q0_l": Q0_L,
                     "tune_to_pair": True},
        "pair": {"lower": pair[0], "upper": pair[1]},
        "sweep": {"kappa_values": kappas, "gamma_values": gammas, "n_cut_values": n_cuts,
                  "rungs_values": rungs},
    }


def _rabi_sweep(kind: str, pair: tuple[str, str], kappa: float, n_cut: int, rungs: int, gamma: float,
                g_values: list[float]) -> dict:
    return {
        "schema_version": 1,
        "scenario": "sweep_gq",
        "model": {"kind": kind, "kappa_ratio": kappa, "n_cut": n_cut},
        "electron": {"rungs": rungs, "center": rungs // 2, "g_q": 0.0, "q0_l": Q0_L, "tune_to_pair": True},
        "loss": {"gamma_ratio": gamma},
        "pair": {"lower": pair[0], "upper": pair[1]},
        "sweep": {"g_q_values": g_values},
    }


def lossy_map(seed: int) -> list[dict]:
    """Kerr and JC fidelity maps at gamma > 0 near the Fig. 5 grid, and one lossy Kerr Rabi sweep."""
    rng = np.random.default_rng(seed)
    u = rng.uniform()
    gammas = sorted([_log_uniform(rng, 1e-5, 1e-4), _log_uniform(rng, 3e-4, 1e-3)])
    kerr_map = _fidelity_map("kerr", KERR_PAIR, KERR_G * rng.uniform(0.99, 1.01),
                             [(0.010 + 0.004 * u, 8, 33)], gammas)
    # antithetic to the map row: the step count grows with kappa, so the sweep's falls
    # where the map's rises and the round's total stays the same
    kerr_rabi = _rabi_sweep("kerr", KERR_PAIR, 0.014 - 0.004 * u, 8, 33, _log_uniform(rng, 1e-5, 1e-4),
                            sorted(rng.uniform(0.35, 0.6, size=2) * math.pi))
    jc_map = _fidelity_map("jc", JC_PAIR, JC_G * rng.uniform(0.99, 1.01),
                           [(rng.uniform(0.014, 0.016), 10, 33)], [_log_uniform(rng, 1e-5, 1e-3)])
    return [kerr_map, kerr_rabi, jc_map]


def lossless_map(seed: int) -> list[dict]:
    """A gamma = 0 JC fidelity map up to the 2058-dimensional row, and lossless Rabi sweeps.

    The n_cut 20 / 49-rung row is in every draw: it sets the peak memory.
    """
    rng = np.random.default_rng(seed)

    def rungs() -> int:
        return int(rng.choice([31, 33, 35]))

    jc_map = _fidelity_map(
        "jc", JC_PAIR, JC_G * rng.uniform(0.99, 1.01),
        [(rng.uniform(0.005, 0.0055), 20, 49), (rng.uniform(0.010, 0.011), 12, 33),
         (rng.uniform(0.018, 0.020), 10, 33)],
        [0.0],
    )
    kerr_rabi = _rabi_sweep("kerr", KERR_PAIR, rng.uniform(0.018, 0.020), 7, rungs(), 0.0,
                            sorted(rng.uniform(0.1, 0.65, size=3) * math.pi))
    jc_rabi = _rabi_sweep("jc", JC_RABI_PAIR, rng.uniform(0.018, 0.020), 12, rungs(), 0.0,
                          sorted(rng.uniform(0.1, 0.8, size=2) * math.pi))
    # linear cavity: the photon statistics are Poisson(|g_q|^2), mean up to 2.5, so the
    # cutoff sits at 16 photons and the ladder spans 41 rungs
    linear = _rabi_sweep("kerr", KERR_PAIR, 0.0, 16, 41, 0.0, sorted(rng.uniform(0.3, 0.5, size=2) * math.pi))
    return [jc_map, kerr_rabi, jc_rabi, linear]


def gate_suite(seed: int) -> list[dict]:
    """Gate-identity suites on four ladder sizes between 7 and 41 rungs."""
    rng = np.random.default_rng(seed)
    return [
        {"schema_version": 1, "scenario": "gates",
         "gates": {"rungs": int(center + rng.integers(-1, 2)), "seed": int(rng.integers(0, 2**31 - 1))}}
        for center in (8, 18, 29, 40)
    ]


WORKLOADS = {"lossy_map": lossy_map, "lossless_map": lossless_map, "gate_suite": gate_suite}


@dataclass(frozen=True)
class Point:
    """One grid point of a normalized map or sweep config, as `epolsim run` evaluates it."""

    index: int
    kind: str
    kappa: float
    n_cut: int
    rungs: int
    center: int
    g_q: complex
    q0_l: float
    gamma: float
    lower: str
    upper: str
    initial: str
    want_fidelity: bool


def points(cfg: dict) -> list[Point]:
    """Grid points of a normalized fidelity_map or sweep_gq config, in output order."""
    el = cfg["electron"]
    base = dict(kind=cfg["model"]["kind"], kappa=cfg["model"]["kappa_ratio"], n_cut=cfg["model"]["n_cut"],
                rungs=el["rungs"], center=el["center"], g_q=complex(*el["g_q"]), q0_l=el["q0_l"],
                gamma=cfg["loss"]["gamma_ratio"], lower=cfg["pair"]["lower"], upper=cfg["pair"]["upper"],
                initial=cfg["initial_level"], want_fidelity=False)
    sweep = cfg["sweep"]
    out = []
    if cfg["scenario"] == "sweep_gq":
        for i, g in enumerate(sweep["g_q_values"]):
            out.append(Point(index=i, **{**base, "g_q": complex(g, 0.0)}))
    elif cfg["scenario"] == "fidelity_map":
        for i, kappa in enumerate(sweep["kappa_values"]):
            row = {**base, "kappa": kappa, "n_cut": sweep["n_cut_values"][i], "rungs": sweep["rungs_values"][i],
                   "want_fidelity": True}
            for gamma in sweep["gamma_values"]:
                out.append(Point(index=len(out), **{**row, "gamma": gamma}))
    else:
        raise ValueError(f"no grid points in scenario {cfg['scenario']!r}")
    for p in out:
        if p.center >= p.rungs:
            raise ValueError("generated config puts the electron off its ladder")
    return out

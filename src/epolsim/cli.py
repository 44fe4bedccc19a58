"""Scenario runner: JSON configs, named presets, parameter sweeps, CSV/JSON artifacts.

Exit codes: 0 success, 2 configuration error (the message names the offending
field), 3 numerical failure (trace drift or invalid truncation; for sweeps
only when every grid point fails).  Grid points are evaluated one after
another, in grid order, in this process; re-running any config produces
byte-identical outputs.  Any other exception is a fault of the program and
propagates.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, fields
from itertools import product
from pathlib import Path
from typing import NamedTuple

from . import __version__
from .cavity import build_jc, build_kerr, pair_detuning, pair_states
from .dynamics import (
    RETIRED_STEP_KEYS,
    Diagnostics,
    IntegratorConfig,
    NumericsError,
    SystemConfig,
    blockade_fidelity,
    check_feasibility,
    evolve_lindblad,
    initial_state,
)
from .electron import LadderConfig
from .gates import gate_identity_suite
from .observables import Distribution, ProbabilityError, sideband_distribution

SCHEMA_VERSION = 1


class _Axis(NamedTuple):  # a sweep list, the point setting each entry overrides, and its CSV column
    key: str
    field: str
    column: str
    minimum: float | None = None
    maximum: float | None = None


class _Sweep(NamedTuple):
    axes: tuple[_Axis, ...]  # the swept list, then any list crossed with each of its entries
    fixed: dict  # setting overrides at every point
    per_point: bool = True  # the _PER_POINT lists may give each entry of axes[0] its own cutoffs


# per-point list: (point setting, smallest entry), the bounds of model.n_cut and electron.rungs
_PER_POINT = {"n_cut_values": ("n_cut", 2), "rungs_values": ("rungs", 3)}
_KAPPA = _Axis("kappa_values", "kappa", "kappa_ratio", minimum=0.0)
# a velocity sweep sets the velocity itself, so it neither tunes to the pair nor keeps a delta
_SWEEPS = {
    "sweep_kappa": _Sweep((_KAPPA,), {}),
    "sweep_velocity": _Sweep((_Axis("velocity_ratios", "velocity_ratio", "velocity_ratio", 0.1, 1.9),),
                             {"tune_to_pair": False, "delta": None}),
    "sweep_gq": _Sweep((_Axis("g_q_values", "g_q", "g_q"),), {}, per_point=False),
    "fidelity_map": _Sweep((_KAPPA, _Axis("gamma_values", "gamma", "gamma_ratio", minimum=0.0)),
                           {"want_fidelity": True}),
}
SWEEP_SCENARIOS = tuple(_SWEEPS)
SCENARIOS = ("evolve", *SWEEP_SCENARIOS, "gates", "feasibility")


class ConfigError(ValueError):
    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"config field {field!r}: {message}")


# ---------------------------------------------------------------------------
# config schema


def _require_mapping(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(path, f"expected an object, got {type(obj).__name__}")
    return obj


def _check_keys(obj: dict, path: str, required: tuple[str, ...], optional: tuple[str, ...] = ()):
    for key in obj:
        if key not in required and key not in optional:
            raise ConfigError(f"{path}.{key}", "unknown key")
    for key in required:
        if key not in obj:
            raise ConfigError(f"{path}.{key}", "missing required key")


def _number(obj: dict, path: str, key: str, default=None, minimum=None, maximum=None):
    if key not in obj:
        if default is None:
            raise ConfigError(f"{path}.{key}", "missing required number")
        return float(default)
    val = obj[key]
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{path}.{key}", f"expected a number, got {val!r}")
    try:
        val = float(val)
    except OverflowError:  # a JSON integer beyond the largest float
        val = math.inf
    if not math.isfinite(val):
        raise ConfigError(f"{path}.{key}", "must be finite")
    if minimum is not None and val < minimum:
        raise ConfigError(f"{path}.{key}", f"must be >= {minimum}, got {val}")
    if maximum is not None and val > maximum:
        raise ConfigError(f"{path}.{key}", f"must be <= {maximum}, got {val}")
    return val


def _integer(obj: dict, path: str, key: str, default=None, minimum=None) -> int:
    """A JSON integer, read exactly, or an integral float such as 7.0."""
    val = obj.get(key)
    if not isinstance(val, int) or isinstance(val, bool):
        num = _number(obj, path, key, default=default)
        if num != int(num):
            raise ConfigError(f"{path}.{key}", f"takes integers only, got {num}")
        val = int(num)
    if minimum is not None and val < minimum:
        raise ConfigError(f"{path}.{key}", f"must be >= {minimum}, got {val}")
    return val


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _boolean(obj: dict, path: str, key: str, default=None):
    val = obj.get(key, default)
    if val is not None and not isinstance(val, bool):
        raise ConfigError(f"{path}.{key}", f"expected true or false, got {val!r}")
    return val


def _level_label(val, field: str) -> str:
    if not isinstance(val, str):
        raise ConfigError(field, f"expected a level label string such as \"1\", got {val!r}")
    return val


def _number_list(obj: dict, path: str, key: str, min_len=1, minimum=None, maximum=None):
    if key not in obj:
        raise ConfigError(f"{path}.{key}", "missing required list")
    val = obj[key]
    if not isinstance(val, list) or len(val) < min_len or not all(_is_number(x) for x in val):
        raise ConfigError(f"{path}.{key}", f"expected a list of >= {min_len} numbers")
    return [_number({key: x}, path, key, minimum=minimum, maximum=maximum) for x in val]


def _integer_list(obj: dict, path: str, key: str, length: int, minimum: int, match: str) -> list[int]:
    if len(_number_list(obj, path, key)) != length:
        raise ConfigError(f"{path}.{key}", f"length must match {match}")
    return [_integer({key: v}, path, key, minimum=minimum) for v in obj[key]]


def _complex_field(obj: dict, path: str, key: str) -> complex:
    if key not in obj:
        raise ConfigError(f"{path}.{key}", "missing required number")
    val = obj[key]
    if _is_number(val):
        return complex(float(val), 0.0)
    if isinstance(val, list) and len(val) == 2 and all(_is_number(x) for x in val):
        return complex(float(val[0]), float(val[1]))
    raise ConfigError(f"{path}.{key}", f"expected a number or [re, im], got {val!r}")


DEFAULT_PAIRS = {"kerr": ("0", "1"), "jc": ("0*", "1+")}


def normalize_config(raw: dict) -> dict:
    """Validate a raw config dict and materialize every default.

    The result is the effective config: echoing it and re-running reproduces
    identical outputs.
    """
    raw = _require_mapping(raw, "<root>")
    if "runs" in raw:
        _check_keys(raw, "<root>", ("schema_version", "runs"))
        version = _integer(raw, "<root>", "schema_version")
        if version != SCHEMA_VERSION:
            raise ConfigError("schema_version", f"unsupported version {version}")
        runs = raw["runs"]
        if not isinstance(runs, list) or not runs:
            raise ConfigError("runs", "expected a non-empty list of run configs")
        out_runs = []
        tags = set()
        for i, sub in enumerate(runs):
            sub = _require_mapping(sub, f"runs[{i}]")
            if "tag" not in sub:
                raise ConfigError(f"runs[{i}].tag", "missing required key")
            tag = sub["tag"]
            plain = isinstance(tag, str) and tag not in ("", ".", "..", "effective_config.json")
            if not plain or any(sep in tag for sep in "/\\\0"):
                raise ConfigError(f"runs[{i}].tag", f"expected a plain directory name, got {tag!r}")
            if tag in tags:
                raise ConfigError(f"runs[{i}].tag", f"duplicate tag {tag!r}")
            tags.add(tag)
            if "runs" in sub:
                raise ConfigError(f"runs[{i}].runs", "a run of a composite config cannot hold runs of its own")
            body = {k: v for k, v in sub.items() if k != "tag"}
            body.setdefault("schema_version", SCHEMA_VERSION)
            norm = normalize_config(body)
            norm.pop("schema_version")
            out_runs.append({"tag": tag, **norm})
        return {"schema_version": SCHEMA_VERSION, "runs": out_runs}

    _check_keys(
        raw,
        "<root>",
        ("schema_version", "scenario"),
        ("model", "electron", "loss", "pair", "initial_level", "integrator", "sweep", "gates", "feasibility"),
    )
    version = _integer(raw, "<root>", "schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError("schema_version", f"unsupported version {version}")
    scenario = raw["scenario"]
    if scenario not in SCENARIOS:
        raise ConfigError("scenario", f"must be one of {SCENARIOS}, got {scenario!r}")
    cfg: dict = {"schema_version": SCHEMA_VERSION, "scenario": scenario}

    if scenario == "feasibility":
        feas = _require_mapping(raw.get("feasibility", {}), "feasibility")
        _check_keys(feas, "feasibility", (), ("pm_bandwidth", "omega_t", "kappa_ratio", "gamma_ratio", "energy_spread", "margin"))
        if "pm_bandwidth" in feas and "omega_t" in feas:
            raise ConfigError("feasibility.omega_t", "give pm_bandwidth or omega_t, not both")
        if "pm_bandwidth" in feas:
            pm = _number(feas, "feasibility", "pm_bandwidth", minimum=0.0)
        elif "omega_t" in feas:
            pm = 1.0 / _number(feas, "feasibility", "omega_t", minimum=1e-12)
        else:
            raise ConfigError("feasibility.pm_bandwidth", "provide pm_bandwidth or omega_t")
        cfg["feasibility"] = {
            "pm_bandwidth": pm,
            "kappa_ratio": _number(feas, "feasibility", "kappa_ratio", minimum=0.0),
            "gamma_ratio": _number(feas, "feasibility", "gamma_ratio", default=0.0, minimum=0.0),
            "energy_spread": _number(feas, "feasibility", "energy_spread", default=0.0, minimum=0.0),
            "margin": _number(feas, "feasibility", "margin", default=10.0, minimum=1.0),
        }
        return cfg

    if scenario == "gates":
        gates = _require_mapping(raw.get("gates", {}), "gates")
        _check_keys(gates, "gates", (), ("rungs", "seed", "corrupt_cz_phase"))
        cfg["gates"] = {
            "rungs": _integer(gates, "gates", "rungs", default=7, minimum=6),
            "seed": _integer(gates, "gates", "seed", default=11, minimum=0),
            "corrupt_cz_phase": _number(gates, "gates", "corrupt_cz_phase", default=0.0),
        }
        return cfg

    model = _require_mapping(raw.get("model", {}), "model")
    _check_keys(model, "model", ("kind", "kappa_ratio", "n_cut"))
    kind = model["kind"]
    if kind not in ("kerr", "jc"):
        raise ConfigError("model.kind", f"must be 'kerr' or 'jc', got {kind!r}")
    cfg["model"] = {
        "kind": kind,
        "n_cut": _integer(model, "model", "n_cut", minimum=2),
        "kappa_ratio": _number(model, "model", "kappa_ratio", minimum=0.0),
    }

    electron = _require_mapping(raw.get("electron", {}), "electron")
    _check_keys(
        electron,
        "electron",
        ("rungs", "center", "g_q"),
        ("q0_l", "wavelength_nm", "length_um", "velocity_ratio", "delta", "tune_to_pair", "energy_kev", "beta"),
    )
    rungs = _integer(electron, "electron", "rungs", minimum=3)
    center = _integer(electron, "electron", "center", minimum=0)
    if center >= rungs:
        raise ConfigError("electron.center", f"must be < rungs ({rungs}), got {center}")
    g_q = _complex_field(electron, "electron", "g_q")
    if "length_um" in electron:
        if "q0_l" in electron:
            raise ConfigError("electron.q0_l", "give q0_l or (wavelength_nm, length_um), not both")
        wavelength = _number(electron, "electron", "wavelength_nm", minimum=1e-6)
        length = _number(electron, "electron", "length_um", minimum=1e-9)
        q0_l = 2.0 * math.pi * length * 1e3 / wavelength
    else:
        q0_l = _number(electron, "electron", "q0_l", minimum=1e-9)
    tune = _boolean(electron, "electron", "tune_to_pair")
    tuning_keys = [k for k in ("velocity_ratio", "delta") if k in electron]
    if tune:
        tuning_keys.append("tune_to_pair")
    if len(tuning_keys) > 1:
        raise ConfigError(f"electron.{tuning_keys[1]}", "give only one of velocity_ratio, delta, tune_to_pair")
    if tune is False and not tuning_keys:
        raise ConfigError("electron.tune_to_pair", "false leaves the velocity unset; give velocity_ratio or delta")
    cfg["electron"] = {
        "rungs": rungs,
        "center": center,
        "g_q": [g_q.real, g_q.imag],
        "q0_l": q0_l,
        "tune_to_pair": not tuning_keys or tuning_keys == ["tune_to_pair"],
    }
    if tuning_keys == ["velocity_ratio"]:
        cfg["electron"]["velocity_ratio"] = _number(electron, "electron", "velocity_ratio", minimum=0.1, maximum=1.9)
    elif tuning_keys == ["delta"]:
        cfg["electron"]["delta"] = _number(electron, "electron", "delta", minimum=-0.9, maximum=0.9)
    if "wavelength_nm" in electron:
        cfg["electron"]["wavelength_nm"] = _number(electron, "electron", "wavelength_nm", minimum=1e-6)
    if "energy_kev" in electron and "beta" in electron:
        raise ConfigError("electron.beta", "give energy_kev or beta, not both")
    if "energy_kev" in electron:
        cfg["electron"]["energy_kev"] = _number(electron, "electron", "energy_kev", minimum=0.0)
    if "beta" in electron:
        cfg["electron"]["beta"] = _number(electron, "electron", "beta", minimum=0.0, maximum=0.999999)

    loss = _require_mapping(raw.get("loss", {}), "loss")
    _check_keys(loss, "loss", (), ("gamma_ratio",))
    cfg["loss"] = {"gamma_ratio": _number(loss, "loss", "gamma_ratio", default=0.0, minimum=0.0)}

    pair = raw.get("pair")
    if pair is None:
        lower, upper = DEFAULT_PAIRS[kind]
    else:
        pair = _require_mapping(pair, "pair")
        _check_keys(pair, "pair", ("lower", "upper"))
        lower, upper = _level_label(pair["lower"], "pair.lower"), _level_label(pair["upper"], "pair.upper")
    cfg["pair"] = {"lower": lower, "upper": upper}
    cfg["initial_level"] = _level_label(raw.get("initial_level", lower), "initial_level")

    # the integrator section holds IntegratorConfig's fields, at its defaults unless given
    integ = _require_mapping(raw.get("integrator", {}), "integrator")
    defaults = {f.name: f.default for f in fields(IntegratorConfig)}
    _check_keys(integ, "integrator", (), tuple(defaults))
    cfg["integrator"] = {}
    for key, default in defaults.items():
        if key in RETIRED_STEP_KEYS:  # step sizes of the retired fixed-step integrator: echoed only
            if key in integ and integ[key] != default:
                raise ConfigError(f"integrator.{key}",
                                  f"only {json.dumps(default)} is accepted: the propagator is exact and takes no steps")
            cfg["integrator"][key] = default
        elif isinstance(default, bool):
            cfg["integrator"][key] = _boolean(integ, "integrator", key, default=default)
        else:
            cfg["integrator"][key] = _number(integ, "integrator", key, default=default, minimum=0.0)

    sweep = raw.get("sweep")
    if scenario not in _SWEEPS:
        if sweep is not None:
            raise ConfigError("sweep", "not allowed for the evolve scenario")
    else:
        cfg["sweep"] = _sweep_lists(_require_mapping(sweep if sweep is not None else {}, "sweep"),
                                    _SWEEPS[scenario], center)
    _grid(cfg)  # builds every model and checks its levels
    return cfg


def _sweep_lists(sweep: dict, spec: _Sweep, center: int) -> dict:
    """The sweep lists of a scenario, and per-axis-entry cutoffs with the bounds of
    model.n_cut and electron.rungs."""
    optional = tuple(_PER_POINT) if spec.per_point else ()
    _check_keys(sweep, "sweep", tuple(axis.key for axis in spec.axes), optional)
    out = {axis.key: _number_list(sweep, "sweep", axis.key, minimum=axis.minimum, maximum=axis.maximum)
           for axis in spec.axes}
    first = spec.axes[0].key
    for key, (_, minimum) in _PER_POINT.items():
        if key in sweep:
            out[key] = _integer_list(sweep, "sweep", key, len(out[first]), minimum, first)
    for rungs in out.get("rungs_values", []):
        if rungs <= center:
            raise ConfigError("sweep.rungs_values", f"entries must exceed electron.center ({center}), got {rungs}")
    return out


# ---------------------------------------------------------------------------
# grid expansion and point evaluation


class _Point(NamedTuple):
    """One grid point as the library's objects."""

    index: int
    axis: tuple  # its values on the sweep's axes: one value, a fidelity map's (kappa, gamma), () for evolve
    system: SystemConfig
    integrator: IntegratorConfig
    initial_level: str
    pair: tuple[str, str]  # (lower, upper)
    scored: bool  # whether the point's blockade fidelity is computed


def _checked_model(cfg: dict, kappa: float, n_cut: int, tuned: bool, scored: bool):
    """The (kappa, n_cut) cavity model and, when tuned, the delta that tunes the electron to the
    pair.  The model must hold the pair and initial levels, and a pair the electron is tuned
    to, or scored against, must be a ladder transition it can reach."""
    kind, lower, upper = cfg["model"]["kind"], cfg["pair"]["lower"], cfg["pair"]["upper"]
    model = (build_kerr if kind == "kerr" else build_jc)(kappa, n_cut)
    labels = model.basis.labels
    for field, label in (("pair.lower", lower), ("pair.upper", upper), ("initial_level", cfg["initial_level"])):
        if label not in labels:
            raise ConfigError(field, f"no level {label!r} in the {kind} model at n_cut {n_cut}")
    if tuned or scored:
        try:
            pair_states(model, lower, upper)
        except ValueError as exc:
            raise ConfigError("pair", str(exc)) from None
    if not tuned:
        return model, None
    delta = pair_detuning(model, lower, upper)
    if abs(delta) > 0.9:
        raise ConfigError("pair", f"tuning to ({lower}, {upper}) needs |delta| > 0.9 at kappa {kappa}")
    return model, delta


def _grid(cfg: dict) -> list[_Point]:
    """Every grid point of a normalized config in grid order; an evolve config is one point.

    Each distinct (kappa, n_cut) model is built, and its levels checked, once.
    """
    spec = _SWEEPS.get(cfg["scenario"], _Sweep((), {}))
    sweep, electron, loss = cfg.get("sweep", {}), cfg["electron"], cfg["loss"]
    pair, integrator = (cfg["pair"]["lower"], cfg["pair"]["upper"]), IntegratorConfig(**cfg["integrator"])
    models: dict[tuple[float, int], tuple] = {}
    points = []
    for entries in product(*(enumerate(sweep[axis.key]) for axis in spec.axes)):
        row = entries[0][0] if entries else 0
        at = {**spec.fixed, **{axis.field: value for axis, (_, value) in zip(spec.axes, entries)},
              **{field: sweep[key][row] for key, (field, _) in _PER_POINT.items() if key in sweep}}
        key = (at.get("kappa", cfg["model"]["kappa_ratio"]), at.get("n_cut", cfg["model"]["n_cut"]))
        tuned, scored = at.get("tune_to_pair", electron["tune_to_pair"]), at.get("want_fidelity", False)
        if key not in models:
            models[key] = _checked_model(cfg, *key, tuned, scored)
        model, delta = models[key]
        if not tuned:
            delta = at.get("delta", electron.get("delta"))
            if delta is None:
                delta = at.get("velocity_ratio", electron.get("velocity_ratio")) - 1.0
        system = SystemConfig(
            model=model,
            ladder=LadderConfig(rungs=at.get("rungs", electron["rungs"]), center=electron["center"]),
            g_q=complex(at["g_q"]) if "g_q" in at else complex(*electron["g_q"]),
            interaction_time=electron["q0_l"] / (1.0 + delta),
            delta=delta,
            gamma=at.get("gamma", loss["gamma_ratio"]),
        )
        points.append(_Point(len(points), tuple(value for _, value in entries), system, integrator,
                             cfg["initial_level"], pair, scored))
    return points


@dataclass(frozen=True)
class PointResult:
    """One grid point's spectra, statistics, diagnostics and fidelity, or the reason it failed."""

    eels: Distribution | None = None
    stats: Distribution | None = None
    diagnostics: Diagnostics | None = None
    fidelity: float = math.nan  # nan unless the point is scored
    reason: str = ""

    @property
    def converged(self) -> bool:
        return not self.reason


def _evaluate_point(point: _Point) -> PointResult:
    """Run one grid point.

    A numerical failure marks the point unconverged with its reason.  Faults
    of the config are rejected earlier by normalize_config, so any other
    exception is a fault of the program and propagates.
    """
    system = point.system
    try:
        psi0 = initial_state(system, cavity_level=point.initial_level)
        result = evolve_lindblad(psi0, system, point.integrator)
        diag = result.diagnostics
        eels = sideband_distribution(diag.electron_populations, system.ladder.center)
        stats = Distribution.from_values(system.model.basis.labels, diag.level_populations)
        fidelity = blockade_fidelity(result, psi0, *point.pair) if point.scored else math.nan
    except (NumericsError, ProbabilityError) as exc:
        return PointResult(reason=f"{type(exc).__name__}: {exc}")
    return PointResult(eels, stats, diag, fidelity)


def _grid_exit_code(results: list[PointResult]) -> int:
    if all(not r.converged for r in results):
        sys.stderr.write("numerical failure: every grid point failed\n")
        return 3
    return 0


# ---------------------------------------------------------------------------
# output writers


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = [cell if isinstance(cell, str) else format(float(cell), ".17g") for cell in row]
            fh.write(",".join(cells) + "\n")


def _write_point_files(point_dir: Path, result: PointResult) -> None:
    point_dir.mkdir(parents=True, exist_ok=True)
    if result.converged:
        _write_csv(point_dir / "eels.csv", ["sideband", "probability"],
                   zip(result.eels.labels, result.eels.probabilities))
        _write_csv(point_dir / "stats.csv", ["level", "probability"],
                   zip(result.stats.labels, result.stats.probabilities))
    else:
        (point_dir / "FAILED.txt").write_text(result.reason + "\n")


def _write_effective_config(out_dir: Path, cfg: dict) -> None:
    with open(out_dir / "effective_config.json", "w", newline="\n") as fh:
        json.dump(cfg, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _diag_columns(result: PointResult) -> list:
    """DIAG_HEADER cells; nan where the point has no such figure (failed, or not checked)."""
    d = result.diagnostics
    if d is None:
        return ["false"] + [math.nan] * 5
    halving = math.nan if d.halving_delta is None else d.halving_delta
    return ["true", d.steps, d.trace_error, d.cutoff_occupancy, d.wrap_occupancy, halving]


DIAG_HEADER = ["converged", "steps", "trace_error", "cutoff_occupancy", "wrap_occupancy", "halving_delta"]


# ---------------------------------------------------------------------------
# scenario execution


HBAR_C_KEV_NM = 0.1973269804  # hbar * c


def _scenario_evolve(cfg: dict, out_dir: Path) -> int:
    [point] = _grid(cfg)
    result = _evaluate_point(point)
    if not result.converged:
        sys.stderr.write(f"numerical failure: {result.reason}\n")
        return 3
    _write_point_files(out_dir, result)
    _write_csv(out_dir / "diagnostics.csv", DIAG_HEADER, [_diag_columns(result)])
    electron = cfg["electron"]
    beta = electron.get("beta")
    if beta is None and "energy_kev" in electron:
        from .electron import energy_to_velocity

        beta = energy_to_velocity(electron["energy_kev"])
    if beta is not None and "wavelength_nm" in electron:
        # physical energy axis: final energy = E + l * hbar * q0 * v
        quantum_kev = 2.0 * math.pi * beta * HBAR_C_KEV_NM / electron["wavelength_nm"]
        base = electron.get("energy_kev", 0.0)
        energies = [base + int(lab) * quantum_kev for lab in result.eels.labels]
        _write_csv(out_dir / "eels_energy.csv", ["energy_kev", "probability"],
                   zip(energies, result.eels.probabilities))
    return 0


def _scenario_sweep(cfg: dict, out_dir: Path) -> int:
    axis = [a.column for a in _SWEEPS[cfg["scenario"]].axes]
    points = _grid(cfg)
    results = [_evaluate_point(p) for p in points]
    stats_rows, eels_rows, summary_rows = [], [], []
    for point, result in zip(points, results):
        value = point.axis
        _write_point_files(out_dir / f"point_{point.index:03d}", result)
        summary_rows.append([*value, *_diag_columns(result)])
        if result.converged:
            stats_rows.extend([*value, *row] for row in zip(result.stats.labels, result.stats.probabilities))
            eels_rows.extend([*value, *row] for row in zip(result.eels.labels, result.eels.probabilities))
    _write_csv(out_dir / "sweep_stats.csv", [*axis, "level", "probability"], stats_rows)
    _write_csv(out_dir / "sweep_eels.csv", [*axis, "sideband", "probability"], eels_rows)
    _write_csv(out_dir / "sweep_summary.csv", axis + DIAG_HEADER, summary_rows)
    return _grid_exit_code(results)


def _scenario_fidelity_map(cfg: dict, out_dir: Path) -> int:
    axis = [a.column for a in _SWEEPS[cfg["scenario"]].axes]
    points = _grid(cfg)
    results = [_evaluate_point(p) for p in points]
    _write_csv(out_dir / "fidelity_map.csv", axis + ["fidelity", "converged"],
               [[*p.axis, r.fidelity, "true" if r.converged else "false"] for p, r in zip(points, results)])
    _write_csv(out_dir / "fidelity_diagnostics.csv", axis + DIAG_HEADER,
               [[*p.axis, *_diag_columns(r)] for p, r in zip(points, results)])
    return _grid_exit_code(results)


def _scenario_gates(cfg: dict, out_dir: Path) -> int:
    gcfg = cfg["gates"]
    checks, report = gate_identity_suite(
        rungs=gcfg["rungs"], seed=gcfg["seed"], corrupt_cz_phase=gcfg["corrupt_cz_phase"]
    )
    lines = [check.line() for check in checks]
    lines.append("")
    lines.append("two-polariton controlled-Z report:")
    lines.extend("  " + ln for ln in report.to_text().splitlines())
    text = "\n".join(lines) + "\n"
    with open(out_dir / "gates_report.txt", "w", newline="\n") as fh:
        fh.write(text)
    failing = [check.name for check in checks if not check.passed]
    if failing:
        sys.stderr.write("failing gate identities: " + "; ".join(failing) + "\n")
        return 1
    return 0


def _scenario_feasibility(cfg: dict, out_dir: Path) -> int:
    f = cfg["feasibility"]
    report = check_feasibility(
        pm_bandwidth=f["pm_bandwidth"],
        kappa=f["kappa_ratio"],
        gamma=f["gamma_ratio"],
        energy_spread=f["energy_spread"],
        margin=f["margin"],
    )
    text = "\n".join(report.lines()) + "\n"
    with open(out_dir / "feasibility.txt", "w", newline="\n") as fh:
        fh.write(text)
    sys.stdout.write(text)
    return 0


_SCENARIO_RUNNERS = {
    "evolve": _scenario_evolve,
    "sweep_kappa": _scenario_sweep,
    "sweep_velocity": _scenario_sweep,
    "sweep_gq": _scenario_sweep,
    "fidelity_map": _scenario_fidelity_map,
    "gates": _scenario_gates,
    "feasibility": _scenario_feasibility,
}


def run_config(cfg: dict, out_dir: str | Path) -> int:
    """Execute a normalized config; returns the process exit code."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_effective_config(out_dir, cfg)
    if "runs" in cfg:
        worst = 0
        for sub in cfg["runs"]:
            tag = sub["tag"]
            body = {k: v for k, v in sub.items() if k != "tag"}
            body["schema_version"] = SCHEMA_VERSION
            sub_dir = out_dir / tag
            sub_dir.mkdir(parents=True, exist_ok=True)
            _write_effective_config(sub_dir, body)
            code = _SCENARIO_RUNNERS[body["scenario"]](body, sub_dir)
            worst = max(worst, code)
        return worst
    return _SCENARIO_RUNNERS[cfg["scenario"]](cfg, out_dir)


# ---------------------------------------------------------------------------
# presets

Q0_L = 472.43  # q0 * L for the 532 nm mode over a 40 um interaction length


def _preset_fig3ab() -> dict:
    kappas = [0.0, 0.002, 0.004, 0.006, 0.008, 0.01, 0.012, 0.014, 0.016, 0.018, 0.02]
    n_cuts = [20, 18, 16, 14, 12, 12, 10, 10, 10, 8, 8]
    rungs = [65, 49, 49, 41, 41, 41, 33, 33, 33, 33, 33]
    return {
        "schema_version": SCHEMA_VERSION,
        "scenario": "sweep_kappa",
        "model": {"kind": "kerr", "kappa_ratio": 0.02, "n_cut": 8},
        "electron": {"rungs": 33, "center": 16, "g_q": math.pi / 2, "q0_l": Q0_L,
                     "velocity_ratio": 1.0, "energy_kev": 200.0},
        "loss": {"gamma_ratio": 1e-5},
        "pair": {"lower": "0", "upper": "1"},
        "sweep": {"kappa_values": kappas, "n_cut_values": n_cuts, "rungs_values": rungs},
    }


def _preset_fig3cd() -> dict:
    ratios = [0.97, 0.975, 0.98, 0.985, 0.99, 0.995, 1.0, 1.005, 1.01, 1.015, 1.02, 1.025, 1.03]
    n_cuts = [10, 10, 10, 12, 16, 20, 22, 20, 16, 12, 10, 10, 10]
    rungs = [33, 33, 33, 41, 49, 65, 65, 65, 49, 41, 33, 33, 33]
    return {
        "schema_version": SCHEMA_VERSION,
        "scenario": "sweep_velocity",
        "model": {"kind": "jc", "kappa_ratio": 0.02, "n_cut": 10},
        "electron": {"rungs": 33, "center": 16, "g_q": math.pi / math.sqrt(2), "q0_l": Q0_L,
                     "velocity_ratio": 1.0, "energy_kev": 20.0},
        "loss": {"gamma_ratio": 1e-5},
        "pair": {"lower": "0*", "upper": "1+"},
        "sweep": {"velocity_ratios": ratios, "n_cut_values": n_cuts, "rungs_values": rungs},
    }


def _gq_grid(stop_factor: float) -> list[float]:
    step = math.pi / 64
    n = int(round(stop_factor * math.pi / step))
    return [i * step for i in range(n + 1)]


def _preset_fig4(kind: str, pair: tuple[str, str], initial: str, n_cut: int, stop: float) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "scenario": "sweep_gq",
        "model": {"kind": kind, "kappa_ratio": 0.02, "n_cut": n_cut},
        "electron": {"rungs": 33, "center": 16, "g_q": 0.0, "q0_l": Q0_L, "tune_to_pair": True},
        "loss": {"gamma_ratio": 1e-5},
        "pair": {"lower": pair[0], "upper": pair[1]},
        "initial_level": initial,
        "sweep": {"g_q_values": _gq_grid(stop)},
    }


def _preset_fidelity_map(kind: str, pair: tuple[str, str], g_q: float, kappas: list[float],
                         n_cuts: list[int], rungs: list[int]) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "scenario": "fidelity_map",
        "model": {"kind": kind, "kappa_ratio": kappas[-1], "n_cut": n_cuts[-1]},
        "electron": {"rungs": rungs[-1], "center": rungs[-1] // 2, "g_q": g_q, "q0_l": Q0_L, "tune_to_pair": True},
        "loss": {"gamma_ratio": 1e-5},
        "pair": {"lower": pair[0], "upper": pair[1]},
        "sweep": {
            "kappa_values": kappas,
            "gamma_values": [1e-5, 1e-4, 1e-3],
            "n_cut_values": n_cuts,
            "rungs_values": rungs,
        },
    }


def build_presets() -> dict[str, dict]:
    fig5_kappas = [0.005, 0.01, 0.02]
    fig5a = _preset_fidelity_map("jc", ("0*", "1-"), math.pi / math.sqrt(2), fig5_kappas, [20, 12, 10], [49, 33, 33])
    fig5b = _preset_fidelity_map("kerr", ("0", "1"), math.pi / 2, fig5_kappas, [16, 10, 8], [49, 33, 33])
    fig5c_jc = _preset_fidelity_map("jc", ("0*", "1-"), math.pi / math.sqrt(2), [0.02], [10], [33])
    fig5c_kerr = _preset_fidelity_map("kerr", ("0", "1"), math.pi / 2, [0.02], [8], [33])
    smoke = {
        "schema_version": SCHEMA_VERSION,
        "scenario": "sweep_kappa",
        "model": {"kind": "kerr", "kappa_ratio": 0.05, "n_cut": 8},
        "electron": {"rungs": 21, "center": 10, "g_q": 0.6, "q0_l": 60.0, "velocity_ratio": 1.0},
        "loss": {"gamma_ratio": 1e-4},
        "pair": {"lower": "0", "upper": "1"},
        "sweep": {"kappa_values": [0.0, 0.02, 0.05]},
    }
    return {
        "fig3ab": _preset_fig3ab(),
        "fig3cd": _preset_fig3cd(),
        "fig4a": _preset_fig4("kerr", ("0", "1"), "0", 7, 0.65),
        "fig4b": _preset_fig4("kerr", ("1", "2"), "1", 9, 0.50),
        "fig4c": _preset_fig4("jc", ("0*", "1+"), "0*", 12, 0.80),
        "fig4d": _preset_fig4("jc", ("0*", "1-"), "0*", 12, 0.80),
        "fig5a": fig5a,
        "fig5b": fig5b,
        "fig5c": {
            "schema_version": SCHEMA_VERSION,
            "runs": [{"tag": "jc", **fig5c_jc}, {"tag": "kerr", **fig5c_kerr}],
        },
        "gates": {"schema_version": SCHEMA_VERSION, "scenario": "gates"},
        "smoke": smoke,
    }


# ---------------------------------------------------------------------------
# entry point


def _load_raw_config(path: str) -> dict:
    p = Path(path)
    if not p.exists():
        raise ConfigError("config", f"file not found: {path}")
    try:
        with open(p) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON: {exc}") from None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="epolsim", description=__doc__)
    parser.add_argument("--version", action="version", version=f"epolsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("run", "run any scenario config"),
        ("sweep", "run a sweep or fidelity-map config"),
        ("gates", "run the gate-identity verification suite"),
        ("check", "run the feasibility validator"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", nargs="?", help="path to a JSON config")
        p.add_argument("--preset", help="name of a built-in config")
        p.add_argument("--out", default="out", help="output directory (default: out)")
    args = parser.parse_args(argv)

    try:
        presets = build_presets()
        if args.preset is not None and args.config is not None:
            raise ConfigError("config", "give a config path or --preset, not both")
        if args.preset is not None:
            if args.preset not in presets:
                raise ConfigError("--preset", f"unknown preset {args.preset!r}; have {sorted(presets)}")
            raw = presets[args.preset]
        elif args.config is not None:
            raw = _load_raw_config(args.config)
        elif args.command == "gates":
            raw = presets["gates"]
        else:
            raise ConfigError("config", "a config path or --preset is required")
        cfg = normalize_config(raw)
        scenarios = [r["scenario"] for r in cfg["runs"]] if "runs" in cfg else [cfg["scenario"]]
        if args.command == "sweep" and not all(s in SWEEP_SCENARIOS for s in scenarios):
            raise ConfigError("scenario", f"'sweep' requires one of {SWEEP_SCENARIOS}")
        if args.command == "gates" and scenarios != ["gates"]:
            raise ConfigError("scenario", "'gates' requires a gates config")
        if args.command == "check" and scenarios != ["feasibility"]:
            raise ConfigError("scenario", "'check' requires a feasibility config")
    except ConfigError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    return run_config(cfg, args.out)


if __name__ == "__main__":
    sys.exit(main())

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
    RETIRED_KEYS,
    Diagnostics,
    IntegratorConfig,
    NumericsError,
    SystemConfig,
    blockade_fidelity,
    check_feasibility,
    evolve_lindblad,
    initial_state,
)
from .electron import LadderConfig, energy_to_velocity
from .gates import gate_identity_suite
from .observables import Distribution, ProbabilityError, sideband_distribution

SCHEMA_VERSION = 1


class _Axis(NamedTuple):  # a sweep list, the point setting each entry overrides, and its CSV column
    key: str
    field: str
    column: str
    scalar: str | None  # the "block.key" whose _BLOCKS reader reads each entry; any number without one


class _Sweep(NamedTuple):
    axes: tuple[_Axis, ...]  # the swept list, then any list crossed with each of its entries
    fixed: dict  # setting overrides at every point
    per_point: bool = True  # the _PER_POINT lists may give each entry of axes[0] its own cutoffs


# per-point list: (point setting, the scalar whose reader reads each entry)
_PER_POINT = {"n_cut_values": ("n_cut", "model.n_cut"), "rungs_values": ("rungs", "electron.rungs")}
_KAPPA = _Axis("kappa_values", "kappa", "kappa_ratio", "model.kappa_ratio")
# a velocity sweep sets the velocity itself, so it does not tune to the pair; a g_q entry is a
# real number, where electron.g_q is complex
_SWEEPS = {
    "sweep_kappa": _Sweep((_KAPPA,), {}),
    "sweep_velocity": _Sweep((_Axis("velocity_ratios", "velocity_ratio", "velocity_ratio", "electron.velocity_ratio"),),
                             {"tune_to_pair": False}),
    "sweep_gq": _Sweep((_Axis("g_q_values", "g_q", "g_q", None),), {}, per_point=False),
    "fidelity_map": _Sweep((_KAPPA, _Axis("gamma_values", "gamma", "gamma_ratio", "loss.gamma_ratio")),
                           {"want_fidelity": True}),
}
SWEEP_SCENARIOS = tuple(_SWEEPS)
SCENARIOS = ("evolve", *SWEEP_SCENARIOS, "gates", "feasibility")
# the root keys each scenario reads
_POINT_KEYS = ("schema_version", "scenario", "initial_level", "model", "electron", "loss", "pair", "integrator")
_SCENARIO_KEYS = {"evolve": _POINT_KEYS, **{name: (*_POINT_KEYS, "sweep") for name in SWEEP_SCENARIOS},
                  "gates": ("schema_version", "scenario", "gates"),
                  "feasibility": ("schema_version", "scenario", "feasibility")}
_ROOT_KEYS = tuple(dict.fromkeys(key for keys in _SCENARIO_KEYS.values() for key in keys))


class ConfigError(ValueError):
    def __init__(self, field: str, message: str):
        self.field, self.message = field, message
        super().__init__(f"config field {field!r}: {message}")


# ---------------------------------------------------------------------------
# config schema
#
# A reader validates one given value: reader(value, field) returns the value to echo or raises
# ConfigError naming the field.


def _require_mapping(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(path, f"expected an object, got {type(obj).__name__}")
    return obj


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _number(minimum=None, maximum=None, integer=False):
    """A finite number in [minimum, maximum]; with `integer`, a JSON integer, read exactly, or an
    integral float such as 7.0."""
    def read(val, field):
        if not _is_number(val):
            raise ConfigError(field, f"expected a number, got {val!r}")
        if not (integer and isinstance(val, int)):
            try:
                val = float(val)
            except OverflowError:  # a JSON integer beyond the largest float
                val = math.inf
            if not math.isfinite(val):
                raise ConfigError(field, "must be finite")
            if integer:
                if val != int(val):
                    raise ConfigError(field, f"takes integers only, got {val}")
                val = int(val)
        if minimum is not None and val < minimum:
            raise ConfigError(field, f"must be >= {minimum}, got {val}")
        if maximum is not None and val > maximum:
            raise ConfigError(field, f"must be <= {maximum}, got {val}")
        return val

    return read


def _numbers(element):
    """A non-empty list, each entry read by `element`."""
    def read(val, field):
        if not isinstance(val, list) or not val or not all(_is_number(x) for x in val):
            raise ConfigError(field, "expected a list of >= 1 numbers")
        return [element(x, field) for x in val]

    return read


def _boolean(val, field):
    if not isinstance(val, bool):
        raise ConfigError(field, f"expected true or false, got {val!r}")
    return val


def _level_label(val, field):
    if not isinstance(val, str):
        raise ConfigError(field, f"expected a level label string such as \"1\", got {val!r}")
    return val


def _complex(val, field):
    """A number or [re, im], echoed as [re, im]."""
    parts = val if isinstance(val, list) and len(val) == 2 else [val, 0.0]
    if not all(_is_number(x) for x in parts):
        raise ConfigError(field, f"expected a number or [re, im], got {val!r}")
    return [_number()(x, field) for x in parts]


def _model_kind(val, field):
    if val not in ("kerr", "jc"):
        raise ConfigError(field, f"must be 'kerr' or 'jc', got {val!r}")
    return val


def _retired(default):
    """A retired integrator key: echoed, and accepted only at its default, a boolean one as that boolean."""
    def read(val, field):
        if val != default or isinstance(val, bool) != isinstance(default, bool):
            raise ConfigError(field, f"only {json.dumps(default)} is accepted: the key is retired; the propagator "
                                     f"is exact, takes no steps, and always runs its accuracy gate")
        return default

    return read


REQUIRED, OPTIONAL = object(), object()  # a key without a default: it must be given, or is echoed only when given

# block -> key -> (reader, default); the integrator block holds IntegratorConfig's fields
_BLOCKS = {
    "feasibility": {"pm_bandwidth": (_number(0.0), REQUIRED), "kappa_ratio": (_number(0.0), REQUIRED),
                    "gamma_ratio": (_number(0.0), 0.0), "energy_spread": (_number(0.0), 0.0),
                    "margin": (_number(1.0), 10.0)},
    "gates": {"rungs": (_number(6, integer=True), 7), "seed": (_number(0, integer=True), 11),
              "corrupt_cz_phase": (_number(), 0.0)},
    "model": {"kind": (_model_kind, REQUIRED), "n_cut": (_number(2, integer=True), REQUIRED),
              "kappa_ratio": (_number(0.0), REQUIRED)},
    "electron": {"rungs": (_number(3, integer=True), REQUIRED), "center": (_number(0, integer=True), REQUIRED),
                 "g_q": (_complex, REQUIRED), "q0_l": (_number(1e-9), REQUIRED),
                 "velocity_ratio": (_number(0.1, 1.9), OPTIONAL), "tune_to_pair": (_boolean, OPTIONAL),
                 "energy_kev": (_number(0.0), OPTIONAL), "wavelength_nm": (_number(1e-6), OPTIONAL)},
    "loss": {"gamma_ratio": (_number(0.0), 0.0)},
    "pair": {"lower": (_level_label, REQUIRED), "upper": (_level_label, REQUIRED)},
    "integrator": {f.name: (_retired(f.default) if f.name in RETIRED_KEYS else _number(0.0), f.default)
                   for f in fields(IntegratorConfig)},
}


def _block(raw: dict, name: str, table: dict | None = None) -> dict:
    """The `name` block of a raw config, read by `table` (by default its _BLOCKS entry): every
    given key read, every absent one at its default."""
    given, table = _require_mapping(raw.get(name, {}), name), table or _BLOCKS[name]
    for key in given:
        if key not in table:
            raise ConfigError(f"{name}.{key}", "unknown key")
    out = {}
    for key, (read, default) in table.items():
        if key in given:
            out[key] = read(given[key], f"{name}.{key}")
        elif default is REQUIRED:
            raise ConfigError(f"{name}.{key}", "missing required key")
        elif default is not OPTIONAL:
            out[key] = default
    return out


def _root_keys(raw: dict, keys: tuple[str, ...], required: tuple[str, ...], scenario: str | None = None) -> None:
    """The root's keys, and its schema_version.  Given the `scenario` whose keys `keys`
    are, a key that another scenario reads is named as not allowed for this one."""
    for key in raw:
        if key in keys:
            continue
        if scenario is not None and key in _ROOT_KEYS:
            raise ConfigError(key, f"not allowed for the {scenario} scenario")
        raise ConfigError(f"<root>.{key}", "unknown key")
    for key in required:
        if key not in raw:
            raise ConfigError(key, "missing required key")
    version = _number(integer=True)(raw["schema_version"], "schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError("schema_version", f"unsupported version {version}")


DEFAULT_PAIRS = {"kerr": {"lower": "0", "upper": "1"}, "jc": {"lower": "0*", "upper": "1+"}}


def normalize_config(raw: dict) -> dict:
    """Validate a raw config dict and materialize every default.

    The result is the effective config: echoing it and re-running reproduces
    identical outputs.
    """
    raw = _require_mapping(raw, "<root>")
    if "runs" in raw:
        _root_keys(raw, ("schema_version", "runs"), ("schema_version", "runs"))
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
            try:
                norm = normalize_config(body)
            except ConfigError as exc:  # name the field inside its run
                raise ConfigError(f"runs[{i}].{exc.field.removeprefix('<root>.')}", exc.message) from None
            norm.pop("schema_version")
            out_runs.append({"tag": tag, **norm})
        return {"schema_version": SCHEMA_VERSION, "runs": out_runs}

    scenario = raw.get("scenario")
    own = _SCENARIO_KEYS.get(scenario) if isinstance(scenario, str) else None
    _root_keys(raw, own or _ROOT_KEYS, ("schema_version", "scenario"), scenario if own else None)
    if scenario not in SCENARIOS:
        raise ConfigError("scenario", f"must be one of {SCENARIOS}, got {scenario!r}")
    cfg: dict = {"schema_version": SCHEMA_VERSION, "scenario": scenario}
    if scenario in ("feasibility", "gates"):
        cfg[scenario] = _block(raw, scenario)
        return cfg

    cfg["model"] = _block(raw, "model")
    electron = cfg["electron"] = _block(raw, "electron")
    if electron["center"] >= electron["rungs"]:
        raise ConfigError("electron.center", f"must be < rungs ({electron['rungs']}), got {electron['center']}")
    # energy_kev and wavelength_nm set only the evolve scenario's eels_energy.csv, and only together
    energy_axis = [k for k in ("energy_kev", "wavelength_nm") if k in electron]
    if energy_axis and (scenario != "evolve" or len(energy_axis) == 1):
        raise ConfigError(f"electron.{energy_axis[0]}",
                          "energy_kev and wavelength_nm are read only together, by the evolve scenario")
    tune, velocity = electron.get("tune_to_pair"), "velocity_ratio" in electron
    if tune and velocity:
        raise ConfigError("electron.tune_to_pair", "give velocity_ratio or tune_to_pair, not both")
    if tune is False and not velocity:
        raise ConfigError("electron.tune_to_pair", "false leaves the velocity unset; give velocity_ratio")
    electron["tune_to_pair"] = not velocity
    cfg["loss"] = _block(raw, "loss")
    cfg["pair"] = _block(raw, "pair") if "pair" in raw else dict(DEFAULT_PAIRS[cfg["model"]["kind"]])
    cfg["initial_level"] = _level_label(raw.get("initial_level", cfg["pair"]["lower"]), "initial_level")
    cfg["integrator"] = _block(raw, "integrator")

    if scenario in _SWEEPS:
        cfg["sweep"] = _sweep_lists(raw, _SWEEPS[scenario], electron["center"])
    _grid(cfg)  # builds every model and checks its levels
    return cfg


def _entry_reader(scalar: str | None):
    """The _BLOCKS reader of the scalar `block.key` that a sweep list's entries override; any number without one."""
    if scalar is None:
        return _number()
    block, key = scalar.split(".")
    return _BLOCKS[block][key][0]


def _sweep_lists(raw: dict, spec: _Sweep, center: int) -> dict:
    """The sweep lists of a scenario, and per-axis-entry cutoffs, each entry read as the
    scalar it overrides."""
    table = {axis.key: (_numbers(_entry_reader(axis.scalar)), REQUIRED) for axis in spec.axes}
    if spec.per_point:
        table.update({key: (_numbers(_entry_reader(scalar)), OPTIONAL) for key, (_, scalar) in _PER_POINT.items()})
    out = _block(raw, "sweep", table)
    first = spec.axes[0].key
    for key in _PER_POINT:
        if key in out and len(out[key]) != len(out[first]):
            raise ConfigError(f"sweep.{key}", f"length must match {first}")
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
    """DIAG_HEADER cells; nan after `converged` of a failed point, which has no such figures."""
    d = result.diagnostics
    if d is None:
        return ["false"] + [math.nan] * 5
    return ["true", d.steps, d.trace_error, d.cutoff_occupancy, d.wrap_occupancy, d.halving_delta]


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
    if "energy_kev" in electron:
        # physical energy axis: final energy = E + l * hbar * q0 * v
        beta = energy_to_velocity(electron["energy_kev"])
        quantum_kev = 2.0 * math.pi * beta * HBAR_C_KEV_NM / electron["wavelength_nm"]
        energies = [electron["energy_kev"] + int(lab) * quantum_kev for lab in result.eels.labels]
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
        "electron": {"rungs": 33, "center": 16, "g_q": math.pi / 2, "q0_l": Q0_L, "velocity_ratio": 1.0},
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
        "electron": {"rungs": 33, "center": 16, "g_q": math.pi / math.sqrt(2), "q0_l": Q0_L, "velocity_ratio": 1.0},
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

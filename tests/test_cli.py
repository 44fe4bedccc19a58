import json
import math
from pathlib import Path

import numpy as np
import pytest

from epolsim.cli import (
    ConfigError,
    build_presets,
    main,
    normalize_config,
    run_config,
)


def minimal_evolve(**overrides) -> dict:
    cfg = {
        "schema_version": 1,
        "scenario": "evolve",
        "model": {"kind": "kerr", "kappa_ratio": 0.05, "n_cut": 6},
        "electron": {"rungs": 17, "center": 8, "g_q": 0.8, "q0_l": 50.0, "velocity_ratio": 1.0},
        "loss": {"gamma_ratio": 1e-4},
    }
    cfg.update(overrides)
    return cfg


def read_rows(path: Path) -> list[list[str]]:
    lines = path.read_text().splitlines()
    return [line.split(",") for line in lines[1:]]


def test_normalize_is_idempotent():
    cfg = normalize_config(minimal_evolve())
    assert normalize_config(cfg) == cfg
    assert cfg["pair"] == {"lower": "0", "upper": "1"}
    assert cfg["initial_level"] == "0"
    assert cfg["integrator"]["convergence_check"] is True


def test_unknown_keys_rejected_at_every_level():
    for broken, field in (
        (minimal_evolve(bogus=1), "<root>.bogus"),
        (minimal_evolve(model={"kind": "kerr", "kappa_ratio": 0.05, "n_cut": 6, "oops": 2}), "model.oops"),
        (minimal_evolve(integrator={"stepz": 200}), "integrator.stepz"),
    ):
        with pytest.raises(ConfigError) as err:
            normalize_config(broken)
        assert field in str(err.value)


def test_validation_messages_name_the_field():
    bad = minimal_evolve(model={"kind": "kerr", "kappa_ratio": 0.05, "n_cut": 1})
    with pytest.raises(ConfigError) as err:
        normalize_config(bad)
    assert "model.n_cut" in str(err.value)
    with pytest.raises(ConfigError) as err:
        normalize_config(minimal_evolve(scenario="wiggle"))
    assert "scenario" in str(err.value)
    with pytest.raises(ConfigError) as err:
        normalize_config(minimal_evolve(schema_version=99))
    assert "schema_version" in str(err.value)


def test_velocity_specification_is_exclusive():
    cfg = minimal_evolve()
    cfg["electron"]["tune_to_pair"] = True
    with pytest.raises(ConfigError) as err:
        normalize_config(cfg)
    assert "velocity_ratio" in str(err.value)


def test_empty_sweep_grid_rejected():
    cfg = minimal_evolve(scenario="sweep_gq", sweep={"g_q_values": []})
    cfg["electron"].pop("velocity_ratio")
    cfg["electron"]["tune_to_pair"] = True
    with pytest.raises(ConfigError) as err:
        normalize_config(cfg)
    assert "g_q_values" in str(err.value)


def test_parallel_cutoff_arrays_must_match():
    cfg = minimal_evolve(
        scenario="sweep_kappa",
        sweep={"kappa_values": [0.0, 0.02], "n_cut_values": [8]},
    )
    with pytest.raises(ConfigError) as err:
        normalize_config(cfg)
    assert "n_cut_values" in str(err.value)


def test_composite_config_duplicate_tags_rejected():
    sub = {k: v for k, v in minimal_evolve().items() if k != "schema_version"}
    cfg = {"schema_version": 1, "runs": [{"tag": "a", **sub}, {"tag": "a", **sub}]}
    with pytest.raises(ConfigError) as err:
        normalize_config(cfg)
    assert "tag" in str(err.value)


def test_all_presets_normalize():
    presets = build_presets()
    assert set(presets) >= {"fig3ab", "fig3cd", "fig4a", "fig4b", "fig4c", "fig4d", "fig5a", "fig5b", "fig5c", "smoke"}
    for name, preset in presets.items():
        normalized = normalize_config(preset)
        assert normalized["schema_version"] == 1, name
        # the effective config is the echo a rerun reads: normalizing it again changes nothing
        assert normalize_config(normalized) == normalized, name


def test_evolve_scenario_outputs(tmp_path):
    cfg = normalize_config(minimal_evolve())
    assert run_config(cfg, tmp_path) == 0
    for name in ("eels.csv", "stats.csv", "diagnostics.csv", "effective_config.json"):
        assert (tmp_path / name).exists()
    rows = read_rows(tmp_path / "stats.csv")
    total = sum(float(r[1]) for r in rows)
    assert abs(total - 1.0) < 1e-8


def test_effective_config_round_trip(tmp_path):
    cfg = normalize_config(minimal_evolve())
    run_config(cfg, tmp_path / "first")
    echoed = json.loads((tmp_path / "first" / "effective_config.json").read_text())
    run_config(normalize_config(echoed), tmp_path / "second")
    first = (tmp_path / "first" / "stats.csv").read_bytes()
    second = (tmp_path / "second" / "stats.csv").read_bytes()
    assert first == second


def test_smoke_preset_deterministic_across_reruns(tmp_path):
    preset = normalize_config(build_presets()["smoke"])
    for run in ("a", "b", "c"):
        run_config(preset, tmp_path / run)
    for name in ("sweep_stats.csv", "sweep_eels.csv", "sweep_summary.csv"):
        a, b, c = ((tmp_path / run / name).read_bytes() for run in ("a", "b", "c"))
        assert a == b == c
    rows = read_rows(tmp_path / "a" / "sweep_summary.csv")
    assert all(r[1] == "true" for r in rows)


def test_sweep_rows_sum_to_one_per_point(tmp_path):
    preset = normalize_config(build_presets()["smoke"])
    run_config(preset, tmp_path)
    rows = read_rows(tmp_path / "sweep_stats.csv")
    by_value: dict[str, float] = {}
    for value, _, prob in rows:
        by_value[value] = by_value.get(value, 0.0) + float(prob)
    assert len(by_value) == 3
    for total in by_value.values():
        assert abs(total - 1.0) < 1e-8


def test_electron_block_alternatives():
    # the velocity is given as a ratio or tuned to the pair, never both
    cfg = minimal_evolve()
    norm = normalize_config(cfg)
    assert norm["electron"]["velocity_ratio"] == 1.0 and norm["electron"]["tune_to_pair"] is False
    cfg["electron"] = {"rungs": 17, "center": 8, "g_q": 0.8, "q0_l": 50.0, "tune_to_pair": True}
    norm = normalize_config(cfg)
    assert "velocity_ratio" not in norm["electron"] and norm["electron"]["tune_to_pair"] is True
    assert normalize_config(norm) == norm
    # conflicting specifications are rejected
    cfg["electron"] = {"rungs": 17, "center": 8, "g_q": 0.8, "q0_l": 50.0, "velocity_ratio": 1.0,
                       "tune_to_pair": True}
    with pytest.raises(ConfigError, match="electron.tune_to_pair"):
        normalize_config(cfg)
    # q0_l is the one spelling of the interaction length
    cfg["electron"] = {"rungs": 17, "center": 8, "g_q": 0.8, "velocity_ratio": 1.0}
    with pytest.raises(ConfigError, match="electron.q0_l"):
        normalize_config(cfg)


def test_eels_energy_axis_on_request(tmp_path):
    cfg = minimal_evolve()
    cfg["electron"] = {
        "rungs": 17, "center": 8, "g_q": 0.8, "q0_l": 50.0, "velocity_ratio": 1.0,
        "wavelength_nm": 532.0, "energy_kev": 200.0,
    }
    norm = normalize_config(cfg)
    assert run_config(norm, tmp_path) == 0
    lines = (tmp_path / "eels_energy.csv").read_text().splitlines()
    assert lines[0] == "energy_kev,probability"
    energies = [float(line.split(",")[0]) for line in lines[1:]]
    # one sideband quantum = 2 pi beta hbar c / wavelength ~ 1.62 eV at 200 keV
    spacing = energies[1] - energies[0]
    assert spacing == pytest.approx(1.6204e-3, rel=1e-3)
    assert energies[8] == pytest.approx(200.0, abs=1e-9)


def test_fidelity_map_scenario_outputs(tmp_path):
    cfg = normalize_config(
        {
            "schema_version": 1,
            "scenario": "fidelity_map",
            "model": {"kind": "kerr", "kappa_ratio": 0.05, "n_cut": 6},
            "electron": {"rungs": 17, "center": 8, "g_q": 1.0, "q0_l": 80.0, "tune_to_pair": True},
            "loss": {"gamma_ratio": 1e-4},
            "pair": {"lower": "0", "upper": "1"},
            "sweep": {"kappa_values": [0.02, 0.05], "gamma_values": [1e-4, 1e-3]},
        }
    )
    assert run_config(cfg, tmp_path) == 0
    lines = (tmp_path / "fidelity_map.csv").read_text().splitlines()
    assert lines[0] == "kappa_ratio,gamma_ratio,fidelity,converged"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 4
    assert all(r[3] == "true" for r in rows)
    fidelities = {(float(r[0]), float(r[1])): float(r[2]) for r in rows}
    # stronger blockade and weaker loss can only help
    assert fidelities[(0.05, 1e-4)] >= fidelities[(0.02, 1e-4)]
    assert fidelities[(0.05, 1e-4)] >= fidelities[(0.05, 1e-3)]


def test_cli_main_run_smoke(tmp_path, capsys):
    code = main(["run", "--preset", "smoke", "--out", str(tmp_path / "out")])
    assert code == 0
    assert (tmp_path / "out" / "sweep_stats.csv").exists()


def test_cli_main_rejects_unknown_preset(tmp_path):
    assert main(["run", "--preset", "nope", "--out", str(tmp_path)]) == 2


def test_cli_main_rejects_config_and_preset(tmp_path):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(minimal_evolve()))
    assert main(["run", str(cfg_path), "--preset", "smoke", "--out", str(tmp_path / "o")]) == 2


def test_cli_sweep_command_rejects_evolve(tmp_path):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(minimal_evolve()))
    assert main(["sweep", str(cfg_path), "--out", str(tmp_path / "o")]) == 2


def test_cli_exit_3_on_numerical_failure(tmp_path):
    bad = minimal_evolve()
    bad["model"]["n_cut"] = 2
    bad["electron"]["g_q"] = 2.0  # far too much coupling for a 2-photon space
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(bad))
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "o")]) == 3


def test_cli_gates_default_and_negative_control(tmp_path):
    assert main(["gates", "--out", str(tmp_path / "ok")]) == 0
    report = (tmp_path / "ok" / "gates_report.txt").read_text()
    assert "PASS" in report and "FAIL" not in report
    corrupted = {"schema_version": 1, "scenario": "gates", "gates": {"corrupt_cz_phase": 0.3}}
    cfg_path = tmp_path / "corrupt.json"
    cfg_path.write_text(json.dumps(corrupted))
    assert main(["gates", str(cfg_path), "--out", str(tmp_path / "bad")]) == 1
    assert "FAIL" in (tmp_path / "bad" / "gates_report.txt").read_text()


def test_gates_need_six_rungs(tmp_path, capsys):
    cfg = {"schema_version": 1, "scenario": "gates", "gates": {"rungs": 5}}
    assert main(["gates", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    # an integer field reports the integer the config holds, not its float form
    assert "gates.rungs" in err and "got 5" in err and "5.0" not in err
    cfg["gates"]["rungs"] = 6
    assert main(["gates", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 0


def test_integer_fields_are_read_exactly(tmp_path):
    # a JSON integer above 2^53 has no float of its own; an integral float is still accepted
    seed = 2**53 + 1
    cfg = {"schema_version": 1, "scenario": "gates", "gates": {"rungs": 7.0, "seed": seed}}
    assert main(["gates", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 0
    echoed = json.loads((tmp_path / "o" / "effective_config.json").read_text())["gates"]
    assert echoed["seed"] == seed and type(echoed["rungs"]) is int and echoed["rungs"] == 7
    sweep = normalize_config(minimal_evolve(scenario="sweep_kappa",
                                            sweep={"kappa_values": [0.0, 0.02], "rungs_values": [2**53 + 1, 33]}))
    assert sweep["sweep"]["rungs_values"][0] == 2**53 + 1


def test_integer_beyond_the_largest_float_is_rejected_by_field():
    cfg = {"schema_version": 1, "scenario": "feasibility",
           "feasibility": {"pm_bandwidth": 7e-4, "kappa_ratio": 10**400, "gamma_ratio": 1e-5, "energy_spread": 1e-5}}
    with pytest.raises(ConfigError, match="feasibility.kappa_ratio"):
        normalize_config(cfg)


def test_loss_energy_spread_is_rejected_by_field(tmp_path, capsys):
    # the energy spread enters only the feasibility scenario; a run never read it
    cfg = minimal_evolve(loss={"gamma_ratio": 1e-4, "energy_spread": 0.3})
    assert main(["run", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 2
    assert "loss.energy_spread" in capsys.readouterr().err


def rejected_field(tmp_path, capsys, cfg: dict) -> str:
    """Run `cfg`; it must exit 2 and write nothing.  Returns stderr."""
    out = tmp_path / "o"
    assert main(["run", write_config(tmp_path, cfg), "--out", str(out)]) == 2
    assert not out.exists()
    return capsys.readouterr().err


def electron(**extra) -> dict:
    return {"rungs": 17, "center": 8, "g_q": 0.8, "q0_l": 50.0, "velocity_ratio": 1.0, **extra}


def test_electron_energy_is_rejected_where_nothing_reads_it(tmp_path, capsys):
    # only the evolve scenario's eels_energy.csv reads the energy, and only next to wavelength_nm
    sweep = minimal_evolve(scenario="sweep_kappa", sweep={"kappa_values": [0.02, 0.05]})
    for cfg in (dict(sweep, electron=electron(energy_kev=200.0)),
                dict(sweep, electron=electron(energy_kev=200.0, wavelength_nm=532.0)),
                minimal_evolve(electron=electron(energy_kev=200.0))):
        assert "electron.energy_kev" in rejected_field(tmp_path, capsys, cfg)


def test_electron_beta_is_rejected_where_nothing_reads_it(tmp_path, capsys):
    sweep = minimal_evolve(scenario="sweep_kappa", sweep={"kappa_values": [0.02, 0.05]})
    for cfg in (dict(sweep, electron=electron(beta=0.7)),
                dict(sweep, electron=electron(beta=0.7, wavelength_nm=532.0)),
                minimal_evolve(electron=electron(beta=0.7))):
        assert "electron.beta" in rejected_field(tmp_path, capsys, cfg)


def test_electron_wavelength_is_rejected_where_nothing_reads_it(tmp_path, capsys):
    # it sets only the energy axis, which needs energy_kev too
    sweep = minimal_evolve(scenario="sweep_kappa", sweep={"kappa_values": [0.02, 0.05]})
    for cfg in (minimal_evolve(electron=electron(wavelength_nm=532.0)),
                dict(sweep, electron=electron(wavelength_nm=532.0))):
        assert "electron.wavelength_nm" in rejected_field(tmp_path, capsys, cfg)
    cfg = normalize_config(minimal_evolve(electron=electron(wavelength_nm=532.0, energy_kev=200.0)))
    assert normalize_config(cfg) == cfg
    assert run_config(cfg, tmp_path / "energy_kev") == 0
    assert (tmp_path / "energy_kev" / "eels_energy.csv").exists()


@pytest.mark.parametrize("field, spelled, replaces", [
    ("electron.delta", {"delta": 0.02}, "velocity_ratio"),  # velocity_ratio = 1 + delta
    # q0_l = 2 pi length_um 1e3 / wavelength_nm
    ("electron.length_um", {"length_um": 40.0, "wavelength_nm": 532.0}, "q0_l"),
    # energy_kev = 511 (1 / sqrt(1 - beta^2) - 1)
    ("electron.beta", {"beta": 0.6953, "wavelength_nm": 532.0}, None),
    ("feasibility.omega_t", {"omega_t": 10.0}, "pm_bandwidth"),  # pm_bandwidth = 1 / omega_t
], ids=["electron.delta", "electron.length_um", "electron.beta", "feasibility.omega_t"])
def test_removed_spelling_is_rejected_by_field(tmp_path, capsys, field, spelled, replaces):
    # each quantity has one spelling; the other exits 2 as an unknown key, even where it is the only one
    block = field.split(".")[0]
    cfg = minimal_evolve() if block == "electron" else {
        "schema_version": 1, "scenario": "feasibility", "feasibility": {"pm_bandwidth": 7e-4, "kappa_ratio": 0.02}}
    cfg[block] = {**{k: v for k, v in cfg[block].items() if k != replaces}, **spelled}
    assert field in rejected_field(tmp_path, capsys, cfg)


def test_cli_check_feasibility(tmp_path, capsys):
    good = {
        "schema_version": 1,
        "scenario": "feasibility",
        "feasibility": {"pm_bandwidth": 7e-4, "kappa_ratio": 0.02, "gamma_ratio": 1e-5, "energy_spread": 1e-5},
    }
    cfg_path = tmp_path / "f.json"
    cfg_path.write_text(json.dumps(good))
    assert main(["check", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
    out = capsys.readouterr().out
    assert "overall: pass" in out
    bad = dict(good)
    bad["feasibility"] = dict(good["feasibility"], kappa_ratio=1e-8)
    cfg_path.write_text(json.dumps(bad))
    assert main(["check", str(cfg_path), "--out", str(tmp_path / "o2")]) == 0
    assert "overall: FAIL" in capsys.readouterr().out


def test_feasibility_bandwidth_given_twice_is_rejected_by_field(tmp_path, capsys):
    # only pm_bandwidth sets the bandwidth; omega_t is an unknown key
    cfg = {"schema_version": 1, "scenario": "feasibility",
           "feasibility": {"pm_bandwidth": 7e-4, "omega_t": 10, "kappa_ratio": 0.02}}
    assert main(["check", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 2
    assert "feasibility.omega_t" in capsys.readouterr().err


def test_check_command_requires_feasibility_config(tmp_path):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(minimal_evolve()))
    assert main(["check", str(cfg_path), "--out", str(tmp_path / "o")]) == 2


def test_missing_config_file(tmp_path):
    assert main(["run", str(tmp_path / "missing.json"), "--out", str(tmp_path / "o")]) == 2


def test_invalid_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    assert main(["run", str(p), "--out", str(tmp_path / "o")]) == 2


def test_composite_config_runs_to_tagged_subdirs(tmp_path):
    sub = {k: v for k, v in minimal_evolve().items() if k != "schema_version"}
    cfg = normalize_config({"schema_version": 1, "runs": [{"tag": "one", **sub}, {"tag": "two", **sub}]})
    assert run_config(cfg, tmp_path) == 0
    assert (tmp_path / "one" / "stats.csv").exists()
    assert (tmp_path / "two" / "stats.csv").exists()
    assert (tmp_path / "one" / "stats.csv").read_bytes() == (tmp_path / "two" / "stats.csv").read_bytes()


def write_config(tmp_path: Path, cfg: dict) -> str:
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_composite_runs_cannot_nest(tmp_path, capsys):
    cfg = {"schema_version": 1, "runs": [{"tag": "a", "runs": [{"tag": "b", "scenario": "gates"}]}]}
    assert main(["run", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 2
    assert "runs[0].runs" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_diagnostics_cells_without_a_figure_are_nan(tmp_path):
    # a failed point has no diagnostics at all, and an unchecked point no halving delta;
    # neither may read as zero work or as two computations that agreed exactly
    cfg = minimal_evolve(scenario="sweep_kappa", integrator={"convergence_check": False},
                         sweep={"kappa_values": [0.05, 0.05], "n_cut_values": [3, 6]})
    assert run_config(normalize_config(cfg), tmp_path) == 0
    failed, unchecked = read_rows(tmp_path / "sweep_summary.csv")
    assert failed[1:] == ["false"] + ["nan"] * 5
    assert (tmp_path / "point_000" / "FAILED.txt").exists()
    assert unchecked[1] == "true" and unchecked[-1] == "nan"
    assert int(unchecked[2]) > 0 and all(math.isfinite(float(x)) for x in unchecked[3:6])


def test_point_files_write_each_probability_to_17_digits(tmp_path):
    from epolsim.cli import PointResult, _write_point_files
    from epolsim.observables import Distribution

    third = Distribution(("x", "y"), np.array([1 / 3, 2 / 3]))
    _write_point_files(tmp_path, PointResult(eels=third, stats=Distribution(("0",), np.array([1.0]))))
    assert (tmp_path / "eels.csv").read_text() == "sideband,probability\nx,0.33333333333333331\ny,0.66666666666666663\n"
    assert (tmp_path / "stats.csv").read_text() == "level,probability\n0,1\n"


def test_explicit_false_tune_to_pair_needs_a_velocity(tmp_path, capsys):
    cfg = minimal_evolve()
    cfg["electron"].pop("velocity_ratio")
    cfg["electron"]["tune_to_pair"] = False
    assert main(["run", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 2
    assert "electron.tune_to_pair" in capsys.readouterr().err
    cfg["electron"]["tune_to_pair"] = "yes"
    with pytest.raises(ConfigError, match="electron.tune_to_pair"):
        normalize_config(cfg)
    # false next to an explicit velocity is what the echo writes, and stays valid
    cfg["electron"].update(tune_to_pair=False, velocity_ratio=1.0)
    assert normalize_config(cfg)["electron"]["tune_to_pair"] is False


@pytest.mark.parametrize("scenario, sweep, key", [
    ("fidelity_map", {"kappa_values": [0.05], "gamma_values": [-1e-4]}, "gamma_values"),
    ("sweep_velocity", {"velocity_ratios": [1.0, 2.5]}, "velocity_ratios"),
    ("sweep_kappa", {"kappa_values": [0.0, -0.02]}, "kappa_values"),
])
def test_sweep_entries_take_their_scalars_bounds(tmp_path, capsys, scenario, sweep, key):
    cfg = minimal_evolve(scenario=scenario, sweep=sweep)
    assert main(["run", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 2
    assert f"sweep.{key}" in capsys.readouterr().err


def test_convergence_check_must_be_a_boolean(tmp_path, capsys):
    cfg = minimal_evolve(integrator={"convergence_check": "false"})
    assert main(["run", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 2
    assert "integrator.convergence_check" in capsys.readouterr().err
    cfg = minimal_evolve(integrator={"convergence_check": False})
    assert normalize_config(cfg)["integrator"]["convergence_check"] is False


@pytest.mark.parametrize("tag", ["", ".", "..", "../escaped", "a/b", "effective_config.json", 7])
def test_composite_tag_must_be_a_plain_directory_name(tmp_path, capsys, tag):
    sub = {k: v for k, v in minimal_evolve().items() if k != "schema_version"}
    cfg = {"schema_version": 1, "runs": [{"tag": tag, **sub}]}
    out = tmp_path / "run" / "out"
    assert main(["run", write_config(tmp_path, cfg), "--out", str(out)]) == 2
    assert "runs[0].tag" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("key, values, message", [
    ("n_cut_values", [8, 8.7], "integers"),
    ("n_cut_values", [8, 1], ">= 2"),
    ("rungs_values", [33, 33.5], "integers"),
    ("rungs_values", [33, 2], ">= 3"),
])
def test_sweep_cutoff_entries_are_checked_integers(tmp_path, capsys, key, values, message):
    cfg = minimal_evolve(scenario="sweep_kappa", sweep={"kappa_values": [0.0, 0.02], key: values})
    assert main(["run", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"sweep.{key}" in err and message in err


def test_boolean_inside_g_q_list_rejected():
    for g_q in (True, [True, 0], [0.5, False]):
        cfg = minimal_evolve()
        cfg["electron"]["g_q"] = g_q
        with pytest.raises(ConfigError, match="electron.g_q"):
            normalize_config(cfg)


@pytest.mark.parametrize("key, value", [("steps", 400), ("phase_per_step", 0.06), ("drive_per_step", 0.01)])
def test_retired_step_keys_accepted_only_at_defaults(tmp_path, capsys, key, value):
    defaults = {"steps": None, "phase_per_step": 0.12, "drive_per_step": 0.04}
    assert normalize_config(minimal_evolve(integrator=defaults))["integrator"]["steps"] is None
    cfg = minimal_evolve(integrator={key: value})
    assert main(["run", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 2
    assert f"integrator.{key}" in capsys.readouterr().err


def test_levels_checked_against_every_grid_model():
    cfg = minimal_evolve(pair={"lower": "0", "upper": "9"})
    with pytest.raises(ConfigError, match="pair.upper"):
        normalize_config(cfg)
    cfg = minimal_evolve(initial_level="1+")
    with pytest.raises(ConfigError, match="initial_level"):
        normalize_config(cfg)
    # level 7 exists at n_cut 8 but not at the second row's n_cut 6
    cfg = minimal_evolve(scenario="sweep_kappa", pair={"lower": "6", "upper": "7"},
                         sweep={"kappa_values": [0.0, 0.02], "n_cut_values": [8, 6]})
    with pytest.raises(ConfigError, match="pair.upper"):
        normalize_config(cfg)
    cfg = minimal_evolve(scenario="fidelity_map", pair={"lower": "0", "upper": "2"},
                         sweep={"kappa_values": [0.02], "gamma_values": [1e-4]})
    with pytest.raises(ConfigError, match="'pair'"):
        normalize_config(cfg)
    # a velocity sweep neither tunes to nor scores the pair, so an unconnected one is
    # accepted there; a kappa sweep tunes to it and rejects it
    cfg = minimal_evolve(scenario="sweep_velocity", pair={"lower": "0", "upper": "2"},
                         sweep={"velocity_ratios": [0.99, 1.01]})
    cfg["electron"].pop("velocity_ratio")
    cfg["electron"]["tune_to_pair"] = True
    assert normalize_config(cfg)["pair"] == {"lower": "0", "upper": "2"}
    cfg.update(scenario="sweep_kappa", sweep={"kappa_values": [0.05]})
    with pytest.raises(ConfigError, match="'pair'"):
        normalize_config(cfg)


@pytest.mark.parametrize("field, overrides", [
    ("pair.lower", {"pair": {"lower": 0, "upper": "1"}}),
    ("pair.upper", {"pair": {"lower": "0", "upper": 1}}),
    ("initial_level", {"initial_level": 0}),
    ("initial_level", {"initial_level": ["0"]}),
])
def test_level_labels_must_be_strings(tmp_path, capsys, field, overrides):
    # a number or list is rejected, not rewritten to its string form
    cfg = minimal_evolve(**overrides)
    assert main(["run", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"'{field}'" in err and "level label string" in err


def test_programming_error_in_a_point_propagates(tmp_path, monkeypatch):
    import epolsim.cli as cli

    def broken(*args, **kwargs):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr(cli, "evolve_lindblad", broken)
    cfg = normalize_config(minimal_evolve(scenario="sweep_gq", sweep={"g_q_values": [0.5, 1.0]}))
    with pytest.raises(ValueError, match="broadcast"):
        run_config(cfg, tmp_path)
    assert not list(tmp_path.rglob("FAILED.txt"))


def test_sweep_rungs_at_or_below_center_rejected(tmp_path, capsys):
    # a ladder entry that leaves the electron off its ladder is rejected, not re-centred
    cfg = minimal_evolve(scenario="sweep_kappa", sweep={"kappa_values": [0.0, 0.02], "rungs_values": [33, 15]})
    cfg["electron"].update(rungs=33, center=16)
    assert main(["run", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "sweep.rungs_values" in err and "electron.center" in err
    cfg["sweep"]["rungs_values"] = [33, 17]
    assert normalize_config(cfg)["sweep"]["rungs_values"] == [33, 17]


def test_grid_follows_the_effective_config():
    # every preset run's grid: one point per combination of its sweep lists, each
    # carrying its row's cutoffs and the interaction time of its own delta
    from epolsim.cli import _SWEEPS, _grid

    for name, preset in build_presets().items():
        normalized = normalize_config(preset)
        for cfg in normalized.get("runs", [normalized]):
            if cfg["scenario"] not in _SWEEPS:
                continue
            sweep, axes = cfg["sweep"], _SWEEPS[cfg["scenario"]].axes
            points = _grid(cfg)
            assert len(points) == math.prod(len(sweep[axis.key]) for axis in axes), name
            rows = len(sweep[axes[0].key])
            for point in points:
                row = point.index // (len(points) // rows)
                system = point.system
                n_cuts = sweep.get("n_cut_values", [cfg["model"]["n_cut"]] * rows)
                kappas = sweep.get("kappa_values", [cfg["model"]["kappa_ratio"]] * rows)
                rungs = sweep.get("rungs_values", [cfg["electron"]["rungs"]] * rows)
                assert system.model.n_cut == n_cuts[row], name
                assert system.model.kappa == kappas[row], name
                assert system.ladder.rungs == rungs[row], name
                assert system.interaction_time == cfg["electron"]["q0_l"] / (1.0 + system.delta), name


@pytest.mark.parametrize("kind, pair", [("kerr", ("0", "1")), ("jc", ("0*", "1+"))])
@pytest.mark.parametrize("gamma", [0.0, 1e-3])
def test_point_spectra_match_dense_state(kind, pair, gamma):
    # the EELS and statistics a point writes come from the propagator's populations;
    # they must equal the partial traces of the dense state
    from epolsim import eels_spectrum, evolve_lindblad, initial_state, polariton_eigenbasis, polariton_statistics
    from epolsim.cli import _evaluate_point, _grid

    raw = minimal_evolve(model={"kind": kind, "kappa_ratio": 0.05, "n_cut": 10},
                         pair={"lower": pair[0], "upper": pair[1]}, loss={"gamma_ratio": gamma})
    raw["electron"].update(rungs=33, center=16)
    [point] = _grid(normalize_config(raw))
    out = _evaluate_point(point)
    assert out.converged, out.reason
    system = point.system
    state = evolve_lindblad(initial_state(system, cavity_level=pair[0]), system, point.integrator).state
    eels = eels_spectrum(state, center=system.ladder.center)
    stats = polariton_statistics(state, polariton_eigenbasis(system.model))
    assert out.eels.labels == eels.labels and out.stats.labels == stats.labels
    assert np.max(np.abs(out.eels.probabilities - eels.probabilities)) < 1e-12
    assert np.max(np.abs(out.stats.probabilities - stats.probabilities)) < 1e-12


def test_lossless_fidelity_point_allocates_no_joint_matrix():
    # the Fig. 5a JC row at kappa 0.005: one joint-space matrix at n_cut 20 and
    # 49 rungs (2058 dimensions) is 68 MB; a point is scored from 42 x 42 blocks
    import tracemalloc

    from epolsim.cli import _evaluate_point, _grid

    raw = minimal_evolve(scenario="fidelity_map", model={"kind": "jc", "kappa_ratio": 0.005, "n_cut": 20},
                         electron={"rungs": 49, "center": 24, "g_q": math.pi / math.sqrt(2), "q0_l": 472.43,
                                   "tune_to_pair": True},
                         pair={"lower": "0*", "upper": "1-"}, sweep={"kappa_values": [0.005], "gamma_values": [0.0]})
    [point] = _grid(normalize_config(raw))
    assert point.scored and point.system.gamma == 0.0
    _evaluate_point(point)  # first call: lazy imports and caches
    tracemalloc.start()
    try:
        out = _evaluate_point(point)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.converged and 0.0 < out.fidelity < 1.0
    assert peak < 16e6, f"one point allocated {peak / 1e6:.1f} MB at its peak"


@pytest.mark.parametrize("kind, pair", [("kerr", ("0", "1")), ("jc", ("0*", "1-"))])
def test_scored_grid_points_build_no_level_basis(monkeypatch, kind, pair):
    # a model is built with its eigenbasis; running and scoring a point only reads it
    from epolsim import cavity
    from epolsim.cli import _evaluate_point, _grid

    raw = minimal_evolve(scenario="fidelity_map", model={"kind": kind, "kappa_ratio": 0.05, "n_cut": 8},
                         electron={"rungs": 25, "center": 12, "g_q": 0.8, "q0_l": 50.0, "tune_to_pair": True},
                         pair={"lower": pair[0], "upper": pair[1]},
                         sweep={"kappa_values": [0.03, 0.05], "gamma_values": [0.0, 1e-3]})
    points = _grid(normalize_config(raw))
    built = []
    real = cavity.PolaritonBasis
    monkeypatch.setattr(cavity, "PolaritonBasis", lambda **fields: built.append(fields) or real(**fields))
    results = [_evaluate_point(point) for point in points]
    assert len(points) == 4 and all(point.scored for point in points)
    assert all(result.converged for result in results)
    assert built == []
    (cavity.build_kerr if kind == "kerr" else cavity.build_jc)(0.05, 8)
    assert len(built) == 1

"""The benchmark's trace mode (`bench/run.py --trace 1`) and its gate checks still run on the library.

`bench/tracing.py` calls the library's public names one by one to time each
layer.  These tests load it and `bench/workloads.py` as they are, run one
lossless, one lossy and one gates config of the workloads through it, and
compare what it computed with what the CLI computes for the same points.
`bench/checks.py` recomposes the controlled-Z from the public gate builders;
the seed-1 `gate_suite` configs run through `run_config` must pass it.
"""
from pathlib import Path

import numpy as np
import pytest

from epolsim.cli import _evaluate_point, _grid, normalize_config, run_config

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing
    import workloads

    return tracing, workloads


@pytest.mark.parametrize("workload, index", [("lossless_map", 1), ("lossy_map", 0)])
def test_traced_grid_points_match_the_cli(bench, workload, index):
    tracing, workloads = bench
    cfg = normalize_config(workloads.WORKLOADS[workload](1)[index])
    tracer = tracing.Tracer()
    for p, point in zip(workloads.points(cfg), _grid(cfg), strict=True):
        calls = tracing.run_operation(tracer, p.index, lambda: tracing.GridPointCalls(cfg, p))
        assert {"op", *(name for name, _ in tracing.STAGES)} <= set(tracer.durations(p.index))
        want = _evaluate_point(point)
        assert want.converged, want.reason
        assert np.max(np.abs(calls.eels.probabilities - want.eels.probabilities)) < 1e-12
        assert np.max(np.abs(calls.stats.probabilities - want.stats.probabilities)) < 1e-12
        if p.want_fidelity:
            assert abs(calls.value - want.fidelity) < 1e-12


def test_traced_gate_suite_passes(bench):
    tracing, workloads = bench
    cfg = normalize_config(workloads.gate_suite(1)[0])
    calls = tracing.run_operation(tracing.Tracer(), 0, lambda: tracing.GateSuiteCalls(cfg))
    assert calls.checks and all(check.passed for check in calls.checks)
    assert calls.cz_report.calibration == calls.report.calibration


def test_gate_suite_configs_pass_the_benchmark_checks(bench, tmp_path, capsys):
    import checks

    workloads = bench[1]
    for i, raw in enumerate(workloads.gate_suite(1)):
        cfg = normalize_config(raw)
        out_dir = tmp_path / f"config_{i}"
        assert run_config(cfg, out_dir) == 0
        assert checks.check_gate_config(cfg, out_dir) == []
    # the benchmark's negative control: a skewed controlled-Z calibration must exit 1
    cfg = normalize_config({"schema_version": 1, "scenario": "gates", "gates": {"rungs": 7, "corrupt_cz_phase": 0.3}})
    capsys.readouterr()
    code = run_config(cfg, tmp_path / "negative_control")
    assert checks.check_negative_control(code, capsys.readouterr().err) == []

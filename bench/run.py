"""Benchmark of epolsim: one seeded workload run through `epolsim.cli.run_config`.

    python3 bench/run.py --workload lossy_map --seed 1 --seconds 30 --trace 0

Run from the repository root.  The workload's configs go through
`run_config` in this process at the program's default worker count (1),
exactly as `epolsim run` runs them, in whole rounds for about `--seconds`.
Every output of the first round is then checked against references computed
apart from the program (see checks.py), and every later round must write
byte-identical files.  ops_per_s divides the operations completed by the CPU
seconds (this process and its reaped children) of the timed rounds; README.md
says why CPU and not wall seconds.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}, with the
end-to-end metrics under --trace 0 and the per-layer metrics under --trace 1.
"""
import os

# One BLAS thread: the matrices are small, and the figures in README.md were taken so.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import checks
from workloads import WORKLOADS, points

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"


def process_age() -> float:
    """Seconds since this process started, from the kernel's start time (1/CLK_TCK resolution)."""
    with open("/proc/self/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return time.clock_gettime(time.CLOCK_BOOTTIME) - int(fields[19]) / os.sysconf("SC_CLK_TCK")


def cpu_seconds() -> float:
    """User plus system time of this process and of its reaped children."""
    me, kids = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def repeat_rounds(seconds: float, one_round) -> list:
    """Run whole rounds while the next is expected to end within `seconds`; at least one."""
    results = []
    start = time.perf_counter()
    while True:
        results.append(one_round(len(results)))
        elapsed = time.perf_counter() - start
        if elapsed * (len(results) + 1) / len(results) > seconds:
            return results


def same_tree(a: Path, b: Path) -> bool:
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    return files_a == files_b and all((a / f).read_bytes() == (b / f).read_bytes() for f in files_a)


class Workload:
    """A workload's normalized configs and the output directories of its rounds."""

    def __init__(self, cli, configs: list[dict], run_dir: Path):
        self.cli = cli
        self.configs = configs
        self.run_dir = run_dir
        self.codes: list[int] = []
        self.problems: list[str] = []

    def round_dir(self, r: int) -> Path:
        return self.run_dir / f"round_{r}"

    def run_round(self, r: int) -> tuple[list[float], float]:
        """run_config on every config; returns the wall seconds each took and the
        round's CPU seconds.  Later rounds are compared with the first and removed."""
        times, codes = [], []
        cpu = cpu_seconds()
        for i, cfg in enumerate(self.configs):
            t0 = time.perf_counter()
            codes.append(self.cli.run_config(cfg, self.round_dir(r) / f"config_{i}"))
            times.append(time.perf_counter() - t0)
        cpu = cpu_seconds() - cpu
        sys.stderr.write(f"round {r}: {sum(times):.3f} s wall, {cpu:.3f} s CPU\n")
        if r == 0:
            self.codes = codes
        else:
            if codes != self.codes or not same_tree(self.round_dir(0), self.round_dir(r)):
                self.problems.append(f"round {r} wrote different output from round 0")
            shutil.rmtree(self.round_dir(r))
        return times, cpu

    def check(self) -> tuple[int, int]:
        """Check the first round's output; returns (operations, failed operations) per round."""
        ops = failed = 0
        for i, (cfg, code) in enumerate(zip(self.configs, self.codes)):
            out_dir = self.round_dir(0) / f"config_{i}"
            if cfg["scenario"] == "gates":
                ops += 1
                if code != 0:
                    failed += 1
                else:
                    self.problems += checks.check_gate_config(cfg, out_dir)
                continue
            n, bad, problems = checks.check_grid_config(cfg, out_dir)
            ops, failed = ops + n, failed + bad
            self.problems += [f"config {i}: {p}" for p in problems]
        if any(cfg["scenario"] == "gates" for cfg in self.configs):
            self.negative_control()
        return ops, failed

    def negative_control(self) -> None:
        cfg = self.cli.normalize_config(
            {"schema_version": 1, "scenario": "gates", "gates": {"rungs": 7, "corrupt_cz_phase": 0.3}})
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = self.cli.run_config(cfg, self.run_dir / "negative_control")
        self.problems += checks.check_negative_control(code, err.getvalue())


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def untraced(work: Workload, seconds: float, setup_s: float) -> tuple[dict, int, int]:
    round_cpu = [cpu for _, cpu in repeat_rounds(seconds, work.run_round)]
    ops, failed = work.check()
    rounds = len(round_cpu)
    done = (ops - failed) * rounds
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "ops_per_s": metric(done / sum(round_cpu), "ops/s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return metrics, ops * rounds, failed * rounds


def traced(work: Workload, raws: list[dict], seconds: float, span_file: Path) -> tuple[dict, int, int]:
    """Alternate an untraced round (run_config) with a traced round of the same layer calls."""
    import tracing

    tracer = tracing.Tracer()
    samples: list[dict] = []  # one per traced operation
    totals = {"untraced": 0.0, "traced": 0.0}

    def one_round(r: int) -> None:
        config_times, _ = work.run_round(r)
        totals["untraced"] += sum(config_times)
        for i, raw in enumerate(raws):
            first = len(samples)
            with tracer.span(first, "cli.normalize", parent=None):
                cfg = work.cli.normalize_config(raw)
            if cfg["scenario"] == "gates":
                makers = [lambda: tracing.GateSuiteCalls(cfg)]
            else:
                makers = [lambda p=p: tracing.GridPointCalls(cfg, p) for p in points(cfg)]
            for make in makers:
                calls = tracing.run_operation(tracer, len(samples), make)
                samples.append({"calls": calls, "spans": tracer.durations(len(samples))})
            ops = samples[first:]
            normalize_s = ops[0]["spans"]["cli.normalize"]
            layer_s = normalize_s + sum(s["spans"]["op"] for s in ops)
            totals["traced"] += layer_s
            for s in ops:
                s["normalize_s"] = normalize_s / len(ops)
                s["overhead_s"] = (config_times[i] - layer_s) / len(ops)
            if r == 0:
                work.problems += mirror_problems(work, i, [s["calls"] for s in ops])

    rounds = len(repeat_rounds(seconds, one_round))
    ops, failed = work.check()
    tracer.write(span_file)

    def med(key, stage: str | None = None) -> float:
        """Median over the operations that call into `stage`; over all when none does."""
        calling = [s for s in samples if stage in s["calls"].active]
        return statistics.median(key(s) for s in calling or samples)

    def span_med(stage: str) -> float:
        return med(lambda s: s["spans"][stage], stage)

    evolve = "dynamics.evolve"
    metrics = {
        "dynamics.evolve_s": metric(span_med(evolve), "s"),
        "dynamics.rk4_steps": metric(med(lambda s: s["calls"].rk4_steps, evolve), "count"),
        "dynamics.rk4_steps_per_s": metric(med(lambda s: s["calls"].rk4_steps / s["spans"][evolve], evolve), "1/s"),
        "dynamics.state_bytes": metric(med(lambda s: s["calls"].state_bytes, evolve), "B"),
        "dynamics.target_s": metric(span_med("dynamics.target"), "s"),
        "observables.spectra_s": metric(span_med("observables.spectra"), "s"),
        "observables.fidelity_s": metric(span_med("observables.fidelity"), "s"),
        "cli.normalize_s": metric(med(lambda s: s["normalize_s"]), "s"),
        "cli.overhead_s": metric(med(lambda s: s["overhead_s"]), "s"),
        "gates.suite_s": metric(span_med("gates.suite"), "s"),
        "gates.cz_s": metric(span_med("gates.cz"), "s"),
        "trace.overhead": metric(totals["traced"] / totals["untraced"], "ratio"),
    }
    return metrics, 2 * ops * rounds, 2 * failed * rounds


def mirror_problems(work: Workload, i: int, calls: list) -> list[str]:
    """The traced calls must reproduce what run_config wrote for the same config."""
    cfg = work.configs[i]
    out_dir = work.round_dir(0) / f"config_{i}"
    if cfg["scenario"] == "gates":
        (c,) = calls
        ok = all(check.passed for check in c.checks) == (work.codes[i] == 0)
        written = checks.reported_calibration((out_dir / "gates_report.txt").read_text())
        if not ok or written != c.report.calibration:
            return [f"config {i}: traced gate suite disagrees with run_config"]
        return []
    problems = []
    fid = checks.read_rows(out_dir / "fidelity_map.csv") if cfg["scenario"] == "fidelity_map" else None
    for c in calls:
        if fid is not None:
            got, want = [c.value], [float(fid[c.p.index]["fidelity"])]
        else:
            point_dir = out_dir / f"point_{c.p.index:03d}"
            got = list(c.eels.probabilities) + list(c.stats.probabilities)
            want = list(checks.read_distribution(point_dir / "eels.csv").values())
            want += list(checks.read_distribution(point_dir / "stats.csv").values())
        if len(got) != len(want) or max(abs(x - y) for x, y in zip(got, want)) > 1e-12:
            problems.append(f"config {i}: traced point {c.p.index} disagrees with run_config")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import epolsim
        from epolsim import cli
    except ImportError as exc:
        sys.stderr.write(f"cannot import epolsim from {src}: {exc}\n")
        return 2
    if not Path(epolsim.__file__).resolve().is_relative_to(src):
        sys.stderr.write(f"imported epolsim from {epolsim.__file__}, not from {src}\n")
        return 2
    raws = WORKLOADS[args.workload](args.seed)
    configs = [cli.normalize_config(raw) for raw in raws]
    setup_s = process_age()

    run_dir = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    work = Workload(cli, configs, run_dir)
    if args.trace:
        span_file = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        metrics, attempted, failed = traced(work, raws, args.seconds, span_file)
    else:
        metrics, attempted, failed = untraced(work, args.seconds, setup_s)
    for problem in work.problems:
        sys.stderr.write(f"check failed: {problem}\n")
    if not work.problems:
        shutil.rmtree(run_dir)
    print(json.dumps({"correct": not work.problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

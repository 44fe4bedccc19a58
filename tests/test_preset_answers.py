"""The presets' answers, pinned: every preset is run in process and compared with a record.

The record, preset_answers.json, holds what each preset writes outside the
per-point copies: every probability and fidelity, `converged` and `steps` of
every diagnostics row, the exit code, and the PASS/FAIL lines of the gate
report with their deviations.  Error estimates (`trace_error`,
`halving_delta` and the occupancies) are left out.  Probabilities, fidelities
and deviations are stored in units of QUANTUM and compared at TOLERANCE
absolute; `steps`, `converged`, the exit codes and the gate lines compare
exactly.

A change that moves an answer on purpose regenerates the record with

    PYTHONPATH=src python tests/test_preset_answers.py

which first prints every entry that leaves the old record, and states which
values moved, by how much, and why.
"""
import copy
import csv
import json
import math
import re
import sys
from pathlib import Path

import pytest

from epolsim.cli import build_presets, normalize_config, run_config

RECORD_PATH = Path(__file__).with_name("preset_answers.json")
QUANTUM = 1e-13  # the record's unit for probabilities, fidelities and deviations
# largest accepted move of a recorded value: round-off moved the preset outputs by at most 4.4e-15
# over the last refactors of the propagator
TOLERANCE = 1e-12
VALUE_COLUMNS = ("probability", "fidelity")
EXACT_COLUMNS = ("converged", "steps")
GATE_LINE = re.compile(r"^(PASS|FAIL)  (.*): deviation (\S+)")


def _cell(column: str, text: str):
    if column == "converged":
        return text
    value = float(text)
    if math.isnan(value):
        return None
    return int(value) if column == "steps" else value


def answers(tree: Path) -> dict:
    """{"file:column": values} of every file a preset wrote under `tree`, the per-point copies
    and effective_config.json aside."""
    found = {}
    for path in sorted(tree.rglob("*")):
        rel = path.relative_to(tree).as_posix()
        if path.is_dir() or path.name == "effective_config.json" or "/point_" in f"/{rel}":
            continue
        if path.suffix == ".csv":
            with open(path, newline="") as fh:
                rows = list(csv.DictReader(fh))
            for column in (*VALUE_COLUMNS, *EXACT_COLUMNS):
                if rows and column in rows[0]:
                    found[f"{rel}:{column}"] = [_cell(column, row[column]) for row in rows]
        elif path.name == "gates_report.txt":
            lines = [m for m in map(GATE_LINE.match, path.read_text().splitlines()) if m]
            found[f"{rel}:line"] = [f"{m[1]}  {m[2]}" for m in lines]
            found[f"{rel}:deviation"] = [float(m[3]) for m in lines]
        else:
            raise AssertionError(f"no answers are read from {rel}")
    return found


def run_presets(out: Path) -> dict:
    """{"preset/file:column": values} of every preset, and {"preset:exit": [exit code]}."""
    found = {}
    for name, raw in build_presets().items():
        found[f"{name}:exit"] = [run_config(normalize_config(raw), out / name)]
        found.update({f"{name}/{key}": values for key, values in answers(out / name).items()})
    return found


def _exact(key: str) -> bool:
    return key.rsplit(":", 1)[1] not in (*VALUE_COLUMNS, "deviation")


def quantized(computed: dict) -> dict:
    """The record of computed answers: values in units of QUANTUM, the rest as they are."""
    return {key: values if _exact(key) else [None if v is None else round(v / QUANTUM) for v in values]
            for key, values in computed.items()}


def differences(computed: dict, record: dict) -> list[str]:
    """Where the computed answers leave the record: a value off by more than TOLERANCE, any other
    entry that differs, or an entry on one side only."""
    out = []
    for key in sorted(computed.keys() | record.keys()):
        got, want = computed.get(key, []), record.get(key, [])
        if len(got) != len(want):
            out.append(f"{key}: {len(got)} values, recorded {len(want)}")
            continue
        for i, (x, y) in enumerate(zip(got, want)):
            if _exact(key) or x is None or y is None:
                same = x == y
            else:
                same = abs(x - y * QUANTUM) <= TOLERANCE
            if not same:
                out.append(f"{key}[{i}]: {x!r}, recorded {y!r}")
    return out


@pytest.fixture(scope="module")
def computed(tmp_path_factory):
    return run_presets(tmp_path_factory.mktemp("presets"))


def test_presets_keep_their_recorded_answers(computed):
    record = json.loads(RECORD_PATH.read_text())
    assert differences(computed, record) == []


def test_record_catches_a_moved_probability_and_a_changed_step_count(computed):
    # the comparison, shown failing: one probability moved by 1e-10, and one steps entry by one;
    # a move of half the tolerance passes
    record = quantized(computed)
    assert differences(computed, record) == []
    eels, steps = "fig3ab/sweep_eels.csv:probability", "fig5b/fidelity_diagnostics.csv:steps"
    for key, step, caught in ((eels, 1e-10, True), (eels, TOLERANCE / 2, False), (steps, 1, True)):
        moved = copy.deepcopy(computed)
        moved[key][len(moved[key]) // 2] += step
        assert len(differences(moved, record)) == caught, (key, step)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as out:
        computed = run_presets(Path(out))
    for line in differences(computed, json.loads(RECORD_PATH.read_text()) if RECORD_PATH.exists() else {}):
        sys.stdout.write(f"moved: {line}\n")
    record = quantized(computed)
    lines = (f"{json.dumps(key)}: {json.dumps(values)}" for key, values in sorted(record.items()))
    RECORD_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    sys.stdout.write(f"wrote {RECORD_PATH}\n")

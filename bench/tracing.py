"""Traced pass: the layer calls `epolsim run` makes for each operation, under spans.

Spans are recorded here, in the benchmark, around calls into the public
functions of each layer; nothing inside epolsim is instrumented.  Every
operation passes through the same fixed list of stages, and a stage that has
no work for the operation (propagation in a gate suite, say) still opens its
span, which then reads the span's own cost of about a microsecond.
`tensor`, `cavity` and `electron` have no spans of their own: their time
falls inside the spans of the layers that call them.
"""
from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from epolsim import (
    IntegratorConfig,
    LadderConfig,
    SystemConfig,
    blockade_angle,
    build_jc,
    build_kerr,
    eels_spectrum,
    evolve_lindblad,
    frame_align,
    gate_identity_suite,
    initial_state,
    pair_detuning,
    pair_states,
    polariton_eigenbasis,
    polariton_statistics,
    scattering_blockade,
    state_fidelity,
    two_polariton_cz,
)

from workloads import Point

BYTES_PER_AMPLITUDE = 16  # complex128

# (span name, method) in call order; run_config makes the same calls in this order
STAGES = (
    ("dynamics.evolve", "evolve"),
    ("observables.spectra", "spectra"),
    ("dynamics.target", "target"),
    ("observables.fidelity", "fidelity"),
    ("gates.suite", "suite"),
)


class Tracer:
    """In-memory spans: (operation id, name, parent name, start, end)."""

    def __init__(self):
        self.spans: list[tuple[int, str, str | None, float, float]] = []

    @contextmanager
    def span(self, op: int, name: str, parent: str | None = "op"):
        start = perf_counter()
        try:
            yield
        finally:
            self.spans.append((op, name, parent, start, perf_counter()))

    def durations(self, op: int) -> dict[str, float]:
        out: dict[str, float] = {}
        for span_op, name, _, start, end in self.spans:
            if span_op == op:
                out[name] = out.get(name, 0.0) + (end - start)
        return out

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for op, name, parent, start, end in self.spans:
                fh.write(json.dumps({"op": op, "name": name, "parent": parent, "start": start, "end": end}) + "\n")


class LayerCalls:
    """One operation's layer calls, one method per stage; a stage with no work does nothing.

    `active` names the spans in which this operation calls into a layer.
    """

    active: frozenset = frozenset()
    rk4_steps = 0
    state_bytes = 0

    def evolve(self):
        pass

    def spectra(self):
        pass

    def target(self):
        pass

    def fidelity(self):
        pass

    def suite(self):
        pass

    def cz(self):
        pass


class GridPointCalls(LayerCalls):
    """The calls `epolsim run` makes for one grid point of a map or sweep."""

    def __init__(self, cfg: dict, p: Point):
        integ = cfg["integrator"]
        self.icfg = IntegratorConfig(steps=integ["steps"], phase_per_step=integ["phase_per_step"],
                                     drive_per_step=integ["drive_per_step"],
                                     convergence_check=integ["convergence_check"],
                                     trace_bound=integ["trace_bound"], cutoff_bound=integ["cutoff_bound"],
                                     wrap_bound=integ["wrap_bound"])
        self.p = p
        self.model = (build_kerr if p.kind == "kerr" else build_jc)(p.kappa, p.n_cut)
        delta = pair_detuning(self.model, p.lower, p.upper)
        self.system = SystemConfig(model=self.model, ladder=LadderConfig(rungs=p.rungs, center=p.center),
                                   g_q=p.g_q, interaction_time=p.q0_l / (1.0 + delta), delta=delta,
                                   gamma=p.gamma)
        self.psi0 = initial_state(self.system, cavity_level=p.initial)
        self.value: float | None = None
        self.active = frozenset({"dynamics.evolve", "observables.spectra"}
                                | ({"dynamics.target", "observables.fidelity"} if p.want_fidelity else set()))

    def evolve(self):
        self.result = evolve_lindblad(self.psi0, self.system, self.icfg)
        diag = self.result.diagnostics
        # diag.steps is the halved run; the base run before it took half as many
        self.rk4_steps = diag.steps + diag.steps // 2 if diag.halving_delta is not None else diag.steps
        per_sector = self.model.dim if self.result.pure_state is not None else self.model.dim ** 2
        self.state_bytes = self.p.rungs * per_sector * BYTES_PER_AMPLITUDE

    def spectra(self):
        basis = polariton_eigenbasis(self.model)
        self.eels = eels_spectrum(self.result.state, center=self.p.center)
        self.stats = polariton_statistics(self.result.state, basis)

    def target(self):
        if self.p.want_fidelity:
            lo, up, _ = pair_states(self.model, self.p.lower, self.p.upper)
            omega = blockade_angle(self.model, self.p.lower, self.p.upper, self.system.g_q)
            self.ideal = (scattering_blockade(omega, lo, up, self.system.space) @ self.psi0).normalize()
            self.aligned = frame_align(self.result.state, self.system)

    def fidelity(self):
        if self.p.want_fidelity:
            self.value = state_fidelity(self.aligned, self.ideal)


class GateSuiteCalls(LayerCalls):
    """The suite `epolsim run` runs for a gates config, plus a separate controlled-Z composition."""

    active = frozenset({"gates.suite", "gates.cz"})

    def __init__(self, cfg: dict):
        self.gates = cfg["gates"]

    def suite(self):
        g = self.gates
        self.checks, self.report = gate_identity_suite(rungs=g["rungs"], seed=g["seed"],
                                                       corrupt_cz_phase=g["corrupt_cz_phase"])

    def cz(self):
        self.cz_report = two_polariton_cz(rungs=self.gates["rungs"])


def run_operation(tracer: Tracer, op: int, make) -> LayerCalls:
    """Trace one operation: set-up and every stage inside the op span; the extra
    controlled-Z composition after it, so the op span holds only run_config's work."""
    with tracer.span(op, "op", parent=None):
        calls = make()
        for name, method in STAGES:
            with tracer.span(op, name):
                getattr(calls, method)()
    with tracer.span(op, "gates.cz"):
        calls.cz()
    return calls

"""Free-electron / nonlinear-cavity simulator: blockade dynamics, spectra, and gates."""

from .tensor import (
    TensorSpace,
    Operator,
    StateVector,
    DensityMatrix,
    embed,
    embed_group,
    partial_trace,
)
from .cavity import (
    CavityModel,
    PolaritonBasis,
    build_kerr,
    build_jc,
    polariton_eigenbasis,
    pair_states,
    pair_detuning,
    blockade_angle,
)
from .electron import (
    LadderConfig,
    build_ladder,
    comb_state,
    energy_to_velocity,
    ELECTRON_REST_KEV,
)
from .dynamics import (
    SystemConfig,
    IntegratorConfig,
    EvolveResult,
    Diagnostics,
    NumericsError,
    TraceDriftError,
    CutoffError,
    WrapAroundError,
    ConvergenceError,
    FeasibilityReport,
    evolve_lindblad,
    scattering_linear,
    scattering_blockade,
    frame_align,
    blockade_fidelity,
    initial_state,
    check_feasibility,
)
from .observables import (
    Distribution,
    ProbabilityError,
    eels_spectrum,
    sideband_distribution,
    polariton_statistics,
    state_fidelity,
)
from .gates import (
    CircuitReport,
    RotationReport,
    IdentityCheck,
    gate_space,
    gate_pass,
    cep_rz,
    r_transverse,
    electron_hadamard,
    spectrometer,
    cpe_path,
    two_polariton_cz,
    equivalence_up_to_phase,
    gate_identity_suite,
)

__version__ = "0.1.0"

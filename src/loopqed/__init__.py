"""loopqed: geometric phases of an atom in a two-mode cavity.

Simulates an effective three-level atom coupled to two polarization modes
of a cavity, driven around slow closed loops on the polarization sphere,
and the Ramsey interferometry that reads the resulting geometric phases
out.  Highlights: the vacuum produces a quarter-solid-angle phase shift,
coherent fields cross over to the semiclassical half-solid-angle shift,
and dressed photon doublets transport equal and opposite phases.

Subpackage map:
    hilbert        truncated two-mode + three-level state space
    model          effective Hamiltonian and coupling weights
    poincare_path  polarization loops as straight legs, solid angles
    dynamics       time-dependent Schrodinger propagation: exact
                   covariant loop legs, midpoint and Magnus steppers
    phases         dressed-branch transport phases, ideal phase map
    ramsey         interferometry protocol, fringe fits, closed forms
    cli            command-line front end ("loopqed" executable)
"""

__version__ = "0.1.0"

import os as _os
import sys as _sys

# No BLAS or LAPACK call in loopqed is large enough for OpenBLAS to split
# it, yet the thread pool OpenBLAS starts when numpy loads spins for about
# 60 ms of CPU, and on a slow host that spin runs into the first command.
# So numpy is loaded here with one BLAS thread, and no pool starts.  A
# thread count set in the environment is kept, a numpy already loaded keeps
# its pool, and the variable is removed again so child processes do not
# inherit it.
_BLAS_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
if "numpy" not in _sys.modules and not any(k in _os.environ for k in _BLAS_THREAD_ENV):
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del _os.environ["OPENBLAS_NUM_THREADS"]

from .hilbert import (
    SpaceConfig,
    StateVector,
    TruncationError,
    make_space,
    fock_state,
)
from .model import (
    ModelParams,
    HamiltonianFactory,
    default_params,
    coupling_weights,
)
from .poincare_path import (
    PathSpec,
    ClosureError,
    lasso_path,
    piecewise_path,
    reversed_path,
    concatenated_path,
    rescaled_path,
    solid_angle,
)
from .dynamics import (
    Trajectory,
    LoopRun,
    IntegrationError,
    StepCountError,
    evolve,
    evolve_loop,
    brute_force_evolve,
)
from .phases import (
    PhaseReading,
    NonCyclicWarning,
    DegeneracyError,
    wrap_phase,
    analytic_dressed_phase,
    adiabatic_eigenstate_transport,
    dressed_phase_pair,
    ideal_phase_map,
)
from .ramsey import (
    CavityInput,
    RamseyConfig,
    RamseyResult,
    FringeFit,
    prepare,
    close_and_detect,
    fit_fringe,
    run_experiment,
    p2_vacuum_formula,
    p2_coherent_formula,
    formula_fringe_shift,
    effective_shift_vs_alpha,
    adiabaticity_study,
)

__all__ = [
    "__version__",
    "SpaceConfig",
    "StateVector",
    "TruncationError",
    "make_space",
    "fock_state",
    "ModelParams",
    "HamiltonianFactory",
    "default_params",
    "coupling_weights",
    "PathSpec",
    "ClosureError",
    "lasso_path",
    "piecewise_path",
    "reversed_path",
    "concatenated_path",
    "rescaled_path",
    "solid_angle",
    "Trajectory",
    "LoopRun",
    "IntegrationError",
    "StepCountError",
    "evolve",
    "evolve_loop",
    "brute_force_evolve",
    "PhaseReading",
    "NonCyclicWarning",
    "DegeneracyError",
    "wrap_phase",
    "analytic_dressed_phase",
    "adiabatic_eigenstate_transport",
    "dressed_phase_pair",
    "ideal_phase_map",
    "CavityInput",
    "RamseyConfig",
    "RamseyResult",
    "FringeFit",
    "prepare",
    "close_and_detect",
    "fit_fringe",
    "run_experiment",
    "p2_vacuum_formula",
    "p2_coherent_formula",
    "formula_fringe_shift",
    "effective_shift_vs_alpha",
    "adiabaticity_study",
]

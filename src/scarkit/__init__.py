"""Numerical laboratory for scarred eigenstates of anisotropic oscillators.

The workflow runs in five stages, one module each:

- ``freqarith``: exact arithmetic over the frequency vector; splits the
  flow into periodic components and computes their semigroup conductors.
- ``spectral``: joint eigenvalue ladders, nearest-level targeting, window
  enumeration with exact degeneracy grouping.
- ``phasespace``: classical side; invariant tori, orbit averages, energy
  vector membership, Husimi grids.
- ``fockstate``: quantum side; sparse Fock expansions, torus projection,
  normalization constants, quantization of polynomial and character
  symbols, exact time evolution.
- ``scarlab``: experiments; scar construction, convex combinations,
  concentration and invariance residuals, convergence sweeps.

The ``cli`` module exposes the same workflow as the ``scarkit`` command.
"""

from .errors import (
    BelowConductorError,
    DomainError,
    EmptyProjectionError,
    NotInSigmaError,
    NumericalError,
    OverlappingToriError,
    ResourceLimitError,
    ScarkitError,
    SpecParseError,
    ValidationError,
)
from .fockstate import (
    FockState,
    GramResult,
    ScarState,
    average_project,
    coherent,
    dump_state,
    evolve,
    expectation,
    gram,
    inner,
    load_state,
    norm,
    normalize_scar,
)
from .freqarith import (
    FrequencySpec,
    GeneratorBasis,
    HarmonicDecomposition,
    PeriodicComponent,
    conductor,
    decompose,
    format_frequency_spec,
    load_frequency_spec,
    parse_frequency_spec,
    period_of,
    semigroup_witness,
    sqrt_decimal,
)
from .phasespace import (
    EnergyVector,
    PhasePoint,
    component_energies,
    flow_rates,
    husimi,
    husimi_grid,
    multi_flow,
    orbit_average,
    sigma_membership,
)
from .scarlab import (
    ConvergenceReport,
    SweepConfig,
    build_scar,
    convex_scar,
    default_probes,
    fit_loglog,
    residuals,
    sweep,
)
from .spectral import (
    EigenLevel,
    TargetEigenvalue,
    component_eigenvalue,
    component_ratio,
    decompose_eigenvalue,
    eigenvalue,
    enumerate_window,
    hbar_ceiling,
    level_table,
    select_target,
)
from .symbols import (
    Symbol,
    character,
    mode_energy,
    momentum,
    monomial,
    parse_symbol,
    position,
)

__version__ = "0.1.0"

__all__ = [
    "BelowConductorError",
    "ConvergenceReport",
    "DomainError",
    "EigenLevel",
    "EmptyProjectionError",
    "EnergyVector",
    "FockState",
    "FrequencySpec",
    "GeneratorBasis",
    "GramResult",
    "HarmonicDecomposition",
    "NotInSigmaError",
    "NumericalError",
    "OverlappingToriError",
    "PeriodicComponent",
    "PhasePoint",
    "ResourceLimitError",
    "ScarState",
    "ScarkitError",
    "SpecParseError",
    "SweepConfig",
    "Symbol",
    "TargetEigenvalue",
    "ValidationError",
    "average_project",
    "build_scar",
    "character",
    "coherent",
    "component_eigenvalue",
    "component_energies",
    "component_ratio",
    "conductor",
    "convex_scar",
    "decompose",
    "decompose_eigenvalue",
    "default_probes",
    "dump_state",
    "eigenvalue",
    "enumerate_window",
    "evolve",
    "expectation",
    "fit_loglog",
    "flow_rates",
    "format_frequency_spec",
    "gram",
    "hbar_ceiling",
    "husimi",
    "husimi_grid",
    "inner",
    "level_table",
    "load_frequency_spec",
    "load_state",
    "mode_energy",
    "momentum",
    "monomial",
    "multi_flow",
    "norm",
    "normalize_scar",
    "orbit_average",
    "parse_frequency_spec",
    "parse_symbol",
    "period_of",
    "position",
    "residuals",
    "select_target",
    "semigroup_witness",
    "sigma_membership",
    "sqrt_decimal",
    "sweep",
]

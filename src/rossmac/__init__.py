"""Viability kernels, viable fumigation policies and parameter fitting for
the controlled Ross-Macdonald dengue model."""

from rossmac.estimation import (
    FitResult,
    IncidenceSeries,
    PrevalenceDataset,
    fit,
    incidence_to_prevalence,
    objective,
)
from rossmac.kernel import (
    ConstraintBox,
    KernelDescription,
    Regime,
    boundary_curve,
    build_kernel,
    classify_regime,
    distance_to_frontier,
    kernel_membership,
    m_bar,
    regime_diagram,
)
from rossmac.model import (
    EpiParams,
    ModelRates,
    State,
    check_dominance,
    derive_rates,
    endemic_equilibrium,
    is_viable_equilibrium,
    vector_field,
)
from rossmac.trajectory import (
    ConstantControl,
    PiecewiseConstantControl,
    SaturatingFeedback,
    Trajectory,
    audit_viability,
    simulate,
)

__all__ = [
    "EpiParams", "ModelRates", "State", "derive_rates", "vector_field",
    "endemic_equilibrium", "is_viable_equilibrium", "check_dominance",
    "Regime", "KernelDescription", "ConstraintBox", "classify_regime",
    "m_bar", "boundary_curve", "build_kernel", "kernel_membership",
    "distance_to_frontier", "regime_diagram",
    "ConstantControl", "PiecewiseConstantControl", "SaturatingFeedback",
    "Trajectory", "simulate", "audit_viability",
    "IncidenceSeries", "PrevalenceDataset", "FitResult",
    "incidence_to_prevalence", "objective", "fit",
]

__version__ = "0.1.0"

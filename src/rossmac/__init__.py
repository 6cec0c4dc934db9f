"""Viability kernels, viable fumigation policies and parameter fitting for
the controlled Ross-Macdonald dengue model.

Names are imported from their submodule on first access (PEP 562), so a
caller loads only the submodules it uses.  The package needs numpy
alone."""

import importlib

_EXPORTS = {
    "model": "EpiParams ModelRates State derive_rates vector_field "
             "endemic_equilibrium check_dominance",
    "kernel": "Regime KernelDescription classify_regime m_bar boundary_curve "
              "build_kernel kernel_membership distance_to_frontier regime_diagram",
    "trajectory": "ConstantControl PiecewiseConstantControl SaturatingFeedback "
                  "Trajectory simulate audit_viability",
    "estimation": "IncidenceSeries PrevalenceDataset FitResult "
                  "incidence_to_prevalence objective fit",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later lookups find it without this call
    return value


def __dir__():
    return sorted([*globals(), *__all__, *_EXPORTS])

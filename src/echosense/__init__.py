"""Spin-echo AC magnetometry: sequences, RF phase accumulation, Bloch
ensemble simulation, and the sensitivity analysis chain.

`import echosense` runs no submodule.  Each public name, and each
submodule by its name, loads on first use, so loading a config loads
`core` and `harness` alone, and numpy loads with the first simulation.
"""

import importlib

__version__ = "0.1.0"

#: each public name, by the submodule that defines it; `__getattr__`
#: imports that submodule on the name's first lookup
_LAZY = {name: module for module, names in {
    "core": ("HBAR", "MU0_OVER_4PI", "MU_B", "CoilCalibration", "ConfigError",
             "EnsembleConfig", "NumericalError", "PulseMode", "ResetMode",
             "SampleSpec", "SequenceKind", "SpinSystem", "gyromagnetic_ratio"),
    "sequence": ("FilterFunction", "Pulse", "PulseSequence", "build_cp",
                 "build_hahn", "build_pdd", "filter_function"),
    "rf": ("RFWaveform", "build_split_interval", "build_synchronized",
           "exclude_intervals", "pulse_gated", "synchronized_frequency",
           "zero_field"),
    "analytic": ("PhaseAccumulation", "accumulate_phase",
                 "accumulate_phase_quadrature", "phase_vs_rf_phase",
                 "split_interval_decomposition"),
    "echo": ("wrap_phase",),
    "sensitivity": ("FitMethod", "SensitivityReport", "TransductionFit",
                    "concentration_sensitivity", "dipole_field",
                    "fit_transduction", "minimum_detectable_field",
                    "spectral_sensitivity"),
    "blochsim": ("SimulationTrace", "echo_observable", "evolve"),
    "experiments": ("dd_sensitivity_sweep",),
}.items() for name in names}
_SUBMODULES = {*_LAZY.values(), "harness", "cli"}
__all__ = list(_LAZY)


def __getattr__(name):
    # `from . import blochsim` here would look the name up on the package
    # again, and so call back into this function
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _LAZY:
        return getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"),
                       name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

"""Spin-echo AC magnetometry: sequences, RF phase accumulation, Bloch
ensemble simulation, and the sensitivity analysis chain."""

import importlib

from .core import (HBAR, MU0_OVER_4PI, MU_B, CoilCalibration, ConfigError,
                   EnsembleConfig, NumericalError, PulseMode, SampleSpec,
                   SpinSystem, gyromagnetic_ratio)
from .sequence import (FilterFunction, Pulse, PulseSequence, SequenceKind,
                       build_cp, build_hahn, build_pdd, filter_function)
from .rf import (ResetMode, RFWaveform, build_split_interval,
                 build_synchronized, exclude_intervals, pulse_gated,
                 synchronized_frequency, zero_field)
from .analytic import (PhaseAccumulation, accumulate_phase,
                       accumulate_phase_quadrature, phase_vs_rf_phase,
                       split_interval_decomposition)
from .echo import wrap_phase
from .sensitivity import (FitMethod, SensitivityReport, TransductionFit,
                          concentration_sensitivity, dipole_field,
                          fit_transduction, minimum_detectable_field,
                          spectral_sensitivity)

__version__ = "0.1.0"


#: names that `__getattr__` takes from a module on first use, so that
#: `import echosense` loads neither `blochsim`, which needs numpy, nor
#: `harness`, whose config hashing alone pulls in OpenSSL
_LAZY = {"SimulationTrace": "blochsim", "echo_observable": "blochsim",
         "evolve": "blochsim", "dd_sensitivity_sweep": "harness"}


def __getattr__(name):
    # the submodule itself: `from . import blochsim` here would look the
    # name up on the package again, and so call back into this function
    if name == "blochsim":
        return importlib.import_module(f"{__name__}.blochsim")
    if name in _LAZY:
        return getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"),
                       name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

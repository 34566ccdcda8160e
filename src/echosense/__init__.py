"""Spin-echo AC magnetometry: sequences, RF phase accumulation, Bloch
ensemble simulation, and the sensitivity analysis chain."""

from .core import (HBAR, MU0_OVER_4PI, MU_B, CoilCalibration, ConfigError,
                   NumericalError, SampleSpec, SpinSystem, gyromagnetic_ratio)
from .sequence import (FilterFunction, Pulse, PulseSequence, SequenceKind,
                       build_cp, build_hahn, build_pdd, filter_function)
from .rf import (ResetMode, RFWaveform, build_split_interval,
                 build_synchronized, exclude_intervals, pulse_gated,
                 synchronized_frequency, zero_field)
from .analytic import (PhaseAccumulation, accumulate_phase,
                       accumulate_phase_quadrature, phase_vs_rf_phase,
                       split_interval_decomposition)
from .blochsim import (EnsembleConfig, PulseMode, SimulationTrace,
                       echo_observable, evolve)
from .echo import EchoResult, wrap_phase
from .sensitivity import (FitMethod, SensitivityReport, TransductionFit,
                          concentration_sensitivity, dipole_field,
                          fit_transduction, minimum_detectable_field,
                          spectral_sensitivity)

__version__ = "0.1.0"


def __getattr__(name):
    # the DD sensitivity sweep lives in harness, which `import echosense`
    # does not load (its config hashing alone pulls in OpenSSL)
    if name == "dd_sensitivity_sweep":
        from .harness import dd_sensitivity_sweep
        return dd_sensitivity_sweep
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

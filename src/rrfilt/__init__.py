"""Reduced-rank adaptive filtering with convex combinations, plus a DS-CDMA
downlink interference-suppression simulator.

Modules
-------
signalcore
    Hankel regressors and decimation-pattern tables.
filters
    Full-tap LMS and the reduced-rank interpolation/decimation/filtering
    (JIDF) LMS filter with per-step branch selection.
combiners
    Sigmoid convex combiners and the mixing tree that joins constituent
    filters: schemes A and B and the combined full-tap LMS baseline.
cdma
    Downlink signal model: signatures, fading channel, received windows,
    clairvoyant MMSE receiver (a scheme bound to one run), QPSK slicer.
harness
    Seeded Monte-Carlo BER experiments, SNR sweeps, complexity reports,
    CSV output, and the ``rrfilt`` command line (also ``python -m rrfilt``).

Every scheme, one filter, a tree of them or the MMSE receiver, can ``step(r, d)``
(returning a ``StepResult``), ``predict(r)`` without adapting, and give its
``equivalent()`` window-length filter, with ``equivalent()^H r == predict(r)``.
``d`` may be a decision function such as ``detect_qpsk``, applied to the
pre-update output (decision-directed adaptation).
"""

from .cdma import (
    CdmaConfig,
    ClarkeChannel,
    MmseReceiver,
    build_convolution_matrix,
    detect_qpsk,
    generate_received,
    generate_signatures,
    qpsk_symbols,
)
from .combiners import (
    Clms,
    Combiner,
    SchemeA,
    SchemeB,
    sigmoid,
)
from .filters import FullRankLms, JidfFilter, StepResult
from .harness import (
    BranchParams,
    ConfigError,
    ExperimentConfig,
    ExperimentRecord,
    complexity_report,
    load_config,
    run_experiment,
    snr_sweep,
    write_csv,
    write_sweep_csv,
)
from .signalcore import build_hankel, generate_decimation_patterns

__version__ = "0.1.0"

__all__ = [
    "BranchParams",
    "CdmaConfig",
    "ClarkeChannel",
    "Clms",
    "Combiner",
    "ConfigError",
    "ExperimentConfig",
    "ExperimentRecord",
    "FullRankLms",
    "JidfFilter",
    "MmseReceiver",
    "SchemeA",
    "SchemeB",
    "StepResult",
    "build_convolution_matrix",
    "build_hankel",
    "complexity_report",
    "detect_qpsk",
    "generate_decimation_patterns",
    "generate_received",
    "generate_signatures",
    "load_config",
    "qpsk_symbols",
    "run_experiment",
    "sigmoid",
    "snr_sweep",
    "write_csv",
    "write_sweep_csv",
]

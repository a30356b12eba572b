"""Bit-accurate, cycle-accounting models of the prover response y = r + n_v * s."""

from .common import (
    ConfigurationError,
    DatapathResult,
    TraceStep,
    Widths,
    format_trace,
    hybrid_latency_cycles,
    parallel_latency_cycles,
    serial_latency_cycles,
)
from .kcm_hybrid import kcm_hybrid_respond
from .kcm_parallel import (
    KcmConfig,
    KcmTable,
    build_kcm_tables,
    kcm_parallel_respond,
    kcm_product,
)
from .registry import ARCHITECTURES, Architecture, architecture, stream_throughput
from .serial import SerialConfig, serial_respond

__all__ = [
    "ARCHITECTURES",
    "Architecture",
    "ConfigurationError",
    "DatapathResult",
    "KcmConfig",
    "KcmTable",
    "SerialConfig",
    "TraceStep",
    "Widths",
    "architecture",
    "build_kcm_tables",
    "format_trace",
    "hybrid_latency_cycles",
    "kcm_hybrid_respond",
    "kcm_parallel_respond",
    "kcm_product",
    "parallel_latency_cycles",
    "serial_latency_cycles",
    "serial_respond",
    "stream_throughput",
]

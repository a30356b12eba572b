"""Shared datapath plumbing: operand widths, trace records, latency formulas.

All three multiplier models compute the same response y = r + n_v * s; they
differ only in how many clock cycles the computation is modeled to take and
in the steps recorded in the trace. Every model reports two numbers:

* ``step_count`` -- cycle-bearing steps actually simulated (= trace length),
* ``cycles``     -- the calibrated hardware latency, i.e. step count plus
  the control overhead that reconciles the model with measured designs
  (see the latency functions below).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

# Fixed control overhead of the serial design (setup, challenge sequencing,
# result unload). Calibration constant: reconciles the analytical word-cycle
# count with the measured 339/603/1131 cycles at w=16, c_bits=32.
SERIAL_OVERHEAD_CYCLES = 68

# Pipelined parallel multiplier: latency grows with one stage per 32 secret
# bits on top of a 4-stage fixed front/back end. Calibrated fit (8/12/20
# cycles for 128/256/512-bit secrets); throughput stays 1 result per cycle.
PARALLEL_BASE_STAGES = 4
PARALLEL_BITS_PER_STAGE = 32

# Hybrid accumulate-and-shift loop: 3 cycles per 16 secret bits plus a fixed
# 24-cycle overhead. Calibrated fit (48/72/120 cycles for 128/256/512-bit
# secrets at lut_bits=4, c_bits=32).
HYBRID_CYCLES_PER_16_BITS = 3
HYBRID_OVERHEAD_CYCLES = 24


class ConfigurationError(ValueError):
    """Bad datapath configuration or out-of-range operand."""


@dataclass(frozen=True)
class Widths:
    """Operand sizes: secret s_bits, challenge c_bits, commitment d_bits."""

    s_bits: int
    c_bits: int
    d_bits: int


@dataclass(frozen=True)
class TraceStep:
    """One simulated step: kind, operand position, operand chunk, accumulator after."""

    kind: str
    index: int
    operand: int
    acc: int


@dataclass
class DatapathResult:
    """Response value plus exact cycle accounting from one multiplier model.

    ``value`` is identical across architectures and configurations; only
    ``cycles``/``step_count``/``trace`` depend on them.
    """

    value: int
    cycles: int  # calibrated hardware latency
    step_count: int  # simulated cycle-bearing steps, == len(trace)
    trace: list[TraceStep] = field(default_factory=list)


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def serial_latency_cycles(s_bits: int, c_bits: int, d_bits: int, word_bits: int) -> int:
    """c_bits add-or-skip passes over the secret words, the final r addition,
    plus the fixed control overhead."""
    return (
        c_bits * ceil_div(s_bits, word_bits)
        + ceil_div(d_bits, word_bits)
        + SERIAL_OVERHEAD_CYCLES
    )


def parallel_latency_cycles(s_bits: int) -> int:
    return ceil_div(s_bits, PARALLEL_BITS_PER_STAGE) + PARALLEL_BASE_STAGES


def hybrid_latency_cycles(s_bits: int) -> int:
    return HYBRID_CYCLES_PER_16_BITS * ceil_div(s_bits, 16) + HYBRID_OVERHEAD_CYCLES


def check_operands(widths: Widths, s: int, n_v: int, r: int) -> None:
    if not 0 <= s < (1 << widths.s_bits):
        raise ConfigurationError(f"secret does not fit in {widths.s_bits} bits")
    if not 0 <= n_v < (1 << widths.c_bits):
        raise ConfigurationError(f"challenge does not fit in {widths.c_bits} bits")
    if not 0 <= r < (1 << widths.d_bits):
        raise ConfigurationError(f"commitment does not fit in {widths.d_bits} bits")


def split_digits(x: int, radix: int, count: int) -> list[int]:
    """Decompose x into `count` base-`radix` digits, most significant first.

    Zero-padding happens at the high end; x must fit in `count` digits.
    """
    if radix < 2:
        raise ValueError("radix must be >= 2")
    digits = []
    for _ in range(count):
        digits.append(x % radix)
        x //= radix
    if x:
        raise ValueError("value does not fit in the requested digit count")
    digits.reverse()
    return digits


def output_bytes(widths: Widths) -> Fraction:
    """Size of the response y on the wire: d_bits bits."""
    return Fraction(widths.d_bits, 8)


def format_trace(trace: list[TraceStep]) -> str:
    """Dump format for golden tests: `<cycle>:<step-kind>:<operand-hex>:<acc-hex>`."""
    lines = [
        f"{i}:{step.kind}:{step.operand:x}:{step.acc:x}"
        for i, step in enumerate(trace)
    ]
    return "\n".join(lines) + ("\n" if lines else "")

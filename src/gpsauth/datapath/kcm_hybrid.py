"""Hybrid serialized KCM model: one shared table, one accumulate loop.

The parallel bank collapses to a single table because every row holds the
same multiples of the secret. The challenge arrives in lut_bits-wide blocks,
most significant digit first; each cycle the accumulator shifts left by
lut_bits and the looked-up partial product is added. The same parallel adder
is then reused once to add the commitment r.
"""

from __future__ import annotations

from .common import (
    ConfigurationError,
    DatapathResult,
    TraceStep,
    Widths,
    ceil_div,
    check_operands,
    hybrid_latency_cycles,
    split_digits,
)
from .kcm_parallel import KcmConfig, KcmTable


def hybrid_cost(c_bits: int, s_bits: int, lut_bits: int) -> tuple[int, int, int]:
    """Serialized KCM: a single 2**l-entry table and one s+l-bit adder."""
    memory = (1 << lut_bits) * (s_bits + lut_bits)
    return memory, 1, s_bits + lut_bits


def kcm_hybrid_respond(
    cfg: KcmConfig,
    table: KcmTable,
    n_v: int,
    r: int,
    widths: Widths,
) -> DatapathResult:
    """Compute y = r + n_v * s by accumulate-and-shift over challenge digits."""
    if table.lut_bits != cfg.lut_bits:
        raise ConfigurationError("table lut_bits does not match configuration")
    s = table.constant
    check_operands(widths, s, n_v, r)
    ndigits = ceil_div(widths.c_bits, cfg.lut_bits)
    digits = split_digits(n_v, 1 << cfg.lut_bits, ndigits)

    trace: list[TraceStep] = []
    acc = 0
    for pos, digit in enumerate(digits):
        acc = (acc << cfg.lut_bits) + table[digit]
        trace.append(TraceStep(kind="lacc", index=pos, operand=digit, acc=acc))

    acc += r
    trace.append(TraceStep(kind="radd", index=0, operand=r, acc=acc))

    return DatapathResult(
        value=acc,
        cycles=hybrid_latency_cycles(widths.s_bits),
        step_count=len(trace),
        trace=trace,
    )

"""Serial shift-and-add model: one w-bit adder reused for everything.

The challenge is consumed one bit at a time, most significant bit first.
For each challenge bit the accumulator shifts left one bit (free register
wiring) and a multiplexer feeds the adder either the secret or zero; the
addition is performed in w-bit word chunks, one chunk per cycle, so a zero
challenge bit costs exactly as many cycles as a one (the datapath has no
skip path, which also keeps timing independent of the challenge). The same
adder then adds the commitment r in w-bit chunks.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..params import commitment_bits
from .common import (
    SERIAL_OVERHEAD_CYCLES,
    ConfigurationError,
    DatapathResult,
    TraceStep,
    Widths,
    ceil_div,
    check_operands,
)

_ALLOWED_WORD_BITS = (8, 16, 32)


@dataclass(frozen=True)
class SerialConfig:
    """Adder/bus width of the serial datapath."""

    word_bits: int = 16

    def __post_init__(self):
        if self.word_bits not in _ALLOWED_WORD_BITS:
            raise ConfigurationError(
                f"word_bits must be one of {_ALLOWED_WORD_BITS}, got {self.word_bits}"
            )


def _add_words(acc: int, addend: int, words: int, w: int, trace: list[TraceStep], kind: str) -> int:
    """Add `addend` into the low `words * w` bits of acc, one word per cycle.

    The carry out of the top word folds into the accumulator high bits at no
    cycle cost (absorbed by the register shift in hardware); it is included
    in the final word's snapshot so traces stay self-contained.
    """
    mask = (1 << w) - 1
    carry = 0
    for j in range(words):
        shift = j * w
        chunk = (addend >> shift) & mask
        total = ((acc >> shift) & mask) + chunk + carry
        carry = total >> w
        acc = (acc & ~(mask << shift)) | ((total & mask) << shift)
        if j == words - 1 and carry:
            acc += carry << ((j + 1) * w)
        trace.append(TraceStep(kind=kind, index=j, operand=chunk, acc=acc))
    return acc


def serial_respond(cfg: SerialConfig, s: int, n_v: int, r: int, widths: Widths) -> DatapathResult:
    """Compute y = r + n_v * s with w-bit word-serial cycle accounting."""
    check_operands(widths, s, n_v, r)
    w = cfg.word_bits
    s_words = ceil_div(widths.s_bits, w)
    d_words = ceil_div(widths.d_bits, w)

    trace: list[TraceStep] = []
    acc = 0
    for i in range(widths.c_bits - 1, -1, -1):
        bit = (n_v >> i) & 1
        acc <<= 1
        acc = _add_words(acc, s if bit else 0, s_words, w, trace, "madd")
    acc = _add_words(acc, r, d_words, w, trace, "radd")

    steps = len(trace)
    return DatapathResult(
        value=acc,
        cycles=steps + SERIAL_OVERHEAD_CYCLES,
        step_count=steps,
        trace=trace,
    )


def serial_cost(c_bits: int, s_bits: int, word_bits: int = 16) -> tuple[int, int, int]:
    """Serial shift-and-add: no LUT/ROM, but operand/result registers for the
    challenge, secret, commitment and response (the response register is one
    bit wider than the commitment). One w-bit adder."""
    d_bits = commitment_bits(s_bits, c_bits)
    memory = c_bits + s_bits + d_bits + (d_bits + 1)
    return memory, 1, word_bits

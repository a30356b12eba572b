"""Parallel constant-coefficient multiplier (KCM) model.

With the secret fixed, multiplying by it becomes multiplication by a
constant: the challenge splits into lut_bits-wide digits, each digit indexes
a lookup table holding digit * s, and the partial products (left-positioned
by wiring, no gate cost) are summed by an adder tree. The design pipelines
to one result per clock; latency is the pipeline depth.

All tables hold the same 2**lut_bits multiples of s, so a bank is modeled
as one shared table referenced once per digit position.

The digit decomposition is radix-generic (``kcm_product``): the hardware
uses radix 2**lut_bits, but the same decomposition in base 10 is the
classic worked example (953 * 482 via partials 3812/7624/1906).
"""

from __future__ import annotations

from dataclasses import dataclass

from .common import (
    ConfigurationError,
    DatapathResult,
    TraceStep,
    Widths,
    ceil_div,
    check_operands,
    parallel_latency_cycles,
    split_digits,
)


@dataclass(frozen=True)
class KcmConfig:
    """Lookup-table input width."""

    lut_bits: int = 4

    def __post_init__(self):
        if not 2 <= self.lut_bits <= 8:
            raise ConfigurationError(f"lut_bits must be in [2, 8], got {self.lut_bits}")


@dataclass(frozen=True)
class KcmTable:
    """Multiples of a fixed constant: entries[d] = d * constant."""

    constant: int
    lut_bits: int
    entries: tuple[int, ...]

    def __getitem__(self, digit: int) -> int:
        return self.entries[digit]


def build_kcm_tables(s: int, lut_bits: int, c_bits: int) -> list[KcmTable]:
    """One table per lut_bits-wide challenge digit.

    Every position needs the same contents, so the returned list holds
    ceil(c_bits / lut_bits) references to a single shared table.
    """
    if lut_bits < 2:
        raise ConfigurationError(f"lut_bits must be >= 2, got {lut_bits}")
    table = KcmTable(
        constant=s,
        lut_bits=lut_bits,
        entries=tuple(d * s for d in range(1 << lut_bits)),
    )
    return [table] * ceil_div(c_bits, lut_bits)


def kcm_cost(c_bits: int, s_bits: int, lut_bits: int) -> tuple[int, int, int]:
    """Parallel KCM: ceil(c/l) tables of 2**l entries, each s+l bits, combined
    by ceil(c/l)-1 adders of s+l bits. Returns (memory_bits, adder_count, adder_bits)."""
    tables = ceil_div(c_bits, lut_bits)
    memory = tables * (1 << lut_bits) * (s_bits + lut_bits)
    return memory, tables - 1, s_bits + lut_bits


def kcm_product(constant: int, x: int, radix: int, ndigits: int | None = None) -> tuple[list[int], int]:
    """Constant multiplication by digit lookup: partial products (most
    significant digit first) and their positioned sum.

    Radix-generic reference form of the decomposition; the hardware model
    uses radix 2**lut_bits.
    """
    if ndigits is None:
        ndigits = 1
        while radix**ndigits <= x:
            ndigits += 1
    digits = split_digits(x, radix, ndigits)
    partials = [constant * d for d in digits]
    value = 0
    for p in partials:
        value = value * radix + p
    return partials, value


def kcm_parallel_respond(
    cfg: KcmConfig,
    tables: list[KcmTable],
    n_v: int,
    r: int,
    widths: Widths,
) -> DatapathResult:
    """Compute y = r + n_v * s with one lookup per digit and an adder tree.

    Trace steps: one `lookup` per digit (operand = digit, acc = positioned
    partial product), one `treeadd` per adder-tree node, one `radd`. The
    reported cycle count is the pipeline depth; in streaming mode the design
    sustains one result per cycle.
    """
    if not tables:
        raise ConfigurationError("empty table bank")
    table = tables[0]
    if table.lut_bits != cfg.lut_bits:
        raise ConfigurationError("table lut_bits does not match configuration")
    s = table.constant
    check_operands(widths, s, n_v, r)
    ndigits = ceil_div(widths.c_bits, cfg.lut_bits)
    if len(tables) != ndigits:
        raise ConfigurationError(
            f"table bank has {len(tables)} tables, challenge needs {ndigits}"
        )

    digits = split_digits(n_v, 1 << cfg.lut_bits, ndigits)
    trace: list[TraceStep] = []
    # Left shifts position the partial results by wiring; the shifted value
    # is what enters the adder tree.
    operands = []
    for pos, digit in enumerate(digits):
        shifted = tables[pos][digit] << ((ndigits - 1 - pos) * cfg.lut_bits)
        operands.append(shifted)
        trace.append(TraceStep(kind="lookup", index=pos, operand=digit, acc=shifted))

    # Balanced pairwise adder tree; an odd operand passes through unchanged.
    level = operands
    adder_index = 0
    while len(level) > 1:
        nxt = []
        for i in range(0, len(level) - 1, 2):
            total = level[i] + level[i + 1]
            trace.append(
                TraceStep(kind="treeadd", index=adder_index, operand=level[i + 1], acc=total)
            )
            adder_index += 1
            nxt.append(total)
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    product = level[0] if level else 0

    value = product + r
    trace.append(TraceStep(kind="radd", index=0, operand=r, acc=value))

    return DatapathResult(
        value=value,
        cycles=parallel_latency_cycles(widths.s_bits),
        step_count=len(trace),
        trace=trace,
    )

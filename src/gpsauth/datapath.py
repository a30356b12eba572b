"""Bit-accurate, cycle-accounting models of the prover response y = r + n_v * s.

All three multiplier models compute the same response; they differ only in
how many clock cycles the computation is modeled to take and in the steps
recorded in the trace. Every model reports two numbers:

* ``step_count`` -- cycle-bearing steps actually simulated (= trace length),
* ``cycles``     -- the calibrated hardware latency, i.e. step count plus
  the control overhead that reconciles the model with measured designs
  (see the latency functions below).

Each design has one section: its simulator, latency formula, cost formula
and ``Architecture`` record. ``ARCHITECTURES`` collects the records, and
every other module looks designs up there by name, so no other module
branches on an architecture name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from .params import commitment_bits


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
    trace: list[TraceStep] = field(default_factory=list)

    @property
    def step_count(self) -> int:
        """Simulated cycle-bearing steps: the trace length."""
        return len(self.trace)


@dataclass(frozen=True)
class Architecture:
    """One prover datapath design; the comment above each record says
    whether its latency is counted by the simulator or fitted.

    config(word_bits, lut_bits)          the design's configuration
    prepare(s, cfg, c_bits)              per-key state, built once per key
    respond(cfg, state, n_v, r, widths)  DatapathResult for y = r + n_v * s
    latency(widths, cfg)                 closed-form latency in cycles
    cost(widths, cfg)                    (memory_bits, adder_count, adder_bits)
    pipelined                            streams one result per cycle
    """

    name: str
    config: Callable
    prepare: Callable
    respond: Callable
    latency: Callable
    cost: Callable
    pipelined: bool

    @property
    def default_config(self):
        # a dataclass field's default is also its class attribute
        return self.config(SerialConfig.word_bits, KcmConfig.lut_bits)


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


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


# --- serial ------------------------------------------------------------------
# Serial shift-and-add model: one w-bit adder reused for everything.
#
# The challenge is consumed one bit at a time, most significant bit first.
# For each challenge bit the accumulator shifts left one bit (free register
# wiring) and a multiplexer feeds the adder either the secret or zero; the
# addition is performed in w-bit word chunks, one chunk per cycle, so a zero
# challenge bit costs exactly as many cycles as a one (the datapath has no
# skip path, which also keeps timing independent of the challenge). The same
# adder then adds the commitment r in w-bit chunks.

# Fixed control overhead of the serial design (setup, challenge sequencing,
# result unload). Calibration constant: reconciles the analytical word-cycle
# count with the measured 339/603/1131 cycles at w=16, c_bits=32.
SERIAL_OVERHEAD_CYCLES = 68

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
    return DatapathResult(value=acc, cycles=len(trace) + SERIAL_OVERHEAD_CYCLES, trace=trace)


def serial_latency_cycles(s_bits: int, c_bits: int, d_bits: int, word_bits: int) -> int:
    """c_bits add-or-skip passes over the secret words, the final r addition,
    plus the fixed control overhead."""
    return (
        c_bits * ceil_div(s_bits, word_bits)
        + ceil_div(d_bits, word_bits)
        + SERIAL_OVERHEAD_CYCLES
    )


def serial_cost(c_bits: int, s_bits: int, word_bits: int = 16) -> tuple[int, int, int]:
    """Serial shift-and-add: no LUT/ROM, but operand/result registers for the
    challenge, secret, commitment and response (the response register is one
    bit wider than the commitment). One w-bit adder."""
    d_bits = commitment_bits(s_bits, c_bits)
    memory = c_bits + s_bits + d_bits + (d_bits + 1)
    return memory, 1, word_bits


# Latency is counted by the simulator: steps plus control overhead.
_SERIAL = Architecture(
    name="serial",
    config=lambda word_bits, lut_bits: SerialConfig(word_bits),
    prepare=lambda s, cfg, c_bits: s,
    respond=serial_respond,
    latency=lambda w, cfg: serial_latency_cycles(w.s_bits, w.c_bits, w.d_bits, cfg.word_bits),
    cost=lambda w, cfg: serial_cost(w.c_bits, w.s_bits, cfg.word_bits),
    pipelined=False,
)


# --- parallel KCM ------------------------------------------------------------
# Parallel constant-coefficient multiplier (KCM) model.
#
# With the secret fixed, multiplying by it becomes multiplication by a
# constant: the challenge splits into lut_bits-wide digits, each digit indexes
# a lookup table holding digit * s, and the partial products (left-positioned
# by wiring, no gate cost) are summed by an adder tree. The design pipelines
# to one result per clock; latency is the pipeline depth.
#
# All tables hold the same 2**lut_bits multiples of s, so a bank is modeled
# as one shared table referenced once per digit position.
#
# The digit decomposition is radix-generic (``kcm_product``): the hardware
# uses radix 2**lut_bits, but the same decomposition in base 10 is the
# classic worked example (953 * 482 via partials 3812/7624/1906).

# Pipelined parallel multiplier: latency grows with one stage per 32 secret
# bits on top of a 4-stage fixed front/back end. Calibrated fit (8/12/20
# cycles for 128/256/512-bit secrets); throughput stays 1 result per cycle.
PARALLEL_BASE_STAGES = 4
PARALLEL_BITS_PER_STAGE = 32


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


def _kcm_digits(cfg: KcmConfig, table: KcmTable, n_v: int, r: int, widths: Widths) -> list[int]:
    """Check a KCM round's table and operands; the challenge's digits, MSB first."""
    if table.lut_bits != cfg.lut_bits:
        raise ConfigurationError("table lut_bits does not match configuration")
    check_operands(widths, table.constant, n_v, r)
    ndigits = ceil_div(widths.c_bits, cfg.lut_bits)
    return split_digits(n_v, 1 << cfg.lut_bits, ndigits)


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
    digits = _kcm_digits(cfg, tables[0], n_v, r, widths)
    ndigits = len(digits)
    if len(tables) != ndigits:
        raise ConfigurationError(
            f"table bank has {len(tables)} tables, challenge needs {ndigits}"
        )

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
    return DatapathResult(value=value, cycles=parallel_latency_cycles(widths.s_bits), trace=trace)


def parallel_latency_cycles(s_bits: int) -> int:
    return ceil_div(s_bits, PARALLEL_BITS_PER_STAGE) + PARALLEL_BASE_STAGES


def kcm_cost(c_bits: int, s_bits: int, lut_bits: int) -> tuple[int, int, int]:
    """Parallel KCM: ceil(c/l) tables of 2**l entries, each s+l bits, combined
    by ceil(c/l)-1 adders of s+l bits. Returns (memory_bits, adder_count, adder_bits)."""
    tables = ceil_div(c_bits, lut_bits)
    memory = tables * (1 << lut_bits) * (s_bits + lut_bits)
    return memory, tables - 1, s_bits + lut_bits


# Latency is the fitted pipeline depth, not counted by the simulator.
_PARALLEL = Architecture(
    name="parallel",
    config=lambda word_bits, lut_bits: KcmConfig(lut_bits),
    prepare=lambda s, cfg, c_bits: build_kcm_tables(s, cfg.lut_bits, c_bits),
    respond=kcm_parallel_respond,
    latency=lambda w, cfg: parallel_latency_cycles(w.s_bits),
    cost=lambda w, cfg: kcm_cost(w.c_bits, w.s_bits, cfg.lut_bits),
    pipelined=True,
)


# --- hybrid KCM --------------------------------------------------------------
# Hybrid serialized KCM model: one shared table, one accumulate loop.
#
# The parallel bank collapses to a single table because every row holds the
# same multiples of the secret. The challenge arrives in lut_bits-wide blocks,
# most significant digit first; each cycle the accumulator shifts left by
# lut_bits and the looked-up partial product is added. The same parallel adder
# is then reused once to add the commitment r.

# Hybrid accumulate-and-shift loop: 3 cycles per 16 secret bits plus a fixed
# 24-cycle overhead. Calibrated fit (48/72/120 cycles for 128/256/512-bit
# secrets at lut_bits=4, c_bits=32).
HYBRID_CYCLES_PER_16_BITS = 3
HYBRID_OVERHEAD_CYCLES = 24


def kcm_hybrid_respond(
    cfg: KcmConfig,
    table: KcmTable,
    n_v: int,
    r: int,
    widths: Widths,
) -> DatapathResult:
    """Compute y = r + n_v * s by accumulate-and-shift over challenge digits."""
    digits = _kcm_digits(cfg, table, n_v, r, widths)
    trace: list[TraceStep] = []
    acc = 0
    for pos, digit in enumerate(digits):
        acc = (acc << cfg.lut_bits) + table[digit]
        trace.append(TraceStep(kind="lacc", index=pos, operand=digit, acc=acc))

    acc += r
    trace.append(TraceStep(kind="radd", index=0, operand=r, acc=acc))
    return DatapathResult(value=acc, cycles=hybrid_latency_cycles(widths.s_bits), trace=trace)


def hybrid_latency_cycles(s_bits: int) -> int:
    return HYBRID_CYCLES_PER_16_BITS * ceil_div(s_bits, 16) + HYBRID_OVERHEAD_CYCLES


def hybrid_cost(c_bits: int, s_bits: int, lut_bits: int) -> tuple[int, int, int]:
    """Serialized KCM: a single 2**l-entry table and one s+l-bit adder."""
    memory = (1 << lut_bits) * (s_bits + lut_bits)
    return memory, 1, s_bits + lut_bits


# Latency is the fitted closed form, not counted by the simulator.
_HYBRID = Architecture(
    name="hybrid",
    config=lambda word_bits, lut_bits: KcmConfig(lut_bits),
    prepare=lambda s, cfg, c_bits: build_kcm_tables(s, cfg.lut_bits, c_bits)[0],
    respond=kcm_hybrid_respond,
    latency=lambda w, cfg: hybrid_latency_cycles(w.s_bits),
    cost=lambda w, cfg: hybrid_cost(w.c_bits, w.s_bits, cfg.lut_bits),
    pipelined=False,
)


# --- registry ----------------------------------------------------------------

ARCHITECTURES: dict[str, Architecture] = {a.name: a for a in (_SERIAL, _PARALLEL, _HYBRID)}


def architecture(name: str) -> Architecture:
    try:
        return ARCHITECTURES[name]
    except KeyError:
        raise ConfigurationError(f"unknown architecture {name!r}") from None


def stream_throughput(arch: str, widths: Widths, cfg=None) -> Fraction:
    """Modeled throughput in bytes of response per clock cycle: one result
    per cycle when pipelined, else one per full latency."""
    design = architecture(arch)
    if design.pipelined:
        return output_bytes(widths)
    return output_bytes(widths) / design.latency(widths, cfg or design.default_config)

"""Storage-cost formulas, closed-form latency/throughput estimators, and the
linear area model, plus the report generator that tabulates them.

Area is an estimator, not a measurement. The reference core-cell counts come
from synthesis of the three designs on an Actel IGLOO AGL250 (32-bit
challenge, 128/256/512-bit secrets); the model keeps the published slopes
(cells per secret bit) and fits the intercepts to those reference points by
least squares, reporting residuals rather than claiming cell-accurate areas.

Throughput is reported in bytes of response per clock cycle. Note one
discrepancy against the reference figures: the published parallel throughput
for 512-bit secrets is 76, but the response is (512+32+80)/8 = 78 bytes and
the pipelined design emits one response per cycle, so this model reports 78
(the serial and hybrid 512-bit figures match 78 output bytes exactly).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .datapath import (  # noqa: F401 (serial_cost is re-exported)
    ARCHITECTURES, Widths, architecture, hybrid_cost, kcm_cost, serial_cost, stream_throughput)
from .params import commitment_bits

STANDARD_SECRET_BITS = (128, 256, 512)
STANDARD_CHALLENGE_BITS = 32

# Reference synthesis results (core cells) for a 32-bit challenge.
REFERENCE_AREA_CELLS = {
    "serial": {128: 1546, 256: 2253, 512: 3698},
    "parallel": {128: 10676, 256: 21171, 512: 44978},
    "hybrid": {128: 2243, 256: 3467, 512: 6553},
}

# Reference serial-implementation areas across adder widths (core cells).
# Quoted as a dataset: the 16-bit adder beating the 8-bit one is a memory
# addressing effect of the target technology, not something the linear
# model reproduces.
REFERENCE_SERIAL_AREA_BY_ADDER = {
    8: {128: 1542, 256: 2270, 512: 3745},
    16: {128: 1546, 256: 2253, 512: 3698},
    32: {128: 1934, 256: 2632, 512: 4034},
}

# Published parallel throughput figure for 512-bit secrets; kept only to
# flag the discrepancy described in the module docstring.
PUBLISHED_PARALLEL_THROUGHPUT_512 = 76

# Reference latency in cycles (c=32, w=16, l=4).
REFERENCE_LATENCY_CYCLES = {
    "serial": {128: 339, 256: 603, 512: 1131},
    "parallel": {128: 8, 256: 12, 512: 20},
    "hybrid": {128: 48, 256: 72, 512: 120},
}

# Reference throughput, bytes per cycle, as the strings the model must
# reproduce. parallel/512 is committed as the model's own 78; see
# PUBLISHED_PARALLEL_THROUGHPUT_512 for the figure it disagrees with.
REFERENCE_THROUGHPUT_STRINGS = {
    "serial": {128: "0.088", 256: "0.076", 512: "0.069"},
    "parallel": {128: "30.000", 256: "46.000", 512: "78.000"},
    "hybrid": {128: "0.625", 256: "0.639", 512: "0.650"},
}

AREA_FIT_TOLERANCE = 0.06  # max relative error accepted at any reference point

# Slope of the linear area model, core cells per secret bit.
AREA_SLOPES = {"serial": 5.6, "parallel": 89.8, "hybrid": 11.3}


def _fit_intercept(arch: str) -> float:
    """Least-squares intercept with the slope held fixed: b = mean(y) - a*mean(x).
    Stored to one decimal."""
    points = REFERENCE_AREA_CELLS[arch]
    mean_x = sum(points) / len(points)
    mean_y = sum(points.values()) / len(points)
    return round(mean_y - AREA_SLOPES[arch] * mean_x, 1)


AREA_INTERCEPTS = {arch: _fit_intercept(arch) for arch in AREA_SLOPES}


@dataclass(frozen=True)
class CostReport:
    """Modeled cost of one architecture at one profile size."""

    arch: str
    s_bits: int
    c_bits: int
    memory_bits: int
    adder_count: int
    adder_bits: int
    latency_cycles: int
    throughput_bytes_per_cycle: Fraction
    area_estimate_cells: int


def lut_cost_variable(c_bits: int, s_bits: int) -> int:
    """Single-table multiplier with both operands variable:
    2**(c+s) entries of c+s bits. Astronomical for real sizes."""
    return (1 << (c_bits + s_bits)) * (c_bits + s_bits)


def lut_cost_fixed_key(c_bits: int, s_bits: int) -> int:
    """Single-table multiplier with the secret fixed: 2**c entries of c+s bits."""
    return (1 << c_bits) * (c_bits + s_bits)


# Single-table multipliers, for comparison with the registered designs.
_SINGLE_TABLE_COSTS = {"full-lut": lut_cost_variable, "fixed-key-lut": lut_cost_fixed_key}


def memory_cost(arch: str, c_bits: int, s_bits: int, lut_bits: int = 4, word_bits: int = 16) -> int:
    if arch in _SINGLE_TABLE_COSTS:
        return _SINGLE_TABLE_COSTS[arch](c_bits, s_bits)
    return cost_report(arch, s_bits, c_bits, word_bits, lut_bits).memory_bits


def latency_estimate(arch: str, s_bits: int, c_bits: int, width: int = 16) -> int:
    """Closed-form latency in cycles; `width` is word_bits for serial
    (ignored by the parallel and hybrid fits, calibrated at c_bits=32)."""
    return cost_report(arch, s_bits, c_bits, word_bits=width).latency_cycles


def area_estimate(arch: str, s_bits: int) -> float:
    """Linear area model a*s_bits + b in core cells."""
    if arch not in AREA_SLOPES:
        raise ValueError(f"unknown architecture {arch!r}")
    return AREA_SLOPES[arch] * s_bits + AREA_INTERCEPTS[arch]


def area_fit_residuals() -> dict[str, dict[int, float]]:
    """Relative error of the linear model at each reference point."""
    residuals: dict[str, dict[int, float]] = {}
    for arch, points in REFERENCE_AREA_CELLS.items():
        residuals[arch] = {
            s: (area_estimate(arch, s) - ref) / ref for s, ref in points.items()
        }
    return residuals


def check_tradeoffs() -> list[str]:
    """Recompute every committed trade-off figure; return drift descriptions.

    Empty list means the model still reproduces all reference latencies,
    throughput strings, cost-formula outputs, and keeps every area point
    within AREA_FIT_TOLERANCE.
    """
    failures: list[str] = []
    for arch in ARCHITECTURES:
        for s in STANDARD_SECRET_BITS:
            report = cost_report(arch, s)
            want_lat = REFERENCE_LATENCY_CYCLES[arch][s]
            if report.latency_cycles != want_lat:
                failures.append(
                    f"{arch}/{s}: latency {report.latency_cycles} != {want_lat}"
                )
            want_tp = REFERENCE_THROUGHPUT_STRINGS[arch][s]
            got_tp = _fmt_throughput(report.throughput_bytes_per_cycle)
            if got_tp != want_tp:
                failures.append(f"{arch}/{s}: throughput {got_tp} != {want_tp}")
            ref_area = REFERENCE_AREA_CELLS[arch][s]
            rel = abs(area_estimate(arch, s) - ref_area) / ref_area
            if rel > AREA_FIT_TOLERANCE:
                failures.append(
                    f"{arch}/{s}: area off by {rel:+.1%} (> {AREA_FIT_TOLERANCE:.0%})"
                )
    if kcm_cost(32, 128, 4) != (16896, 7, 132):
        failures.append(f"kcm_cost(32,128,4) = {kcm_cost(32, 128, 4)} != (16896, 7, 132)")
    if kcm_cost(12, 8, 4) != (576, 2, 12):
        failures.append(f"kcm_cost(12,8,4) = {kcm_cost(12, 8, 4)} != (576, 2, 12)")
    if hybrid_cost(32, 128, 4)[0] != 2112:
        failures.append(f"hybrid_cost(32,128,4) memory = {hybrid_cost(32, 128, 4)[0]} != 2112")
    return failures


def cost_report(
    arch: str,
    s_bits: int,
    c_bits: int = STANDARD_CHALLENGE_BITS,
    word_bits: int = 16,
    lut_bits: int = 4,
) -> CostReport:
    design = architecture(arch)
    widths = Widths(s_bits, c_bits, commitment_bits(s_bits, c_bits))
    cfg = design.config(word_bits, lut_bits)
    memory, adders, adder_bits = design.cost(widths, cfg)
    return CostReport(
        arch=arch,
        s_bits=s_bits,
        c_bits=c_bits,
        memory_bits=memory,
        adder_count=adders,
        adder_bits=adder_bits,
        latency_cycles=design.latency(widths, cfg),
        throughput_bytes_per_cycle=stream_throughput(arch, widths, cfg),
        area_estimate_cells=round(area_estimate(arch, s_bits)),
    )


def _fmt_throughput(value: Fraction) -> str:
    return f"{float(value):.3f}"


def render_tradeoff_table(
    secret_sizes: tuple[int, ...] = STANDARD_SECRET_BITS,
    fmt: str = "text",
) -> str:
    """Three-block comparison (area, latency, throughput) across architectures.

    Deterministic byte-for-byte for fixed inputs. `fmt` is "text" for the
    aligned table or "kv" for one `arch= s_bits= metric= value=` record per line.
    """
    reports = {
        (arch, s): cost_report(arch, s) for arch in ARCHITECTURES for s in secret_sizes
    }
    if fmt == "kv":
        lines = []
        for arch in ARCHITECTURES:
            for s in secret_sizes:
                rep = reports[(arch, s)]
                lines.append(f"arch={arch} s_bits={s} metric=area_cells value={rep.area_estimate_cells}")
                lines.append(f"arch={arch} s_bits={s} metric=latency_cycles value={rep.latency_cycles}")
                lines.append(
                    f"arch={arch} s_bits={s} metric=throughput_bytes_per_cycle "
                    f"value={_fmt_throughput(rep.throughput_bytes_per_cycle)}"
                )
                lines.append(f"arch={arch} s_bits={s} metric=memory_bits value={rep.memory_bits}")
        return "\n".join(lines) + "\n"
    if fmt != "text":
        raise ValueError(f"unknown format {fmt!r}")

    col = 12
    head = "Secret".ljust(col) + "".join(a.capitalize().rjust(col) for a in ARCHITECTURES)
    lines = [
        f"Architecture comparison, {STANDARD_CHALLENGE_BITS}-bit challenge "
        f"(w=16, lut_bits=4)",
        head,
    ]

    lines.append("Area (core cells, linear model; reference and residual in parens)")
    area_cells = {}
    for s in secret_sizes:
        for arch in ARCHITECTURES:
            est = reports[(arch, s)].area_estimate_cells
            ref = REFERENCE_AREA_CELLS[arch].get(s)
            if ref is None:
                area_cells[(arch, s)] = f"{est}"
            else:
                delta = (est - ref) / ref * 100.0
                area_cells[(arch, s)] = f"{est} (ref {ref}, {delta:+.1f}%)"
    area_w = max(len(v) for v in area_cells.values()) + 2
    for s in secret_sizes:
        lines.append(
            f"{s:<{col}}" + "".join(area_cells[(arch, s)].rjust(area_w) for arch in ARCHITECTURES)
        )

    lines.append("Latency (cycles)")
    for s in secret_sizes:
        row = "".join(str(reports[(arch, s)].latency_cycles).rjust(col) for arch in ARCHITECTURES)
        lines.append(f"{s:<{col}}" + row)

    lines.append("Throughput (bytes/cycle)")
    for s in secret_sizes:
        row = "".join(
            _fmt_throughput(reports[(arch, s)].throughput_bytes_per_cycle).rjust(col)
            for arch in ARCHITECTURES
        )
        lines.append(f"{s:<{col}}" + row)
        if s == 512:
            modeled = _fmt_throughput(reports[("parallel", 512)].throughput_bytes_per_cycle)
            lines.append(
                f"{'':<{col}}note: parallel/512 modeled at {modeled} output bytes per cycle; "
                f"the published figure is {PUBLISHED_PARALLEL_THROUGHPUT_512}"
            )

    lines.append("Area intercepts (least squares, slope fixed): " + ", ".join(
        f"{arch} b={AREA_INTERCEPTS[arch]}" for arch in ARCHITECTURES
    ))
    return "\n".join(lines) + "\n"


def render_adder_width_table(
    secret_sizes: tuple[int, ...] = STANDARD_SECRET_BITS,
    fmt: str = "text",
) -> str:
    """Serial implementation across adder widths: modeled latency plus the
    reference area dataset (quoted, not modeled)."""
    widths = (8, 16, 32)
    if fmt == "kv":
        lines = []
        for w in widths:
            for s in secret_sizes:
                lat = latency_estimate("serial", s, STANDARD_CHALLENGE_BITS, w)
                lines.append(f"arch=serial s_bits={s} metric=latency_cycles_w{w} value={lat}")
                ref = REFERENCE_SERIAL_AREA_BY_ADDER[w].get(s)
                if ref is not None:
                    lines.append(f"arch=serial s_bits={s} metric=reference_area_cells_w{w} value={ref}")
        return "\n".join(lines) + "\n"
    if fmt != "text":
        raise ValueError(f"unknown format {fmt!r}")
    col = 12
    lines = [
        "Serial implementation vs adder width (32-bit challenge)",
        "Adder".ljust(col) + "".join(f"s={s}".rjust(col) for s in secret_sizes),
        "Modeled latency (cycles)",
    ]
    for w in widths:
        row = "".join(
            str(latency_estimate("serial", s, STANDARD_CHALLENGE_BITS, w)).rjust(col)
            for s in secret_sizes
        )
        lines.append(f"{w:<{col}}" + row)
    lines.append("Reference area (core cells, measured dataset)")
    for w in widths:
        row = "".join(
            str(REFERENCE_SERIAL_AREA_BY_ADDER[w][s]).rjust(col) for s in secret_sizes
        )
        lines.append(f"{w:<{col}}" + row)
    lines.append(
        "note: the 16-bit adder measures smaller than the 8-bit one at 256/512 "
        "bits (memory addressing overhead of the target technology); the "
        "linear area model does not capture this."
    )
    return "\n".join(lines) + "\n"


def coupon_storage_note(count: int) -> str:
    """Informational footprint note for on-prover coupon storage via PRNG.

    The 20-coupon reference point costs about 1000 NAND equivalents for
    coupon storage plus 1000 for the PRNG, around 2300 core cells total;
    other counts scale the storage share linearly and are labeled as
    extrapolations.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    if count == 0:
        return "0 coupons: no coupon storage required (0 NAND equivalent)."
    coupon_nand = round(1000 * count / 20)
    total_nand = coupon_nand + 1000
    cells = round(2300 * total_nand / 2000)
    note = (
        f"{count} coupons via PRNG regeneration: ~{coupon_nand} NAND equivalent "
        f"for coupon storage + ~1000 NAND for the PRNG (~{cells} core cells)."
    )
    if count != 20:
        note += " Linear extrapolation from the 20-coupon reference point."
    return note

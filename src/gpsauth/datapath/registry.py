"""The architecture registry: one record per prover datapath design.

Everything that differs between the designs is looked up here by name, so
no other module branches on an architecture name.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .common import ConfigurationError, Widths, output_bytes
from .common import hybrid_latency_cycles, parallel_latency_cycles, serial_latency_cycles
from .kcm_hybrid import hybrid_cost, kcm_hybrid_respond
from .kcm_parallel import KcmConfig, build_kcm_tables, kcm_cost, kcm_parallel_respond
from .serial import SerialConfig, serial_cost, serial_respond


@dataclass(frozen=True)
class Architecture:
    """One prover datapath design; ``doc`` says where its latency comes from.

    config(word_bits, lut_bits)          the design's configuration
    prepare(s, cfg, c_bits)              per-key state, built once per key
    respond(cfg, state, n_v, r, widths)  DatapathResult for y = r + n_v * s
    latency(widths, cfg)                 closed-form latency in cycles
    cost(widths, cfg)                    (memory_bits, adder_count, adder_bits)
    pipelined                            streams one result per cycle
    """

    name: str
    doc: str
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


ARCHITECTURES: dict[str, Architecture] = {a.name: a for a in (
    Architecture(
        name="serial",
        doc="Latency is counted by the simulator: steps plus control overhead.",
        config=lambda word_bits, lut_bits: SerialConfig(word_bits),
        prepare=lambda s, cfg, c_bits: s,
        respond=serial_respond,
        latency=lambda w, cfg: serial_latency_cycles(w.s_bits, w.c_bits, w.d_bits, cfg.word_bits),
        cost=lambda w, cfg: serial_cost(w.c_bits, w.s_bits, cfg.word_bits),
        pipelined=False,
    ),
    Architecture(
        name="parallel",
        doc="Latency is the fitted pipeline depth, not counted by the simulator.",
        config=lambda word_bits, lut_bits: KcmConfig(lut_bits),
        prepare=lambda s, cfg, c_bits: build_kcm_tables(s, cfg.lut_bits, c_bits),
        respond=kcm_parallel_respond,
        latency=lambda w, cfg: parallel_latency_cycles(w.s_bits),
        cost=lambda w, cfg: kcm_cost(w.c_bits, w.s_bits, cfg.lut_bits),
        pipelined=True,
    ),
    Architecture(
        name="hybrid",
        doc="Latency is the fitted closed form, not counted by the simulator.",
        config=lambda word_bits, lut_bits: KcmConfig(lut_bits),
        prepare=lambda s, cfg, c_bits: build_kcm_tables(s, cfg.lut_bits, c_bits)[0],
        respond=kcm_hybrid_respond,
        latency=lambda w, cfg: hybrid_latency_cycles(w.s_bits),
        cost=lambda w, cfg: hybrid_cost(w.c_bits, w.s_bits, cfg.lut_bits),
        pipelined=False,
    ),
)}


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

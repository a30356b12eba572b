"""Per-layer figures for the traced run, and the modeled-hardware invariants.

Each layer of ``gpsauth`` is timed from outside, through its public
functions, on the inputs the workload recorded (its coupons and
challenges); where a workload has no such input (coupon_issue issues no
challenges) seeded inputs of the same shape stand in. ``gpsauth.costmodel``
is the oracle for the invariants and is never timed.
"""

from __future__ import annotations

import random
from time import perf_counter_ns

from gpsauth.arith import modexp, mul_oracle
from gpsauth.costmodel import cost_report
from gpsauth.datapath import (
    KcmConfig,
    SerialConfig,
    Widths,
    build_kcm_tables,
    kcm_hybrid_respond,
    kcm_parallel_respond,
    serial_respond,
)
from gpsauth.params import (
    Coupon,
    dump_coupon_file,
    keygen,
    load_coupon_file,
    make_coupons,
    prng_expand,
    regenerate_coupon,
)
from gpsauth.protocol import (
    Challenge,
    Commitment,
    ProverSession,
    Response,
    Verdict,
    VerifierServer,
    VerifierSession,
    decode,
    encode,
)

from tracing import PROBES, SpanLog, host_speed, median, time_calls
from workloads import (
    ARCHES,
    TCP_CLIENTS,
    TcpClient,
    coupon_seed,
    extend_pool,
    pin_to_one_cpu,
    run_tcp_clients,
)

US, MS = 1e3, 1e6  # nanoseconds per unit

# Datapath widths of the two profiles the invariants are pinned at (c=32).
WIDTHS = {"s128": Widths(128, 32, 240), "s512": Widths(512, 32, 624)}

# Committed modeled-hardware figures (w=16 serial adder, l=4 LUT digits).
# cycles are the paper's 339/8/48 and 1131/20/120; any change is a defect.
REFERENCE = {
    "s128": {
        "serial": dict(cycles=339, step_count=271, memory_bits=641, area_cells=1543,
                       bytes_per_cycle="0.088"),
        "parallel": dict(cycles=8, step_count=16, memory_bits=16896, area_cells=10282,
                         bytes_per_cycle="30.000"),
        "hybrid": dict(cycles=48, step_count=9, memory_bits=2112, area_cells=2159,
                       bytes_per_cycle="0.625"),
    },
    "s512": {
        "serial": dict(cycles=1131, step_count=1063, memory_bits=1793, area_cells=3694,
                       bytes_per_cycle="0.069"),
        "parallel": dict(cycles=20, step_count=16, memory_bits=66048, area_cells=44766,
                         bytes_per_cycle="78.000"),
        "hybrid": dict(cycles=120, step_count=9, memory_bits=8256, area_cells=6498,
                       bytes_per_cycle="0.650"),
    },
}

LUT_BITS = KcmConfig().lut_bits
DATAPATH_FN = {"serial": "serial_respond", "parallel": "kcm_parallel_respond",
               "hybrid": "kcm_hybrid_respond"}


def _respond(arch: str, s: int, tables, n_v: int, r: int, widths: Widths):
    if arch == "serial":
        return serial_respond(SerialConfig(), s, n_v, r, widths)
    if arch == "parallel":
        return kcm_parallel_respond(KcmConfig(), tables, n_v, r, widths)
    return kcm_hybrid_respond(KcmConfig(), tables[0], n_v, r, widths)


def modeled_invariants(seed: int, reference=REFERENCE):
    """Modeled cycles, step counts and costs of every architecture at s128
    and s512, and the list of those that differ from `reference`."""
    metrics, mismatches = {}, []
    rng = random.Random(f"{seed}/invariants")
    for prof, widths in WIDTHS.items():
        s = rng.getrandbits(widths.s_bits)
        n_v, r = rng.getrandbits(widths.c_bits), rng.getrandbits(widths.d_bits)
        tables = build_kcm_tables(s, LUT_BITS, widths.c_bits)
        for arch in ARCHES:
            result = _respond(arch, s, tables, n_v, r, widths)
            cost = cost_report(arch, widths.s_bits, widths.c_bits)
            got = dict(cycles=result.cycles, step_count=result.step_count,
                       memory_bits=cost.memory_bits, area_cells=cost.area_estimate_cells,
                       bytes_per_cycle=f"{float(cost.throughput_bytes_per_cycle):.3f}")
            for key, want in reference[prof][arch].items():
                if got[key] != want:
                    mismatches.append(f"{prof}/{arch}: {key} {got[key]} != {want}")
            if result.value != r + mul_oracle(n_v, s):
                mismatches.append(f"{prof}/{arch}: y differs from r + n_V*s")
            base = f"datapath.{prof}.{arch}"
            metrics[f"{base}.cycles"] = (result.cycles, "cycles")
            metrics[f"{base}.step_count"] = (result.step_count, "count")
            base = f"costmodel.{prof}.{arch}"
            metrics[f"{base}.memory_bits"] = (cost.memory_bits, "bits")
            metrics[f"{base}.area_cells"] = (cost.area_estimate_cells, "cells")
            metrics[f"{base}.bytes_per_cycle"] = (float(cost.throughput_bytes_per_cycle),
                                                  "B/cycle")
    return metrics, mismatches


def _cycle(values: list, n: int) -> list:
    return [values[i % len(values)] for i in range(n)]


def sweep(workload, sample, seed: int, scale):
    """Time every layer's public functions on the workload's recorded inputs.

    Returns (metrics, attempted, failed); the TCP probe and the verifier
    decisions made here are checked like workload ops.
    """
    n = scale.sweep_reps
    profile, keypair = workload.profile, workload.keypair
    coupons, challenges = workload.replay_inputs(sample)
    rng = random.Random(f"{seed}/sweep")
    if not challenges:
        challenges = [rng.getrandbits(profile.c_bits) for _ in range(n)]
    # re-indexed so a ProverSession can walk them in order
    coupons = [Coupon(i, c.r, c.x) for i, c in enumerate(_cycle(coupons, n))]
    challenges = _cycle(challenges, n)
    # host speed when the layers were timed: the figures below are raw wall-clock
    m = {f"host.{probe}_speed": (host_speed(probe), "ratio") for probe in PROBES}

    # params
    cseeds = [coupon_seed(seed, f"sweep/{k}", scale.batch) for k in range(max(3, n // 20))]
    t = time_calls(make_coupons, [(profile, keypair, cs, scale.batch) for cs in cseeds], US)
    m["params.make_coupons_us_per_coupon"] = (t / scale.batch, "us")
    m["params.prng_expand_us"] = (
        time_calls(prng_expand, [(cseeds[0].seed, i, profile.d_bits) for i in range(n)], US), "us")
    m["params.regenerate_coupon_us"] = (
        time_calls(regenerate_coupon, [(profile, cseeds[0], i % scale.batch)
                                       for i in range(n // 2)], US), "us")
    batch = coupons[:scale.batch]
    text = dump_coupon_file(profile, batch)
    m["params.dump_coupon_file_ms"] = (
        time_calls(dump_coupon_file, [(profile, batch)] * n, MS), "ms")
    m["params.load_coupon_file_ms"] = (time_calls(load_coupon_file, [(text,)] * n, MS), "ms")

    # arith: the oracle on the workload's own (base, exponent, n) tuples
    m["arith.modexp_g_r_us"] = (
        time_calls(modexp, [(profile.g, c.r, profile.n) for c in coupons[:n // 2]], US), "us")
    m["arith.modexp_i_nv_us"] = (
        time_calls(modexp, [(keypair.i_pub, nv, profile.n) for nv in challenges], US), "us")

    # datapath: recorded (s, n_V, r) at the workload's first profile, seeded at s512
    for prof, widths in WIDTHS.items():
        if widths.s_bits == profile.s_bits and widths.c_bits == profile.c_bits:
            s, pairs = keypair.s, list(zip(challenges, (c.r for c in coupons)))
        else:
            s = rng.getrandbits(widths.s_bits)
            pairs = [(rng.getrandbits(widths.c_bits), rng.getrandbits(widths.d_bits))
                     for _ in range(n)]
        m[f"datapath.{prof}.build_kcm_tables_us"] = (
            time_calls(build_kcm_tables, [(s, LUT_BITS, widths.c_bits)] * n, US), "us")
        tables = build_kcm_tables(s, LUT_BITS, widths.c_bits)
        for arch in ARCHES:
            m[f"datapath.{prof}.{DATAPATH_FN[arch]}_us"] = (
                time_calls(_respond, [(arch, s, tables, nv, r, widths) for nv, r in pairs], US),
                "us")

    # protocol: sessions
    for arch in ARCHES:
        session = ProverSession(profile, keypair, coupons)
        respond_ns, t_start = [], perf_counter_ns()
        for nv in challenges:
            session.commit()
            t0 = perf_counter_ns()
            session.respond(Challenge(nv), arch=arch)
            respond_ns.append(perf_counter_ns() - t0)
        m[f"protocol.ProverSession.respond.{arch}_us"] = (median(respond_ns) / US, "us")
        m[f"{arch}_resp_per_s"] = (n * 1e9 / (perf_counter_ns() - t_start), "resp/s")

    verifier = VerifierSession(profile, {keypair.id_p: keypair.i_pub})
    challenge_ns, decide_ns, failed = [], [], 0
    for c in coupons[:n // 2]:
        t0 = perf_counter_ns()
        ch = verifier.challenge(Commitment(keypair.id_p, c.x), rng)
        t1 = perf_counter_ns()
        verdict = verifier.decide(Response(c.r + ch.n_v * keypair.s))
        decide_ns.append(perf_counter_ns() - t1)
        challenge_ns.append(t1 - t0)
        failed += not verdict.accept
    m["protocol.VerifierSession.challenge_us"] = (median(challenge_ns) / US, "us")
    m["protocol.VerifierSession.decide_us"] = (median(decide_ns) / US, "us")

    # protocol: codec per frame kind
    c = coupons[0]
    messages = {"commitment": Commitment(keypair.id_p, c.x), "challenge": Challenge(challenges[0]),
                "response": Response(c.r + challenges[0] * keypair.s), "verdict": Verdict(True)}
    for kind, msg in messages.items():
        frame = encode(msg)
        m[f"protocol.encode.{kind}_us"] = (time_calls(encode, [(msg,)] * (10 * n), US), "us")
        m[f"protocol.decode.{kind}_us"] = (time_calls(decode, [(frame,)] * (10 * n), US), "us")
        failed += decode(frame) != msg

    probe_metrics, attempted, probe_failed = tcp_probe(profile, seed, scale)
    m.update(probe_metrics)
    return m, attempted + n // 2, failed + probe_failed


def tcp_probe(profile, seed: int, scale):
    """verify_tcp in miniature: two provers, probe_rounds closed-loop rounds
    each against a fresh server, with client-side spans."""
    pin_to_one_cpu()
    keys = [keygen(profile, random.Random(f"{seed}/probe-key/{k}")) for k in range(TCP_CLIENTS)]
    clients = []
    for k, kp in enumerate(keys):
        pool, label = [], f"{seed}/probe-pool/{k}"
        extend_pool(pool, profile, kp, label, scale.probe_rounds)
        clients.append(TcpClient(profile, kp, pool, label))
    spans = SpanLog()
    server = VerifierServer(profile, {kp.id_p: kp.i_pub for kp in keys},
                            rng=random.Random(f"{seed}/probe-challenges")).start()
    try:
        phase = run_tcp_clients(server, clients, 60.0, scale.probe_rounds, spans)
    finally:
        server.stop()
    accounted = server.rounds_accepted + server.rounds_rejected

    def span_median(name, unit):
        return median(spans.durations_ns(name)) / unit

    metrics = {
        "protocol.TcpChannel.connect_us": (span_median("protocol.TcpChannel.connect", US), "us"),
        "protocol.wait_challenge_ms": (span_median("protocol.wait_challenge", MS), "ms"),
        "protocol.wait_verdict_ms": (span_median("protocol.wait_verdict", MS), "ms"),
        "protocol.VerifierServer.accounted_ratio": (accounted / phase.attempted, "fraction"),
    }
    return metrics, phase.attempted, phase.errors + phase.failed

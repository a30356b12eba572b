"""Command-line front end: keys, coupons, a TCP verifier, a prover, benches.

Subcommands:
    keygen   write a key file for a profile
    coupons  precompute a coupon file for a key
    serve    run the verifier endpoint on TCP
    auth     run one authentication round as the prover
    bench    simulate each architecture and report cycle/cost metrics
    report   render the area/latency/throughput trade-off tables

Exit codes: 0 success or accept, 2 protocol reject, 3 transport failure,
1 usage or internal error. `GPS_PROFILE` provides the default profile.
Randomized commands take `--seed`; without one, an OS-sourced seed is drawn
and echoed so the run can be reproduced.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import time
from typing import Optional, TextIO

from .costmodel import (
    check_tradeoffs,
    cost_report,
    coupon_storage_note,
    render_adder_width_table,
    render_tradeoff_table,
)
from .datapath import ARCHITECTURES, Architecture, ConfigurationError, Widths, architecture
from .params import (
    PROFILE_PRESETS,
    CouponSeed,
    FileFormatError,
    GenerationError,
    KeygenError,
    commitment_bits,
    dump_coupon_file,
    dump_key_file,
    keygen,
    load_coupon_file,
    load_key_file,
    make_coupons,
    make_profile,
)
from .protocol import (
    OutOfCouponsError,
    ProtocolError,
    ProverSession,
    TcpChannel,
    TransportError,
    VerifierServer,
    run_round,
)

# 320 us at 8 MHz: the response-computation budget every architecture
# must meet.
RESPONSE_BUDGET_CYCLES = 2560

EXIT_OK = 0
EXIT_REJECT = 2
EXIT_TRANSPORT = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the CLI reserves 2 for rejects."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _default_profile() -> str:
    return os.environ.get("GPS_PROFILE", "s128")


def _resolve_seed(seed: Optional[int], out: TextIO) -> int:
    """Explicit seed, or a fresh OS-sourced one echoed for reproducibility."""
    if seed is None:
        seed = int.from_bytes(os.urandom(8), "big")
        print(f"seed={seed}", file=out)
    return seed


def _coupon_seed_bytes(seed: int) -> bytes:
    if not 0 <= seed < 1 << 128:
        raise ValueError("coupon seed must fit in 128 bits")
    return seed.to_bytes(16, "big")


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_keygen(args) -> int:
    seed = _resolve_seed(args.seed, sys.stdout)
    rng = random.Random(seed)
    profile = make_profile(args.profile, prime_bits=args.prime_bits, rng=rng)
    keypair = keygen(profile, rng)
    with open(args.out, "w") as fh:
        fh.write(dump_key_file(profile, keypair))
    print(f"profile={profile.name} modulus_bits={profile.n_bits}")
    print(f"id={keypair.id_p.hex()}")
    print(f"out={args.out}")
    return EXIT_OK


def cmd_coupons(args) -> int:
    with open(args.key) as fh:
        profile, keypair = load_key_file(fh.read())
    seed = _resolve_seed(args.seed, sys.stdout)
    coupon_seed = CouponSeed(_coupon_seed_bytes(seed), args.count)
    coupons = make_coupons(profile, keypair, coupon_seed, args.count)
    with open(args.out, "w") as fh:
        fh.write(dump_coupon_file(profile, coupons))
    print(f"profile={profile.name} count={len(coupons)} out={args.out}")
    return EXIT_OK


def cmd_serve(args) -> int:
    with open(args.key) as fh:
        profile, keypair = load_key_file(fh.read())
    rng = random.Random(args.seed) if args.seed is not None else None
    server = VerifierServer(
        profile,
        {keypair.id_p: keypair.i_pub},
        host=args.host,
        port=args.port,
        timeout=args.timeout,
        rng=rng,
    )
    server.start()
    print(f"listening host={server.host} port={server.port}", flush=True)
    try:
        server.wait_rounds(args.rounds)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    print(f"served accepted={server.rounds_accepted} rejected={server.rounds_rejected}")
    return EXIT_OK


def cmd_auth(args) -> int:
    with open(args.key) as fh:
        profile, keypair = load_key_file(fh.read())
    with open(args.coupons) as fh:
        coupon_profile, coupons = load_coupon_file(fh.read())
    if (coupon_profile.n, coupon_profile.g) != (profile.n, profile.g):
        raise ValueError("coupon file was issued under a different modulus")

    session = ProverSession(profile, keypair, coupons, first_index=args.coupon_index)
    cfg = architecture(args.arch).config(args.word_bits, args.lut_bits)
    channel = TcpChannel.connect(args.host, args.port, timeout=args.timeout)
    try:
        verdict, _transcript = run_round(
            session, None, channel, arch=args.arch, cfg=cfg
        )
    finally:
        channel.close()

    result = session.last_result
    cycles = result.cycles if result is not None else "-"
    steps = result.step_count if result is not None else "-"
    outcome = "accept" if verdict.accept else "reject"
    if args.format == "kv":
        print(
            f"verdict={outcome} arch={args.arch} coupon={args.coupon_index} "
            f"cycles={cycles} steps={steps}"
        )
    else:
        print(f"{outcome} (coupon {args.coupon_index}, {args.arch} datapath, {cycles} cycles)")
    return EXIT_OK if verdict.accept else EXIT_REJECT


def _bench_one(design: Architecture, widths: Widths, cfg, rng: random.Random, iterations: int):
    """Simulate `iterations` responses; returns (cycles, steps, host seconds/iter)."""
    s = rng.getrandbits(widths.s_bits)
    state = design.prepare(s, cfg, widths.c_bits)
    inputs = [
        (rng.getrandbits(widths.c_bits), rng.getrandbits(widths.d_bits))
        for _ in range(iterations)
    ]
    result = None
    start = time.perf_counter()
    for n_v, r in inputs:
        result = design.respond(cfg, state, n_v, r, widths)
    elapsed = time.perf_counter() - start
    return result.cycles, result.step_count, elapsed / iterations


def cmd_bench(args) -> int:
    if args.profile not in PROFILE_PRESETS:
        raise ValueError(f"unknown profile {args.profile!r}")
    s_bits, preset_c, _ = PROFILE_PRESETS[args.profile]
    c_bits = args.challenge_bits if args.challenge_bits is not None else preset_c
    widths = Widths(s_bits, c_bits, commitment_bits(s_bits, c_bits))
    seed = _resolve_seed(args.seed, sys.stdout)
    rng = random.Random(seed)

    lines = []
    rows = []
    for arch, design in ARCHITECTURES.items():
        cfg = design.config(args.word_bits, args.lut_bits)
        cycles, steps, per_iter = _bench_one(design, widths, cfg, rng, args.iterations)
        report = cost_report(arch, s_bits, c_bits, args.word_bits, args.lut_bits)
        if report.latency_cycles != cycles:
            raise RuntimeError(
                f"{arch}: simulated {cycles} cycles but model says {report.latency_cycles}"
            )
        within = cycles <= RESPONSE_BUDGET_CYCLES
        tp = f"{float(report.throughput_bytes_per_cycle):.3f}"
        if args.format == "kv":
            lines.append(
                f"arch={arch} profile={args.profile} s_bits={s_bits} c_bits={c_bits} "
                f"cycles={cycles} steps={steps} budget_cycles={RESPONSE_BUDGET_CYCLES} "
                f"within_budget={'yes' if within else 'no'} "
                f"throughput_bytes_per_cycle={tp} memory_bits={report.memory_bits} "
                f"area_cells={report.area_estimate_cells} "
                f"host_seconds_per_iter={per_iter:.6f} iterations={args.iterations}"
            )
        else:
            rows.append(
                (
                    arch,
                    str(cycles),
                    "pass" if within else "FAIL",
                    tp,
                    str(report.memory_bits),
                    str(report.area_estimate_cells),
                    f"{per_iter * 1e3:.3f}",
                )
            )
    if args.format == "kv":
        _emit(args, "\n".join(lines))
        return EXIT_OK

    header = (
        "arch", "cycles", f"budget<={RESPONSE_BUDGET_CYCLES}", "bytes/cycle",
        "memory(bits)", "area(cells)", "host ms/iter",
    )
    all_rows = [header] + rows
    col_w = [max(len(row[i]) for row in all_rows) for i in range(len(header))]
    text_lines = [
        f"{args.profile}: s={s_bits} c={c_bits} d={widths.d_bits} "
        f"w={args.word_bits} l={args.lut_bits} ({args.iterations} iterations)"
    ]
    for row in all_rows:
        text_lines.append("  ".join(cell.ljust(col_w[i]) for i, cell in enumerate(row)).rstrip())
    text_lines.append(
        "host ms/iter is simulator wall-clock on this machine, not target time;"
        f" the budget column checks modeled cycles against {RESPONSE_BUDGET_CYCLES}"
        " (320 us at 8 MHz)."
    )
    _emit(args, "\n".join(text_lines))
    return EXIT_OK


def cmd_report(args) -> int:
    if args.check:
        failures = check_tradeoffs()
        for failure in failures:
            print(f"drift: {failure}", file=sys.stderr)
        print(
            "check: "
            + ("all committed trade-off values reproduced" if not failures
               else f"{len(failures)} value(s) drifted")
        )
        return EXIT_OK if not failures else 1

    sections = [
        render_tradeoff_table(fmt=args.format),
        render_adder_width_table(fmt=args.format),
    ]
    if args.format == "text":
        sections.append(coupon_storage_note(20))
    _emit(args, "\n\n".join(sections))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gpsauth", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen", help="generate a key file")
    p.add_argument("--profile", default=_default_profile(), choices=sorted(PROFILE_PRESETS))
    p.add_argument("--prime-bits", type=int, default=None,
                   help="override the profile's prime size")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_keygen)

    p = sub.add_parser("coupons", help="precompute coupons for a key")
    p.add_argument("--key", required=True)
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_coupons)

    p = sub.add_parser("serve", help="run the verifier endpoint on TCP")
    p.add_argument("--key", required=True)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0, help="0 picks a free port")
    p.add_argument("--rounds", type=int, default=None,
                   help="stop after this many completed rounds")
    p.add_argument("--timeout", type=float, default=5.0)
    p.add_argument("--seed", type=int, default=None,
                   help="challenge rng seed (default: OS entropy)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("auth", help="run one round as the prover")
    p.add_argument("--key", required=True)
    p.add_argument("--coupons", required=True)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, required=True)
    p.add_argument("--arch", default="serial", choices=tuple(ARCHITECTURES))
    p.add_argument("--coupon-index", type=int, default=0)
    p.add_argument("--word-bits", type=int, default=16, choices=(8, 16, 32))
    p.add_argument("--lut-bits", type=int, default=4)
    p.add_argument("--timeout", type=float, default=5.0)
    p.add_argument("--format", default="text", choices=("text", "kv"))
    p.set_defaults(func=cmd_auth)

    p = sub.add_parser("bench", help="simulate each architecture and report metrics")
    p.add_argument("--profile", default=_default_profile(), choices=sorted(PROFILE_PRESETS))
    p.add_argument("--challenge-bits", type=int, default=None)
    p.add_argument("--word-bits", type=int, default=16, choices=(8, 16, 32))
    p.add_argument("--lut-bits", type=int, default=4)
    p.add_argument("--iterations", type=int, default=10)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--format", default="text", choices=("text", "kv"))
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("report", help="render the trade-off tables")
    p.add_argument("--format", default="text", choices=("text", "kv"))
    p.add_argument("--check", action="store_true",
                   help="recompute committed values; exit nonzero on drift")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except TransportError as exc:
        print(f"transport failure: {exc}", file=sys.stderr)
        return EXIT_TRANSPORT
    except (
        FileFormatError,
        GenerationError,
        KeygenError,
        ConfigurationError,
        ProtocolError,
        OutOfCouponsError,
        ValueError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

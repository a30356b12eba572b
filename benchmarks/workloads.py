"""The benchmark's three workloads: set-up, closed-loop op drivers and the
correctness checks, which run with the clock stopped.

Every input is drawn from ``random.Random`` streams keyed by the run seed,
so one seed always gives the same profiles, keys, coupons, challenges and
op mix. Host time is measured with ``perf_counter_ns``; modeled cycles are
checked, never timed.
"""

from __future__ import annotations

import os
import random
from concurrent.futures import ThreadPoolExecutor
from array import array
from dataclasses import dataclass, field
from time import perf_counter, perf_counter_ns

from gpsauth.arith import mul_oracle
from gpsauth.costmodel import latency_estimate
from gpsauth.params import (
    Coupon,
    CouponSeed,
    dump_coupon_file,
    keygen,
    load_coupon_file,
    make_coupons,
    make_profile,
)
from gpsauth.protocol import (
    Challenge,
    FramingError,
    ProtocolError,
    ProverSession,
    Response,
    TcpChannel,
    TransportError,
    Verdict,
    VerifierServer,
    encode,
    read_message,
)

from tracing import SEGMENT_NS, Meter, Segment, SpanLog, host_speed, lap, median, peak_rss_mib

ARCHES = ("serial", "parallel", "hybrid")
TCP_CLIENTS = 2  # one client thread per known prover
TAMPER_EVERY = 16  # every 16th verify_tcp round sends y+1 and must be rejected
# prover_sim ops per profile in one cycle of the mix (70/28/2 %). Serial
# costs ~30x hybrid on the host, so with these shares the median op is a
# hybrid response, the 90th percentile a parallel one, and serial takes
# over half the wall-clock: each architecture sets one gated metric.
SIM_MIX = {"hybrid": 35, "parallel": 14, "serial": 1}

ROUND_ERRORS = (TransportError, FramingError, ProtocolError)
REPLAY_RECORDS = 128  # op records kept for the traced run's layer replay
POOL_CHUNK = 32  # coupons issued per timed set-up step and per top-up
# verify_tcp tops a client's pool up, with the clock stopped, when fewer
# coupons than this are left before a segment: far more than the rounds of
# one 100 ms segment, so a timed phase never ends on an empty pool.
POOL_LOW = 512
# verify_tcp reads peak RSS once the clients have done this many rounds:
# VerifierServer keeps every worker thread object, so a reading at the end
# of the phase would grow with the round rate.
RSS_AT_ROUNDS = 4096


@dataclass(frozen=True)
class Scale:
    """Sizes of one run: the benchmark command uses FULL, its tests TOY."""

    profiles: tuple[str, str] = ("s128", "s512")
    setup_reps: int = 9
    tcp_pool: int = 6144  # coupons per prover built in set-up; topped up when low
    sim_pool: int = 256
    batch: int = 32
    probe_rounds: int = 64
    sweep_reps: int = 101


FULL = Scale()
TOY = Scale(profiles=("toy", "toy"), setup_reps=2, tcp_pool=300, sim_pool=16,
            batch=4, probe_rounds=8, sweep_reps=5)


@dataclass
class Phase:
    """Outcome of one timed phase: its segments, ops that raised or failed
    their check, and a sample of op records for the layer replay."""

    segments: list[Segment] = field(default_factory=list)
    errors: int = 0
    failed: int = 0
    sample: list = field(default_factory=list)
    topups: int = 0  # coupon chunks added to verify_tcp pools, clock stopped
    rss_mib: float | None = None  # peak RSS read at a fixed op count, if any

    @property
    def attempted(self) -> int:
        return sum(len(seg.latencies_ns) for seg in self.segments) + self.errors

    def keep_sample(self, records: list) -> None:
        self.sample += records[:REPLAY_RECORDS - len(self.sample)]

    def flush(self, meter: Meter, check, records: list) -> None:
        """Check the records of a single-threaded loop with its clock
        stopped, and let them go."""
        meter.pause()
        self.failed += check(records)
        self.keep_sample(records)
        records.clear()


@dataclass
class SetupTimes:
    """Host seconds of each make_profile / keygen call made during set-up."""

    make_profile: list[float] = field(default_factory=list)
    keygen: list[float] = field(default_factory=list)


def timed_setup(fn, *args):
    """fn(*args) and its wall-clock seconds scaled to the reference host;
    set-up is big-integer work (prime search, modexp)."""
    speed = host_speed("bigint")
    t0 = perf_counter()
    out = fn(*args)
    return out, (perf_counter() - t0) * speed


def generate_keys(scale: Scale, seed: int, slots: tuple[int, ...], n_keys: int, times: SetupTimes):
    """Profiles and keys for the given profile slots, drawn from the run
    seed, and the time of that step in reference-host seconds: the median
    of setup_reps timed repetitions of it on one fixed sub-seed. The prime
    search behind a profile takes a seed-dependent number of candidates, so
    timing the run seed's own search would make setup_s follow the seed
    rather than the code; the fixed sub-seed gives every run the same work."""
    fixture = _keys_once(scale, seed, slots, n_keys, None)
    totals = [timed_setup(_keys_once, scale, "setup", slots, n_keys, times)[1]
              for _ in range(scale.setup_reps)]
    return fixture, median(totals)


def _keys_once(scale: Scale, seed, slots, n_keys: int, times: SetupTimes | None):
    out = []
    for slot in slots:
        t0 = perf_counter()
        profile = make_profile(scale.profiles[slot], rng=random.Random(f"{seed}/profile/{slot}"))
        t1 = perf_counter()
        keys = [keygen(profile, random.Random(f"{seed}/key/{slot}/{k}")) for k in range(n_keys)]
        if times is not None:
            times.make_profile.append(t1 - t0)
            times.keygen.append((perf_counter() - t1) / n_keys)
        out.append((profile, keys))
    return out


def extend_pool(pool: list, profile, keypair, label: str, count: int) -> None:
    """Append count coupons to pool, indexed after its last one, issued from
    a seed keyed by label and the pool's current size."""
    base = len(pool)
    seed = CouponSeed(random.Random(f"{label}/{base}").randbytes(16), count)
    pool += [Coupon(base + c.index, c.r, c.x)
             for c in make_coupons(profile, keypair, seed, count)]


def timed_pool(profile, keypair, label: str, count: int):
    """A pool of count coupons and its issue time in reference-host seconds.
    Coupons are issued in chunks, each timed after its own speed probe, and
    the time is count times the median per-coupon time of the chunks, so a
    burst of host load during one chunk does not move it."""
    pool, per_coupon = [], []
    while len(pool) < count:
        size = min(POOL_CHUNK, count - len(pool))
        per_coupon.append(timed_setup(extend_pool, pool, profile, keypair, label, size)[1] / size)
    return pool, median(per_coupon) * count


def coupon_seed(seed: int, label: str, count: int) -> CouponSeed:
    return CouponSeed(random.Random(f"{seed}/{label}").randbytes(16), count)


def _expected_y(coupon_r: int, n_v: int, s: int) -> int:
    return coupon_r + mul_oracle(n_v, s)


# ---------------------------------------------------------------------------
# verify_tcp
# ---------------------------------------------------------------------------

class TcpClient:
    """One prover with a coupon pool, running closed-loop TCP rounds. The
    pool is topped up from seeds keyed by label."""

    def __init__(self, profile, keypair, pool, label: str):
        self.profile, self.keypair, self.pool, self.label = profile, keypair, pool, label
        self.session = ProverSession(profile, keypair, pool)

    def run(self, host, port, stop_at_ns: int, max_rounds: int, spans: SpanLog | None,
            client_id: int):
        """Rounds until the deadline, max_rounds or the end of the pool.
        Returns (records, latencies_ns, errors)."""
        records, latencies, errors = [], array("q"), 0
        while (len(latencies) + errors < max_rounds and perf_counter_ns() < stop_at_ns
               and self.session.next_index < len(self.pool)):
            index = self.session.next_index
            tamper = index % TAMPER_EVERY == TAMPER_EVERY - 1
            marks = [] if spans is not None else None
            t0 = perf_counter_ns()
            try:
                record = self._round(host, port, tamper, marks)
            except ROUND_ERRORS:
                errors += 1
                self.session = ProverSession(self.profile, self.keypair, self.pool,
                                             first_index=index + 1)
                continue
            latencies.append(perf_counter_ns() - t0)
            records.append((index,) + record)
            if marks is not None:
                spans.add_op(f"tcp-{client_id}-{index}", "verify_tcp.round", marks)
        return records, latencies, errors

    def _round(self, host, port, tamper: bool, marks):
        lap(marks, "start")
        channel = TcpChannel.connect(host, port)
        try:
            lap(marks, "protocol.TcpChannel.connect")
            commitment = self.session.commit()
            lap(marks, "protocol.ProverSession.commit")
            channel.send(encode(commitment))
            challenge = read_message(channel.recv_exact)
            lap(marks, "protocol.wait_challenge")
            if not isinstance(challenge, Challenge):
                raise ProtocolError(f"expected a challenge, got {challenge!r}")
            y = self.session.respond(challenge, arch="hybrid").y
            lap(marks, "protocol.ProverSession.respond")
            channel.send(encode(Response(y + 1 if tamper else y)))
            verdict = read_message(channel.recv_exact)
            lap(marks, "protocol.wait_verdict")
        finally:
            channel.close()
        if not isinstance(verdict, Verdict):
            raise ProtocolError(f"expected a verdict, got {verdict!r}")
        return challenge.n_v, y, tamper, verdict.accept

    def check(self, records) -> int:
        """Ops whose y differs from r + n_V*s or whose verdict is not the expected one."""
        s = self.keypair.s
        return sum(
            y != _expected_y(self.pool[index].r, n_v, s) or accept == tamper
            for index, n_v, y, tamper, accept in records
        )


def pin_to_one_cpu() -> None:
    """Bind the calling thread, and every thread it starts from now on, to
    one CPU. Client, accept and worker threads then hand off to each other
    on that CPU: a wake-up on the other vCPU waits whenever the hypervisor
    has descheduled it, which under co-tenant load varied p90 by 20 %."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_tcp_clients(server: VerifierServer, clients: list[TcpClient], seconds: float,
                    max_rounds: int, spans: SpanLog | None) -> Phase:
    """Closed loop: each client thread starts its next round when the last
    ends, for `seconds` or `max_rounds` rounds per client. The loop runs in
    segments with a speed probe between them, while no client is active;
    ops are checked and low coupon pools topped up between segments.
    Raises RuntimeError if a pool still runs out within a segment."""
    phase, budget_ns, elapsed_ns = Phase(), int(seconds * 1e9), 0
    done = [0] * len(clients)
    with ThreadPoolExecutor(max_workers=len(clients)) as pool:
        while elapsed_ns < budget_ns and max(done) < max_rounds:
            for i, c in enumerate(clients):
                while len(c.pool) - c.session.next_index < min(POOL_LOW, max_rounds - done[i]):
                    extend_pool(c.pool, c.profile, c.keypair, c.label, POOL_CHUNK)
                    phase.topups += 1
            segment = Segment(host_speed("handoff"))
            start = perf_counter_ns()
            stop_at = start + min(SEGMENT_NS, budget_ns - elapsed_ns)
            futures = [pool.submit(c.run, server.host, server.port, stop_at,
                                   max_rounds - done[i], spans, i)
                       for i, c in enumerate(clients)]
            results = [f.result() for f in futures]
            segment.elapsed_ns = perf_counter_ns() - start
            elapsed_ns += segment.elapsed_ns
            phase.segments.append(segment)
            for i, (client, (records, latencies, errors)) in enumerate(zip(clients, results)):
                done[i] += len(latencies) + errors
                segment.latencies_ns += latencies
                phase.errors += errors
                phase.failed += client.check(records)
                if client.session.next_index == len(client.pool) and done[i] < max_rounds:
                    raise RuntimeError(f"client {i} ran out of coupons within one segment; "
                                       "raise POOL_LOW")
            phase.keep_sample(results[0][0])
            if phase.rss_mib is None and sum(done) >= RSS_AT_ROUNDS:
                phase.rss_mib = peak_rss_mib()
    return phase


class VerifyTcp:
    """In-process VerifierServer on loopback, two provers, one client thread each."""

    name = "verify_tcp"

    def __init__(self, seed: int, scale: Scale):
        pin_to_one_cpu()  # before the server and client threads start
        self.times = SetupTimes()
        ((profile, keys),), key_s = generate_keys(scale, seed, (0,), TCP_CLIENTS, self.times)
        labels = [f"{seed}/tcp-pool/{k}" for k in range(len(keys))]
        pools = [timed_pool(profile, kp, label, scale.tcp_pool)
                 for kp, label in zip(keys, labels)]
        self.server, server_s = timed_setup(lambda: VerifierServer(
            profile, {kp.id_p: kp.i_pub for kp in keys},
            rng=random.Random(f"{seed}/challenges")).start())
        self.setup_s = key_s + sum(s for _, s in pools) + server_s
        self.clients = [TcpClient(profile, kp, pool, label)
                        for kp, (pool, _), label in zip(keys, pools, labels)]
        self.profile, self.keypair = profile, keys[0]

    def run(self, seconds: float, spans: SpanLog | None) -> Phase:
        return run_tcp_clients(self.server, self.clients, seconds, 1 << 62, spans)

    def check(self, records) -> int:
        return self.clients[0].check(records)

    def replay_inputs(self, sample):
        """Coupons and challenges of client 0's sampled rounds."""
        pool = self.clients[0].pool
        return [pool[rec[0]] for rec in sample], [rec[1] for rec in sample]

    def close(self) -> None:
        self.server.stop()


# ---------------------------------------------------------------------------
# prover_sim
# ---------------------------------------------------------------------------

class ProverSim:
    """ProverSession.commit + respond on every architecture at two profiles."""

    name = "prover_sim"
    check_every = 2048  # ops checked per stop of the clock

    def __init__(self, seed: int, scale: Scale):
        self.times = SetupTimes()
        fixtures, key_s = generate_keys(scale, seed, (0, 1), 1, self.times)
        pools = [timed_pool(profile, keys[0], f"{seed}/sim-pool/{slot}", scale.sim_pool)
                 for slot, (profile, keys) in enumerate(fixtures)]
        self.slots = [(profile, keys[0], pool)
                      for (profile, keys), (pool, _) in zip(fixtures, pools)]
        self.setup_s = key_s + sum(s for _, s in pools)
        self.sessions = [ProverSession(p, kp, pool) for p, kp, pool in self.slots]
        mix = [(slot, arch) for slot in range(len(self.slots))
               for arch, count in SIM_MIX.items() for _ in range(count)]
        random.Random(f"{seed}/mix").shuffle(mix)
        self.mix = mix
        self.challenges = random.Random(f"{seed}/sim-challenges")
        self.profile, self.keypair = self.slots[0][0], self.slots[0][1]

    def run(self, seconds: float, spans: SpanLog | None) -> Phase:
        phase, meter, records = Phase(), Meter(seconds, "interp"), []
        op = 0
        while meter.running():
            slot, arch = self.mix[op % len(self.mix)]
            op += 1
            profile, keypair, pool = self.slots[slot]
            session = self.sessions[slot]
            if session.next_index == len(pool):
                session = self.sessions[slot] = ProverSession(profile, keypair, pool)
            challenge = Challenge(self.challenges.getrandbits(profile.c_bits))
            marks = [] if spans is not None else None
            t0 = perf_counter_ns()
            lap(marks, "start")
            session.commit()
            lap(marks, "protocol.ProverSession.commit")
            y = session.respond(challenge, arch=arch).y
            lap(marks, "protocol.ProverSession.respond")
            meter.record(perf_counter_ns() - t0)
            records.append((slot, arch, session.next_index - 1, challenge.n_v, y,
                            session.last_result.cycles))
            if marks is not None:
                spans.add_op(f"sim-{op}", f"prover_sim.{arch}", marks)
            if len(records) >= self.check_every:
                phase.flush(meter, self.check, records)
        phase.flush(meter, self.check, records)
        phase.segments = meter.segments
        return phase

    def check(self, records) -> int:
        """Ops whose y differs from r + n_V*s or whose cycles differ from the cost model."""
        failed = 0
        for slot, arch, index, n_v, y, cycles in records:
            profile, keypair, pool = self.slots[slot]
            failed += (y != _expected_y(pool[index].r, n_v, keypair.s)
                       or cycles != latency_estimate(arch, profile.s_bits, profile.c_bits))
        return failed

    def replay_inputs(self, sample):
        """Coupons and challenges of the sampled ops at the first profile."""
        pool = self.slots[0][2]
        mine = [rec for rec in sample if rec[0] == 0]
        return [pool[rec[2]] for rec in mine], [rec[3] for rec in mine]

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# coupon_issue
# ---------------------------------------------------------------------------

class CouponIssue:
    """Trusted issuer: make, dump and load a batch, then regenerate one coupon."""

    name = "coupon_issue"
    check_every = 16  # batches checked per stop of the clock; bounds the memory they hold

    def __init__(self, seed: int, scale: Scale):
        self.times = SetupTimes()
        ((profile, (keypair,)),), self.setup_s = generate_keys(scale, seed, (0,), 1, self.times)
        self.profile, self.keypair = profile, keypair
        self.batch = scale.batch
        self.batches = random.Random(f"{seed}/batches")

    def run(self, seconds: float, spans: SpanLog | None) -> Phase:
        phase, meter, records = Phase(), Meter(seconds, "bigint"), []
        profile, keypair = self.profile, self.keypair
        op = 0
        while meter.running():
            op += 1
            seed = CouponSeed(self.batches.randbytes(16), self.batch)
            index = self.batches.randrange(self.batch)
            marks = [] if spans is not None else None
            t0 = perf_counter_ns()
            lap(marks, "start")
            coupons = make_coupons(profile, keypair, seed, self.batch)
            lap(marks, "params.make_coupons")
            text = dump_coupon_file(profile, coupons)
            lap(marks, "params.dump_coupon_file")
            loaded_profile, loaded = load_coupon_file(text)
            lap(marks, "params.load_coupon_file")
            x = ProverSession(profile, keypair, seed, first_index=index).commit().x
            lap(marks, "params.regenerate_coupon")
            meter.record(perf_counter_ns() - t0)
            records.append((coupons, loaded_profile, loaded, index, x))
            if marks is not None:
                spans.add_op(f"issue-{op}", "coupon_issue.batch", marks)
            if len(records) >= self.check_every:
                phase.flush(meter, self.check, records)
        phase.flush(meter, self.check, records)
        phase.segments = meter.segments
        return phase

    def check(self, records) -> int:
        """Batches with a coupon x != g^r mod n, a file that does not round-trip,
        or a regenerated coupon that differs from the issued one."""
        p = self.profile
        return sum(
            any(c.index != i or c.x != pow(p.g, c.r, p.n) for i, c in enumerate(coupons))
            or loaded_profile != p or loaded != coupons or x != coupons[index].x
            for coupons, loaded_profile, loaded, index, x in records
        )

    def replay_inputs(self, sample):
        """Coupons of the sampled batches; coupon_issue draws no challenges."""
        return [c for rec in sample for c in rec[0]], None

    def close(self) -> None:
        pass


WORKLOADS = {w.name: w for w in (VerifyTcp, ProverSim, CouponIssue)}

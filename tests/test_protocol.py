import random
import socket
import threading
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpsauth.arith import modexp
from gpsauth.datapath import KcmConfig, SerialConfig
from gpsauth.params import CouponSeed, keypair_from_secret
from gpsauth.protocol import (
    Challenge,
    Commitment,
    FramingError,
    OutOfCouponsError,
    ProtocolError,
    ProverSession,
    ProverState,
    Response,
    TcpChannel,
    TransportError,
    Verdict,
    VerifierServer,
    VerifierSession,
    VerifierState,
    decode,
    encode,
    read_message,
    run_round,
    serve_round,
)


class StubRng:
    """getrandbits double that returns a preset challenge."""

    def __init__(self, value):
        self.value = value

    def getrandbits(self, k):
        assert self.value < (1 << k)
        return self.value


def make_prover(profile, keypair, coupons, first_index=0):
    return ProverSession(profile, keypair, coupons, first_index=first_index)


def make_verifier(profile, keypair):
    return VerifierSession(profile, {keypair.id_p: keypair.i_pub})


# ---------------------------------------------------------------------------
# codec
# ---------------------------------------------------------------------------

class TestCodec:
    @pytest.mark.parametrize("msg", [
        Commitment(id_p=b"\x01\x02\x03\x04", x=0),
        Commitment(id_p=b"\xff\xff\xff\xff", x=1 << 1023),
        Challenge(0),
        Challenge(0xDEADBEEF),
        Response(0),
        Response((1 << 240) - 1),
        Verdict(True),
        Verdict(False),
    ])
    def test_round_trip(self, msg):
        assert decode(encode(msg)) == msg

    def test_zero_encodes_with_empty_payload(self):
        assert encode(Challenge(0)) == b"\x02\x00\x00\x00\x00"
        assert encode(Response(0))[1:] == b"\x00\x00\x00\x00"

    def test_known_frames(self):
        assert encode(Verdict(True)) == b"\x04\x01"
        assert encode(Verdict(False)) == b"\x04\x00"
        assert encode(Challenge(0x1234)) == b"\x02\x00\x00\x00\x02\x12\x34"
        assert encode(Commitment(b"ABCD", 7)) == b"\x01ABCD\x00\x00\x00\x01\x07"

    def test_non_minimal_integer_rejected(self):
        with pytest.raises(FramingError, match="minimal"):
            decode(b"\x02\x00\x00\x00\x02\x00\x34")

    def test_trailing_garbage_rejected(self):
        frame = encode(Challenge(5)) + b"\x00"
        with pytest.raises(FramingError, match="trailing"):
            decode(frame)

    def test_unknown_kind_rejected(self):
        with pytest.raises(FramingError, match="unknown"):
            decode(b"\x09\x01")

    def test_bad_verdict_byte_rejected(self):
        with pytest.raises(FramingError, match="verdict"):
            decode(b"\x04\x02")

    def test_truncation_rejected(self):
        good = encode(Commitment(b"ABCD", 1 << 64))
        for cut in (0, 1, 5, 9, len(good) - 1):
            with pytest.raises(FramingError):
                decode(good[:cut])

    def test_oversized_id_rejected(self):
        with pytest.raises(ValueError):
            encode(Commitment(b"ABCDE", 1))

    def test_negative_integer_rejected(self):
        with pytest.raises(ValueError):
            encode(Challenge(-1))

    @given(st.binary(max_size=64))
    @settings(max_examples=400)
    def test_fuzz_decode_is_total_and_canonical(self, blob):
        # decode either raises FramingError or accepts a canonical frame
        try:
            msg = decode(blob)
        except FramingError:
            return
        assert encode(msg) == blob

    @given(
        st.one_of(
            st.builds(Commitment, id_p=st.binary(min_size=4, max_size=4),
                      x=st.integers(0, 1 << 256)),
            st.builds(Challenge, n_v=st.integers(0, 1 << 64)),
            st.builds(Response, y=st.integers(0, 1 << 256)),
            st.builds(Verdict, accept=st.booleans()),
        )
    )
    @settings(max_examples=200)
    def test_round_trip_property(self, msg):
        assert decode(encode(msg)) == msg


# ---------------------------------------------------------------------------
# sessions
# ---------------------------------------------------------------------------

class TestProverSession:
    def test_commit_consumes_sequential_coupons(self, toy_profile, toy_keypair, toy_coupons):
        prover = make_prover(toy_profile, toy_keypair, toy_coupons[:3])
        seen = []
        for _ in range(3):
            com = prover.commit()
            seen.append(com.x)
            prover.respond(Challenge(1))
        assert seen == [c.x for c in toy_coupons[:3]]
        assert len(set(seen)) == 3  # never the same commitment twice

    def test_exhaustion(self, toy_profile, toy_keypair):
        prover = make_prover(toy_profile, toy_keypair, [])
        with pytest.raises(OutOfCouponsError):
            prover.commit()
        assert prover.state is ProverState.IDLE  # exhaustion does not corrupt state

    def test_exhaustion_from_seed_source(self, toy_profile, toy_keypair):
        seed = CouponSeed(b"0123456789abcdef", 1)
        prover = make_prover(toy_profile, toy_keypair, seed)
        prover.commit()
        prover.respond(Challenge(0))
        with pytest.raises(OutOfCouponsError):
            prover.commit()

    def test_seed_source_matches_list_source(self, toy_profile, toy_keypair, toy_coupons):
        seed = CouponSeed(b"toy-coupon-seed!", 1200)
        a = make_prover(toy_profile, toy_keypair, seed)
        b = make_prover(toy_profile, toy_keypair, toy_coupons)
        for _ in range(3):
            assert a.commit() == b.commit()
            assert a.respond(Challenge(5)) == b.respond(Challenge(5))

    def test_double_commit_rejected(self, toy_profile, toy_keypair, toy_coupons):
        prover = make_prover(toy_profile, toy_keypair, toy_coupons)
        prover.commit()
        with pytest.raises(ProtocolError, match="in progress"):
            prover.commit()

    def test_respond_needs_commitment(self, toy_profile, toy_keypair, toy_coupons):
        prover = make_prover(toy_profile, toy_keypair, toy_coupons)
        with pytest.raises(ProtocolError, match="commitment"):
            prover.respond(Challenge(1))

    def test_out_of_range_challenge_aborts(self, toy_profile, toy_keypair, toy_coupons):
        prover = make_prover(toy_profile, toy_keypair, toy_coupons)
        prover.commit()
        with pytest.raises(ProtocolError, match="range"):
            prover.respond(Challenge(1 << toy_profile.c_bits))
        assert prover.state is ProverState.DONE

    def test_out_of_order_store_rejected(self, toy_profile, toy_keypair, toy_coupons):
        prover = make_prover(toy_profile, toy_keypair, list(reversed(toy_coupons[:4])))
        with pytest.raises(ProtocolError, match="order"):
            prover.commit()

    def test_response_value_and_arch_agreement(self, toy_profile, toy_keypair, toy_coupons):
        responses = set()
        for arch in ("serial", "parallel", "hybrid"):
            prover = make_prover(toy_profile, toy_keypair, toy_coupons)
            prover.commit()
            resp = prover.respond(Challenge(0xA7), arch=arch)
            responses.add(resp.y)
            assert prover.last_result is not None
            assert prover.last_result.value == resp.y
        assert responses == {toy_coupons[0].r + 0xA7 * toy_keypair.s}

    def test_zero_challenge_returns_r(self, toy_profile, toy_keypair, toy_coupons):
        prover = make_prover(toy_profile, toy_keypair, toy_coupons)
        prover.commit()
        assert prover.respond(Challenge(0)).y == toy_coupons[0].r

    def test_unknown_arch_rejected(self, toy_profile, toy_keypair, toy_coupons):
        prover = make_prover(toy_profile, toy_keypair, toy_coupons)
        prover.commit()
        with pytest.raises(ProtocolError, match="architecture"):
            prover.respond(Challenge(1), arch="quantum")

    @pytest.mark.parametrize("arch, cfg, message", [
        ("parallel", SerialConfig(), "parallel takes a KcmConfig, got SerialConfig"),
        ("serial", KcmConfig(), "serial takes a SerialConfig, got KcmConfig"),
    ], ids=["parallel-with-serial-config", "serial-with-kcm-config"])
    def test_config_of_another_design_rejected(
            self, toy_profile, toy_keypair, toy_coupons, arch, cfg, message):
        prover = make_prover(toy_profile, toy_keypair, toy_coupons)
        prover.commit()
        with pytest.raises(ProtocolError, match=message):
            prover.respond(Challenge(1), arch=arch, cfg=cfg)


class TestVerifierSession:
    def run_honest_round(self, profile, keypair, coupons, index, n_v, arch="serial"):
        prover = make_prover(profile, keypair, coupons, first_index=index)
        verifier = make_verifier(profile, keypair)
        com = prover.commit()
        ch = verifier.challenge(com, StubRng(n_v))
        assert isinstance(ch, Challenge) and ch.n_v == n_v
        resp = prover.respond(ch, arch=arch)
        return verifier, com, resp, verifier.decide(resp)

    def test_honest_round_accepts(self, toy_profile, toy_keypair, toy_coupons):
        coupon = toy_coupons[0]
        prover = make_prover(toy_profile, toy_keypair, [coupon])
        verifier = make_verifier(toy_profile, toy_keypair)
        ch = verifier.challenge(prover.commit(), random.Random(5))
        verdict = verifier.decide(prover.respond(ch))
        assert verdict.accept
        assert verifier.state is VerifierState.DECIDED

    def test_unknown_prover_rejected_at_commit(self, toy_profile, toy_keypair, toy_coupons):
        verifier = VerifierSession(toy_profile, {})
        out = verifier.challenge(Commitment(toy_keypair.id_p, toy_coupons[0].x),
                                 random.Random(1))
        assert out == Verdict(accept=False)
        assert verifier.state is VerifierState.DECIDED

    def test_challenge_in_range_and_reproducible(self, toy_profile, toy_keypair, toy_coupons):
        com = Commitment(toy_keypair.id_p, toy_coupons[0].x)
        values = set()
        for _ in range(100):
            v = make_verifier(toy_profile, toy_keypair)
            ch = v.challenge(com, random.Random(99))
            values.add(ch.n_v)
            assert 0 <= ch.n_v < 2**toy_profile.c_bits
        assert len(values) == 1  # fixed rng seed, fixed challenge

    def test_double_challenge_rejected(self, toy_profile, toy_keypair, toy_coupons):
        verifier = make_verifier(toy_profile, toy_keypair)
        com = Commitment(toy_keypair.id_p, toy_coupons[0].x)
        verifier.challenge(com, random.Random(1))
        with pytest.raises(ProtocolError, match="outstanding"):
            verifier.challenge(com, random.Random(2))

    def test_decide_needs_challenge(self, toy_profile, toy_keypair):
        verifier = make_verifier(toy_profile, toy_keypair)
        with pytest.raises(ProtocolError, match="challenge"):
            verifier.decide(Response(1))

    def test_wrong_y_rejected(self, toy_profile, toy_keypair, toy_coupons):
        _, _, resp, verdict = self.run_honest_round(
            toy_profile, toy_keypair, toy_coupons, index=1, n_v=0x33)
        assert verdict.accept
        verifier = make_verifier(toy_profile, toy_keypair)
        verifier.challenge(Commitment(toy_keypair.id_p, toy_coupons[1].x), StubRng(0x33))
        assert not verifier.decide(Response(resp.y + 1)).accept

    def test_range_boundary_rejected_even_with_forged_equation(
            self, toy_profile, toy_keypair):
        # adversary picks y = D + phi and works the commitment backwards so
        # the exponent equation holds; the range check must still reject
        p = toy_profile
        n_v = 0x5A
        y = p.response_bound
        forged_x = (modexp(p.g, y, p.n) * modexp(toy_keypair.i_pub, n_v, p.n)) % p.n
        verifier = make_verifier(p, toy_keypair)
        verifier.challenge(Commitment(toy_keypair.id_p, forged_x), StubRng(n_v))
        assert not verifier.decide(Response(y)).accept

    def test_range_boundary_inclusive_end(self, toy_profile, toy_keypair):
        # y = D + phi - 1 is the last accepted value
        p = toy_profile
        n_v = 0x11
        y = p.response_bound - 1
        x = (modexp(p.g, y, p.n) * modexp(toy_keypair.i_pub, n_v, p.n)) % p.n
        verifier = make_verifier(p, toy_keypair)
        verifier.challenge(Commitment(toy_keypair.id_p, x), StubRng(n_v))
        assert verifier.decide(Response(y)).accept

    def test_negative_y_rejected(self, toy_profile, toy_keypair, toy_coupons):
        verifier = make_verifier(toy_profile, toy_keypair)
        verifier.challenge(Commitment(toy_keypair.id_p, toy_coupons[0].x), StubRng(3))
        assert not verifier.decide(Response(-1)).accept

    def test_honest_y_below_bound(self, toy_profile, toy_keypair, toy_coupons):
        # r < D and n_v*s <= (C-1)(S-1), so y < D + phi always
        p = toy_profile
        worst = (2**p.d_bits - 1) + (2**p.c_bits - 1) * (2**p.s_bits - 1)
        assert worst == p.response_bound - 1
        rng = random.Random(8)
        for coupon in toy_coupons[:50]:
            y = coupon.r + rng.getrandbits(p.c_bits) * toy_keypair.s
            assert y < p.response_bound

    def test_reset_clears_round(self, toy_profile, toy_keypair, toy_coupons):
        verifier = make_verifier(toy_profile, toy_keypair)
        verifier.challenge(Commitment(toy_keypair.id_p, toy_coupons[0].x), StubRng(3))
        verifier.reset()
        assert verifier.state is VerifierState.IDLE
        ch = verifier.challenge(Commitment(toy_keypair.id_p, toy_coupons[1].x), StubRng(4))
        assert isinstance(ch, Challenge)


class TestSoundnessSmoke:
    def test_bit_flips_in_fields_reject(self, toy_profile, toy_keypair, toy_coupons):
        p = toy_profile
        rng = random.Random(17)
        for i in range(20):
            coupon = toy_coupons[100 + i]
            n_v = rng.getrandbits(p.c_bits)
            y = coupon.r + n_v * toy_keypair.s

            def verdict_for(x_val, challenge, y_val):
                v = make_verifier(p, toy_keypair)
                v.challenge(Commitment(toy_keypair.id_p, x_val), StubRng(challenge))
                return v.decide(Response(y_val))

            assert verdict_for(coupon.x, n_v, y).accept
            for bit in rng.sample(range(p.d_bits + 1), 20):
                assert not verdict_for(coupon.x, n_v, y ^ (1 << bit)).accept
            for bit in rng.sample(range(p.n_bits), 10):
                assert not verdict_for(coupon.x ^ (1 << bit), n_v, y).accept
            for bit in range(p.c_bits):
                mutated = n_v ^ (1 << bit)
                # response computed for the mutated challenge, checked
                # against the original
                y_mut = coupon.r + mutated * toy_keypair.s
                assert not verdict_for(coupon.x, n_v, y_mut).accept


# ---------------------------------------------------------------------------
# round drivers and transports
# ---------------------------------------------------------------------------

class TestRunRoundInMemory:
    def test_full_round_transcript(self, channel_pair, toy_profile, toy_keypair, toy_coupons):
        prover = make_prover(toy_profile, toy_keypair, toy_coupons)
        verifier = make_verifier(toy_profile, toy_keypair)
        verdict, transcript = run_round(
            prover, verifier, channel_pair(), rng=random.Random(5))
        assert verdict.accept
        assert [label for label, _ in transcript] == [
            "commitment", "challenge", "response", "verdict"]
        # every frame in the transcript is decodable
        for _, frame in transcript:
            decode(frame)

    def test_eight_in_a_row(self, channel_pair, toy_profile, toy_keypair, toy_coupons):
        prover = make_prover(toy_profile, toy_keypair, toy_coupons)
        verifier = make_verifier(toy_profile, toy_keypair)
        rng = random.Random(6)
        for i in range(8):
            verdict, _ = run_round(prover, verifier, channel_pair(), rng=rng,
                                   arch=("serial", "parallel", "hybrid")[i % 3])
            assert verdict.accept
        assert prover.next_index == 8

    def test_unknown_prover_round(self, channel_pair, toy_profile, toy_keypair, toy_coupons):
        prover = make_prover(toy_profile, toy_keypair, toy_coupons)
        verifier = VerifierSession(toy_profile, {})  # knows nobody
        verdict, transcript = run_round(
            prover, verifier, channel_pair(), rng=random.Random(5))
        assert not verdict.accept
        assert [label for label, _ in transcript] == ["commitment", "verdict"]

    def test_local_verifier_needs_rng(self, channel_pair, toy_profile, toy_keypair, toy_coupons):
        prover = make_prover(toy_profile, toy_keypair, toy_coupons)
        verifier = make_verifier(toy_profile, toy_keypair)
        with pytest.raises(ValueError, match="rng"):
            run_round(prover, verifier, channel_pair())

    def test_transport_abort_resets_verifier(
            self, channel_pair, toy_profile, toy_keypair, toy_coupons):
        prover = make_prover(toy_profile, toy_keypair, toy_coupons)
        verifier = make_verifier(toy_profile, toy_keypair)
        prover_ch, verifier_ch = channel_pair(timeout=0.1)
        verifier_ch.close()  # far end goes away mid-round
        with pytest.raises(TransportError):
            run_round(prover, verifier, (prover_ch, verifier_ch), rng=random.Random(1))
        assert verifier.state is VerifierState.IDLE

    def test_prover_abort_resets_verifier(
            self, channel_pair, toy_profile, toy_keypair, toy_coupons):
        verifier = make_verifier(toy_profile, toy_keypair)
        rng = random.Random(7)
        prover = make_prover(toy_profile, toy_keypair, toy_coupons)
        with pytest.raises(ProtocolError, match="architecture"):
            run_round(prover, verifier, channel_pair(), rng=rng, arch="bogus")
        assert verifier.state is VerifierState.IDLE
        # the same verifier session serves the next round
        prover = make_prover(toy_profile, toy_keypair, toy_coupons, first_index=1)
        verdict, _ = run_round(prover, verifier, channel_pair(), rng=rng)
        assert verdict.accept


class TestInMemoryChannel:
    def test_byte_stream_reassembly(self, channel_pair):
        a, b = channel_pair()
        a.send(b"\x01\x02")
        a.send(b"\x03")
        assert b.recv_exact(3) == b"\x01\x02\x03"

    def test_timeout(self, channel_pair):
        a, b = channel_pair(timeout=0.05)
        with pytest.raises(TransportError, match="timeout"):
            b.recv_exact(1)

    def test_peer_close_mid_frame(self, channel_pair):
        a, b = channel_pair(timeout=0.5)
        a.send(b"\x01")
        a.close()
        with pytest.raises(TransportError, match="closed"):
            b.recv_exact(2)

    def test_send_after_close(self, channel_pair):
        a, _ = channel_pair()
        a.close()
        with pytest.raises(TransportError):
            a.send(b"hi")

    def test_claimed_length_does_not_size_the_receive_buffer(self, channel_pair):
        a, b = channel_pair(timeout=0.5)
        # a RESPONSE header claiming 64 MiB, four body bytes, then close
        a.send(bytes([0x03]) + (64 << 20).to_bytes(4, "big") + b"\x01\x02\x03\x04")
        a.close()
        tracemalloc.start()
        try:
            with pytest.raises(TransportError, match="closed"):
                read_message(b.recv_exact)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestServeRound:
    def test_round_over_memory_channel(
            self, channel_pair, toy_profile, toy_keypair, toy_coupons):
        prover = make_prover(toy_profile, toy_keypair, toy_coupons)
        verifier = make_verifier(toy_profile, toy_keypair)
        prover_ch, verifier_ch = channel_pair()
        result = {}

        def server():
            result["verdict"] = serve_round(verifier, verifier_ch, random.Random(2))

        thread = threading.Thread(target=server)
        thread.start()
        verdict, _ = run_round(prover, None, prover_ch)
        thread.join(timeout=5)
        assert verdict.accept and result["verdict"].accept

    def test_abort_resets_session(self, channel_pair, toy_profile, toy_keypair):
        verifier = make_verifier(toy_profile, toy_keypair)
        prover_ch, verifier_ch = channel_pair(timeout=0.1)
        prover_ch.send(b"\xff")  # not a valid frame kind
        with pytest.raises(FramingError):
            serve_round(verifier, verifier_ch, random.Random(2))
        assert verifier.state is VerifierState.IDLE

    @pytest.mark.parametrize("frames, reason", [
        ([Response(5)], "no challenge outstanding"),
        ([Challenge(5)], "cannot take a Challenge"),
        ([Commitment(b"\0" * 4, 9), Commitment(b"\0" * 4, 9)], "challenge already outstanding"),
    ], ids=["response-first", "challenge", "second-commitment"])
    def test_out_of_order_frame_aborts(
            self, channel_pair, toy_profile, toy_keypair, frames, reason):
        verifier = VerifierSession(toy_profile, {b"\0" * 4: toy_keypair.i_pub})
        prover_ch, verifier_ch = channel_pair(timeout=0.1)
        for msg in frames:
            prover_ch.send(encode(msg))
        with pytest.raises(ProtocolError, match=reason):
            serve_round(verifier, verifier_ch, random.Random(2))
        assert verifier.state is VerifierState.IDLE


class TestTcpTransport:
    def test_connect_refused(self):
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
        sock.close()
        with pytest.raises(TransportError, match="connect"):
            TcpChannel.connect("127.0.0.1", port, timeout=0.5)

    def test_round_over_tcp(self, toy_profile, toy_keypair, toy_coupons):
        with VerifierServer(toy_profile, {toy_keypair.id_p: toy_keypair.i_pub},
                            rng=random.Random(9)) as server:
            prover = make_prover(toy_profile, toy_keypair, toy_coupons)
            channel = TcpChannel.connect(server.host, server.port)
            verdict, transcript = run_round(prover, None, channel)
            channel.close()
        assert verdict.accept
        assert len(transcript) == 4
        assert server.rounds_accepted == 1

    def test_concurrent_rounds(self, toy_profile, toy_keypair, toy_coupons):
        known = {toy_keypair.id_p: toy_keypair.i_pub}
        verdicts = []
        lock = threading.Lock()

        def one_round(index):
            prover = make_prover(toy_profile, toy_keypair, toy_coupons,
                                 first_index=index)
            channel = TcpChannel.connect(server.host, server.port)
            try:
                verdict, _ = run_round(prover, None, channel)
            finally:
                channel.close()
            with lock:
                verdicts.append(verdict.accept)

        with VerifierServer(toy_profile, known) as server:
            threads = [threading.Thread(target=one_round, args=(i,)) for i in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
        assert verdicts == [True] * 6
        assert server.rounds_accepted == 6

    def test_garbage_connection_does_not_wedge_server(
            self, toy_profile, toy_keypair, toy_coupons):
        known = {toy_keypair.id_p: toy_keypair.i_pub}
        with VerifierServer(toy_profile, known, timeout=0.5) as server:
            raw = socket.create_connection((server.host, server.port))
            raw.sendall(b"\xff\xff\xff")
            raw.close()
            # server must still serve a clean round afterwards
            prover = make_prover(toy_profile, toy_keypair, toy_coupons)
            channel = TcpChannel.connect(server.host, server.port)
            verdict, _ = run_round(prover, None, channel)
            channel.close()
        assert verdict.accept

    def test_unknown_prover_over_tcp(self, toy_profile, toy_keypair, toy_coupons):
        stranger = keypair_from_secret(toy_profile, 12345, b"\xde\xad\xbe\xef")
        with VerifierServer(toy_profile, {toy_keypair.id_p: toy_keypair.i_pub},
                            rng=random.Random(4)) as server:
            prover = make_prover(toy_profile, stranger, toy_coupons)
            channel = TcpChannel.connect(server.host, server.port)
            verdict, transcript = run_round(prover, None, channel)
            channel.close()
        assert not verdict.accept
        assert len(transcript) == 2
        assert server.rounds_rejected == 1

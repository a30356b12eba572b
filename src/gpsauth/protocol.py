"""Prover/verifier state machines and the framed wire format.

Four-message exchange:

    P -> V   COMMITMENT  Id_P, x_i        (coupon i)
    V -> P   CHALLENGE   n_V              (uniform in [0, C[)
    P -> V   RESPONSE    y = r_i + n_V*s  (computed on a datapath model)
    V -> P   VERDICT     accept/reject

The verifier accepts iff g**y * I**n_V mod n == x_i and 0 <= y < D + Phi.
It computes both powers from fixed-base tables: the profile's for g and
one per known prover for I.
The verdict frame is an artifact of running over a real transport; the
decision itself is verifier-local.

Wire format (bit-exact): frame = kind(1 byte) || body.
    COMMITMENT 0x01: Id_P (4 bytes) || len(x) u32 BE || x big-endian minimal
    CHALLENGE  0x02: len(n_V) u32 BE || n_V big-endian minimal
    RESPONSE   0x03: len(y) u32 BE || y big-endian minimal
    VERDICT    0x04: 1 byte, 0x00 reject / 0x01 accept
Zero encodes with len=0. Integers must be minimal (no leading zero byte).
Unknown kind byte is a framing error and closes the connection.
"""

from __future__ import annotations

import enum
import random
import socket
import struct
import threading
from dataclasses import dataclass
from typing import Callable, Sequence, Union

from .datapath import ConfigurationError, DatapathResult, Widths, architecture
from .params import Coupon, CouponSeed, FixedBase, KeyPair, ParameterProfile, regenerate_coupon

KIND_COMMITMENT = 0x01
KIND_CHALLENGE = 0x02
KIND_RESPONSE = 0x03
KIND_VERDICT = 0x04

_U32 = struct.Struct(">I")


class FramingError(ValueError):
    """Malformed frame; the connection must be closed."""


class TransportError(RuntimeError):
    """Channel timeout or close mid-round."""


class ProtocolError(RuntimeError):
    """Message violates the session state machine or a range check."""


class OutOfCouponsError(ProtocolError):
    """The session's coupon store is exhausted."""


@dataclass(frozen=True)
class Commitment:
    id_p: bytes
    x: int


@dataclass(frozen=True)
class Challenge:
    n_v: int


@dataclass(frozen=True)
class Response:
    y: int


@dataclass(frozen=True)
class Verdict:
    accept: bool


Message = Union[Commitment, Challenge, Response, Verdict]


def _int_bytes(x: int) -> bytes:
    if x < 0:
        raise ValueError("wire integers are unsigned")
    return x.to_bytes((x.bit_length() + 7) // 8, "big")


def _int_field(data: bytes) -> int:
    if data and data[0] == 0:
        raise FramingError("non-minimal integer encoding")
    return int.from_bytes(data, "big")


def encode(msg: Message) -> bytes:
    if isinstance(msg, Commitment):
        if len(msg.id_p) != 4:
            raise ValueError("Id_P must be 4 bytes")
        xb = _int_bytes(msg.x)
        return bytes([KIND_COMMITMENT]) + msg.id_p + _U32.pack(len(xb)) + xb
    if isinstance(msg, Challenge):
        nb = _int_bytes(msg.n_v)
        return bytes([KIND_CHALLENGE]) + _U32.pack(len(nb)) + nb
    if isinstance(msg, Response):
        yb = _int_bytes(msg.y)
        return bytes([KIND_RESPONSE]) + _U32.pack(len(yb)) + yb
    if isinstance(msg, Verdict):
        return bytes([KIND_VERDICT, 0x01 if msg.accept else 0x00])
    raise TypeError(f"not a protocol message: {msg!r}")


def read_message(recv_exact: Callable[[int], bytes]) -> Message:
    """Parse one frame from a byte stream via a recv_exact(n) primitive."""
    kind = recv_exact(1)[0]
    if kind == KIND_COMMITMENT:
        id_p = recv_exact(4)
        (length,) = _U32.unpack(recv_exact(4))
        return Commitment(id_p=id_p, x=_int_field(recv_exact(length)))
    if kind in (KIND_CHALLENGE, KIND_RESPONSE):
        (length,) = _U32.unpack(recv_exact(4))
        value = _int_field(recv_exact(length))
        return Challenge(value) if kind == KIND_CHALLENGE else Response(value)
    if kind == KIND_VERDICT:
        flag = recv_exact(1)[0]
        if flag not in (0x00, 0x01):
            raise FramingError(f"bad verdict byte {flag:#04x}")
        return Verdict(accept=bool(flag))
    raise FramingError(f"unknown frame kind {kind:#04x}")


def decode(frame: bytes) -> Message:
    """Decode a complete frame; trailing garbage is a framing error."""
    pos = 0

    def recv_exact(n: int) -> bytes:
        nonlocal pos
        if pos + n > len(frame):
            raise FramingError("frame truncated")
        chunk = frame[pos:pos + n]
        pos += n
        return chunk

    msg = read_message(recv_exact)
    if pos != len(frame):
        raise FramingError(f"{len(frame) - pos} trailing bytes after frame")
    return msg


# ---------------------------------------------------------------------------
# sessions
# ---------------------------------------------------------------------------

class ProverState(enum.Enum):
    IDLE = "idle"
    COMMITTED = "committed"
    DONE = "done"


class VerifierState(enum.Enum):
    IDLE = "idle"
    CHALLENGED = "challenged"
    DECIDED = "decided"


class ProverSession:
    """Prover side: consumes one coupon per round, never reusing an index.

    The coupon source is either a precomputed list or a CouponSeed from
    which coupons are regenerated on demand. Each datapath's per-key state,
    such as a KCM table, is prepared once and reused by later rounds.
    """

    def __init__(
        self,
        profile: ParameterProfile,
        keypair: KeyPair,
        coupons: Union[Sequence[Coupon], CouponSeed],
        first_index: int = 0,
    ):
        self.profile = profile
        self.keypair = keypair
        self._coupons = coupons
        self.next_index = first_index
        self.state = ProverState.IDLE
        self._current: Coupon | None = None
        self.last_result: DatapathResult | None = None
        self._widths = Widths(profile.s_bits, profile.c_bits, profile.d_bits)
        self._prepared: dict = {}  # (arch, cfg) -> datapath state

    def _fetch_coupon(self, index: int) -> Coupon:
        if isinstance(self._coupons, CouponSeed):
            if index >= self._coupons.count:
                raise OutOfCouponsError(f"coupon {index} beyond seed count {self._coupons.count}")
            return regenerate_coupon(self.profile, self._coupons, index)
        if index >= len(self._coupons):
            raise OutOfCouponsError(f"coupon {index} beyond store of {len(self._coupons)}")
        coupon = self._coupons[index]
        if coupon.index != index:
            raise ProtocolError(f"coupon store out of order at index {index}")
        return coupon

    def commit(self) -> Commitment:
        """Start a round: emit (Id_P, x_i) for the next unused coupon."""
        if self.state is ProverState.COMMITTED:
            raise ProtocolError("round already in progress")
        coupon = self._fetch_coupon(self.next_index)  # leaves state untouched on exhaustion
        self.next_index += 1
        self._current = coupon
        self.state = ProverState.COMMITTED
        return Commitment(id_p=self.keypair.id_p, x=coupon.x)

    def respond(self, challenge: Challenge, arch: str = "serial", cfg=None) -> Response:
        """Compute y = r_i + n_V * s on the selected datapath model."""
        if self.state is not ProverState.COMMITTED:
            raise ProtocolError("no commitment outstanding")
        # The round ends here, even if it fails below: the coupon is never reused.
        r = self._current.r
        self._current = None
        self.state = ProverState.DONE
        n_v = challenge.n_v
        if not 0 <= n_v < (1 << self.profile.c_bits):
            raise ProtocolError(f"challenge out of range [0, 2**{self.profile.c_bits})")
        try:
            design = architecture(arch)
        except ConfigurationError as exc:
            raise ProtocolError(str(exc)) from None
        default = design.default_config
        cfg = cfg or default
        if not isinstance(cfg, type(default)):
            raise ProtocolError(
                f"{arch} takes a {type(default).__name__}, got {type(cfg).__name__}")
        state = self._prepared.get((arch, cfg))
        if state is None:
            state = design.prepare(self.keypair.s, cfg, self.profile.c_bits)
            self._prepared[(arch, cfg)] = state
        result = design.respond(cfg, state, n_v, r, self._widths)
        self.last_result = result
        return Response(y=result.value)


def i_table(profile: ParameterProfile, i_pub: int) -> FixedBase:
    """I**n_V mod n for every challenge 0 <= n_V < 2**c_bits."""
    return FixedBase(i_pub, profile.n, 1 << profile.c_bits)


class VerifierSession:
    """Verifier side: one challenge per commitment, then accept/reject.

    `i_tables` maps a public key I to its `i_table`. A session given none
    builds each key's table on first use and keeps it; keying by I rather
    than Id_P means a replaced key never meets a stale table.
    """

    def __init__(
        self,
        profile: ParameterProfile,
        known_provers: dict[bytes, int],
        i_tables: dict[int, FixedBase] | None = None,
    ):
        self.profile = profile
        self.known_provers = known_provers
        self._i_tables = {} if i_tables is None else i_tables
        self.state = VerifierState.IDLE
        self._x: int | None = None
        self._n_v: int | None = None
        self._i_table: FixedBase | None = None
        self.last_verdict: Verdict | None = None

    def reset(self) -> None:
        """Abort any round in progress (failure recovery)."""
        self.state = VerifierState.IDLE
        self._x = self._n_v = self._i_table = None

    def challenge(self, commitment: Commitment, rng: random.Random) -> Union[Challenge, Verdict]:
        """Issue a uniform challenge, or an immediate reject for unknown provers."""
        if self.state is VerifierState.CHALLENGED:
            raise ProtocolError("challenge already outstanding")
        i_pub = self.known_provers.get(commitment.id_p)
        if i_pub is None:
            self.state = VerifierState.DECIDED
            self.last_verdict = Verdict(accept=False)
            return self.last_verdict
        table = self._i_tables.get(i_pub)
        if table is None:
            table = self._i_tables[i_pub] = i_table(self.profile, i_pub)
        self._x = commitment.x
        self._i_table = table
        self._n_v = rng.getrandbits(self.profile.c_bits)
        self.state = VerifierState.CHALLENGED
        return Challenge(n_v=self._n_v)

    def decide(self, response: Response) -> Verdict:
        """Accept iff g**y * I**n_V mod n == x_i and y in [0, D + Phi[."""
        if self.state is not VerifierState.CHALLENGED:
            raise ProtocolError("no challenge outstanding")
        p = self.profile
        y = response.y
        in_range = 0 <= y < p.response_bound
        equation = False
        if in_range:
            equation = p.g_table(y) * self._i_table(self._n_v) % p.n == self._x
        self.state = VerifierState.DECIDED
        self.last_verdict = Verdict(accept=in_range and equation)
        return self.last_verdict


# ---------------------------------------------------------------------------
# round drivers
# ---------------------------------------------------------------------------

# transcript entry: (label, raw frame bytes)
Transcript = list[tuple[str, bytes]]

_LABELS = {
    Commitment: "commitment",
    Challenge: "challenge",
    Response: "response",
    Verdict: "verdict",
}


def _send(channel, msg: Message, transcript: Transcript) -> None:
    frame = encode(msg)
    transcript.append((_LABELS[type(msg)], frame))
    channel.send(frame)


def _recv(channel, transcript: Transcript) -> Message:
    msg = read_message(channel.recv_exact)
    transcript.append((_LABELS[type(msg)], encode(msg)))
    return msg


def _answer(verifier: VerifierSession, channel, rng) -> Union[Challenge, Verdict]:
    """Read one frame, then send and return the reply; the session's states
    enforce message order."""
    msg = read_message(channel.recv_exact)
    if isinstance(msg, Commitment):
        out = verifier.challenge(msg, rng)
    elif isinstance(msg, Response):
        out = verifier.decide(msg)
    else:
        raise ProtocolError(f"verifier cannot take a {type(msg).__name__}")
    channel.send(encode(out))
    return out


def serve_round(verifier: VerifierSession, channel, rng: random.Random) -> Verdict:
    """Run the verifier side of one round over a channel.

    Any failure resets the session to Idle so the endpoint can serve the
    next connection cleanly.
    """
    try:
        while True:
            out = _answer(verifier, channel, rng)
            if isinstance(out, Verdict):
                return out
    except BaseException:
        verifier.reset()
        raise


def run_round(
    prover: ProverSession,
    verifier: VerifierSession | None,
    transport,
    rng: random.Random | None = None,
    arch: str = "serial",
    cfg=None,
) -> tuple[Verdict, Transcript]:
    """Drive one full 4-message round; returns the verdict and all frames.

    `transport` is the prover-side channel. With a local `verifier` the far
    end of the pair is answered in lockstep from this thread; frames are a
    few hundred bytes, far below a socket buffer, so a send never blocks
    and strict alternation cannot deadlock. With verifier=None the far end
    must be serviced elsewhere, e.g. a TCP verifier endpoint.
    """
    if verifier is not None and rng is None:
        raise ValueError("a local verifier needs an rng for challenges")
    prover_ch = transport[0] if isinstance(transport, tuple) else transport
    verifier_ch = transport[1] if isinstance(transport, tuple) else None
    if verifier is not None and verifier_ch is None:
        raise ValueError("a local verifier needs both ends of the channel pair")

    transcript: Transcript = []
    try:
        _send(prover_ch, prover.commit(), transcript)
        if verifier is not None:
            _answer(verifier, verifier_ch, rng)
        msg = _recv(prover_ch, transcript)
        if isinstance(msg, Verdict):  # rejected at the door (unknown Id_P)
            return msg, transcript
        if not isinstance(msg, Challenge):
            raise ProtocolError(f"expected challenge, got {type(msg).__name__}")
        _send(prover_ch, prover.respond(msg, arch=arch, cfg=cfg), transcript)
        if verifier is not None:
            _answer(verifier, verifier_ch, rng)
        verdict = _recv(prover_ch, transcript)
        if not isinstance(verdict, Verdict):
            raise ProtocolError(f"expected verdict, got {type(verdict).__name__}")
        return verdict, transcript
    except BaseException:
        if verifier is not None:
            verifier.reset()
        raise


# ---------------------------------------------------------------------------
# transports
# ---------------------------------------------------------------------------

DEFAULT_TIMEOUT = 5.0

# cap per recv call: CPython allocates the requested size up front
_RECV_CHUNK = 1 << 16


class TcpChannel:
    """Framed byte stream over any connected stream socket (TCP or socketpair)."""

    def __init__(self, sock: socket.socket, timeout: float = DEFAULT_TIMEOUT):
        self._sock = sock
        sock.settimeout(timeout)

    @classmethod
    def connect(cls, host: str, port: int, timeout: float = DEFAULT_TIMEOUT) -> "TcpChannel":
        try:
            sock = socket.create_connection((host, port), timeout=timeout)
        except OSError as exc:
            raise TransportError(f"connect to {host}:{port} failed: {exc}") from exc
        return cls(sock, timeout)

    def send(self, data: bytes) -> None:
        try:
            self._sock.sendall(data)
        except OSError as exc:
            raise TransportError(f"send failed: {exc}") from exc

    def recv_exact(self, n: int) -> bytes:
        buf = bytearray()
        while len(buf) < n:
            try:
                chunk = self._sock.recv(min(n - len(buf), _RECV_CHUNK))
            except socket.timeout:
                raise TransportError("receive timeout") from None
            except OSError as exc:
                raise TransportError(f"receive failed: {exc}") from exc
            if not chunk:
                raise TransportError("connection closed mid-frame")
            buf.extend(chunk)
        return bytes(buf)

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass


def memory_pair(timeout: float = DEFAULT_TIMEOUT) -> tuple[TcpChannel, TcpChannel]:
    """Two connected in-process channel ends over a socketpair; close both."""
    a, b = socket.socketpair()
    return TcpChannel(a, timeout), TcpChannel(b, timeout)


class _LockedRng:
    """getrandbits facade shared by concurrent verifier sessions."""

    def __init__(self, rng: random.Random):
        self._rng = rng
        self._lock = threading.Lock()

    def getrandbits(self, k: int) -> int:
        with self._lock:
            return self._rng.getrandbits(k)


class VerifierServer:
    """TCP verifier endpoint: one round per connection, thread per connection.

    The known-provers map is treated as read-only while serving; each
    connection gets its own VerifierSession, so concurrent rounds stay
    isolated. The g table and one I table per known prover are built here,
    once, and shared read-only by every session.
    """

    def __init__(
        self,
        profile: ParameterProfile,
        known_provers: dict[bytes, int],
        host: str = "127.0.0.1",
        port: int = 0,
        timeout: float = DEFAULT_TIMEOUT,
        rng: random.Random | None = None,
    ):
        self.profile = profile
        self.known_provers = known_provers
        profile.g_table  # built now, before worker threads share it
        self._i_tables = {i_pub: i_table(profile, i_pub) for i_pub in known_provers.values()}
        self._timeout = timeout
        self._rng = _LockedRng(rng or random.SystemRandom())
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen()
        # short accept timeout so stop() can interrupt the accept loop
        self._listener.settimeout(0.1)
        self.host, self.port = self._listener.getsockname()[:2]
        self._accept_thread: threading.Thread | None = None
        self._workers: list[threading.Thread] = []
        self._stopping = threading.Event()
        self.rounds_accepted = 0
        self.rounds_rejected = 0
        self._decided = threading.Condition()  # guards and signals the counters

    def start(self) -> "VerifierServer":
        self._accept_thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._accept_thread.start()
        return self

    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                conn, _addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break  # listener closed by stop()
            worker = threading.Thread(target=self._serve_one, args=(conn,), daemon=True)
            self._workers = [w for w in self._workers if w.is_alive()]
            self._workers.append(worker)
            worker.start()

    def _serve_one(self, conn: socket.socket) -> None:
        channel = TcpChannel(conn, self._timeout)
        session = VerifierSession(self.profile, self.known_provers, self._i_tables)
        try:
            verdict = serve_round(session, channel, self._rng)
            with self._decided:
                if verdict.accept:
                    self.rounds_accepted += 1
                else:
                    self.rounds_rejected += 1
                self._decided.notify_all()
        except (TransportError, FramingError, ProtocolError):
            pass  # aborted round; session was reset by serve_round
        finally:
            channel.close()

    def wait_rounds(self, count: int | None, timeout: float | None = None) -> bool:
        """Block until `count` rounds have been decided, accepted or rejected
        (None: until interrupted); False if `timeout` seconds pass first."""
        with self._decided:
            return self._decided.wait_for(
                lambda: count is not None
                and self.rounds_accepted + self.rounds_rejected >= count,
                timeout)

    def stop(self) -> None:
        self._stopping.set()
        self._listener.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=self._timeout)
        for worker in self._workers:
            worker.join(timeout=self._timeout)

    def __enter__(self) -> "VerifierServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

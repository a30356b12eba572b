"""Coupon-based zero-knowledge authentication with cycle-accurate prover models.

The protocol side covers parameter/key/coupon generation, the four-message
prover/verifier exchange, a framed wire format, and one socket transport
(TCP, or an in-process socketpair). The modeling side provides three bit-accurate response
datapaths (word-serial shift-and-add, parallel constant-multiplier,
serialized hybrid) and a cost model tying memory, latency, throughput,
and an area estimate together.
"""

from .params import (
    Coupon,
    CouponSeed,
    KeyPair,
    ParameterProfile,
    PROFILE_PRESETS,
    keygen,
    keypair_from_secret,
    make_coupons,
    make_profile,
    regenerate_coupon,
)
from .protocol import (
    Challenge,
    Commitment,
    FramingError,
    OutOfCouponsError,
    ProtocolError,
    ProverSession,
    Response,
    TcpChannel,
    TransportError,
    Verdict,
    VerifierServer,
    VerifierSession,
    decode,
    encode,
    memory_pair,
    run_round,
    serve_round,
)

__version__ = "0.1.0"

__all__ = [
    "Challenge",
    "Commitment",
    "Coupon",
    "CouponSeed",
    "FramingError",
    "KeyPair",
    "OutOfCouponsError",
    "PROFILE_PRESETS",
    "ParameterProfile",
    "ProtocolError",
    "ProverSession",
    "Response",
    "TcpChannel",
    "TransportError",
    "Verdict",
    "VerifierServer",
    "VerifierSession",
    "decode",
    "encode",
    "keygen",
    "keypair_from_secret",
    "make_coupons",
    "make_profile",
    "memory_pair",
    "regenerate_coupon",
    "run_round",
    "serve_round",
    "__version__",
]

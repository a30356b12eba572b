"""Parameter profiles, key generation, and coupon precomputation.

A profile fixes the public sizes: the secret bound S = 2**s_bits, the
challenge bound C = 2**c_bits, the commitment bound D = 2**d_bits with
d_bits = s_bits + c_bits + 80, a composite modulus n = p*q (p, q discarded
after generation), a base g, and the response slack Phi = (C-1)*(S-1).

Coupons are pairs (r_i, x_i = g**r_i mod n) precomputed by the trusted
entity so the prover never exponentiates on-line. They can be regenerated
deterministically from a 128-bit seed, so a constrained prover only has to
store the seed.

g and n are fixed per profile, so g**e goes through a fixed-base table
(`FixedBase`, built once per profile on first use) instead of `pow`; the
verifier keeps one more table per known public key I.

File formats (versioned text, lowercase hex, no leading zeros, zero is "0"):

coupon file:
    GPSCOUPONS v1 <profile-name>
    n=<hex>
    g=<hex>
    i=<dec> r=<hex> x=<hex>        one line per coupon

key file:
    GPSKEY v1
    profile=<name>
    id=<8 hex digits>
    s=<hex>
    I=<hex>
    n=<hex>
    g=<hex>
"""

from __future__ import annotations

import functools
import hashlib
import math
import random
import re
from dataclasses import dataclass
from typing import Iterable

COMMITMENT_SLACK_BITS = 80  # d_bits = s_bits + c_bits + 80
DEFAULT_G = 2  # n is odd, so gcd(2, n) = 1; order of g is out of scope

MILLER_RABIN_ROUNDS = 40
_PRIME_GEN_ATTEMPTS = 50_000

_SMALL_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]

# Bits per window of a fixed-base table. A table holds 2**w entries of |n|
# bits per w-bit window of its range: at s512 (625-bit exponents, 1024-bit
# n) w=5 is about 0.6 MiB and w=6 about 1.1 MiB, for nearly the same speed.
FIXED_BASE_WINDOW_BITS = 5


class GenerationError(RuntimeError):
    """Prime or key generation failed after bounded retries."""


class KeygenError(RuntimeError):
    """g**s is not invertible mod n (signals a bad g choice)."""


class FileFormatError(ValueError):
    """Key or coupon file does not match the documented format."""


def commitment_bits(s_bits: int, c_bits: int) -> int:
    """Commitment size d_bits for a secret and challenge size."""
    return s_bits + c_bits + COMMITMENT_SLACK_BITS


class FixedBase:
    """base**e mod n for 0 <= e < limit from a precomputed table.

    Brickell-Gordon-McCurley-Wilson (EUROCRYPT '92): row k holds
    base**(d * 2**(w*k)) mod n for every w-bit digit d, so base**e is the
    product of one entry per w-bit window of e: one modular multiplication
    per window and no squarings. The table is read-only once built and may
    be shared between threads.
    """

    def __init__(self, base: int, n: int, limit: int):
        self.n = n
        self.limit = limit
        w = FIXED_BASE_WINDOW_BITS
        rows = []
        step = base % n  # base**(2**(w*k)) for the row being built
        for _ in range(-(-(limit - 1).bit_length() // w)):
            row = [1, step]
            for _ in range(2, 1 << w):
                row.append(row[-1] * step % n)
            rows.append(row)
            step = row[-1] * step % n
        self._rows = rows

    def __call__(self, e: int) -> int:
        if not 0 <= e < self.limit:
            raise ValueError(f"exponent outside the table's range [0, {self.limit})")
        n, w = self.n, FIXED_BASE_WINDOW_BITS
        mask = (1 << w) - 1
        acc = 1
        for row in self._rows:
            acc = acc * row[e & mask] % n
            e >>= w
        return acc


@dataclass(frozen=True)
class ParameterProfile:
    """Public sizes and group values for one security level."""

    name: str
    s_bits: int
    c_bits: int
    n: int
    g: int

    def __post_init__(self):
        if self.n <= 1 or self.n % 2 == 0:
            raise ValueError("modulus must be odd and > 1")
        if not 1 < self.g < self.n:
            raise ValueError("g must satisfy 1 < g < n")
        if math.gcd(self.g, self.n) != 1:
            raise ValueError("g must be coprime with n")

    @property
    def d_bits(self) -> int:
        return commitment_bits(self.s_bits, self.c_bits)

    @property
    def n_bits(self) -> int:
        return self.n.bit_length()

    @property
    def phi(self) -> int:
        """Response slack (C-1)*(S-1)."""
        return ((1 << self.c_bits) - 1) * ((1 << self.s_bits) - 1)

    @property
    def response_bound(self) -> int:
        """Upper bound D + Phi of the accepted response range."""
        return (1 << self.d_bits) + self.phi

    @functools.cached_property
    def g_table(self) -> FixedBase:
        """g**e mod n for 0 <= e < response_bound, which covers every coupon
        r < 2**d_bits. Built on first use, then shared read-only."""
        return FixedBase(self.g, self.n, self.response_bound)


@dataclass(frozen=True)
class KeyPair:
    s: int  # private, in [0, 2**s_bits)
    i_pub: int  # public, I = g**(-s) mod n
    id_p: bytes  # 4-byte prover identifier


@dataclass(frozen=True)
class Coupon:
    index: int
    r: int  # commitment randomness, in [0, 2**d_bits)
    x: int  # g**r mod n


@dataclass(frozen=True)
class CouponSeed:
    """128-bit seed from which `count` coupons can be regenerated."""

    seed: bytes
    count: int

    def __post_init__(self):
        if len(self.seed) != 16:
            raise ValueError("seed must be exactly 16 bytes")
        if self.count < 0:
            raise ValueError("count must be non-negative")


# name -> (s_bits, c_bits, default prime size in bits)
PROFILE_PRESETS: dict[str, tuple[int, int, int]] = {
    "toy": (16, 8, 32),
    "s128": (128, 32, 512),
    "s256": (256, 32, 512),
    "s512": (512, 32, 512),
    "std180": (180, 32, 512),
}


def _is_probable_prime(n: int, rng: random.Random, rounds: int = MILLER_RABIN_ROUNDS) -> bool:
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        a = rng.randrange(2, n - 1)
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _random_prime(bits: int, rng: random.Random) -> int:
    # Top two bits forced so the product of two such primes has exactly
    # 2*bits bits.
    for _ in range(_PRIME_GEN_ATTEMPTS):
        candidate = rng.getrandbits(bits)
        candidate |= (1 << (bits - 1)) | (1 << (bits - 2)) | 1
        if _is_probable_prime(candidate, rng):
            return candidate
    raise GenerationError(f"no {bits}-bit prime found after {_PRIME_GEN_ATTEMPTS} attempts")


def make_profile(name: str, prime_bits: int | None = None, rng: random.Random | None = None) -> ParameterProfile:
    """Build a named parameter profile with a fresh modulus n = p*q.

    The preset fixes s_bits and c_bits; prime_bits (default: the preset's
    standard size) fixes |p| = |q|, hence |n| = 2*prime_bits. p and q are
    local variables only and are never stored.
    """
    if name not in PROFILE_PRESETS:
        raise ValueError(f"unknown profile {name!r}; known: {sorted(PROFILE_PRESETS)}")
    s_bits, c_bits, default_prime_bits = PROFILE_PRESETS[name]
    if prime_bits is None:
        prime_bits = default_prime_bits
    if prime_bits < 8:
        raise ValueError("prime_bits must be >= 8")
    if rng is None:
        rng = random.Random()
    p = _random_prime(prime_bits, rng)
    q = p
    while q == p:
        q = _random_prime(prime_bits, rng)
    return ParameterProfile(name=name, s_bits=s_bits, c_bits=c_bits, n=p * q, g=DEFAULT_G)


def keypair_from_secret(profile: ParameterProfile, s: int, id_p: bytes) -> KeyPair:
    """Derive the public key I = (g**s)**-1 mod n for a given secret."""
    if not 0 <= s < (1 << profile.s_bits):
        raise ValueError("secret out of range")
    if len(id_p) != 4:
        raise ValueError("id_p must be 4 bytes")
    try:
        i_pub = pow(pow(profile.g, s, profile.n), -1, profile.n)
    except ValueError as exc:
        raise KeygenError(f"g**s not invertible mod n: {exc}") from exc
    return KeyPair(s=s, i_pub=i_pub, id_p=id_p)


def keygen(profile: ParameterProfile, rng: random.Random) -> KeyPair:
    """Draw a uniform secret s < 2**s_bits and its public key."""
    s = rng.getrandbits(profile.s_bits)
    id_p = rng.getrandbits(32).to_bytes(4, "big")
    return keypair_from_secret(profile, s, id_p)


def prng_expand(seed: bytes, index: int, nbits: int) -> int:
    """First nbits bits of a deterministic per-index stream.

    Counter-mode expansion: block k is SHA-256(seed || index || k) with
    index and k as 8-byte big-endian counters; the stream is the block
    concatenation and the leading nbits bits are returned as an integer.
    """
    if len(seed) != 16:
        raise ValueError("seed must be exactly 16 bytes")
    if index < 0 or nbits < 0:
        raise ValueError("index and nbits must be non-negative")
    nbytes = (nbits + 7) // 8
    out = bytearray()
    counter = 0
    prefix = seed + index.to_bytes(8, "big")
    while len(out) < nbytes:
        out += hashlib.sha256(prefix + counter.to_bytes(8, "big")).digest()
        counter += 1
    value = int.from_bytes(out[:nbytes], "big")
    return value >> (nbytes * 8 - nbits) if nbits else 0


def make_coupons(
    profile: ParameterProfile,
    keypair: KeyPair | None,
    seed: CouponSeed,
    count: int,
) -> list[Coupon]:
    """Precompute `count` coupons (r_i, x_i = g**r_i mod n).

    This is the trusted-entity role: `keypair` names the prover the coupons
    are issued for, but r_i depends only on (seed, index, profile) so the
    prover can regenerate coupons from the seed alone.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    coupons = []
    for i in range(count):
        r = prng_expand(seed.seed, i, profile.d_bits)
        coupons.append(Coupon(index=i, r=r, x=profile.g_table(r)))
    return coupons


def regenerate_coupon(profile: ParameterProfile, seed: CouponSeed, index: int) -> Coupon:
    """Recompute a single coupon from the seed; pure in (seed, index, profile)."""
    r = prng_expand(seed.seed, index, profile.d_bits)
    return Coupon(index=index, r=r, x=profile.g_table(r))


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def _hex(x: int) -> str:
    return format(x, "x")


def _parse_field(line: str, key: str) -> str:
    prefix = key + "="
    if not line.startswith(prefix):
        raise FileFormatError(f"expected {key}=..., got {line!r}")
    return line[len(prefix):]


_DIGITS = {16: re.compile("[0-9a-f]+"), 10: re.compile("[0-9]+")}


def _parse_int(line: str, key: str, base: int = 16) -> int:
    """A key=value field holding a non-negative integer in lowercase hex or decimal."""
    text = _parse_field(line, key)
    if not _DIGITS[base].fullmatch(text):
        raise FileFormatError(f"{key} is not a base-{base} integer: {text!r}")
    return int(text, base)


def _profile_from_parts(name: str, n: int, g: int) -> ParameterProfile:
    if name not in PROFILE_PRESETS:
        raise FileFormatError(f"unknown profile name {name!r} in file")
    s_bits, c_bits, _ = PROFILE_PRESETS[name]
    return ParameterProfile(name=name, s_bits=s_bits, c_bits=c_bits, n=n, g=g)


def dump_coupon_file(profile: ParameterProfile, coupons: Iterable[Coupon]) -> str:
    lines = [
        f"GPSCOUPONS v1 {profile.name}",
        f"n={_hex(profile.n)}",
        f"g={_hex(profile.g)}",
    ]
    for c in coupons:
        lines.append(f"i={c.index} r={_hex(c.r)} x={_hex(c.x)}")
    return "\n".join(lines) + "\n"


def load_coupon_file(text: str) -> tuple[ParameterProfile, list[Coupon]]:
    lines = text.splitlines()
    if len(lines) < 3:
        raise FileFormatError("coupon file too short")
    header = lines[0].split(" ")
    if len(header) != 3 or header[0] != "GPSCOUPONS" or header[1] != "v1":
        raise FileFormatError(f"bad coupon file header: {lines[0]!r}")
    profile = _profile_from_parts(header[2], _parse_int(lines[1], "n"), _parse_int(lines[2], "g"))
    coupons = []
    for line in lines[3:]:
        if not line.strip():
            continue
        parts = line.split(" ")
        if len(parts) != 3:
            raise FileFormatError(f"bad coupon line: {line!r}")
        coupons.append(
            Coupon(
                index=_parse_int(parts[0], "i", 10),
                r=_parse_int(parts[1], "r"),
                x=_parse_int(parts[2], "x"),
            )
        )
    return profile, coupons


def dump_key_file(profile: ParameterProfile, keypair: KeyPair) -> str:
    return "\n".join(
        [
            "GPSKEY v1",
            f"profile={profile.name}",
            f"id={keypair.id_p.hex()}",
            f"s={_hex(keypair.s)}",
            f"I={_hex(keypair.i_pub)}",
            f"n={_hex(profile.n)}",
            f"g={_hex(profile.g)}",
        ]
    ) + "\n"


def load_key_file(text: str) -> tuple[ParameterProfile, KeyPair]:
    """Parse a key file and check that s < 2**s_bits and I * g**s = 1 mod n."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) != 7:
        raise FileFormatError("key file must have exactly 7 lines")
    if lines[0] != "GPSKEY v1":
        raise FileFormatError(f"bad key file header: {lines[0]!r}")
    name = _parse_field(lines[1], "profile")
    id_hex = _parse_field(lines[2], "id")
    if len(id_hex) != 8 or not _DIGITS[16].fullmatch(id_hex):
        raise FileFormatError("id must be 8 lowercase hex digits")
    s = _parse_int(lines[3], "s")
    i_pub = _parse_int(lines[4], "I")
    profile = _profile_from_parts(name, _parse_int(lines[5], "n"), _parse_int(lines[6], "g"))
    if s >= 1 << profile.s_bits:
        raise FileFormatError(f"secret s has more than {profile.s_bits} bits")
    # one exponentiation: plain pow, a table would not repay its build
    if i_pub * pow(profile.g, s, profile.n) % profile.n != 1:
        raise FileFormatError("public key I is not (g**s)**-1 mod n")
    return profile, KeyPair(s=s, i_pub=i_pub, id_p=bytes.fromhex(id_hex))

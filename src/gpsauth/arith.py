"""Reference big-integer arithmetic.

``mul_oracle`` is the ground-truth multiplier used to check every datapath
model: schoolbook word-by-word multiplication with explicit carries. It shares
no code with the ``datapath`` package on purpose, so a bug in one cannot hide
a bug in the other.

``modexp``/``modinv`` are the oracles for Python's built-in ``pow(b, e, n)``
and ``pow(a, -1, n)``, which key generation uses (coupons and the verifier
use ``params.FixedBase``, which the tests check against ``pow``): plain
square-and-multiply and extended Euclid, written out so the tests can check
the built-ins against an independent implementation. No production path
calls this module.
"""

from __future__ import annotations

_WORD_BITS = 16
_WORD_MASK = (1 << _WORD_BITS) - 1


class NotInvertibleError(ValueError):
    """gcd(a, modulus) != 1; carries the offending gcd."""

    def __init__(self, a: int, modulus: int, gcd: int):
        super().__init__(f"{a} is not invertible modulo {modulus} (gcd={gcd})")
        self.gcd = gcd


def _check_nonneg(*values: int) -> None:
    for v in values:
        if v < 0:
            raise ValueError("negative values are not valid here")


def _to_words(x: int) -> list[int]:
    if x == 0:
        return [0]
    words = []
    while x:
        words.append(x & _WORD_MASK)
        x >>= _WORD_BITS
    return words


def mul_oracle(a: int, b: int) -> int:
    """Exact product of two unsigned integers, schoolbook word-by-word.

    16-bit words, explicit carry propagation. Structurally unrelated to the
    shift-and-add and KCM datapath models it is used to verify.
    """
    _check_nonneg(a, b)
    if a == 0 or b == 0:
        return 0
    aw = _to_words(a)
    bw = _to_words(b)
    out = [0] * (len(aw) + len(bw))
    for i, x in enumerate(aw):
        carry = 0
        for j, y in enumerate(bw):
            t = out[i + j] + x * y + carry
            out[i + j] = t & _WORD_MASK
            carry = t >> _WORD_BITS
        out[i + len(bw)] += carry
    value = 0
    for w in reversed(out):
        value = (value << _WORD_BITS) | w
    return value


def modexp(base: int, exp: int, modulus: int) -> int:
    """base**exp mod modulus via left-to-right square-and-multiply."""
    _check_nonneg(base, exp)
    if modulus < 2:
        raise ValueError(f"modulus must be >= 2, got {modulus}")
    base %= modulus
    result = 1 % modulus
    for i in range(exp.bit_length() - 1, -1, -1):
        result = (result * result) % modulus
        if (exp >> i) & 1:
            result = (result * base) % modulus
    return result


def modinv(a: int, modulus: int) -> int:
    """Inverse of a modulo modulus via extended Euclid.

    Raises NotInvertibleError when gcd(a, modulus) != 1.
    """
    _check_nonneg(a)
    if modulus < 2:
        raise ValueError(f"modulus must be >= 2, got {modulus}")
    t, new_t = 0, 1
    r, new_r = modulus, a % modulus
    while new_r:
        q = r // new_r
        t, new_t = new_t, t - q * new_t
        r, new_r = new_r, r - q * new_r
    if r != 1:
        raise NotInvertibleError(a, modulus, r)
    return t % modulus

import math
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gpsauth.arith import modexp
from gpsauth.params import (
    COMMITMENT_SLACK_BITS,
    Coupon,
    CouponSeed,
    FileFormatError,
    FixedBase,
    KeygenError,
    PROFILE_PRESETS,
    ParameterProfile,
    dump_coupon_file,
    dump_key_file,
    keygen,
    keypair_from_secret,
    load_coupon_file,
    load_key_file,
    make_coupons,
    make_profile,
    prng_expand,
    regenerate_coupon,
)
from gpsauth.protocol import ProverSession, VerifierSession


class TestProfiles:
    def test_preset_shapes(self, toy_profile, s128_profile):
        assert toy_profile.s_bits == 16 and toy_profile.c_bits == 8
        assert toy_profile.d_bits == 16 + 8 + COMMITMENT_SLACK_BITS == 104
        assert toy_profile.n_bits == 64
        assert s128_profile.d_bits == 240
        assert s128_profile.n_bits == 1024

    def test_modulus_has_full_size(self):
        # top two bits of both primes are forced, so n_bits is exact
        for _ in range(3):
            p = make_profile("toy", rng=random.Random())
            assert p.n.bit_length() == 64
            assert p.n % 2 == 1

    def test_generator_defaults(self, toy_profile):
        assert toy_profile.g == 2
        assert math.gcd(toy_profile.g, toy_profile.n) == 1

    def test_deterministic_under_seed(self):
        a = make_profile("toy", rng=random.Random(99))
        b = make_profile("toy", rng=random.Random(99))
        assert a == b

    def test_response_bound(self, toy_profile):
        phi = (2**8 - 1) * (2**16 - 1)
        assert toy_profile.phi == phi
        assert toy_profile.response_bound == 2**104 + phi

    def test_unknown_profile_name(self):
        with pytest.raises(ValueError, match="profile"):
            make_profile("nope", rng=random.Random(1))

    def test_prime_bits_override(self):
        p = make_profile("toy", prime_bits=40, rng=random.Random(5))
        assert p.n_bits == 80

    def test_validation_rejects_inconsistency(self, toy_profile):
        good = toy_profile
        with pytest.raises(ValueError, match="odd"):
            ParameterProfile(good.name, good.s_bits, good.c_bits, good.n + 1, good.g)
        with pytest.raises(ValueError, match="g must"):
            ParameterProfile(good.name, good.s_bits, good.c_bits, good.n, 1)


class TestKeys:
    def test_public_key_relation(self, toy_profile, toy_keypair):
        # I = g^(-s): multiplying back by g^s must give 1
        p, kp = toy_profile, toy_keypair
        assert (modexp(p.g, kp.s, p.n) * kp.i_pub) % p.n == 1

    def test_keypair_from_secret_fixed_point(self, toy_profile):
        kp = keypair_from_secret(toy_profile, 5, b"\x00\x01\x02\x03")
        assert kp.s == 5
        assert kp.id_p == b"\x00\x01\x02\x03"
        assert kp.i_pub == pow(pow(toy_profile.g, 5, toy_profile.n), -1, toy_profile.n)

    def test_non_invertible_public_key_is_keygen_error(self, toy_profile):
        # the constructor keeps g coprime with n, so force g = n afterwards:
        # g**s mod n is then 0, which has no inverse
        bad = ParameterProfile(toy_profile.name, toy_profile.s_bits, toy_profile.c_bits,
                               toy_profile.n, toy_profile.g)
        object.__setattr__(bad, "g", bad.n)
        with pytest.raises(KeygenError):
            keypair_from_secret(bad, 5, b"\x00\x01\x02\x03")

    def test_keygen_deterministic(self, toy_profile):
        a = keygen(toy_profile, random.Random(7))
        b = keygen(toy_profile, random.Random(7))
        assert a == b
        assert len(a.id_p) == 4
        assert a.s < 2**toy_profile.s_bits


class TestPrngExpand:
    def test_golden_vectors(self, golden_dir):
        for line in (golden_dir / "prng_vectors.txt").read_text().splitlines():
            seed_hex, index, nbits, want = line.split()
            got = prng_expand(bytes.fromhex(seed_hex), int(index), int(nbits))
            assert got == int(want, 16), line

    def test_width_and_determinism(self):
        seed = bytes(range(16))
        for nbits in (1, 7, 8, 9, 104, 240, 624, 1000):
            v = prng_expand(seed, 3, nbits)
            assert 0 <= v < (1 << nbits)
            assert v == prng_expand(seed, 3, nbits)
        assert prng_expand(seed, 3, 0) == 0

    def test_indices_are_independent_streams(self):
        seed = b"\xaa" * 16
        values = {prng_expand(seed, i, 104) for i in range(50)}
        assert len(values) == 50

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            prng_expand(b"short", 0, 8)
        with pytest.raises(ValueError):
            prng_expand(bytes(16), -1, 8)
        with pytest.raises(ValueError):
            prng_expand(bytes(16), 0, -8)


class TestFixedBase:
    @pytest.mark.parametrize("profile_name", ["toy_profile", "s128_profile"])
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_matches_pow(self, profile_name, request, data):
        p = request.getfixturevalue(profile_name)
        e = data.draw(st.integers(0, p.response_bound - 1))
        assert p.g_table(e) == pow(p.g, e, p.n)

    @pytest.mark.parametrize("profile_name", ["toy_profile", "s128_profile"])
    def test_range_edges(self, profile_name, request):
        p = request.getfixturevalue(profile_name)
        for e in (0, 1, p.response_bound - 1):
            assert p.g_table(e) == pow(p.g, e, p.n)
        for e in (p.response_bound, -1):
            with pytest.raises(ValueError, match="range"):
                p.g_table(e)

    def test_one_g_table_per_profile(self, monkeypatch):
        builds = []
        real = FixedBase.__init__

        def counting(self, base, n, limit):
            builds.append((base, limit))
            real(self, base, n, limit)

        monkeypatch.setattr(FixedBase, "__init__", counting)
        p = make_profile("toy", rng=random.Random(101))  # fresh: no table yet
        keypair = keygen(p, random.Random(1))
        load_key_file(dump_key_file(p, keypair))
        assert builds == []  # keygen and the key-file check use plain pow
        seed = CouponSeed(b"g-table-counting", 40)
        for k in range(4):
            make_coupons(p, keypair, seed, 10)
            regenerate_coupon(p, seed, 30 + k)
        prover = ProverSession(p, keypair, seed)
        verifier = VerifierSession(p, {keypair.id_p: keypair.i_pub})
        rng = random.Random(3)
        for _ in range(4):
            challenge = verifier.challenge(prover.commit(), rng)
            assert verifier.decide(prover.respond(challenge)).accept
        # one g table, and the standalone verifier's one I table
        assert builds == [(p.g, p.response_bound), (keypair.i_pub, 1 << p.c_bits)]


class TestCoupons:
    def test_structure(self, toy_profile, toy_coupons):
        p = toy_profile
        for i, c in enumerate(toy_coupons[:50]):
            assert c.index == i
            assert 0 <= c.r < 2**p.d_bits
            assert c.x == pow(p.g, c.r, p.n)

    def test_keypair_does_not_affect_values(self, toy_profile, toy_keypair):
        seed = CouponSeed(b"0123456789abcdef", 4)
        with_kp = make_coupons(toy_profile, toy_keypair, seed, 4)
        without = make_coupons(toy_profile, None, seed, 4)
        assert with_kp == without

    def test_regenerate_matches(self, toy_profile, toy_coupons):
        seed = CouponSeed(b"toy-coupon-seed!", 1200)
        for i in (0, 1, 17, 999):
            assert regenerate_coupon(toy_profile, seed, i) == toy_coupons[i]

    def test_seed_validation(self):
        with pytest.raises(ValueError):
            CouponSeed(b"too short", 4)
        with pytest.raises(ValueError):
            CouponSeed(bytes(16), -1)

    def test_count_validation(self, toy_profile):
        with pytest.raises(ValueError):
            make_coupons(toy_profile, None, CouponSeed(bytes(16), 1), 0)


class TestCouponFile:
    def test_round_trip(self, toy_profile, toy_coupons):
        text = dump_coupon_file(toy_profile, toy_coupons[:5])
        profile, coupons = load_coupon_file(text)
        assert (profile.n, profile.g, profile.name) == (
            toy_profile.n, toy_profile.g, toy_profile.name)
        assert coupons == toy_coupons[:5]

    def test_golden_file(self, golden_dir):
        # artifact of: keygen --profile toy --seed 7; coupons --seed 9 --count 20
        rng = random.Random(7)
        profile = make_profile("toy", rng=rng)
        keypair = keygen(profile, rng)
        seed = CouponSeed((9).to_bytes(16, "big"), 20)
        coupons = make_coupons(profile, keypair, seed, 20)
        want = (golden_dir / "coupons_toy_seed9.txt").read_text()
        assert dump_coupon_file(profile, coupons) == want

    def test_rejects_garbage(self):
        with pytest.raises(FileFormatError):
            load_coupon_file("not a coupon file\n")
        with pytest.raises(FileFormatError):
            load_coupon_file("GPSCOUPONS v2 toy\nn=5\ng=2\n")
        with pytest.raises(FileFormatError):
            load_coupon_file("GPSCOUPONS v1 toy\nn=zz\ng=2\n".replace("n=zz", "m=11"))
        with pytest.raises(FileFormatError):
            load_coupon_file("GPSCOUPONS v1 unknownprofile\nn=d\ng=2\n")

    def test_rejects_bad_coupon_line(self, toy_profile):
        text = dump_coupon_file(toy_profile, []) + "i=0 r=11\n"
        with pytest.raises(FileFormatError):
            load_coupon_file(text)

    @pytest.mark.parametrize("bad", ["i=0 r=zz x=5", "i=0 r=11 x=0x5", "i=0 r=-11 x=5",
                                     "i=x r=11 x=5"])
    def test_rejects_bad_digits(self, toy_profile, bad):
        with pytest.raises(FileFormatError, match="integer"):
            load_coupon_file(dump_coupon_file(toy_profile, []) + bad + "\n")


class TestKeyFile:
    def test_round_trip(self, toy_profile, toy_keypair):
        profile, keypair = load_key_file(dump_key_file(toy_profile, toy_keypair))
        assert keypair == toy_keypair
        assert (profile.n, profile.g, profile.name) == (
            toy_profile.n, toy_profile.g, toy_profile.name)

    @pytest.mark.parametrize("name,golden", [
        ("toy", "key_toy_seed7.gpskey"),
        ("s128", "key_s128_seed7.gpskey"),
    ])
    def test_golden_files(self, golden_dir, name, golden):
        # artifact of: keygen --profile <name> --seed 7
        rng = random.Random(7)
        profile = make_profile(name, rng=rng)
        keypair = keygen(profile, rng)
        assert dump_key_file(profile, keypair) == (golden_dir / golden).read_text()

    def test_rejects_garbage(self, toy_profile, toy_keypair):
        good = dump_key_file(toy_profile, toy_keypair)
        with pytest.raises(FileFormatError):
            load_key_file(good.replace("GPSKEY v1", "GPSKEY v9"))
        with pytest.raises(FileFormatError):
            load_key_file(good.replace("profile=", "profil="))
        with pytest.raises(FileFormatError):
            load_key_file("\n".join(good.splitlines()[:5]) + "\n")
        with pytest.raises(FileFormatError):
            load_key_file(good.replace("profile=toy", "profile=bogus"))

    def _with_field(self, profile, keypair, key, value):
        lines = dump_key_file(profile, keypair).splitlines()
        return "\n".join(f"{key}={value}" if ln.startswith(key + "=") else ln
                         for ln in lines) + "\n"

    @pytest.mark.parametrize("key,value", [("s", "12g4"), ("I", "-1f"), ("n", " 1f"),
                                           ("id", "0102030z")])
    def test_rejects_bad_hex(self, toy_profile, toy_keypair, key, value):
        with pytest.raises(FileFormatError):
            load_key_file(self._with_field(toy_profile, toy_keypair, key, value))

    def test_rejects_secret_out_of_range(self, toy_profile, toy_keypair):
        too_big = toy_keypair.s + (1 << toy_profile.s_bits)
        text = self._with_field(toy_profile, toy_keypair, "s", format(too_big, "x"))
        with pytest.raises(FileFormatError, match="bits"):
            load_key_file(text)

    def test_rejects_public_key_of_another_secret(self, toy_profile, toy_keypair):
        other = keypair_from_secret(toy_profile, toy_keypair.s ^ 1, toy_keypair.id_p)
        text = self._with_field(toy_profile, toy_keypair, "I", format(other.i_pub, "x"))
        with pytest.raises(FileFormatError, match="public key"):
            load_key_file(text)

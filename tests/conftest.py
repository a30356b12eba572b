"""Shared fixtures: profile generation is the slow part, so do it once."""

import random
from pathlib import Path

import pytest

from gpsauth.params import CouponSeed, keygen, make_coupons, make_profile
from gpsauth.protocol import DEFAULT_TIMEOUT, memory_pair

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(scope="session")
def toy_profile():
    return make_profile("toy", rng=random.Random(101))


@pytest.fixture(scope="session")
def toy_keypair(toy_profile):
    return keygen(toy_profile, random.Random(202))


@pytest.fixture(scope="session")
def toy_coupons(toy_profile, toy_keypair):
    # big enough for the completeness (1000) and soundness (100) loops
    seed = CouponSeed(b"toy-coupon-seed!", 1200)
    return make_coupons(toy_profile, toy_keypair, seed, 1200)


@pytest.fixture(scope="session")
def s128_profile():
    return make_profile("s128", rng=random.Random(303))


@pytest.fixture(scope="session")
def s128_keypair(s128_profile):
    return keygen(s128_profile, random.Random(404))


@pytest.fixture(scope="session")
def s128_coupons(s128_profile, s128_keypair):
    seed = CouponSeed(b"full-scale-seed0", 60)
    return make_coupons(s128_profile, s128_keypair, seed, 60)


@pytest.fixture(scope="session")
def golden_dir():
    return GOLDEN


@pytest.fixture
def channel_pair():
    """memory_pair factory; every end it made is closed when the test ends."""
    ends = []

    def make(timeout=DEFAULT_TIMEOUT):
        pair = memory_pair(timeout)
        ends.extend(pair)
        return pair

    yield make
    for end in ends:
        end.close()

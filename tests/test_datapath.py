import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpsauth.arith import mul_oracle
from gpsauth.datapath import (
    ConfigurationError,
    KcmConfig,
    SerialConfig,
    Widths,
    architecture,
    build_kcm_tables,
    check_operands,
    format_trace,
    hybrid_latency_cycles,
    kcm_hybrid_respond,
    kcm_parallel_respond,
    kcm_product,
    output_bytes,
    parallel_latency_cycles,
    serial_latency_cycles,
    serial_respond,
    split_digits,
    stream_throughput,
)


def respond(arch, s, n_v, r, widths, word_bits=16, lut_bits=4, cfg=None):
    design = architecture(arch)
    cfg = cfg or design.config(word_bits, lut_bits)
    return design.respond(cfg, design.prepare(s, cfg, widths.c_bits), n_v, r, widths)


class TestWorkedExamples:
    def test_shift_add_41_times_6(self, golden_dir):
        res = serial_respond(SerialConfig(8), s=41, n_v=6, r=0, widths=Widths(6, 3, 8))
        assert res.value == 246
        # accumulator after each challenge bit: 41, 41*2+41, 123*2+0
        assert [t.acc for t in res.trace if t.kind == "madd"] == [41, 123, 246]
        assert format_trace(res.trace) == (golden_dir / "serial_41x6.trace").read_text()

    def test_kcm_decimal_953_times_482(self):
        partials, total = kcm_product(953, 482, radix=10)
        assert partials == [3812, 7624, 1906]
        assert total == 459346

    def test_kcm_product_binary_radix(self):
        partials, total = kcm_product(41, 6, radix=4)
        assert partials == [41 * 1, 41 * 2]
        assert total == 246

    def test_kcm_product_explicit_width(self):
        partials, total = kcm_product(7, 2, radix=10, ndigits=3)
        assert partials == [0, 0, 14]
        assert total == 14


class TestLatency:
    # (s_bits, serial w16, parallel, hybrid)
    STANDARD = [(128, 339, 8, 48), (256, 603, 12, 72), (512, 1131, 20, 120)]

    @pytest.mark.parametrize("s_bits,serial,parallel,hybrid", STANDARD)
    def test_standard_sizes(self, s_bits, serial, parallel, hybrid):
        d = s_bits + 32 + 80
        assert serial_latency_cycles(s_bits, 32, d, 16) == serial
        assert parallel_latency_cycles(s_bits) == parallel
        assert hybrid_latency_cycles(s_bits) == hybrid

    @pytest.mark.parametrize("s_bits,serial,parallel,hybrid", STANDARD)
    def test_simulation_agrees(self, s_bits, serial, parallel, hybrid):
        rng = random.Random(s_bits)
        widths = Widths(s_bits, 32, s_bits + 112)
        s, n_v, r = (rng.getrandbits(b) for b in (s_bits, 32, widths.d_bits))
        assert respond("serial", s, n_v, r, widths).cycles == serial
        assert respond("parallel", s, n_v, r, widths).cycles == parallel
        assert respond("hybrid", s, n_v, r, widths).cycles == hybrid

    @pytest.mark.parametrize("word_bits,expected", [
        (8, {128: 610, 256: 1138, 512: 2194}),
        (16, {128: 339, 256: 603, 512: 1131}),
        (32, {128: 204, 256: 336, 512: 600}),
    ])
    def test_serial_across_adder_widths(self, word_bits, expected):
        for s_bits, cycles in expected.items():
            assert serial_latency_cycles(s_bits, 32, s_bits + 112, word_bits) == cycles

    def test_latency_independent_of_operands(self):
        widths = Widths(16, 8, 104)
        baseline = respond("serial", 0, 0, 0, widths)
        extreme = respond("serial", 2**16 - 1, 2**8 - 1, 2**104 - 1, widths)
        assert baseline.cycles == extreme.cycles
        assert baseline.step_count == extreme.step_count


class TestResultValue:
    def test_exhaustive_small(self):
        widths = Widths(6, 4, 14)
        rng = random.Random(42)
        for s in range(64):
            tables2 = build_kcm_tables(s, 2, widths.c_bits)
            for n_v in range(16):
                for r in (0, 9731, rng.getrandbits(14)):
                    want = r + mul_oracle(n_v, s)
                    got_serial = serial_respond(SerialConfig(8), s, n_v, r, widths)
                    got_par = kcm_parallel_respond(KcmConfig(2), tables2, n_v, r, widths)
                    got_hyb = kcm_hybrid_respond(KcmConfig(2), tables2[0], n_v, r, widths)
                    assert got_serial.value == want
                    assert got_par.value == want
                    assert got_hyb.value == want

    @given(
        st.integers(min_value=0, max_value=2**128 - 1),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=0, max_value=2**240 - 1),
        st.sampled_from(["serial", "parallel", "hybrid"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_full_scale_matches_oracle(self, s, n_v, r, arch):
        widths = Widths(128, 32, 240)
        res = respond(arch, s, n_v, r, widths)
        assert res.value == r + mul_oracle(n_v, s)
        assert res.step_count == len(res.trace)

    def test_architectures_agree_bit_for_bit(self):
        rng = random.Random(7)
        widths = Widths(128, 32, 240)
        for _ in range(20):
            s, n_v, r = (rng.getrandbits(b) for b in (128, 32, 240))
            values = {respond(a, s, n_v, r, widths).value
                      for a in ("serial", "parallel", "hybrid")}
            assert len(values) == 1

    def test_operand_range_checks(self):
        widths = Widths(8, 4, 16)
        with pytest.raises(ConfigurationError):
            respond("serial", 256, 0, 0, widths)
        with pytest.raises(ConfigurationError):
            respond("parallel", 0, 16, 0, widths)
        with pytest.raises(ConfigurationError):
            respond("hybrid", 0, 0, 1 << 16, widths)


def replay_serial_trace(trace, s, n_v, r, widths, w):
    """Re-derive every accumulator snapshot with plain integer arithmetic.

    Within a block the adder's carry is in flight (not in the accumulator),
    so a mid-block snapshot must match the masked partial sum; the last word
    of a block folds the carry and must equal the exact running value.
    """
    s_words = -(-widths.s_bits // w)
    d_words = -(-widths.d_bits // w)
    mask_w = (1 << w) - 1

    def check_block(block, base, addend, words):
        exact = base + addend
        for j, step in enumerate(block):
            assert step.index == j
            assert step.operand == (addend >> (j * w)) & mask_w
            hi = (j + 1) * w
            if j < words - 1:
                assert step.acc % (1 << hi) == (base + (addend & ((1 << hi) - 1))) % (1 << hi)
                assert step.acc >> hi == base >> hi
            else:
                assert step.acc == exact
        return exact

    assert len(trace) == widths.c_bits * s_words + d_words
    pos = 0
    acc = 0
    for k in range(widths.c_bits - 1, -1, -1):
        block = trace[pos:pos + s_words]
        pos += s_words
        assert all(step.kind == "madd" for step in block)
        bit = (n_v >> k) & 1
        acc = check_block(block, acc << 1, s if bit else 0, s_words)
        # at every challenge-bit boundary the accumulator is the prefix product
        assert acc == (n_v >> k) * s
    block = trace[pos:]
    assert all(step.kind == "radd" for step in block)
    acc = check_block(block, acc, r, d_words)
    assert acc == r + n_v * s


class TestSerialTrace:
    @pytest.mark.parametrize("word_bits", [8, 16, 32])
    def test_replay(self, word_bits):
        rng = random.Random(word_bits)
        widths = Widths(128, 32, 240)
        for _ in range(10):
            s, n_v, r = (rng.getrandbits(b) for b in (128, 32, 240))
            res = serial_respond(SerialConfig(word_bits), s, n_v, r, widths)
            replay_serial_trace(res.trace, s, n_v, r, widths, word_bits)

    def test_zero_bits_still_cost_cycles(self):
        # constant-time: the all-zeros challenge runs the same step sequence
        widths = Widths(16, 8, 104)
        res = serial_respond(SerialConfig(16), 0xBEEF, 0, 5, widths)
        assert res.step_count == 8 * 1 + 7
        assert sum(1 for t in res.trace if t.kind == "madd") == 8
        assert res.value == 5

    def test_word_config_validation(self):
        with pytest.raises(ConfigurationError):
            SerialConfig(12)


class TestParallelTrace:
    def test_structure(self):
        widths = Widths(128, 32, 240)
        s = 0x1234_5678_9ABC_DEF0
        tables = build_kcm_tables(s, 4, 32)
        res = kcm_parallel_respond(KcmConfig(4), tables, 0xCAFE_F00D, 77, widths)
        kinds = [t.kind for t in res.trace]
        assert kinds.count("lookup") == 8  # 32 challenge bits in 4-bit digits
        assert kinds.count("treeadd") == 7  # pairwise tree of 8 operands
        assert kinds.count("radd") == 1
        assert res.step_count == 16

    def test_lookup_steps_are_positioned_partials(self):
        s = 953
        widths = Widths(10, 12, 102)
        tables = build_kcm_tables(s, 4, 12)
        n_v = 0x482
        res = kcm_parallel_respond(KcmConfig(4), tables, n_v, 0, widths)
        lookups = [t for t in res.trace if t.kind == "lookup"]
        digits = [(n_v >> shift) & 0xF for shift in (8, 4, 0)]
        assert [t.operand for t in lookups] == digits
        assert [t.acc for t in lookups] == [
            d * s << shift for d, shift in zip(digits, (8, 4, 0))
        ]
        assert sum(t.acc for t in lookups) == n_v * s

    def test_table_bank_is_shared(self):
        tables = build_kcm_tables(41, 4, 32)
        assert len(tables) == 8
        assert all(t is tables[0] for t in tables)
        assert tables[0].entries == tuple(41 * d for d in range(16))

    def test_bank_size_mismatch_rejected(self):
        widths = Widths(8, 32, 120)
        tables = build_kcm_tables(3, 4, 16)  # only 4 tables, need 8
        with pytest.raises(ConfigurationError):
            kcm_parallel_respond(KcmConfig(4), tables, 1, 0, widths)

    def test_config_mismatch_rejected(self):
        widths = Widths(8, 8, 96)
        tables = build_kcm_tables(3, 2, 8)
        with pytest.raises(ConfigurationError):
            kcm_parallel_respond(KcmConfig(4), tables, 1, 0, widths)

    def test_lut_bits_validation(self):
        with pytest.raises(ConfigurationError):
            KcmConfig(1)
        with pytest.raises(ConfigurationError):
            KcmConfig(9)


class TestHybridTrace:
    def test_horner_invariant(self):
        widths = Widths(128, 32, 240)
        rng = random.Random(3)
        s, n_v, r = (rng.getrandbits(b) for b in (128, 32, 240))
        table = build_kcm_tables(s, 4, 32)[0]
        res = kcm_hybrid_respond(KcmConfig(4), table, n_v, r, widths)
        laccs = [t for t in res.trace if t.kind == "lacc"]
        assert len(laccs) == 8
        for i, step in enumerate(laccs):
            prefix = n_v >> (32 - 4 * (i + 1))
            assert step.acc == prefix * s
        assert res.trace[-1].kind == "radd"
        assert res.value == r + n_v * s


class TestCommonHelpers:
    def test_split_digits(self):
        assert split_digits(482, 10, 3) == [4, 8, 2]
        assert split_digits(5, 10, 3) == [0, 0, 5]
        assert split_digits(0, 16, 2) == [0, 0]
        with pytest.raises(ValueError):
            split_digits(1000, 10, 3)
        with pytest.raises(ValueError):
            split_digits(3, 1, 2)

    def test_check_operands_bounds(self):
        widths = Widths(4, 4, 8)
        check_operands(widths, 15, 15, 255)
        for bad in [(16, 0, 0), (0, 16, 0), (0, 0, 256), (-1, 0, 0)]:
            with pytest.raises(ConfigurationError):
                check_operands(widths, *bad)

    def test_throughput_fractions(self):
        w128 = Widths(128, 32, 240)
        assert output_bytes(w128) == 30
        assert stream_throughput("parallel", w128) == 30
        assert stream_throughput("serial", w128, SerialConfig(16)) == Fraction(30, 339)
        assert stream_throughput("hybrid", w128) == Fraction(30, 48) == Fraction(5, 8)
        w512 = Widths(512, 32, 624)
        assert stream_throughput("parallel", w512) == 78
        with pytest.raises(ConfigurationError):
            stream_throughput("quantum", w128)

    def test_throughput_decimal_renderings(self):
        # three-decimal renderings across the standard sizes
        cases = {
            ("serial", 128): "0.088", ("serial", 256): "0.076", ("serial", 512): "0.069",
            ("hybrid", 128): "0.625", ("hybrid", 256): "0.639", ("hybrid", 512): "0.650",
        }
        for (arch, s_bits), want in cases.items():
            widths = Widths(s_bits, 32, s_bits + 112)
            got = stream_throughput(arch, widths, SerialConfig(16))
            assert f"{float(got):.3f}" == want

    def test_format_trace_empty(self):
        assert format_trace([]) == ""

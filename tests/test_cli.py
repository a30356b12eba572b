import random
import subprocess
import sys

import pytest

from gpsauth.cli import main
from gpsauth.params import load_key_file
from gpsauth.protocol import VerifierServer


def kv_lines(text):
    out = []
    for line in text.strip().splitlines():
        if "=" in line:
            out.append(dict(part.split("=", 1) for part in line.split()))
    return out


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    key = d / "k.gpskey"
    coupons = d / "c.txt"
    assert main(["keygen", "--profile", "toy", "--seed", "7", "--out", str(key)]) == 0
    assert main(["coupons", "--key", str(key), "--count", "20", "--seed", "9",
                 "--out", str(coupons)]) == 0
    return key, coupons


@pytest.fixture()
def toy_server(cli_files):
    key, _ = cli_files
    profile, keypair = load_key_file(key.read_text())
    with VerifierServer(profile, {keypair.id_p: keypair.i_pub},
                        rng=random.Random(31)) as server:
        yield server


class TestKeygen:
    def test_matches_golden(self, cli_files, golden_dir):
        key, _ = cli_files
        assert key.read_text() == (golden_dir / "key_toy_seed7.gpskey").read_text()

    def test_missing_out_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["keygen", "--profile", "toy", "--seed", "1"])
        assert exc.value.code == 1

    def test_unknown_profile_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["keygen", "--profile", "huge", "--seed", "1", "--out", "x"])
        assert exc.value.code == 1

    def test_os_seed_is_echoed(self, tmp_path, capsys):
        out = tmp_path / "k.gpskey"
        assert main(["keygen", "--profile", "toy", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "seed=" in stdout
        assert out.exists()

    def test_bad_output_path(self, capsys):
        assert main(["keygen", "--profile", "toy", "--seed", "1",
                     "--out", "/nonexistent/dir/k"]) == 1
        assert "error" in capsys.readouterr().err


class TestCoupons:
    def test_matches_golden(self, cli_files, golden_dir):
        _, coupons = cli_files
        assert coupons.read_text() == (golden_dir / "coupons_toy_seed9.txt").read_text()

    def test_rerun_is_identical(self, cli_files, tmp_path):
        key, coupons = cli_files
        again = tmp_path / "again.txt"
        assert main(["coupons", "--key", str(key), "--count", "20", "--seed", "9",
                     "--out", str(again)]) == 0
        assert again.read_text() == coupons.read_text()

    def test_single_coupon(self, cli_files, tmp_path):
        key, _ = cli_files
        out = tmp_path / "one.txt"
        assert main(["coupons", "--key", str(key), "--count", "1", "--seed", "2",
                     "--out", str(out)]) == 0
        assert sum(1 for ln in out.read_text().splitlines() if ln.startswith("i=")) == 1

    def test_missing_key_file(self, tmp_path, capsys):
        assert main(["coupons", "--key", str(tmp_path / "nope"), "--seed", "1",
                     "--out", str(tmp_path / "c.txt")]) == 1
        assert "error" in capsys.readouterr().err


class TestAuth:
    def test_accept_per_architecture(self, cli_files, toy_server, capsys):
        key, coupons = cli_files
        cycles = {}
        for i, arch in enumerate(("serial", "parallel", "hybrid")):
            code = main(["auth", "--key", str(key), "--coupons", str(coupons),
                         "--port", str(toy_server.port), "--coupon-index", str(i),
                         "--arch", arch, "--format", "kv"])
            assert code == 0
            record = kv_lines(capsys.readouterr().out)[0]
            assert record["verdict"] == "accept"
            cycles[arch] = int(record["cycles"])
        # same verdict everywhere, architecture-specific cycle counts
        assert cycles == {"serial": 83, "parallel": 5, "hybrid": 27}

    def test_tampered_coupon_rejected(self, cli_files, toy_server, tmp_path):
        key, coupons = cli_files
        lines = coupons.read_text().splitlines()
        first = lines[3]
        x = first.split("x=")[1]
        flipped = format(int(x, 16) ^ 1, "x")
        lines[3] = first.replace(f"x={x}", f"x={flipped}")
        bad = tmp_path / "tampered.txt"
        bad.write_text("\n".join(lines) + "\n")
        code = main(["auth", "--key", str(key), "--coupons", str(bad),
                     "--port", str(toy_server.port), "--coupon-index", "0"])
        assert code == 2

    def test_connection_refused_is_transport_failure(self, cli_files, capsys):
        key, coupons = cli_files
        import socket
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        free_port = probe.getsockname()[1]
        probe.close()
        code = main(["auth", "--key", str(key), "--coupons", str(coupons),
                     "--port", str(free_port), "--timeout", "0.5"])
        assert code == 3
        assert "transport failure" in capsys.readouterr().err

    def test_foreign_coupon_file_rejected(self, cli_files, tmp_path, capsys):
        key, _ = cli_files
        other_key = tmp_path / "other.gpskey"
        other_coupons = tmp_path / "other.txt"
        assert main(["keygen", "--profile", "toy", "--seed", "8",
                     "--out", str(other_key)]) == 0
        assert main(["coupons", "--key", str(other_key), "--seed", "1",
                     "--out", str(other_coupons)]) == 0
        code = main(["auth", "--key", str(key), "--coupons", str(other_coupons),
                     "--port", "1"])
        assert code == 1
        assert "different modulus" in capsys.readouterr().err

    def test_coupon_index_out_of_store(self, cli_files, toy_server, capsys):
        key, coupons = cli_files
        code = main(["auth", "--key", str(key), "--coupons", str(coupons),
                     "--port", str(toy_server.port), "--coupon-index", "99"])
        assert code == 1
        assert "coupon" in capsys.readouterr().err


class TestBench:
    def test_standard_profile_values(self, capsys):
        assert main(["bench", "--profile", "s128", "--seed", "5",
                     "--format", "kv"]) == 0
        records = {r["arch"]: r for r in kv_lines(capsys.readouterr().out)}
        assert int(records["serial"]["cycles"]) == 339
        assert int(records["parallel"]["cycles"]) == 8
        assert int(records["hybrid"]["cycles"]) == 48
        assert all(r["within_budget"] == "yes" for r in records.values())
        assert records["serial"]["throughput_bytes_per_cycle"] == "0.088"

    def test_challenge_bits_override(self, capsys):
        assert main(["bench", "--profile", "toy", "--challenge-bits", "32",
                     "--seed", "5", "--format", "kv"]) == 0
        records = {r["arch"]: r for r in kv_lines(capsys.readouterr().out)}
        assert int(records["serial"]["cycles"]) == 32 * 1 + 8 + 68
        assert int(records["parallel"]["cycles"]) == 5
        assert int(records["hybrid"]["cycles"]) == 27

    def test_text_mode_labels_host_time(self, capsys):
        assert main(["bench", "--profile", "toy", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "host ms/iter" in out
        assert "not target time" in out
        assert "2560" in out

    def test_env_profile_default(self, monkeypatch, capsys):
        monkeypatch.setenv("GPS_PROFILE", "toy")
        assert main(["bench", "--seed", "5", "--format", "kv"]) == 0
        records = kv_lines(capsys.readouterr().out)
        assert all(r["profile"] == "toy" for r in records)

    def test_seed_echoed_when_missing(self, capsys):
        assert main(["bench", "--profile", "toy", "--format", "kv"]) == 0
        assert "seed=" in capsys.readouterr().out


class TestReport:
    def test_text_report(self, capsys):
        assert main(["report"]) == 0
        out = capsys.readouterr().out
        for token in (" 339", " 603", " 1131", "0.088", "0.625",
                      "published figure is 76", "coupons via PRNG"):
            assert token in out

    def test_kv_report(self, capsys):
        assert main(["report", "--format", "kv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "arch=hybrid s_bits=512 metric=latency_cycles value=120" in lines

    @pytest.mark.parametrize("fmt, golden", [("text", "report.txt"), ("kv", "report.kv")])
    def test_matches_golden(self, fmt, golden, capsys, golden_dir):
        assert main(["report", "--format", fmt]) == 0
        assert capsys.readouterr().out.encode() == (golden_dir / golden).read_bytes()

    def test_check_mode(self, capsys):
        assert main(["report", "--check"]) == 0
        assert "all committed" in capsys.readouterr().out

    def test_out_file(self, tmp_path):
        target = tmp_path / "report.txt"
        assert main(["report", "--out", str(target)]) == 0
        assert "Latency (cycles)" in target.read_text()


class TestUsage:
    def test_no_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1

    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["report", "--frobnicate"])
        assert exc.value.code == 1


class TestServeSubprocess:
    def test_serve_plus_auth_round_trip(self, cli_files):
        key, coupons = cli_files
        proc = subprocess.Popen(
            [sys.executable, "-m", "gpsauth.cli", "serve", "--key", str(key),
             "--rounds", "1", "--seed", "13"],
            stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            assert line.startswith("listening ")
            port = int(line.split("port=")[1])
            code = main(["auth", "--key", str(key), "--coupons", str(coupons),
                         "--port", str(port), "--coupon-index", "5"])
            assert code == 0
            rest, _ = proc.communicate(timeout=10)
        finally:
            proc.kill()
        assert "served accepted=1 rejected=0" in rest
        assert proc.returncode == 0

    def test_serve_exits_after_exactly_n_rounds(self, cli_files):
        key, coupons = cli_files
        proc = subprocess.Popen(
            [sys.executable, "-m", "gpsauth.cli", "serve", "--key", str(key),
             "--rounds", "2", "--seed", "13"],
            stdout=subprocess.PIPE, text=True)
        try:
            port = int(proc.stdout.readline().split("port=")[1])
            auth = ["auth", "--key", str(key), "--coupons", str(coupons), "--port", str(port)]
            assert main(auth + ["--coupon-index", "6"]) == 0
            with pytest.raises(subprocess.TimeoutExpired):
                proc.wait(timeout=0.3)  # one round decided: still serving
            assert main(auth + ["--coupon-index", "7"]) == 0
            rest, _ = proc.communicate(timeout=10)
        finally:
            proc.kill()
            proc.stdout.close()
        assert "served accepted=2 rejected=0" in rest
        assert proc.returncode == 0

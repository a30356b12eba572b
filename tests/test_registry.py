"""Every architecture list in the package is the registry's, in its order."""

import argparse

import pytest

from gpsauth import costmodel, datapath
from gpsauth.cli import build_parser, main
from gpsauth.datapath import ARCHITECTURES, ConfigurationError, architecture
from gpsauth.protocol import Challenge, ProverSession

NAMES = list(ARCHITECTURES)


def test_registry_order():
    # the order is the column order of the committed report tables
    assert NAMES == ["serial", "parallel", "hybrid"]
    assert all(ARCHITECTURES[name].name == name for name in NAMES)


def test_unknown_name_is_configuration_error():
    with pytest.raises(ConfigurationError, match="quantum"):
        architecture("quantum")
    assert issubclass(ConfigurationError, ValueError)


def test_auth_arch_choices():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    arch = next(a for a in sub.choices["auth"]._actions if a.dest == "arch")
    assert list(arch.choices) == NAMES


def test_tradeoff_table_columns():
    header = costmodel.render_tradeoff_table().splitlines()[1].split()
    assert header == ["Secret"] + [name.capitalize() for name in NAMES]


def test_bench_rows(capsys):
    assert main(["bench", "--profile", "toy", "--seed", "5", "--format", "kv"]) == 0
    rows = [line for line in capsys.readouterr().out.splitlines() if line.startswith("arch=")]
    assert [row.split()[0].removeprefix("arch=") for row in rows] == NAMES


def test_check_tradeoffs_walks_registry(monkeypatch):
    walked = []
    real = costmodel.cost_report

    def recording(arch, *args):
        if arch not in walked:
            walked.append(arch)
        return real(arch, *args)

    monkeypatch.setattr(costmodel, "cost_report", recording)
    assert costmodel.check_tradeoffs() == []
    assert walked == NAMES


@pytest.mark.parametrize("arch", ["parallel", "hybrid"])
def test_prover_builds_kcm_table_once(arch, monkeypatch, toy_profile, toy_keypair, toy_coupons):
    builds = []
    real = datapath.build_kcm_tables

    def counting(*args):
        builds.append(args)
        return real(*args)

    monkeypatch.setattr(datapath, "build_kcm_tables", counting)
    prover = ProverSession(toy_profile, toy_keypair, toy_coupons)
    for i in range(6):
        prover.commit()
        n_v = 37 * i
        assert prover.respond(Challenge(n_v), arch=arch).y == toy_coupons[i].r + n_v * toy_keypair.s
    assert len(builds) == 1


"""Tests of the benchmark itself, on the toy profile so they run in seconds.

    PYTHONPATH=src python -m pytest -q benchmarks
"""

import copy
import json
from pathlib import Path

import pytest

import run

run.use_source_tree()

import layers  # noqa: E402  (needs the source tree on sys.path)
import workloads  # noqa: E402
from gpsauth.params import Coupon  # noqa: E402

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def _units(metrics):
    return {name: m["unit"] for name, m in metrics.items()}


def test_spec_names_the_implemented_workloads():
    assert sorted(WORKLOAD_NAMES) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
@pytest.mark.parametrize("trace,section", [(False, "end_to_end"), (True, "per_layer")])
def test_toy_run_prints_every_metric_with_its_unit(workload, trace, section):
    result, record, _ = run.run(workload, seed=3, seconds=0.4, trace=trace, scale=workloads.TOY)
    assert result["correct"], record
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert _units(result["metrics"]) == {m["name"]: m["unit"] for m in SPEC[section]}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_modeled_counts_repeat_exactly_and_match_the_reference():
    first, mismatches = layers.modeled_invariants(seed=1)
    second, _ = layers.modeled_invariants(seed=2)
    assert mismatches == []
    assert first == second
    assert [first[f"datapath.s128.{a}.cycles"][0] for a in workloads.ARCHES] == [339, 8, 48]
    assert [first[f"datapath.s512.{a}.cycles"][0] for a in workloads.ARCHES] == [1131, 20, 120]


def test_corrupted_reference_fails_the_run(monkeypatch, capsys):
    corrupted = copy.deepcopy(layers.REFERENCE)
    corrupted["s128"]["hybrid"]["cycles"] = 47
    monkeypatch.setattr(layers, "REFERENCE", corrupted)
    code = run.main(["--workload", "coupon_issue", "--seed", "3", "--seconds", "0.2"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert last["correct"] is False


def _one_phase(cls):
    wl = cls(seed=5, scale=workloads.TOY)
    try:
        phase = wl.run(0.2, None)
    finally:
        wl.close()
    assert phase.sample and phase.failed == 0 and wl.check(phase.sample) == 0
    return wl, phase.sample


def test_verify_tcp_tops_up_its_pools_instead_of_stopping_early():
    wl = workloads.VerifyTcp(seed=5, scale=workloads.TOY)
    try:
        phase = wl.run(0.2, None)
    finally:
        wl.close()
    assert phase.topups > 0 and phase.errors == phase.failed == 0
    assert all(len(c.pool) > workloads.TOY.tcp_pool for c in wl.clients)


def test_wrong_response_counts_as_failed_op():
    wl, records = _one_phase(workloads.ProverSim)
    slot, arch, index, n_v, y, cycles = records[0]
    records[0] = (slot, arch, index, n_v, y + 1, cycles)
    assert wl.check(records) == 1


def test_unexpected_verdict_counts_as_failed_op():
    wl, records = _one_phase(workloads.VerifyTcp)
    index, n_v, y, tamper, accept = records[0]
    records[0] = (index, n_v, y, tamper, not accept)
    assert wl.check(records) == 1


def test_bad_coupon_counts_as_failed_op():
    wl, records = _one_phase(workloads.CouponIssue)
    coupons, loaded_profile, loaded, index, x = records[0]
    bad = coupons[:-1] + [Coupon(coupons[-1].index, coupons[-1].r, coupons[-1].x + 1)]
    records[0] = (bad, loaded_profile, loaded, index, x)
    assert wl.check(records) == 1


def test_missing_source_tree_exits_without_a_result(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run.use_source_tree(tmp_path)
    assert exc.value.code not in (0, None)

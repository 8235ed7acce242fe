"""The benchmark's own checks: the gate must catch a corrupted output.

    python3 -m pytest perfbench/test_gate.py
"""

from __future__ import annotations

import json

import pytest

import run
import workloads
from workloads import WORKLOADS, load_reference


@pytest.fixture(scope="module")
def lmss():
    return run.import_program()


def _drop_member(out: str) -> str:
    data = json.loads(out)
    data["members"].pop()
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def test_gate_rejects_psi_output_with_a_member_dropped(lmss):
    wl = WORKLOADS["psi_gnp"]
    item = wl.items(lmss, 0)[0]
    rc, out = wl.execute(lmss, item)
    reference = load_reference()
    assert wl.gate(item, (rc, out), reference) is None
    assert "digest" in wl.gate(item, (rc, _drop_member(out)), reference)
    assert "exit code" in wl.gate(item, (1, out), reference)


def test_gate_rejects_a_changed_graph6_round_trip(lmss):
    wl = WORKLOADS["graph6_roundtrip"]
    item = wl.items(lmss, 0)[0]
    result = wl.execute(lmss, item)
    assert wl.gate(item, result, {}) is None
    first, graph = result[0]
    assert wl.gate(item, [(first + b"?", graph)] + result[1:], {}) is not None
    other = lmss.parse_graph6(result[1][0])
    assert wl.gate(item, [(first, other)] + result[1:], {}) is not None


def test_run_counts_a_planted_corruption_as_failed(lmss, monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(run, "STATE", tmp_path)
    monkeypatch.setattr(workloads, "GNP_PER_STRATUM", 2)  # a 20-input prefix of the universe
    wl = WORKLOADS["psi_gnp"]
    execute = type(wl).execute
    planted = []

    def corrupt_third(self, lmss, item):
        rc, out = execute(self, lmss, item)
        planted.append(item.key)
        return (rc, _drop_member(out)) if len(planted) == 3 else (rc, out)

    monkeypatch.setattr(type(wl), "execute", corrupt_third)
    code = run.run("psi_gnp", seed=5, seconds=0, trace=False)
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 0
    assert result["failed"] == 1
    assert result["correct"] is False
    assert result["metrics"]["ok_ratio"]["value"] == 1 - 1 / result["attempted"]


def test_ledger_flags_a_count_that_drifts(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "STATE", tmp_path)
    ledger = run.Ledger("psi_gnp")
    ledger.check("item", {"stable.stable_sets": 10})
    ledger.save()
    again = run.Ledger("psi_gnp")
    again.check("item", {"stable.stable_sets": 10})
    assert again.drift == []
    again.check("item", {"stable.stable_sets": 11})
    assert len(again.drift) == 1

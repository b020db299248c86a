"""Claims ledger: statuses, gating, determinism."""

from __future__ import annotations

import json
from types import SimpleNamespace

import pytest

import bentgroups.ledger as ledger_module
from bentgroups import build_ledger, ledger_to_json

EXPECTED_CLAIMS = [
    "character-tables",
    "derivative-sum-definition",
    "bent-iff-derivative-sums",
    "abelian-necessary-magnitudes",
    "z2-not-unimodular-counterexample",
    "z3-z4-closed-forms",
    "cyclic-iff-general",
    "klein-printed-conditions",
    "s3-impossibility-certificate",
    "s3-search-evidence",
    "q8-printed-magnitude-system",
    "q8-existence-evidence",
]


@pytest.fixture(scope="module")
def default_ledger():
    return build_ledger(budget=300)


def test_all_claims_present_once(default_ledger):
    claims = [e.claim for e in default_ledger.entries]
    assert claims == EXPECTED_CLAIMS


def test_default_run_passes(default_ledger):
    assert default_ledger.passed
    statuses = {e.claim: e.status for e in default_ledger.entries}
    assert statuses["s3-search-evidence"] == "EVIDENCE"
    assert statuses["q8-existence-evidence"] == "EVIDENCE"
    for claim, status in statuses.items():
        if not claim.endswith("-evidence"):
            assert status == "PASS", (claim, status)


def test_counts(default_ledger):
    counts = default_ledger.counts
    assert counts["PASS"] == 10
    assert counts["EVIDENCE"] == 2
    assert counts["FAIL"] == counts["SKIPPED"] == 0


def test_metrics_are_finite_and_small(default_ledger):
    for entry in default_ledger.entries:
        if entry.status == "PASS":
            assert 0.0 <= entry.metric <= 1e-8, (entry.claim, entry.metric)


def test_absurd_tolerance_fails_numeric_claims():
    ledger = build_ledger(tol=1e-30, budget=0)
    assert not ledger.passed
    failing = {e.claim for e in ledger.entries if e.status == "FAIL"}
    assert "character-tables" in failing
    assert "s3-impossibility-certificate" in failing
    assert "z2-not-unimodular-counterexample" in failing


def test_budget_zero_skips_search_entries():
    ledger = build_ledger(budget=0)
    skipped = [e.claim for e in ledger.entries if e.status == "SKIPPED"]
    assert skipped == ["s3-search-evidence", "q8-existence-evidence"]
    assert ledger.passed  # SKIPPED does not fail the gate


def test_certified_search_witness_fails_both_search_claims(monkeypatch):
    """S3 and Q8 both have forced magnitudes that admit no bent function, so a
    certified witness on either contradicts the derivation."""
    witness = SimpleNamespace(best_objective=0.0, evaluations=1, certified_bent=True)
    monkeypatch.setattr(ledger_module, "run_search", lambda config: witness)
    result = build_ledger(budget=1)
    failing = [e.claim for e in result.entries if e.status == "FAIL"]
    assert failing == ["s3-search-evidence", "q8-existence-evidence"]
    assert not result.passed


def test_loose_tolerance_still_passes():
    ledger = build_ledger(tol=1e-4, budget=0)
    assert ledger.passed


def test_json_round_trip_is_deterministic():
    a = json.dumps(ledger_to_json(build_ledger(budget=250, seed=3)), sort_keys=True)
    b = json.dumps(ledger_to_json(build_ledger(budget=250, seed=3)), sort_keys=True)
    assert a == b


def test_seed_changes_evidence_metrics_only():
    base = {e.claim: e.metric for e in build_ledger(budget=250, seed=0).entries}
    other = {e.claim: e.metric for e in build_ledger(budget=250, seed=9).entries}
    for claim in ("character-tables", "s3-impossibility-certificate",
                  "q8-printed-magnitude-system", "z2-not-unimodular-counterexample"):
        assert base[claim] == other[claim]
    assert (
        base["s3-search-evidence"] != other["s3-search-evidence"]
        or base["q8-existence-evidence"] != other["q8-existence-evidence"]
    )


def test_json_layout(default_ledger):
    obj = ledger_to_json(default_ledger)
    assert set(obj) == {"tol", "budget", "seed", "entries", "summary", "passed"}
    assert obj["passed"] is True
    entry = obj["entries"][0]
    assert set(entry) == {"claim", "statement", "status", "metric", "detail"}

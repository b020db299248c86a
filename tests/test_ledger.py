"""Claims ledger: statuses, gating, determinism."""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import bentgroups.ledger as ledger_module
from bentgroups import (
    BENT,
    NOT_BENT,
    SequenceKind,
    SequenceSpec,
    abelian_magnitude_necessary,
    build_ledger,
    character_table,
    cyclic_criterion,
    cyclic_lag_sums,
    from_coefficients,
    from_values,
    impossibility_certificate,
    is_bent,
    is_bent_spectral,
    klein_criterion,
    ledger_to_json,
    make_bent_cyclic,
    make_cyclic,
    make_named,
    oracle_verdicts,
)
from bentgroups.characters import _REFERENCE_TABLES
from bentgroups.criteria import _Z3_Z4_TERMS, _printed_sums
from bentgroups.search import SearchConfig, Strategy

EXPECTED_CLAIMS = [
    "character-tables",
    "derivative-sum-definition",
    "bent-iff-derivative-sums",
    "abelian-necessary-magnitudes",
    "z2-not-unimodular-counterexample",
    "z3-z4-closed-forms",
    "cyclic-iff-general",
    "klein-printed-conditions",
    "impossibility-certificate",
    "s3-search-evidence",
    "q8-printed-magnitude-system",
    "q8-existence-evidence",
]


#: The claims that take no seed, which ``build_ledger`` checks once per tolerance.
SEED_FREE = [
    "_claim_character_tables",
    "_claim_derivative_definition",
    "_claim_abelian_necessary",
    "_claim_z2_counterexample",
    "_claim_impossibility_certificate",
    "_claim_q8_system",
]


@pytest.fixture(autouse=True)
def fresh_seed_free_memo():
    """Each test starts and ends with no memoized seed-free claims, so a test that
    patches a claim's internals and then builds a ledger checks its patch."""
    ledger_module._seed_free.cache_clear()
    yield
    ledger_module._seed_free.cache_clear()


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
    assert "impossibility-certificate" in failing
    assert "z2-not-unimodular-counterexample" in failing


def test_budget_zero_skips_search_entries():
    ledger = build_ledger(budget=0)
    skipped = [e.claim for e in ledger.entries if e.status == "SKIPPED"]
    assert skipped == ["s3-search-evidence", "q8-existence-evidence"]
    assert ledger.passed  # SKIPPED does not fail the gate


def test_negative_budget_is_rejected():
    with pytest.raises(ValueError, match="budget must be non-negative, got -3"):
        build_ledger(budget=-3)


def test_negative_seed_is_rejected():
    with pytest.raises(ValueError, match="seed must be non-negative, got -5"):
        build_ledger(budget=0, seed=-5)


@pytest.mark.parametrize(
    "field, value, message",
    [("seed", True, "seed must be an integer, got True"),
     ("seed", 2.5, "seed must be an integer, got 2.5"),
     ("budget", 0.0, "budget must be an integer, got 0.0")],
)
def test_a_bool_or_float_count_is_rejected_as_search_config_rejects_it(field, value, message):
    """At budget 0 no SearchConfig saw the seed: 2.5 raised numpy's TypeError
    and True printed ``"seed": true``."""
    with pytest.raises(ValueError) as info:
        build_ledger(**{"budget": 0, field: value})
    assert str(info.value) == message


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1e-9])
def test_a_bad_tolerance_is_rejected(tol):
    message = f"tol must be a finite non-negative number, got {tol}"
    with pytest.raises(ValueError, match=re.escape(message)):
        build_ledger(tol=tol, budget=0)
    assert ledger_module._seed_free.cache_info().currsize == 0


def count_seed_free_runs(monkeypatch) -> Counter:
    """Patch each seed-free claim to count its runs per (claim, tol)."""
    runs = Counter()

    def counted(name, real):
        def claim(tol):
            runs[name, tol] += 1
            return real(tol)
        return claim

    for name in SEED_FREE:
        monkeypatch.setattr(ledger_module, name, counted(name, getattr(ledger_module, name)))
    return runs


def test_seed_free_claims_run_once_per_tolerance(monkeypatch):
    runs = count_seed_free_runs(monkeypatch)
    first = ledger_to_json(build_ledger(budget=0, seed=0))
    assert ledger_to_json(build_ledger(budget=0, seed=0)) == first
    build_ledger(budget=0, seed=5)
    assert runs == {(name, 1e-8): 1 for name in SEED_FREE}
    build_ledger(tol=1e-15, budget=0, seed=5)
    assert runs == {(name, tol): 1 for name in SEED_FREE for tol in (1e-8, 1e-15)}
    build_ledger(budget=0, seed=1)
    assert sum(runs.values()) == 2 * len(SEED_FREE)
    info = ledger_module._seed_free.cache_info()
    assert (info.currsize, info.hits) == (12, 18) and info.maxsize  # bounded


@pytest.mark.parametrize("tol", [1e-8, 1e-15, 1e-30, 0.0])
def test_memoized_seed_free_entries_equal_a_fresh_computation(tol):
    build_ledger(tol=tol, budget=0)
    memoized = {e.claim: e for e in build_ledger(tol=tol, budget=0, seed=3).entries}
    assert ledger_module._seed_free.cache_info().hits == 6
    for name in SEED_FREE:
        fresh = getattr(ledger_module, name)(tol)
        entry = memoized[fresh.claim]
        assert entry == fresh
        assert np.float64(entry.metric).tobytes() == np.float64(fresh.metric).tobytes()


def test_certified_search_witness_fails_both_search_claims(monkeypatch):
    """S3 and Q8 both have forced magnitudes that admit no bent function, so a
    certified witness on either contradicts the derivation."""
    witness = SimpleNamespace(best_objective=0.0, evaluations=1, certified_bent=True)
    monkeypatch.setattr(ledger_module, "run_search", lambda config: witness)
    result = build_ledger(budget=1)
    failing = [e.claim for e in result.entries if e.status == "FAIL"]
    assert failing == ["s3-search-evidence", "q8-existence-evidence"]
    assert not result.passed


#: ``build_ledger(budget=0)`` at tol 1e-8: each entry's claim, statement, status and
#: detail.  Metrics are left out; they round differently under other BLAS kernels.
BUDGET_ZERO_ENTRIES = [
    ("character-tables",
     "the character tables of Z3, Z4, Z_n (omega-power rows), S3 and Q8 match the built-in "
     "references entrywise",
     "PASS", "max entrywise deviation across analytic and class-sum routes"),
    ("derivative-sum-definition",
     "the derivative sum at the identity equals the total energy, and single-character "
     "derivative sums match their closed forms",
     "PASS", "checked chi_2 on Z3 (D(1) = 3*omega, |D| = 3) and a bent witness on Z5"),
    ("bent-iff-derivative-sums",
     "a class function is bent iff every non-identity derivative sum vanishes; on abelian "
     "groups this matches spectrum flatness",
     "PASS", "derivative-sum and spectral verdicts compared on 847 functions"),
    ("abelian-necessary-magnitudes",
     "bent functions on abelian groups have |a_i|^2 = 1/n, and solving Phi w = (1,0,...,0) "
     "via conj(Phi)^T/n reproduces the flat solution",
     "PASS", "Zadoff-Chu witnesses on Z_2..Z_16 plus the Phi-system round trip"),
    ("z2-not-unimodular-counterexample",
     "on Z2 the flat-magnitude vector (1,1)/sqrt(2) takes the values (sqrt(2), 0), so it is "
     "not a map into the unit circle and the necessary magnitude condition is not sufficient",
     "PASS", "verdict NOT_UNIMODULAR, deviation 1.000000"),
    ("z3-z4-closed-forms",
     "the displayed Z3 and Z4 bentness conditions equal the general lag-sum criterion and "
     "agree with the derivative-sum oracle",
     "PASS", "printed sums vs lag sums plus oracle agreement (0 disagreements)"),
    ("cyclic-iff-general",
     "on Z_n a class function is bent iff all |a_i| = 1/sqrt(n) and every cyclic lag sum "
     "vanishes",
     "PASS", "criterion vs oracle on 1695 coefficient vectors, n = 2..12"),
    ("klein-printed-conditions",
     "the three displayed V4 sums vanish on every bent function (necessity); as printed they "
     "are not jointly sufficient",
     "PASS",
     "necessity checked on 50 transformed bent witnesses; sufficiency gap witness (1,i,i,1)/2: "
     "criterion satisfied = True, oracle verdict = NOT_UNIMODULAR (second and third sums "
     "repeat the same terms)"),
    ("impossibility-certificate",
     "no unimodular class function on S3, Q8 or D4 is bent: inversion gives n|a_i| <= "
     "||chi_i||_1, bentness forces |a_i| = d_i/sqrt(n), and the 2-dimensional character has "
     "||chi||_1 = 4 < d*sqrt(n) (2*sqrt(6) on S3, 4*sqrt(2) on Q8 and D4)",
     "PASS",
     "||chi_i||_1 < n*sqrt(m_i) with m from solve_magnitude_system: S3 chi_3: 4.000 < 4.899; "
     "Q8 chi_5: 4.000 < 5.657; D4 chi_5: 4.000 < 5.657"),
    ("s3-search-evidence", "seeded coefficient search on S3 never certifies a bent function",
     "SKIPPED", "search skipped (budget 0)"),
    ("q8-printed-magnitude-system",
     "the five displayed Q8 magnitude equations (including the printed -8 coefficient) have "
     "unique solution (2/9, 2/9, 2/9, 2/9, 1/9)",
     "PASS",
     "solved the printed linear system and re-evaluated each equation; the closed form "
     "D(x)/n = sum_i |a_i|^2 chi_i(x)/d_i derives (1/8, 1/8, 1/8, 1/8, 1/2) instead, at which "
     "the brute-force derivative sums vanish"),
    ("q8-existence-evidence", "seeded coefficient search on Q8 never certifies a bent function",
     "SKIPPED", "search skipped (budget 0)"),
]


def test_claim_text_and_statuses_are_pinned():
    entries = [(e.claim, e.statement, e.status, e.detail) for e in build_ledger(budget=0).entries]
    assert entries == BUDGET_ZERO_ENTRIES


def test_search_claims_report_their_search(monkeypatch):
    """Each search claim runs one ``random+local`` search on its own seed stream
    and reports its best objective and evaluation count."""
    configs = []

    def stub(config):
        configs.append(config)
        return SimpleNamespace(best_objective=0.25, evaluations=7, certified_bent=False)

    monkeypatch.setattr(ledger_module, "run_search", stub)
    entries = {e.claim: e for e in build_ledger(tol=1e-9, budget=123, seed=5).entries}
    detail = "best objective 2.500000e-01 over 7 evaluations; certified_bent = False"
    for claim in ("s3-search-evidence", "q8-existence-evidence"):
        entry = entries[claim]
        assert (entry.status, entry.metric, entry.detail) == ("EVIDENCE", 0.25, detail)
    assert configs == [
        SearchConfig(
            group=group, budget=123, seed=seed, tol=1e-9, strategy=Strategy.RANDOM_PLUS_LOCAL
        )
        for group, seed in (("S3", 5 + 101), ("Q8", 5 + 102))
    ]


def test_impossibility_certificate_entry(default_ledger):
    entry = {e.claim: e for e in default_ledger.entries}["impossibility-certificate"]
    assert "||chi||_1 = 4 < d*sqrt(n) (2*sqrt(6) on S3, 4*sqrt(2) on Q8 and D4)" in entry.statement
    assert entry.detail.endswith(
        "S3 chi_3: 4.000 < 4.899; Q8 chi_5: 4.000 < 5.657; D4 chi_5: 4.000 < 5.657"
    )
    assert 0.0 < entry.metric <= 1e-14  # the largest solver residual


def test_impossibility_certificate_fails_below_its_residual():
    """The certificate never raises; the claim gates its residual at tol."""
    entry = ledger_module._claim_impossibility_certificate(1e-30)
    assert entry.status == "FAIL" and 0.0 < entry.metric < 1e-14


@pytest.mark.parametrize("margin", [None, 0.0])
def test_impossibility_certificate_needs_a_violation_beyond_the_residual(monkeypatch, margin):
    """A group with no violated character, or one whose margin the residual
    swallows, leaves the claim unproved."""
    def weakened(table):
        cert = impossibility_certificate(table)
        if margin is None:
            return replace(cert, violated=())
        return replace(cert, residual=cert.margin)

    monkeypatch.setattr(ledger_module, "impossibility_certificate", weakened)
    entry = ledger_module._claim_impossibility_certificate(1e-8)
    assert entry.status == "FAIL" and entry.metric == math.inf


def character_tables_entry(monkeypatch, change) -> tuple:
    """The character-tables entry, and its JSON metric, of a budget-0 ledger whose
    class-sum route gives S3 its rows after ``change(rows)``."""
    route = ledger_module._class_sum_rows

    def rows(group):
        out = route(group)
        if group.name == "S3":
            change(out)
        return out

    monkeypatch.setattr(ledger_module, "_class_sum_rows", rows)
    result = build_ledger(budget=0)
    payload = {e["claim"]: e for e in ledger_to_json(result)["entries"]}
    return result.entries[0], payload["character-tables"]["metric"]


def degree_two(rows: np.ndarray) -> int:
    return int(np.argmax(rows[:, 0].real))


def test_a_moved_class_sum_row_fails_the_character_tables_claim(monkeypatch):
    def move(rows):
        rows[degree_two(rows), 2] += 1e-6

    entry, metric = character_tables_entry(monkeypatch, move)
    assert entry.status == "FAIL" and metric == entry.metric
    assert math.isclose(entry.metric, 1e-6, rel_tol=1e-6)


@pytest.mark.parametrize("column", [0, 1, 2])
def test_a_nan_class_sum_row_fails_the_character_tables_claim(monkeypatch, column):
    def nan(rows):
        rows[degree_two(rows), column] = complex(math.nan, 0.0)

    entry, metric = character_tables_entry(monkeypatch, nan)
    assert entry.status == "FAIL" and not math.isfinite(entry.metric) and metric is None


def test_a_duplicated_class_sum_row_fails_the_character_tables_claim(monkeypatch):
    """Every exact row is then near some route row, but two share one."""
    def duplicate(rows):
        rows[1] = rows[0]

    entry, metric = character_tables_entry(monkeypatch, duplicate)
    assert (entry.status, entry.metric, metric) == ("FAIL", math.inf, None)


def test_worst_propagates_nan():
    assert ledger_module._worst(1.0, 2.0, 0.5) == 2.0
    assert ledger_module._worst(math.inf, 1.0) == math.inf
    for metrics in ((0.0, math.nan), (math.nan, 0.0), (0.0, np.float64(math.nan), 1.0)):
        assert math.isnan(ledger_module._worst(*metrics)), metrics
    assert ledger_module._gate(ledger_module._worst(0.0, math.nan), 1e-8) == "FAIL"
    rng = np.random.default_rng(202)
    pool = [0.0, -0.0, 1.0, 2.5e-16, math.inf, np.float64(0.0), np.float64(-0.0),
            np.float64(1.0), np.float64(math.inf)]
    for _ in range(2000):
        metrics = tuple(pool[j] for j in rng.integers(0, len(pool), int(rng.integers(1, 8))))
        want = np.float64(np.max(metrics))
        assert np.float64(ledger_module._worst(*metrics)).tobytes() == want.tobytes(), metrics
        for position in range(len(metrics) + 1):
            for nan in (math.nan, np.float64(math.nan)):
                with_nan = (*metrics[:position], nan, *metrics[position:])
                assert math.isnan(float(np.max(with_nan)))
                assert math.isnan(ledger_module._worst(*with_nan)), with_nan


def test_cyclic_table_check_is_the_per_row_loop(monkeypatch):
    """``character-tables`` compares each cyclic table with all its omega-power
    rows in one step; with the S3 and Q8 rows matched exactly, its metric is the
    per-row loop's, bit for bit."""
    worst = 0.0
    for n in (3, 4, 5, 8, 12):
        phi = character_table(make_cyclic(n)).phi
        k = np.arange(n)
        for i in range(n):
            row = np.exp(2j * np.pi * ((i * k) % n) / n)
            worst = max(worst, float(np.max(np.abs(phi[:, i] - row))))
    assert worst > 0.0
    monkeypatch.setattr(ledger_module, "_class_sum_rows",
                        lambda group: np.round(_REFERENCE_TABLES[group.name]))
    entry = ledger_module._claim_character_tables(1e-8)
    assert np.float64(entry.metric).tobytes() == np.float64(worst).tobytes()


def nan_at(values: np.ndarray, index) -> np.ndarray:
    values[index] = math.nan
    return values


@pytest.mark.parametrize("claim, name, patched", [
    ("q8-printed-magnitude-system", "solve_q8_system",
     lambda real: lambda: (real()[0], math.nan)),
    ("impossibility-certificate", "impossibility_certificate",
     lambda real: lambda table: replace(real(table), residual=math.nan)),
    ("klein-printed-conditions", "_klein_residuals",
     lambda real: lambda a: nan_at(real(a), (17, 4))),
], ids=["q8-system", "impossibility-certificate", "klein"])
def test_a_nan_check_fails_its_claim(monkeypatch, claim, name, patched):
    """A check that yields NaN after a number fails, where ``max`` dropped it."""
    monkeypatch.setattr(ledger_module, name, patched(getattr(ledger_module, name)))
    result = build_ledger(budget=0)
    entry = {e.claim: e for e in result.entries}[claim]
    assert entry.status == "FAIL" and math.isnan(entry.metric)
    payload = {e["claim"]: e for e in ledger_to_json(result)["entries"]}
    assert payload[claim]["metric"] is None
    assert [e.claim for e in result.entries if e.status == "FAIL"] == [claim]


def test_abelian_necessary_claim_agrees_with_its_criterion_below_rounding():
    """At tol 1e-30 the claim fails on its rounding-sized deviations, but the
    criterion decides every witness as the claim's own deviation does."""
    entry = ledger_module._claim_abelian_necessary(1e-30)
    assert entry.status == "FAIL" and 0.0 < entry.metric < 1e-15


@pytest.mark.parametrize("tol, forced_tol", [(1e-8, -1.0), (1e-30, math.inf)])
def test_abelian_necessary_claim_fails_when_the_criterion_disagrees(monkeypatch, tol, forced_tol):
    """A criterion that reports every witness violated at a tolerance they all
    meet, or every one satisfied at one some of them miss, fails the claim."""
    monkeypatch.setattr(
        ledger_module, "abelian_magnitude_necessary",
        lambda a, tol: abelian_magnitude_necessary(a, forced_tol),
    )
    result = build_ledger(tol=tol, budget=0)
    entry = {e.claim: e for e in result.entries}["abelian-necessary-magnitudes"]
    assert entry.status == "FAIL" and entry.metric == math.inf
    payload = {e["claim"]: e for e in ledger_to_json(result)["entries"]}
    assert payload["abelian-necessary-magnitudes"]["metric"] is None


@pytest.mark.parametrize("tol", [1e-15, 1e-17, 1e-30])
def test_agreement_claims_floor_their_tolerance_at_rounding(tol):
    for seed in range(2):
        for entry in (
            ledger_module._claim_bent_iff(tol, seed),
            ledger_module._claim_z3_z4(tol, seed),
            ledger_module._claim_cyclic_general(tol, seed),
        ):
            if entry.claim == "z3-z4-closed-forms":
                assert "(0 disagreements)" in entry.detail
            else:
                assert (entry.metric, entry.status) == (0.0, "PASS")
            assert entry.detail.endswith("max(tol, n^2*1e-15), the rounding floor")


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
    for claim in ("character-tables", "impossibility-certificate",
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


# ---------------------------------------------------------------------------
# the batched agreement claims against their per-vector loop form


def zadoff_chu(n: int, u: int):
    return make_bent_cyclic(SequenceSpec(SequenceKind.ZADOFF_CHU, n, u)).function


def scalar_printed_sums(a: np.ndarray) -> list[complex]:
    """The displayed Z3/Z4 sums of one vector, in numpy scalar arithmetic."""
    if len(a) == 3:
        a1, a2, a3 = a
        return [np.conj(a1) * a2 + np.conj(a2) * a3 + np.conj(a3) * a1]
    a1, a2, a3, a4 = a
    return [
        np.conj(a1) * a2 + np.conj(a2) * a3 + np.conj(a3) * a4 + np.conj(a4) * a1,
        np.conj(a1) * a3 + np.conj(a2) * a4 + np.conj(a3) * a1 + np.conj(a4) * a2,
    ]


def loop_bent_iff(tol: float, seed: int) -> tuple[int, int]:
    rng = ledger_module._rng(seed, 1)
    disagreements = checked = 0
    for n in range(2, 9):
        table = character_table(make_cyclic(n))
        functions = [from_values(table, np.exp(2j * np.pi * rng.random(n))) for _ in range(120)]
        for f in [*functions, zadoff_chu(n, 1)]:
            disagreements += (is_bent(f, tol).verdict == BENT) != is_bent_spectral(f, tol)
            checked += 1
    return disagreements, checked


def loop_criterion_vs_oracle(n: int, vectors: list, tol: float) -> int:
    table = character_table(make_cyclic(n))
    return sum(
        cyclic_criterion(a, tol).satisfied
        != (is_bent(from_coefficients(table, a), tol).verdict == BENT)
        for a in vectors
    )


def loop_z3_z4(tol: float, seed: int) -> tuple[float, int]:
    rng = ledger_module._rng(seed, 2)
    worst, disagreements = 0.0, 0
    for n in (3, 4):
        vectors = list(ledger_module._random_coefficients(rng, n, 200))
        vectors.append(zadoff_chu(n, 1).coefficients)
        for a in vectors:
            printed = np.asarray(scalar_printed_sums(a))
            worst = max(worst, float(np.max(np.abs(printed - cyclic_lag_sums(a)[: len(printed)]))))
        disagreements += loop_criterion_vs_oracle(n, vectors, tol)
    return worst, disagreements


def loop_cyclic_general(tol: float, seed: int) -> tuple[int, int]:
    rng = ledger_module._rng(seed, 3)
    disagreements = checked = 0
    for n in range(2, 13):
        vectors = list(ledger_module._random_coefficients(rng, n, 150))
        vectors += [zadoff_chu(n, u).coefficients for u in range(1, n + 1) if math.gcd(u, n) == 1]
        disagreements += loop_criterion_vs_oracle(n, vectors, tol)
        checked += len(vectors)
    return disagreements, checked


@pytest.mark.parametrize("n", range(2, 17))
def test_sampler_rows_have_their_style_and_repeat_per_seed(n):
    for count in (*range(8), 150, 200):
        a = ledger_module._random_coefficients(np.random.default_rng([n, count]), n, count)
        assert a.shape == (count, n)
        np.testing.assert_allclose(np.abs(a[1::3]), 1 / math.sqrt(n), rtol=0, atol=1e-15)
        np.testing.assert_allclose(np.sum(np.abs(a[2::3]) ** 2, axis=1), 1.0, rtol=0, atol=1e-15)
        again = ledger_module._random_coefficients(np.random.default_rng([n, count]), n, count)
        assert a.tobytes() == again.tobytes()


@pytest.mark.parametrize("n", [3, 4])
def test_batched_printed_sums_bit_identical_to_scalar_form(n):
    a = ledger_module._random_coefficients(np.random.default_rng(n), n, 300)
    scalar = np.array([scalar_printed_sums(row) for row in a])
    assert _printed_sums(a, _Z3_Z4_TERMS[n]).tobytes() == scalar.tobytes()


@pytest.mark.parametrize("seed", range(4))
def test_agreement_claims_match_per_vector_loops(seed):
    tol = 1e-8
    disagreements, checked = loop_bent_iff(tol, seed)
    entry = ledger_module._claim_bent_iff(tol, seed)
    assert (entry.metric, entry.status) == (float(disagreements), "PASS")
    assert entry.detail.endswith(f"compared on {checked} functions")

    worst, disagreements = loop_z3_z4(tol, seed)
    entry = ledger_module._claim_z3_z4(tol, seed)
    assert entry.metric == worst + disagreements and disagreements == 0
    assert entry.detail.endswith(f"({disagreements} disagreements)")

    disagreements, checked = loop_cyclic_general(tol, seed)
    entry = ledger_module._claim_cyclic_general(tol, seed)
    assert (entry.metric, entry.status) == (float(disagreements), "PASS")
    assert f"on {checked} coefficient vectors" in entry.detail


# ---------------------------------------------------------------------------
# the batched Klein claim against its per-function loop form

TRANSFORMS = ("global_phase", "translate", "character_twist")


def klein_chain(seed: int) -> list:
    """The Klein claim's 50 transformed bent functions on V4."""
    rng = ledger_module._rng(seed, 4)
    half = np.array([1.0, -1j]) / math.sqrt(2.0)
    f = from_coefficients(character_table(make_named("V4")), np.kron(half, half))
    chain = []
    for _ in range(50):
        kind = int(rng.integers(0, 3))
        if kind == 0:
            f = ledger_module.global_phase(f, np.exp(2j * np.pi * rng.random()))
        elif kind == 1:
            f = ledger_module.translate(f, int(rng.integers(0, 4)))
        else:
            f = ledger_module.character_twist(f, int(rng.integers(0, 4)))
        chain.append(f)
    return chain


def loop_klein(tol: float, seed: int) -> float:
    """The Klein claim's metric with one ``is_bent`` and one ``klein_criterion``
    call per function of the chain, stopping at the first non-BENT function."""
    worst = 0.0
    for f in klein_chain(seed):
        if is_bent(f, tol).verdict != BENT:
            return math.inf
        outcome = klein_criterion(f.coefficients, tol)
        if not outcome.satisfied:
            worst = max(worst, max(res for _, res in outcome.violations))
    return worst


def replace_transform_output(monkeypatch, step: int, replace) -> list:
    """Make the chain's ``step``-th transform return ``replace(its output)``;
    returns the list every transform's output is appended to."""
    produced = []
    for name in TRANSFORMS:
        def transform(f, arg, original=getattr(ledger_module, name)):
            out = original(f, arg)
            if len(produced) == step:
                out = replace(out)
            produced.append(out)
            return out

        monkeypatch.setattr(ledger_module, name, transform)
    return produced


# 1e-15 and 5e-16 lie below the rounding floor 16e-15 of order 4
@pytest.mark.parametrize("tol", [1e-8, 5e-15, 1e-15, 5e-16])
@pytest.mark.parametrize("seed", range(8))
def test_klein_claim_matches_per_function_loop(tol, seed):
    entry = ledger_module._claim_klein_remark(tol, seed)
    assert entry.metric == loop_klein(tol, seed)
    assert entry.status == ("PASS" if entry.metric <= tol else "FAIL")


def test_klein_claim_below_the_rounding_floor_decides_as_is_bent():
    """1e-15 is below the rounding floor 16e-15 of order 4.  There, on this
    chain, is_bent's slack makes a function NOT_BENT that the brute-force sums
    of oracle_verdicts pass, so a batched oracle_verdicts would change the
    claim; it keeps is_bent's verdict."""
    chain = klein_chain(214)
    table = chain[0].table
    bent, _ = oracle_verdicts(table, np.array([f.values for f in chain]), 1e-15)
    assert bent.all()
    assert loop_klein(1e-15, 214) == math.inf
    assert ledger_module._claim_klein_remark(1e-15, 214).metric == math.inf


@pytest.mark.parametrize("tol", [1e-8, 1e-15])
@pytest.mark.parametrize("step", [0, 17, 49])
def test_klein_claim_fails_when_a_transform_breaks_bentness(monkeypatch, tol, step):
    """A constant function is not bent, and no later transform makes it bent."""
    replace_transform_output(
        monkeypatch, step, lambda f: from_coefficients(f.table, [1.0, 0.0, 0.0, 0.0])
    )
    entry = ledger_module._claim_klein_remark(tol, 0)
    assert (entry.metric, entry.status) == (math.inf, "FAIL")


@pytest.mark.parametrize("step", [0, 17, 49])
def test_klein_claim_fails_when_one_function_alone_is_not_bent(monkeypatch, step):
    """Every function of the chain is decided, not only the last or a later one."""
    produced = replace_transform_output(monkeypatch, step, lambda f: f)
    real = ledger_module.is_bent
    monkeypatch.setattr(
        ledger_module, "is_bent",
        lambda f, tol: SimpleNamespace(verdict=NOT_BENT) if f is produced[step] else real(f, tol),
    )
    entry = ledger_module._claim_klein_remark(1e-8, 0)
    assert (entry.metric, entry.status) == (math.inf, "FAIL")


@pytest.mark.parametrize("step", [0, 17, 49])
def test_klein_claim_reports_the_scalar_criterion_residual(monkeypatch, step):
    """A chain function that violates the printed sums but is decided BENT
    gives the largest residual ``klein_criterion`` reports on any such function."""
    produced = replace_transform_output(
        monkeypatch, step,
        lambda f: from_coefficients(f.table, f.coefficients + [1e-3, 2e-3j, 0.0, 0.0]),
    )
    monkeypatch.setattr(ledger_module, "is_bent", lambda f, tol: SimpleNamespace(verdict=BENT))
    tol = 1e-8
    entry = ledger_module._claim_klein_remark(tol, 0)
    expected = max(
        res for f in produced for _, res in klein_criterion(f.coefficients, tol).violations
    )
    assert entry.metric == expected > 1e-4
    assert entry.status == "FAIL"

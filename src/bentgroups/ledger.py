"""Claims ledger: re-verify every checkable claim behind this package.

``build_ledger`` reruns each claim the criteria and constructions are based
on and emits one entry per claim.  Deterministic checks get PASS/FAIL status
at the caller's tolerance; search-backed claims are EVIDENCE (or SKIPPED when
the budget is zero) and never gate success, with one exception: both searches
run on groups that the impossibility certificate rules out (S3 and Q8), so
a certified witness would contradict that derivation and is reported as FAIL
so the contradiction cannot pass silently.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .bentness import (
    _ROUNDING,
    BENT,
    NOT_UNIMODULAR,
    _rounding_tol,
    _sum_verdicts,
    derivative_sum,
    is_bent,
    oracle_verdicts,
)
from .characters import _REFERENCE_TABLES, CharacterTable, _class_sum_rows, character_table
from .class_functions import DEFAULT_TOL, ClassFunction, _check_tol, from_coefficients
from .constructions import (
    SequenceKind,
    character_twist,
    global_phase,
    make_bent_cyclic,
    translate,
)
from .criteria import (
    _Z3_Z4_TERMS,
    _klein_residuals,
    _printed_sums,
    abelian_magnitude_necessary,
    cyclic_lag_sums,
    cyclic_satisfied,
    impossibility_certificate,
    klein_criterion,
    q8_equation_residuals,
    solve_magnitude_system,
    solve_q8_system,
)
from .groups import _check_count, _freeze, make_cyclic, make_named
from .search import SearchConfig, Strategy, run_search

__all__ = ["LedgerEntry", "PaperLedger", "build_ledger", "ledger_to_json"]

PASS = "PASS"
FAIL = "FAIL"
EVIDENCE = "EVIDENCE"
SKIPPED = "SKIPPED"

DEFAULT_BUDGET = 2000


@dataclass(frozen=True)
class LedgerEntry:
    claim: str
    statement: str
    status: str
    metric: float
    detail: str


@dataclass(frozen=True)
class PaperLedger:
    tol: float
    budget: int
    seed: int
    entries: tuple[LedgerEntry, ...]

    @property
    def counts(self) -> dict[str, int]:
        out = {PASS: 0, FAIL: 0, EVIDENCE: 0, SKIPPED: 0}
        for entry in self.entries:
            out[entry.status] += 1
        return out

    @property
    def passed(self) -> bool:
        return all(entry.status != FAIL for entry in self.entries)


def _gate(metric: float, tol: float) -> str:
    return PASS if metric <= tol else FAIL


def _floor_note(tol: float, n_max: int) -> str:
    """Detail suffix that names the rounding floor when it raised ``tol``."""
    if _rounding_tol(tol, n_max) == tol:
        return ""
    return f"; verdicts compared at max(tol, n^2*{_ROUNDING:g}), the rounding floor"


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _random_coefficients(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """``count`` candidate rows cycling through three styles: Gaussian,
    flat-magnitude random phase, and simplex magnitudes with random phase.

    Each style is one array draw, interleaved into rows ``0::3``, ``1::3`` and
    ``2::3``; the simplex rows add one draw for their phases.
    """
    gauss = rng.standard_normal(((count + 2) // 3, 2, n))
    flat = rng.random(((count + 1) // 3, n))
    simplex = rng.dirichlet(np.ones(n), size=count // 3)
    simplex_phases = rng.random((count // 3, n))
    out = np.empty((count, n), dtype=complex)
    out[0::3] = (gauss[:, 0] + 1j * gauss[:, 1]) / math.sqrt(2 * n)
    out[1::3] = np.exp(2j * np.pi * flat) / math.sqrt(n)
    out[2::3] = np.sqrt(simplex) * np.exp(2j * np.pi * simplex_phases)
    return out


# ---------------------------------------------------------------------------
# individual claim checks


def _claim(name: str, statement: str):
    """Give a check the claim it decides: the decorated function takes the
    check's arguments and returns the check's ``(status, metric, detail)`` as
    the claim's :class:`LedgerEntry`."""

    def decorate(check: Callable[..., tuple[str, float, str]]) -> Callable[..., LedgerEntry]:
        @functools.wraps(check)
        def entry(*args) -> LedgerEntry:
            status, metric, detail = check(*args)
            return LedgerEntry(
                claim=name, statement=statement, status=status, metric=metric, detail=detail
            )

        return entry

    return decorate


def _zadoff_chu(n: int, u: int) -> ClassFunction:
    return make_bent_cyclic(SequenceKind.ZADOFF_CHU, n, u).function


@functools.lru_cache(maxsize=16)  # Z_2..Z_12 fit
def _witness_rows(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The coefficients and the values of every Zadoff-Chu witness on Z_n, one
    read-only row per root coprime to n, root 1 first.  The rows take no seed,
    so a process certifies each witness once rather than on every build."""
    witnesses = [_zadoff_chu(n, u) for u in range(1, n + 1) if math.gcd(u, n) == 1]
    return (_freeze(np.array([f.coefficients for f in witnesses])),
            _freeze(np.array([f.values for f in witnesses])))


@_claim("character-tables",
        "the character tables of Z3, Z4, Z_n (omega-power rows), S3 and Q8 match the built-in "
        "references entrywise")
def _claim_character_tables(tol: float) -> tuple[str, float, str]:
    worst = 0.0
    for n in (3, 4, 5, 8, 12):
        table = character_table(make_cyclic(n))
        k = np.arange(n)
        # row i is omega^(i*k); the matrix of all rows is symmetric, so it is phi's layout
        rows = np.exp(2j * np.pi * ((k[:, None] * k) % n) / n)
        worst = float(np.max(np.abs(table.phi - rows), initial=worst))
    for name in ("S3", "Q8"):
        # each exact row against its nearest class-sum row; no two may share one
        rows = _class_sum_rows(make_named(name))
        dist = np.max(np.abs(np.round(_REFERENCE_TABLES[name])[:, None] - rows), axis=2)
        nearest = np.argmin(dist, axis=1)
        worst = float(np.max(dist[np.arange(len(rows)), nearest], initial=worst))
        if len(set(nearest.tolist())) < len(rows):
            worst = math.inf
    return _gate(worst, tol), worst, "max entrywise deviation across analytic and class-sum routes"


@_claim("derivative-sum-definition",
        "the derivative sum at the identity equals the total energy, and single-character "
        "derivative sums match their closed forms")
def _claim_derivative_definition(tol: float) -> tuple[str, float, str]:
    table = character_table(make_cyclic(3))
    chi2 = from_coefficients(table, [0.0, 1.0, 0.0])
    omega = complex(table.phi[1, 1])
    report = is_bent(chi2, tol)
    bent5 = _zadoff_chu(5, 2)
    worst = float(np.max((abs(derivative_sum(chi2, 1) - 3.0 * omega),
                          abs(derivative_sum(chi2, 0) - 3.0), abs(derivative_sum(bent5, 0) - 5.0),
                          abs(report.max_residual - 3.0))))
    detail = "checked chi_2 on Z3 (D(1) = 3*omega, |D| = 3) and a bent witness on Z5"
    return _gate(worst, tol), worst, detail


@_claim("bent-iff-derivative-sums",
        "a class function is bent iff every non-identity derivative sum vanishes; on abelian "
        "groups this matches spectrum flatness")
def _claim_bent_iff(tol: float, seed: int) -> tuple[str, float, str]:
    rng = _rng(seed, 1)
    disagreements = 0
    checked = 0
    for n in range(2, 9):
        table = character_table(make_cyclic(n))
        random_values = np.exp(2j * np.pi * rng.random((120, n)))
        values = np.vstack((random_values, _witness_rows(n)[1][:1]))
        by_sums, by_spectrum = oracle_verdicts(table, values, _rounding_tol(tol, n))
        disagreements += int(np.sum(by_sums != by_spectrum))
        checked += len(values)
    detail = f"derivative-sum and spectral verdicts compared on {checked} functions"
    return PASS if disagreements == 0 else FAIL, float(disagreements), detail + _floor_note(tol, 8)


@_claim("abelian-necessary-magnitudes",
        "bent functions on abelian groups have |a_i|^2 = 1/n, and solving Phi w = (1,0,...,0) "
        "via conj(Phi)^T/n reproduces the flat solution")
def _claim_abelian_necessary(tol: float) -> tuple[str, float, str]:
    worst = 0.0
    for n in range(2, 17):
        bent = _zadoff_chu(n, 1)
        deviation = float(np.max(np.abs(np.abs(bent.coefficients) ** 2 - 1.0 / n)))
        worst = float(np.max((worst, deviation)))
        # the criterion must decide the witness as its own deviation does
        if abelian_magnitude_necessary(bent.coefficients, tol).satisfied != (deviation <= tol):
            worst = math.inf
        w, residual = solve_magnitude_system(bent.table)
        worst = float(np.max((worst, residual, np.max(np.abs(w - 1.0 / n)))))
    detail = "Zadoff-Chu witnesses on Z_2..Z_16 plus the Phi-system round trip"
    return _gate(worst, tol), worst, detail


@_claim("z2-not-unimodular-counterexample",
        "on Z2 the flat-magnitude vector (1,1)/sqrt(2) takes the values (sqrt(2), 0), so it is "
        "not a map into the unit circle and the necessary magnitude condition is not sufficient")
def _claim_z2_counterexample(tol: float) -> tuple[str, float, str]:
    table = character_table(make_cyclic(2))
    f = from_coefficients(table, np.array([1.0, 1.0]) / math.sqrt(2.0))
    report = is_bent(f, tol)
    # values are (sqrt(2), 0), so the max deviation from the unit circle is 1
    worst = float(np.max((
        abs(abs(complex(f.values[0])) - math.sqrt(2.0)),
        abs(complex(f.values[1])),
        abs(report.unimodular_deviation - 1.0),
    )))
    if report.verdict != NOT_UNIMODULAR:
        worst = math.inf
    detail = f"verdict {report.verdict}, deviation {report.unimodular_deviation:.6f}"
    return _gate(worst, tol), worst, detail


def _criterion_vs_oracle(table: CharacterTable, a: np.ndarray, tol: float) -> int:
    """Rows of a coefficient batch on which the Z_n criterion and the oracle disagree."""
    tol = _rounding_tol(tol, table.group.order)
    bent, _ = _sum_verdicts(table, a @ table.phi.T, tol)
    return int(np.count_nonzero(cyclic_satisfied(a, tol) != bent))


@_claim("z3-z4-closed-forms",
        "the displayed Z3 and Z4 bentness conditions equal the general lag-sum criterion and "
        "agree with the derivative-sum oracle")
def _claim_z3_z4(tol: float, seed: int) -> tuple[str, float, str]:
    rng = _rng(seed, 2)
    worst = 0.0
    disagreements = 0
    for n in (3, 4):
        table = character_table(make_cyclic(n))
        a = np.vstack((_random_coefficients(rng, n, 200), _witness_rows(n)[0][:1]))
        printed = _printed_sums(a, _Z3_Z4_TERMS[n])
        lags = cyclic_lag_sums(a)[:, : printed.shape[1]]
        worst = float(np.max(np.abs(printed - lags), initial=worst))
        disagreements += _criterion_vs_oracle(table, a, tol)
    metric = worst + disagreements
    detail = f"printed sums vs lag sums plus oracle agreement ({disagreements} disagreements)"
    return _gate(metric, tol), metric, detail + _floor_note(tol, 4)


@_claim("cyclic-iff-general",
        "on Z_n a class function is bent iff all |a_i| = 1/sqrt(n) and every cyclic lag sum "
        "vanishes")
def _claim_cyclic_general(tol: float, seed: int) -> tuple[str, float, str]:
    rng = _rng(seed, 3)
    disagreements = 0
    checked = 0
    for n in range(2, 13):
        table = character_table(make_cyclic(n))
        a = np.vstack((_random_coefficients(rng, n, 150), _witness_rows(n)[0]))
        disagreements += _criterion_vs_oracle(table, a, tol)
        checked += len(a)
    detail = f"criterion vs oracle on {checked} coefficient vectors, n = 2..12"
    return PASS if disagreements == 0 else FAIL, float(disagreements), detail + _floor_note(tol, 12)


@_claim("klein-printed-conditions",
        "the three displayed V4 sums vanish on every bent function (necessity); as printed they "
        "are not jointly sufficient")
def _claim_klein_remark(tol: float, seed: int) -> tuple[str, float, str]:
    """The printed V4 sums on a chain of 50 transforms of a bent function:
    inf if :func:`is_bent` rejects any function, else the largest residual
    of the printed equations above ``tol`` over the whole chain, evaluated in
    one batch; each row's residuals are the ones :func:`klein_criterion`
    reports for it, bit for bit.
    """
    rng = _rng(seed, 4)
    table = character_table(make_named("V4"))
    half = np.array([1.0, -1j]) / math.sqrt(2.0)
    f = from_coefficients(table, np.kron(half, half))
    chain = []
    for _ in range(50):
        kind = int(rng.integers(0, 3))
        if kind == 0:
            f = global_phase(f, np.exp(2j * np.pi * rng.random()))
        elif kind == 1:
            f = translate(f, int(rng.integers(0, 4)))
        else:
            f = character_twist(f, int(rng.integers(0, 4)))
        chain.append(f)
    if any(is_bent(f, tol).verdict != BENT for f in chain):
        worst = math.inf
    else:
        r = _klein_residuals(np.array([f.coefficients for f in chain]))
        worst = float(np.max(r, where=~(r <= tol), initial=0.0))
    probe = np.array([1.0, 1j, 1j, 1.0]) / 2.0
    probe_passes = klein_criterion(probe, tol).satisfied
    probe_verdict = is_bent(from_coefficients(table, probe), tol).verdict
    gap = probe_passes and probe_verdict != BENT
    detail = (
        "necessity checked on 50 transformed bent witnesses; sufficiency gap witness "
        f"(1,i,i,1)/2: criterion satisfied = {probe_passes}, oracle verdict = {probe_verdict} "
        "(second and third sums repeat the same terms)"
    )
    return _gate(worst, tol), worst, detail + ("" if gap else " [gap witness did not reproduce]")


@_claim("impossibility-certificate",
        "no unimodular class function on S3, Q8 or D4 is bent: inversion gives n|a_i| <= "
        "||chi_i||_1, bentness forces |a_i| = d_i/sqrt(n), and the 2-dimensional character has "
        "||chi||_1 = 4 < d*sqrt(n) (2*sqrt(6) on S3, 4*sqrt(2) on Q8 and D4)")
def _claim_impossibility_certificate(tol: float) -> tuple[str, float, str]:
    worst = 0.0
    findings = []
    for name in ("S3", "Q8", "D4"):
        cert = impossibility_certificate(character_table(make_named(name)))
        worst = float(np.max((worst, cert.residual)))
        if not cert.violated or cert.margin <= cert.residual:
            worst = math.inf
        findings.extend(
            f"{name} chi_{i + 1}: {cert.l1_norms[i]:.3f} < {cert.required[i]:.3f}"
            for i in cert.violated
        )
    detail = "||chi_i||_1 < n*sqrt(m_i) with m from solve_magnitude_system: " + "; ".join(findings)
    return _gate(worst, tol), worst, detail


@_claim("q8-printed-magnitude-system",
        "the five displayed Q8 magnitude equations (including the printed -8 coefficient) have "
        "unique solution (2/9, 2/9, 2/9, 2/9, 1/9)")
def _claim_q8_system(tol: float) -> tuple[str, float, str]:
    m, residual = solve_q8_system()
    targets = np.array([2.0, 2.0, 2.0, 2.0, 1.0]) / 9.0
    worst = float(np.max((np.max(np.abs(m - targets)), residual, *q8_equation_residuals(m))))
    detail = (
        "solved the printed linear system and re-evaluated each equation; the closed form "
        "D(x)/n = sum_i |a_i|^2 chi_i(x)/d_i derives (1/8, 1/8, 1/8, 1/8, 1/2) instead, at "
        "which the brute-force derivative sums vanish"
    )
    return _gate(worst, tol), worst, detail


def _search_claim(name: str, group: str, stream: int) -> Callable[..., LedgerEntry]:
    """The claim that a seeded ``random+local`` search on ``group`` certifies no
    bent function, checked as ``claim(tol, budget, seed)`` on seed ``seed + stream``."""

    @_claim(name, f"seeded coefficient search on {group} never certifies a bent function")
    def check(tol: float, budget: int, seed: int) -> tuple[str, float, str]:
        if budget == 0:
            return SKIPPED, 0.0, "search skipped (budget 0)"
        result = run_search(
            SearchConfig(
                group=group,
                budget=budget,
                seed=seed + stream,
                tol=tol,
                strategy=Strategy.RANDOM_PLUS_LOCAL,
            )
        )
        detail = (
            f"best objective {result.best_objective:.6e} over {result.evaluations} "
            f"evaluations; certified_bent = {result.certified_bent}"
        )
        # a witness would contradict the forced-magnitude impossibility
        return FAIL if result.certified_bent else EVIDENCE, result.best_objective, detail

    return check


_claim_s3_search = _search_claim("s3-search-evidence", "S3", 101)
_claim_q8_search = _search_claim("q8-existence-evidence", "Q8", 102)


@functools.lru_cache(maxsize=48)  # the six claims at up to eight tolerances
def _seed_free(claim: Callable[[float], LedgerEntry], tol: float) -> LedgerEntry:
    """``claim(tol)`` for a claim that takes no seed: it is a pure function of
    ``tol``, so a process checks it once per tolerance."""
    return claim(tol)


def build_ledger(
    tol: float = DEFAULT_TOL, budget: int = DEFAULT_BUDGET, seed: int = 0
) -> PaperLedger:
    """Run every claim check and assemble the ledger, in the order listed here.

    The six seed-free claims are checked once per process and tolerance and
    reused by later builds; the seeded claims and both searches run on every
    build.  A budget of 0 skips the two search entries; a NaN, infinite or
    negative tolerance and a budget or seed that is not a non-negative integer
    are rejected.
    """
    _check_tol(tol)
    _check_count("budget", budget, 0)
    _check_count("seed", seed, 0)
    entries = (
        _seed_free(_claim_character_tables, tol),
        _seed_free(_claim_derivative_definition, tol),
        _claim_bent_iff(tol, seed),
        _seed_free(_claim_abelian_necessary, tol),
        _seed_free(_claim_z2_counterexample, tol),
        _claim_z3_z4(tol, seed),
        _claim_cyclic_general(tol, seed),
        _claim_klein_remark(tol, seed),
        _seed_free(_claim_impossibility_certificate, tol),
        _claim_s3_search(tol, budget, seed),
        _seed_free(_claim_q8_system, tol),
        _claim_q8_search(tol, budget, seed),
    )
    return PaperLedger(tol=tol, budget=budget, seed=seed, entries=entries)


def ledger_to_json(ledger: PaperLedger) -> dict:
    return {
        "tol": ledger.tol,
        "budget": ledger.budget,
        "seed": ledger.seed,
        "entries": [
            {
                "claim": entry.claim,
                "statement": entry.statement,
                "status": entry.status,
                # a check that could not produce a number has metric inf: null in JSON
                "metric": entry.metric if math.isfinite(entry.metric) else None,
                "detail": entry.detail,
            }
            for entry in ledger.entries
        ],
        "summary": ledger.counts,
        "passed": ledger.passed,
    }

"""Acceptance gate: the pinned end-to-end checks this package must satisfy.

Each test pins explicit tolerances and, where relevant, wall-clock budgets.
Randomized sweeps use fixed seeds so the gate is deterministic.
"""

from __future__ import annotations

import cmath
import json
import math
import time

import numpy as np
import pytest

from bentgroups import (
    BENT,
    NOT_UNIMODULAR,
    SearchConfig,
    SequenceKind,
    character_table,
    character_twist,
    cyclic_criterion,
    from_coefficients,
    global_phase,
    group_from_label,
    impossibility_certificate,
    is_bent,
    make_bent_cyclic,
    make_cyclic,
    make_named,
    q8_equation_residuals,
    run_search,
    solve_q8_system,
    spectrum,
    translate,
    verify_orthogonality,
    zadoff_chu,
)
from bentgroups.cli import main as cli_main

# Frozen evidence floor for the pinned S3 search (budget 100000, seed 0,
# strategy random+local), recorded from the first pinned run of this suite.
S3_SEARCH_FLOOR = 0.28831509904574804
# The same pinned search on the 5-class groups; both stall at the same value.
# These guard the refinement's probe arithmetic, which sets the trajectory.
Q8_SEARCH_FLOOR = 0.49771340012704934
D4_SEARCH_FLOOR = 0.4977134001270491

W3 = cmath.exp(2j * math.pi / 3)

S3_REFERENCE = np.array([[1, 1, 1], [1, -1, 1], [2, 0, -1]], dtype=complex)
Q8_REFERENCE = np.array(
    [
        [1, 1, 1, 1, 1],
        [1, 1, 1, -1, -1],
        [1, 1, -1, -1, 1],
        [1, 1, -1, 1, -1],
        [2, -2, 0, 0, 0],
    ],
    dtype=complex,
)


def test_acceptance_1_character_tables():
    """Z3, Z4, the general cyclic power rule, S3, and Q8 within 1e-10, < 1 s."""
    t0 = time.perf_counter()

    z3 = character_table(make_cyclic(3))
    np.testing.assert_allclose(
        z3.class_values,
        [[1, 1, 1], [1, W3, W3**2], [1, W3**2, W3]],
        atol=1e-10,
    )

    z4 = character_table(make_cyclic(4))
    np.testing.assert_allclose(
        z4.class_values,
        [[1, 1, 1, 1], [1, 1j, -1, -1j], [1, -1, 1, -1], [1, -1j, -1, 1j]],
        atol=1e-10,
    )

    for n in (2, 5, 7, 11, 12):
        table = character_table(make_cyclic(n))
        k = np.arange(n)
        for i in range(n):
            row = np.exp(2j * np.pi * ((i * k) % n) / n)
            np.testing.assert_allclose(table.phi[:, i], row, atol=1e-10)

    np.testing.assert_allclose(
        character_table(make_named("S3")).class_values, S3_REFERENCE, atol=1e-10
    )
    np.testing.assert_allclose(
        character_table(make_named("Q8")).class_values, Q8_REFERENCE, atol=1e-10
    )

    assert time.perf_counter() - t0 < 1.0


def test_acceptance_2_orthogonality():
    """Row/column orthogonality < 1e-10 everywhere; Phi inverse for abelian."""
    for name in ("S3", "Q8", "V4", "D4"):
        report = verify_orthogonality(character_table(make_named(name)), tol=1e-10)
        assert report.passed, name
    for n in range(1, 65):
        table = character_table(make_cyclic(n))
        report = verify_orthogonality(table, tol=1e-10)
        assert report.passed, n
        inverse = np.conj(table.phi.T) / n
        np.testing.assert_allclose(inverse @ table.phi, np.eye(n), atol=1e-10)


def test_acceptance_3_necessary_magnitudes_and_counterexample():
    """Constructed bent coefficients have |a_i|^2 = 1/n within 1e-12; the
    flat real vector on Z2 is rejected as not unimodular."""
    for n in range(2, 65):
        f = make_bent_cyclic(SequenceKind.ZADOFF_CHU, n, 1).function
        deviation = np.max(np.abs(np.abs(f.coefficients) ** 2 - 1.0 / n))
        assert deviation < 1e-12, n

    table = character_table(make_cyclic(2))
    counterexample = from_coefficients(table, np.array([1.0, 1.0]) / math.sqrt(2.0))
    report = is_bent(counterexample)
    assert report.verdict == NOT_UNIMODULAR
    assert abs(counterexample.values[0] - math.sqrt(2.0)) < 1e-12
    assert abs(counterexample.values[1]) < 1e-12


def test_acceptance_4_cyclic_iff_oracle_sweep():
    """criterion == oracle on >= 1000 mixed vectors per n in 2..12, < 30 s."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    for n in range(2, 13):
        table = character_table(make_cyclic(n))
        vectors = []
        for _ in range(340):
            vectors.append(
                (rng.standard_normal(n) + 1j * rng.standard_normal(n))
                / math.sqrt(2 * n)
            )
            vectors.append(np.exp(2j * np.pi * rng.random(n)) / math.sqrt(n))
            mags = rng.dirichlet(np.ones(n))
            vectors.append(np.sqrt(mags) * np.exp(2j * np.pi * rng.random(n)))
        for u in range(1, n + 1):
            if math.gcd(u, n) == 1:
                vectors.append(zadoff_chu(n, u) / math.sqrt(n))
        assert len(vectors) >= 1000
        for a in vectors:
            criterion = cyclic_criterion(a, 1e-8).satisfied
            oracle = is_bent(from_coefficients(table, a), 1e-8).verdict == BENT
            assert criterion == oracle
    assert time.perf_counter() - t0 < 30.0


def test_acceptance_5_construction_existence_sweep():
    """Every Zadoff-Chu root for every n <= 64 certifies, with a flat
    spectrum, in < 10 s."""
    t0 = time.perf_counter()
    for n in range(2, 65):
        for u in range(1, n):
            if math.gcd(u, n) != 1:
                continue
            certified = make_bent_cyclic(SequenceKind.ZADOFF_CHU, n, u)
            assert certified.report.verdict == BENT
            assert certified.report.max_residual < n * 1e-8
            flatness = np.max(np.abs(spectrum(certified.function) - n))
            assert flatness < n * 1e-8
    assert time.perf_counter() - t0 < 10.0


def test_acceptance_6a_s3_certificate():
    """The L1 bound rules S3 out: its 2-dimensional character has
    ||chi||_1 = 4 < d*sqrt(n) = 2*sqrt(6)."""
    cert = impossibility_certificate(character_table(make_named("S3")))
    assert cert.violated == (2,)
    assert abs(cert.l1_norms[2] - 4.0) < 1e-12
    assert abs(cert.required[2] - 2 * math.sqrt(6)) < 1e-12
    assert cert.residual < 1e-12
    assert cert.margin > cert.residual


def test_acceptance_6b_s3_search_regression():
    """The pinned budget-1e5 search never certifies; its best objective is
    frozen as a regression value."""
    result = run_search(
        SearchConfig(group="S3", budget=100_000, seed=0, strategy="random+local")
    )
    assert not result.certified_bent
    assert result.best_objective > 1e-3
    assert result.best_objective == pytest.approx(S3_SEARCH_FLOOR, rel=1e-9)


@pytest.mark.parametrize(
    "label, floor", [("Q8", Q8_SEARCH_FLOOR), ("D4", D4_SEARCH_FLOOR)]
)
def test_acceptance_6c_five_class_search_regression(label, floor):
    result = run_search(
        SearchConfig(group=label, budget=100_000, seed=0, strategy="random+local")
    )
    assert not result.certified_bent
    assert result.best_objective == pytest.approx(floor, rel=1e-9)


def test_acceptance_7_q8_magnitude_system():
    m, residual = solve_q8_system()
    np.testing.assert_allclose(m, [2 / 9, 2 / 9, 2 / 9, 2 / 9, 1 / 9], atol=1e-12)
    assert residual < 1e-12
    for eq_residual in q8_equation_residuals(m):
        assert eq_residual < 1e-12


def test_acceptance_8_invariance_trials():
    """Global phase, translation, and character twist preserve BENT on 100
    randomized trials across cyclic groups and V4."""
    rng = np.random.default_rng(77)
    labels = ("Z4", "Z5", "Z6", "Z8", "Z9", "V4", "Z2xZ3", "Z12")
    tables = {label: character_table(group_from_label(label)) for label in labels}
    bases = {}
    for label, table in tables.items():
        if label == "V4":
            bases[label] = np.kron([1.0, -1j], [1.0, -1j]) / 2.0
        elif label == "Z2xZ3":
            bases[label] = np.kron(zadoff_chu(2, 1), zadoff_chu(3, 1)) / math.sqrt(6)
        else:
            n = table.group.order
            bases[label] = zadoff_chu(n, 1) / math.sqrt(n)
    for trial in range(100):
        label = labels[trial % len(labels)]
        table = tables[label]
        n = table.group.order
        f = from_coefficients(table, bases[label])
        op = trial % 3
        if op == 0:
            f = global_phase(f, cmath.exp(2j * math.pi * rng.random()))
        elif op == 1:
            f = translate(f, int(rng.integers(0, n)))
        else:
            f = character_twist(f, int(rng.integers(0, n)))
        assert is_bent(f).verdict == BENT, (label, op)


def test_acceptance_9_verify_paper_byte_determinism(tmp_path, capsys):
    args = ["verify-paper", "--budget", "500", "--seed", "0"]
    p1, p2 = tmp_path / "run1.json", tmp_path / "run2.json"
    assert cli_main(args + ["-o", str(p1)]) == 0
    assert cli_main(args + ["-o", str(p2)]) == 0
    capsys.readouterr()
    assert p1.read_bytes() == p2.read_bytes()
    payload = json.loads(p1.read_text())
    assert payload["passed"] is True

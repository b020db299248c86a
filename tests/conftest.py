"""Shared fixtures and independent brute-force oracles.

The oracles here deliberately avoid the package's vectorized code paths:
they are plain Python loops over the Cayley table, so agreement between a
library result and an oracle result is evidence for both.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
import pytest

from bentgroups import character_table, group_from_label


def brute_derivative_sums(cayley, values) -> list[complex]:
    """D(sigma) = sum_x conj(f(x)) f(sigma x), computed with Python loops."""
    n = len(values)
    out = []
    for sigma in range(n):
        total = 0j
        for x in range(n):
            total += complex(values[x]).conjugate() * complex(values[cayley[sigma][x]])
        out.append(total)
    return out


def brute_right_sums(cayley, values) -> list[complex]:
    """sum_x conj(f(x)) f(x sigma), the right-translate sums, with Python loops."""
    n = len(values)
    out = []
    for sigma in range(n):
        total = 0j
        for x in range(n):
            total += complex(values[x]).conjugate() * complex(values[cayley[x][sigma]])
        out.append(total)
    return out


def brute_lag_sums(a) -> list[complex]:
    """sum_i conj(a_i) a_{i+k mod n} for k = 1..floor(n/2), with Python loops."""
    n = len(a)
    out = []
    for k in range(1, n // 2 + 1):
        total = 0j
        for i in range(n):
            total += complex(a[i]).conjugate() * complex(a[(i + k) % n])
        out.append(total)
    return out


def brute_spectrum(values) -> list[float]:
    """|sum_x f(x) conj(chi_i(x))|^2 for the cyclic characters chi_i."""
    n = len(values)
    out = []
    for i in range(n):
        total = 0j
        for x in range(n):
            total += complex(values[x]) * cmath.exp(-2j * math.pi * i * x / n)
        out.append(abs(total) ** 2)
    return out


def unit_phases(rng: np.random.Generator, n: int) -> np.ndarray:
    return np.exp(2j * np.pi * rng.random(n))


def flat_random_coefficients(rng: np.random.Generator, n: int) -> np.ndarray:
    return unit_phases(rng, n) / math.sqrt(n)


@pytest.fixture(scope="session")
def z3_table():
    return character_table(group_from_label("Z3"))


@pytest.fixture(scope="session")
def z4_table():
    return character_table(group_from_label("Z4"))


@pytest.fixture(scope="session")
def v4_table():
    return character_table(group_from_label("V4"))


@pytest.fixture(scope="session")
def s3_table():
    return character_table(group_from_label("S3"))


@pytest.fixture(scope="session")
def q8_table():
    return character_table(group_from_label("Q8"))


@pytest.fixture(scope="session")
def d4_table():
    return character_table(group_from_label("D4"))

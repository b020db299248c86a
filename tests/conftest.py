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

from bentgroups import character_table, group_from_json, group_from_label, group_to_json


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


def ordered_factorizations(n: int) -> list[tuple[int, ...]]:
    """Every tuple of factors >= 2 with product n, in every order; (1,) for n = 1."""
    if n == 1:
        return [(1,)]
    out = [(n,)]
    for d in range(2, n):
        if n % d == 0:
            out.extend((d,) + rest for rest in ordered_factorizations(n // d) if rest != (1,))
    return out


#: Every ordered factorization up to order 64, then five tables at orders 509 and 512.
FACTORIZATIONS = [f for n in range(1, 65) for f in ordered_factorizations(n)]
LARGE_FACTORIZATIONS = [(512,), (509,), (2,) * 9, (8, 8, 8), (2, 4, 64)]
LARGE_IDS = ["Z512", "Z509", "Z2^9", "Z8^3", "Z2xZ4xZ64"]
#: The large tables plus a large prime, a product with one, and two small tables.
INDEX_FACTORIZATIONS = LARGE_FACTORIZATIONS + [(239,), (5, 97), (12,), (2, 4, 16)]
INDEX_IDS = LARGE_IDS + ["Z239", "Z5xZ97", "Z12", "Z2xZ4xZ16"]


def unit_phases(rng: np.random.Generator, n: int) -> np.ndarray:
    return np.exp(2j * np.pi * rng.random(n))


#: Orders around each multiple of the 64-row blocks, and larger groups.
BLOCK_LABELS = [f"Z{n}" for n in range(1, 131)] + [
    "Z469", "Z509", "Z512", "Z2xZ4xZ64", "S3", "Q8", "D4",
]


def class_constant_samples(rng: np.random.Generator, group) -> list[np.ndarray]:
    """Value vectors constant on classes: unit phases, real, complex, constant and zero."""
    r = group.n_classes
    per_class = [
        unit_phases(rng, r),
        rng.standard_normal(r) + 0j,
        rng.standard_normal(r) + 1j * rng.standard_normal(r),
        np.full(r, 0.5 + 0j),
        np.zeros(r, dtype=complex),
    ]
    return [v[group.class_of] for v in per_class]


def relabelled(group, perm):
    """``group`` with element x renamed perm[x], loaded through group_from_json."""
    perm = np.asarray(perm)
    cayley = np.empty_like(group.cayley)
    cayley[np.ix_(perm, perm)] = perm[group.cayley]
    obj = group_to_json(group)
    obj.update(name="relabelled", cayley=cayley.tolist(), identity=int(perm[group.identity]))
    return group_from_json(obj)


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

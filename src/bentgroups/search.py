"""Seeded numerical search for bent class functions in coefficient space.

Candidates are coefficient vectors with squared magnitudes on the unit
simplex (the energy constraint satisfied by any unimodular function) and
free phases.  The objective is zero exactly on bent functions, so a
candidate whose objective falls below the certification tolerance is
re-verified with the full derivative-sum check and returned as a witness.
Searches are deterministic given their config: the candidate stream is a
fixed sequence of constructed seeds, seeded random draws, and a
coordinate-descent refinement of the best draw.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .bentness import BENT, BentReport, _row_max, is_bent, report_to_json
from .characters import CharacterTable, character_table
from .class_functions import DEFAULT_TOL, _check_length, _check_tol, _pairs, from_coefficients
from .constructions import quadratic_chirp, zadoff_chu
from .groups import _check_count, _freeze, group_from_label

__all__ = [
    "SearchConfig",
    "SearchResult",
    "Strategy",
    "objective",
    "result_to_json",
    "run_search",
]

_BATCH = 2048
_MAX_LOCAL_BUDGET = 25_000
_MAX_SEEDS = 8
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_ITERS = 48
#: The quantiles of the objective histogram: 0%, 10%, ..., 100%.
_DECILES = np.linspace(0, 1, 11)


class Strategy(str, enum.Enum):
    RANDOM = "random"
    RANDOM_PLUS_LOCAL = "random+local"


@dataclass(frozen=True)
class SearchConfig:
    """Search parameters; identical configs yield identical results."""

    group: str
    budget: int
    seed: int = 0
    tol: float = DEFAULT_TOL
    strategy: Strategy = Strategy.RANDOM_PLUS_LOCAL

    def __post_init__(self) -> None:
        _check_count("budget", self.budget, 1)
        _check_count("seed", self.seed, 0)
        _check_tol(self.tol)
        object.__setattr__(self, "strategy", Strategy(self.strategy))


@dataclass(frozen=True, eq=False)
class SearchResult:
    """Search outcome: best candidate, certification status, and transcript stats.

    ``histogram`` holds the 0%, 10%, ..., 100% quantiles of all evaluated
    objective values, computed when first read.  ``report`` is the certifying
    BentReport when ``certified_bent`` is true, else None.
    """

    config: SearchConfig
    best_objective: float
    best_coefficients: np.ndarray
    certified_bent: bool
    evaluations: int
    report: BentReport | None
    #: every evaluated objective value, in evaluation order
    _objectives: np.ndarray = field(repr=False)

    @functools.cached_property
    def histogram(self) -> tuple[float, ...]:
        # sorting moves no order statistic, so the quantiles keep their bits
        return _deciles(np.sort(self._objectives))


def _deciles(values: np.ndarray) -> tuple[float, ...]:
    """``np.quantile(values, _DECILES)`` of sorted values, bit for bit: numpy's
    linear method without the partition, whose ``np.unique`` imports
    ``numpy.ma``.  The virtual index ``(n - 1) * q`` lies between its floor and
    the next index, both -1 at the top, and ``_lerp`` subtracts from the upper
    value where the weight is at least 0.5.  A NaN sorts last and makes every
    decile NaN."""
    n = len(values)
    virtual = (n - 1) * _DECILES
    top = virtual >= n - 1
    below = np.where(top, -1, np.floor(virtual)).astype(np.intp)
    above = np.where(top, -1, below + 1)
    low, high = values[below], values[above]
    weight = virtual - below
    step = high - low
    deciles = low + step * weight
    np.subtract(high, step * (1 - weight), out=deciles, where=weight >= 0.5)
    if np.isnan(values[-1]):
        deciles[:] = values[-1]
    return tuple(deciles.tolist())


def objective(table: CharacterTable, a: Sequence[complex]) -> float:
    """max_sigma |D(sigma)|/n over sigma != e, plus the unimodularity gap.

    Zero exactly on bent coefficient vectors; the constant function a = e_1
    scores 1.
    """
    a = np.asarray(a, dtype=complex)
    _check_length(table.group, a, "coefficients")
    return _probe_objective(table, _shifts(table), a)


def _shifts(table: CharacterTable) -> np.ndarray:
    """Cayley rows of every non-identity direction, one gather index for all."""
    group = table.group
    return group.cayley[np.arange(group.order) != group.identity]


def _probe_objective(table: CharacterTable, shifts: np.ndarray, a: np.ndarray) -> float:
    """Objective of one candidate from its brute-force derivative sums.

    The refinement's golden-section trajectory depends on these exact floats,
    so the arithmetic is that of a per-direction loop: each sum runs over the
    contiguous last axis of one gathered array (``np.add.reduce`` is
    ``ndarray.sum`` without its Python wrapper).  The closed form moves the S3
    search floor by 3.6e-3, a 2-D ``(K, r) @ (r, n)`` batch is one zgemm and
    rounds differently on 12-46% of rows, and Python's complex ``abs`` (hypot)
    differs from numpy's on 35% of values.  A stacked ``(K, 1, r) @ (r, n)``
    batch runs one gemv per row and keeps the bits, but the golden-section
    search asks for one point at a time and a stacked call costs more than a
    scalar probe, so the probe stays scalar for speed.  Only the steps on real
    floats (``- 1``, ``abs``, ``max``) run in Python, where they round as numpy
    does; ``max`` returns NaN for a NaN coefficient, since every value and
    every sum is then NaN.  The values are one gemv, ``phi.dot(a)``: it rounds
    as ``a[None, :] @ phi.T`` does, at less call overhead.
    """
    v = table.phi.dot(a)
    gap = max([abs(m - 1.0) for m in np.abs(v).tolist()])
    sums = np.add.reduce(v.conj() * v.take(shifts), axis=-1)
    return max(np.abs(sums).tolist(), default=0.0) / len(v) + gap


def _batch_objective(table: CharacterTable, batch: np.ndarray) -> np.ndarray:
    """Objectives of a batch from the closed-form derivative sums.

    Generalized orthogonality gives D(sigma) = n * sum_i |a_i|^2 chi_i(sigma)/d_i,
    so both terms need only the r class values: O(B r^2) rather than O(B n^2).
    Class 0 is the identity class and is left out of the residual.
    """
    class_values = table.class_values
    gaps = _row_max(np.abs(np.abs(batch @ class_values) - 1.0))
    weights = np.abs(batch) ** 2 / np.asarray(table.degrees)
    residuals = _row_max(np.abs(weights @ class_values[:, 1:]), initial=0.0)
    return residuals + gaps


def _seed_candidates(table: CharacterTable) -> list[np.ndarray]:
    """Constructed CAZAC-based candidates for groups with cyclic factors."""
    factors = table.group.abelian_factors
    if factors is None:
        return []
    seeds: list[np.ndarray] = []
    if len(factors) == 1:
        n = factors[0]
        roots = [u for u in range(1, n + 1) if math.gcd(u, n) == 1]
        for u in roots[:_MAX_SEEDS]:
            seeds.append(zadoff_chu(n, u) / math.sqrt(n))
        if n % 2 and n > 1:
            seeds.append(quadratic_chirp(n) / math.sqrt(n))
    else:
        a = np.ones(1, dtype=complex)
        for m in factors:
            a = np.kron(a, zadoff_chu(m, 1) / math.sqrt(m))
        seeds.append(a)
    return seeds


def _golden_section(
    fun: Callable[[float], float], lo: float, hi: float, max_evals: int
) -> tuple[float, float]:
    """Minimize a unimodal-ish scalar function in max_evals >= 2 calls; returns (x, f(x))."""
    c = hi - _GOLDEN * (hi - lo)
    d = lo + _GOLDEN * (hi - lo)
    fc, fd = fun(c), fun(d)
    for _ in range(max_evals - 2):
        if fc <= fd:
            hi, d, fd = d, c, fc
            c = hi - _GOLDEN * (hi - lo)
            fc = fun(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _GOLDEN * (hi - lo)
            fd = fun(d)
    return (c, fc) if fc <= fd else (d, fd)


def _rescaler(mags: np.ndarray, i: int) -> Callable[[float], np.ndarray]:
    """The map from t to unit-sum squared magnitudes with share i set to t and
    the rest scaled to match; when the rest sum to at most 1e-15 they share
    ``1 - t`` evenly (``ones * x`` is ``x`` exactly)."""
    others = 1.0 - float(mags[i])
    if not others > 1e-15:
        mags, others = np.ones(len(mags)), len(mags) - 1.0

    def rescale(t: float) -> np.ndarray:
        m = mags * ((1.0 - t) / others)
        m[i] = t
        return m

    return rescale


class _Transcript:
    """Tracks evaluations, the running best, and every objective value."""

    def __init__(self, table: CharacterTable, budget: int, tol: float):
        self.table = table
        self.shifts = _shifts(table)
        self.budget = budget
        self.tol = tol
        self.evaluations = 0
        self.batch_values: list[np.ndarray] = []
        self.probe_values: list[float] = []
        self.best_objective = math.inf
        self.best_coefficients: np.ndarray | None = None

    @property
    def remaining(self) -> int:
        return self.budget - self.evaluations

    @property
    def done(self) -> bool:
        return self.evaluations >= self.budget or self.best_objective <= self.tol

    def record_batch(self, batch: np.ndarray) -> None:
        batch = batch[: self.remaining]
        if not len(batch):
            return
        objs = _batch_objective(self.table, batch)
        self.evaluations += len(batch)
        self.batch_values.append(objs)
        idx = int(np.argmin(objs))
        if objs[idx] < self.best_objective:
            self.best_objective = float(objs[idx])
            self.best_coefficients = batch[idx].copy()


def _refine(transcript: _Transcript, start: np.ndarray, local_budget: int) -> None:
    """Coordinate descent: golden-section on each phase, then each magnitude."""
    r = len(start)
    a = start.copy()
    best = transcript.best_objective
    stop_at = min(transcript.evaluations + local_budget, transcript.budget)
    table, shifts, probe_values = transcript.table, transcript.shifts, transcript.probe_values

    def line_search(vector: Callable[[float], np.ndarray], lo: float, hi: float) -> float | None:
        """Golden-section search of vector(x) over [lo, hi] in ``cap`` probes: the x
        that improves on best, or None, also when the budget or the tolerance
        leaves no search.  Each probe is scored by ``_probe_objective`` and
        enters the transcript."""
        nonlocal best
        cap = min(_GOLDEN_ITERS, stop_at - transcript.evaluations)
        if cap < 2 or transcript.best_objective <= transcript.tol:
            return None

        def probe(x: float) -> float:
            b = vector(x)
            obj = _probe_objective(table, shifts, b)
            probe_values.append(obj)
            if obj < transcript.best_objective:
                transcript.best_objective, transcript.best_coefficients = obj, b.copy()
            return obj

        # the golden-section search makes exactly cap probes
        transcript.evaluations += cap
        x, obj = _golden_section(probe, lo, hi, cap)
        if obj < best - 1e-15:
            best = obj
            return x
        return None

    improved = True
    while improved:
        improved = False
        for i in range(r):
            theta0 = float(np.angle(a[i]))
            # a Python float: float * complex is the numpy product's bits, at half the cost
            radius = float(abs(a[i]))
            # one probe buffer per coordinate: a probe that improves is copied
            # into the transcript, and the line search's answer becomes ``a``
            b = a.copy()

            def turned(theta: float) -> np.ndarray:
                b[i] = radius * complex(math.cos(theta), math.sin(theta))
                return b

            theta = line_search(turned, theta0 - math.pi, theta0 + math.pi)
            if theta is not None:
                a, improved = turned(theta), True
        mags = np.abs(a) ** 2
        radii = np.abs(a)
        phases = np.where(radii > 0, a / np.maximum(radii, 1e-300), 1.0)
        # a single coefficient's magnitude is pinned to 1 by the energy constraint
        for i in range(r if r > 1 else 0):
            rescale = _rescaler(mags, i)
            # t lies in [0, 1], so every share is >= +0 and sqrt needs no clip
            t = line_search(lambda t: np.sqrt(rescale(t)) * phases, 0.0, 1.0)
            if t is not None:
                mags = rescale(t)
                a, improved = np.sqrt(mags) * phases, True


def run_search(config: SearchConfig) -> SearchResult:
    """Run the configured search and return a reproducible transcript."""
    group = group_from_label(config.group)
    table = character_table(group)
    r = table.n_irreps
    rng = np.random.default_rng(config.seed)
    transcript = _Transcript(table, config.budget, config.tol)

    seeds = _seed_candidates(table)
    if seeds:
        transcript.record_batch(np.asarray(seeds))

    local_budget = 0
    if config.strategy is Strategy.RANDOM_PLUS_LOCAL:
        local_budget = min(config.budget // 4, _MAX_LOCAL_BUDGET)

    while not transcript.done and transcript.remaining > local_budget:
        size = min(_BATCH, transcript.remaining - local_budget)
        mags = rng.dirichlet(np.ones(r), size=size)
        phases = np.exp(2j * np.pi * rng.random((size, r)))
        transcript.record_batch(np.sqrt(mags) * phases)

    if local_budget and not transcript.done:
        _refine(transcript, transcript.best_coefficients, local_budget)

    best_coefficients = transcript.best_coefficients
    assert best_coefficients is not None  # budget >= 1 and a finite tol guarantee an evaluation
    report: BentReport | None = None
    if transcript.best_objective <= config.tol:
        candidate = from_coefficients(table, best_coefficients)
        report = is_bent(candidate, config.tol)
        if report.verdict != BENT:
            report = None
    best_coefficients.setflags(write=False)
    return SearchResult(
        config=config,
        best_objective=transcript.best_objective,
        best_coefficients=best_coefficients,
        certified_bent=report is not None,
        evaluations=transcript.evaluations,
        report=report,
        _objectives=_freeze(np.concatenate([*transcript.batch_values,
                                            np.asarray(transcript.probe_values)])),
    )


def result_to_json(result: SearchResult) -> dict:
    return {
        "config": {
            "group": result.config.group,
            "budget": result.config.budget,
            "seed": result.config.seed,
            "tol": result.config.tol,
            "strategy": result.config.strategy.value,
        },
        "best_objective": result.best_objective,
        "best_coefficients": _pairs(result.best_coefficients),
        "certified_bent": result.certified_bent,
        "evaluations": result.evaluations,
        "histogram": list(result.histogram),
        "report": None if result.report is None else report_to_json(result.report),
    }

"""Finite laws on count vectors, Poisson references and total variation.

Probabilities are plain numbers of whatever arithmetic the caller
wants: floats for Monte Carlo work, Fractions for exact laws coming
out of exhaustive enumeration, Decimals when extra digits are needed.
Mixing is allowed wherever Python arithmetic allows it, and tv_distance
also compares a Fraction law with a Decimal one.

Product-Poisson references are evaluated on a prescribed support,
usually that of the law they are compared with; the reference mass
off that support is kept as an explicit tail_mass, so the distance
to a law living on the support is the exact total variation.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from typing import Iterable, Mapping, Sequence


@dataclass(frozen=True)
class FiniteDistribution:
    """Probability mass on finitely many integer vectors.

    tail_mass is mass known to exist outside the listed atoms (a
    reference law's mass off its support); sample_count is set for
    empirical laws and feeds the standard-error formulas.
    """

    dimension: int
    atoms: Mapping[tuple[int, ...], object]
    tail_mass: object = 0
    sample_count: int | None = None

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        total = self.tail_mass
        for vec, prob in self.atoms.items():
            if len(vec) != self.dimension or any(k < 0 for k in vec):
                raise ValueError(f"bad support vector {vec}")
            if prob < 0:
                raise ValueError(f"negative probability at {vec}")
            total = total + prob
        if isinstance(total, (int, Fraction)):
            if total != 1:
                raise ValueError(f"probabilities sum to {total}, expected 1")
        elif abs(total - 1) > 1e-9:
            raise ValueError(f"probabilities sum to {total}, expected 1")

    def probability(self, vec: tuple[int, ...]):
        return self.atoms.get(tuple(vec), 0)

    def support(self) -> list[tuple[int, ...]]:
        return sorted(self.atoms)

    def marginal(self, axis: int) -> "FiniteDistribution":
        if not 0 <= axis < self.dimension:
            raise ValueError(f"axis out of range: {axis}")
        out: dict[tuple[int, ...], object] = {}
        for vec, prob in self.atoms.items():
            key = (vec[axis],)
            out[key] = out.get(key, 0) + prob
        return FiniteDistribution(
            dimension=1,
            atoms=out,
            tail_mass=self.tail_mass,
            sample_count=self.sample_count,
        )


def poisson_pmf(lam, k: int) -> float:
    """P[Poisson(lam) = k], evaluated in log space."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    lam = float(lam)
    if lam <= 0:
        raise ValueError("rate must be positive")
    return math.exp(k * math.log(lam) - lam - math.lgamma(k + 1))


def _decimal(x: Fraction) -> Decimal:
    """x rounded in the current decimal context."""
    return Decimal(x.numerator) / x.denominator


def product_poisson_on(
    lambdas: Sequence, support: Iterable[tuple[int, ...]], precision: int | None = None
) -> FiniteDistribution:
    """Product Poisson evaluated on a prescribed support set.

    Mass outside the support goes to tail_mass.  Against a law that
    lives entirely on the support, tv_distance then gives the exact
    total variation rather than an upper estimate, whatever the
    dimension.

    With precision=None the atoms are floats.  Otherwise they are
    Decimals with that many significant digits: each atom is the one
    exponential exp(-sum of rates) times its exact rational weight
    prod lam**k / k!.
    """
    d = len(lambdas)
    if d < 1:
        raise ValueError("need at least one rate")
    vectors = [tuple(vec) for vec in support]
    for vec in vectors:
        if len(vec) != d:
            raise ValueError(f"support vector {vec} has wrong dimension")

    if precision is None:
        atoms = {vec: math.prod(map(poisson_pmf, lambdas, vec)) for vec in vectors}
        tail = 1.0 - math.fsum(atoms.values())
    else:
        rates = [Fraction(lam) for lam in lambdas]
        if min(rates) <= 0:
            raise ValueError("rate must be positive")
        with localcontext(Context(prec=precision)):
            scale = _decimal(-sum(rates)).exp()
            atoms = {}
            for vec in vectors:
                num = den = 1
                for lam, k in zip(rates, vec):
                    num *= lam.numerator**k
                    den *= lam.denominator**k * math.factorial(k)
                atoms[vec] = scale * num / den
            tail = Decimal(1) - sum(atoms.values())
    if tail < 0:
        tail = type(tail)(0)  # roundoff guard
    return FiniteDistribution(dimension=d, atoms=atoms, tail_mass=tail)


def empirical_distribution(
    samples: Iterable[tuple[int, ...]] | Mapping[tuple[int, ...], int],
) -> FiniteDistribution:
    """Relative frequencies as exact fractions, with the sample count."""
    counts = Counter(dict(samples)) if isinstance(samples, Mapping) else Counter(samples)
    if not counts:
        raise ValueError("no samples")
    total = sum(counts.values())
    dims = {len(vec) for vec in counts}
    if len(dims) != 1:
        raise ValueError("samples have mixed dimensions")
    atoms = {tuple(vec): Fraction(c, total) for vec, c in counts.items()}
    return FiniteDistribution(dimension=dims.pop(), atoms=atoms, sample_count=total)


def _gap(a, b):
    # Fractions and Decimals do not subtract directly
    if isinstance(a, Fraction) and isinstance(b, Decimal):
        a = _decimal(a)
    elif isinstance(b, Fraction) and isinstance(a, Decimal):
        b = _decimal(b)
    return abs(a - b)


def tv_distance(p: FiniteDistribution, q: FiniteDistribution):
    """Total variation: half the L1 gap, plus worst-case tail overlap."""
    if p.dimension != q.dimension:
        raise ValueError("dimension mismatch")
    gap = 0
    for vec in set(p.atoms) | set(q.atoms):
        gap = gap + _gap(p.probability(vec), q.probability(vec))
    return (gap + p.tail_mass + q.tail_mass) / 2


def tv_standard_error(p: FiniteDistribution, q: FiniteDistribution) -> float:
    """Delta-method standard error of the plug-in distance.

    Treats the sign pattern of p - q as fixed; the estimate is the
    sample mean of a +-1/2 valued function of the draw, so its spread
    is at most 1/(2 sqrt(M)).
    """
    if p.sample_count is None:
        raise ValueError("p must be an empirical distribution")
    mean = 0.0
    mean_sq = 0.0
    for vec, prob in p.atoms.items():
        diff = float(prob - q.probability(vec))
        c = 0.5 if diff > 0 else (-0.5 if diff < 0 else 0.0)
        w = float(prob)
        mean += w * c
        mean_sq += w * c * c
    return math.sqrt(max(0.0, mean_sq - mean * mean) / p.sample_count)

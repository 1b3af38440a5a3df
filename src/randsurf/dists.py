"""Poisson references and total variation for integer histograms.

Every law the package measures is a histogram: a mapping from count
vectors to integer counts, whose total is the sum of the counts (the
samples of a Monte Carlo run, or the (6N-1)!! gluings of the exact
oracle).  Its shares count / total are never stored; tv_distance and
tv_standard_error compute each one in the reference's arithmetic,
count / total against floats and Decimal(count) / total, rounded in the
current decimal context, against Decimals.

Product-Poisson references are evaluated on a prescribed support,
usually the histogram's own, sorted(hist); the reference mass off that
support is kept as an explicit tail_mass, so the distance to a
histogram living on the support is the exact total variation.
"""

from __future__ import annotations

import math
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

Histogram = Mapping[tuple[int, ...], int]


class PoissonReference(NamedTuple):
    """Product-Poisson atoms on a support, and the mass off it."""

    atoms: dict[tuple[int, ...], float | Decimal]
    tail_mass: float | Decimal


def poisson_pmf(lam, k: int) -> float:
    """P[Poisson(lam) = k], evaluated in log space."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    lam = float(lam)
    if lam <= 0:
        raise ValueError("rate must be positive")
    return math.exp(k * math.log(lam) - lam - math.lgamma(k + 1))


def product_poisson_on(
    lambdas: Sequence, support: Iterable[tuple[int, ...]], precision: int | None = None
) -> PoissonReference:
    """Product Poisson evaluated on a prescribed support set.

    Mass outside the support goes to tail_mass.  Against a histogram
    that lives entirely on the support, tv_distance then gives the
    exact total variation rather than an upper estimate, whatever the
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
            exponent = -sum(rates)
            scale = (Decimal(exponent.numerator) / exponent.denominator).exp()
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
    return PoissonReference(atoms, tail)


def _share(reference: PoissonReference, total: int) -> Callable[[int], float | Decimal]:
    """count -> count / total in the arithmetic of the reference's atoms."""
    if isinstance(reference.tail_mass, Decimal):
        return lambda count: Decimal(count) / total
    return lambda count: count / total


def tv_distance(hist: Histogram, reference: PoissonReference):
    """Total variation: half the L1 gap, plus the reference's tail mass."""
    share = _share(reference, sum(hist.values()))
    atoms = reference.atoms
    gap = 0
    # set() sizes its table once for a plain dict but grows it key by key for
    # a Counter, and the two tables can iterate, and so sum, in other orders
    for vec in set(dict(hist)) | set(atoms):
        gap = gap + abs(share(hist.get(vec, 0)) - atoms.get(vec, 0))
    return (gap + reference.tail_mass) / 2


def tv_standard_error(hist: Histogram, reference: PoissonReference) -> float:
    """Delta-method standard error of the plug-in distance.

    Treats the sign pattern of the gap to the reference as fixed; the
    estimate is the sample mean of a +-1/2 valued function of the draw,
    so its spread is at most 1/(2 sqrt(M)) over M = sum of the counts.
    """
    total = sum(hist.values())
    share = _share(reference, total)
    atoms = reference.atoms
    mean = 0.0
    mean_sq = 0.0
    for vec, count in hist.items():
        p = share(count)
        diff = p - atoms.get(vec, 0)
        c = 0.5 if diff > 0 else (-0.5 if diff < 0 else 0.0)
        w = float(p)
        mean += w * c
        mean_sq += w * c * c
    return math.sqrt(max(0.0, mean_sq - mean * mean) / total)

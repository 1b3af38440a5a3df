import itertools
import math
from decimal import Context, Decimal, localcontext
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st

from randsurf.dists import (
    FiniteDistribution,
    empirical_distribution,
    poisson_pmf,
    product_poisson_on,
    tv_distance,
    tv_standard_error,
)
from randsurf.exact import exact_joint_distribution


def test_poisson_pmf_values():
    assert poisson_pmf(0.5, 0) == pytest.approx(math.exp(-0.5))
    assert poisson_pmf(1.0, 1) == pytest.approx(math.exp(-1.0))
    assert poisson_pmf(2.0, 3) == pytest.approx(8 / 6 * math.exp(-2.0))


def test_distribution_validation():
    with pytest.raises(ValueError):
        FiniteDistribution(dimension=1, atoms={(0,): Fraction(1, 2)})
    with pytest.raises(ValueError):
        FiniteDistribution(
            dimension=1, atoms={(0,): Fraction(3, 2), (1,): Fraction(-1, 2)}
        )
    with pytest.raises(ValueError):
        FiniteDistribution(dimension=2, atoms={(0,): Fraction(1)})


def test_marginals_of_a_product_grid():
    grid = [(i, j) for i in range(26) for j in range(26)]
    joint = product_poisson_on([0.5, 1.0], grid)
    assert joint.dimension == 2
    assert joint.tail_mass < 1e-10
    for axis, lam in ((0, 0.5), (1, 1.0)):
        marg = joint.marginal(axis)
        for k in range(6):
            assert marg.probability((k,)) == pytest.approx(poisson_pmf(lam, k), rel=1e-9)


def test_product_poisson_on_prescribed_support():
    dist = product_poisson_on([0.5], [(0,), (3,)])
    assert set(dist.atoms) == {(0,), (3,)}
    assert dist.probability((0,)) == pytest.approx(math.exp(-0.5))
    assert dist.tail_mass == pytest.approx(
        1 - math.exp(-0.5) - poisson_pmf(0.5, 3)
    )


def test_tv_hand_example():
    p = FiniteDistribution(dimension=1, atoms={(0,): Fraction(4, 5), (3,): Fraction(1, 5)})
    q = FiniteDistribution(dimension=1, atoms={(0,): Fraction(1, 2), (1,): Fraction(1, 2)})
    assert tv_distance(p, q) == Fraction(1, 2)


def test_tv_against_restricted_poisson_is_exact_in_any_dimension():
    # supports of the two laws coincide, so the tail term is the exact
    # remainder of the reference law
    p = FiniteDistribution(
        dimension=2,
        atoms={(0, 0): Fraction(1, 2), (1, 2): Fraction(1, 2)},
    )
    q = product_poisson_on([0.5, 1.0], p.support())
    tv = tv_distance(p, q)
    direct = (
        abs(0.5 - poisson_pmf(0.5, 0) * poisson_pmf(1.0, 0))
        + abs(0.5 - poisson_pmf(0.5, 1) * poisson_pmf(1.0, 2))
        + float(q.tail_mass)
    ) / 2
    assert float(tv) == pytest.approx(direct, rel=1e-12)


weights_st = st.lists(st.integers(min_value=0, max_value=9), min_size=4, max_size=4).filter(sum)


def _dist(weights) -> FiniteDistribution:
    total = sum(weights)
    atoms = {
        (k,): Fraction(w, total) for k, w in enumerate(weights) if w
    }
    return FiniteDistribution(dimension=1, atoms=atoms)


@given(weights_st, weights_st, weights_st)
def test_tv_is_a_metric(wa, wb, wc):
    a, b, c = _dist(wa), _dist(wb), _dist(wc)
    assert tv_distance(a, a) == 0
    assert tv_distance(a, b) == tv_distance(b, a)
    assert 0 <= tv_distance(a, b) <= 1
    assert tv_distance(a, c) <= tv_distance(a, b) + tv_distance(b, c)


def test_empirical_distribution_round_trip():
    emp = empirical_distribution([(0,), (0,), (3,), (0,)])
    assert emp.sample_count == 4
    assert emp.probability((0,)) == Fraction(3, 4)
    assert emp.probability((3,)) == Fraction(1, 4)
    same = empirical_distribution({(0,): 3, (3,): 1})
    assert same.atoms == emp.atoms


def test_empirical_distribution_guards():
    with pytest.raises(ValueError):
        empirical_distribution([])
    with pytest.raises(ValueError):
        empirical_distribution([(0,), (0, 1)])


def test_tv_standard_error_bounds_and_hand_value():
    emp = empirical_distribution([(0,)] * 3 + [(1,)] * 1)
    ref = product_poisson_on([1.0], emp.support())
    se = tv_standard_error(emp, ref)
    assert 0 <= se <= 0.5 / math.sqrt(emp.sample_count)
    # p(0)=3/4 > e^-1, p(1)=1/4 < e^-1: weights +1/2 and -1/2
    mean = 0.75 * 0.5 - 0.25 * 0.5
    mean_sq = 0.75 * 0.25 + 0.25 * 0.25
    assert se == pytest.approx(math.sqrt((mean_sq - mean**2) / 4))
    with pytest.raises(ValueError):
        tv_standard_error(ref, emp)


def test_empirical_law_approaches_exact_law(mc_n1):
    plan, tallies = mc_n1
    emp = empirical_distribution(tallies.joint)
    exact = FiniteDistribution(
        dimension=1, atoms={(0,): Fraction(4, 5), (3,): Fraction(1, 5)}
    )
    assert set(emp.atoms) == set(exact.atoms)
    assert float(tv_distance(emp, exact)) < 0.01


# the Decimal path against mpmath's log-space pmf, 20 guard digits up
RATE_SETS = [
    (Fraction(1, 2), Fraction(1)),
    (Fraction(1, 6), Fraction(1, 2), Fraction(3, 2)),
    (Fraction(7, 3),),
]


def _mp(x):
    return mpmath.mpf(x.numerator) / x.denominator


def _mp_product_poisson(rates, support, digits):
    with mpmath.workdps(digits + 20):
        atoms = {
            vec: mpmath.fprod(
                mpmath.exp(k * mpmath.log(_mp(lam)) - _mp(lam) - mpmath.loggamma(k + 1))
                for lam, k in zip(rates, vec)
            )
            for vec in support
        }
        return atoms, 1 - mpmath.fsum(atoms.values())


def _mp_tv(law, rates, digits):
    atoms, tail = _mp_product_poisson(rates, law.support(), digits)
    with mpmath.workdps(digits + 20):
        gaps = [abs(_mp(p) - atoms[vec]) for vec, p in law.atoms.items()]
        return (mpmath.fsum(gaps) + tail) / 2


def _agrees(value, reference, digits):
    assert isinstance(value, Decimal)
    with mpmath.workdps(digits + 20):
        gap = abs(mpmath.mpf(str(value)) - reference)
        assert gap <= abs(reference) * mpmath.mpf(10) ** (5 - digits)


def _grid_law(rates):
    # an exact law on a grid around the rates, off the product Poisson law
    support = list(itertools.product(range(5 if len(rates) < 3 else 4), repeat=len(rates)))
    total = sum(1 + sum(vec) for vec in support)
    atoms = {vec: Fraction(1 + sum(vec), total) for vec in support}
    return FiniteDistribution(dimension=len(rates), atoms=atoms)


@pytest.mark.parametrize("digits", [60, 200])
@pytest.mark.parametrize("rates", RATE_SETS, ids=lambda r: ",".join(map(str, r)))
def test_decimal_product_poisson_matches_mpmath(rates, digits):
    support = _grid_law(rates).support()
    dist = product_poisson_on(rates, support, precision=digits)
    atoms, tail = _mp_product_poisson(rates, support, digits)
    assert set(dist.atoms) == set(atoms)
    for vec, prob in dist.atoms.items():
        _agrees(prob, atoms[vec], digits)
    _agrees(dist.tail_mass, tail, digits)


@pytest.mark.parametrize("digits", [60, 200])
@pytest.mark.parametrize("rates", RATE_SETS, ids=lambda r: ",".join(map(str, r)))
def test_decimal_tv_against_an_exact_law_matches_mpmath(rates, digits):
    law = _grid_law(rates)
    reference = product_poisson_on(rates, law.support(), precision=digits)
    with localcontext(Context(prec=digits)):
        tv = tv_distance(law, reference)
        assert tv_distance(reference, law) == tv
    _agrees(tv, _mp_tv(law, rates, digits), digits)


@pytest.mark.parametrize("digits", [60, 200])
def test_exact_mtv_is_a_decimal_at_the_requested_digits(lr, llr, digits):
    system = exact_joint_distribution([lr, llr], 2, dps=digits)
    rates = [c.lam for c in system.classes]
    _agrees(system.exact_mtv, _mp_tv(system.joint_law, rates, digits), digits)


@pytest.mark.parametrize("precision", [None, 60])
@pytest.mark.parametrize("rates", [[Fraction(0)], [Fraction(1), Fraction(-1, 2)]])
def test_non_positive_rates_raise_on_both_paths(rates, precision):
    support = [(0,) * len(rates), (1,) * len(rates)]
    with pytest.raises(ValueError, match="rate must be positive"):
        product_poisson_on(rates, support, precision=precision)

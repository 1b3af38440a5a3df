"""Explicit Chen-Stein error bounds for the joint law of cycle counts.

For a finite set W of word classes with longest word m_W <= N, the
distance between the count vector's law and the product of Poissons
is controlled by four families of sums.  This module evaluates, per
class representative w:

  sigma1  a_{|w|,N} p_{|w|,N}^2
            + sum_{i=1}^{|w|-2} 3^i (|w|-i)^{|w|} a_{|w|-i,N} p_{|w|-i,N}^2
  sigma2  sum over w' in W, 1<=i<=2|w|, 0<=j<=|w|, 0<=k<=|w'| of
            C(2|w|,i) 3^{i+j+k} (|w|-j)^{|w|} (|w'|-k)^{|w'|}
            a_{|w|+|w'|-i-j-k,N} p_{|w|,N} p_{|w'|,N}
  sigma3  sum over w' in W, 1<=i<=|w|, 0<=j<=|w|, 0<=k<=|w'| of
            C(|w|,i) 3^{i+j+k} (|w|-j)^{|w|} (|w'|-k)^{|w'|}
            a_{|w|+|w'|-i-j-k-1,N} p_{|w|+|w'|-i,N}
  sigma4  (m_W^2/N) (sum_{u in W} a_{|u|,N} p_{|u|,N}
            + sum_{i=1}^{|w|-2} 3^i (|w|-i)^{|w|} a_{|w|-i,N} p_{|w|-i,N})^2

Terms whose a-index would be negative are skipped.  Class-level
values scale the word-level ones by lam = |[w]|/(2|w|) for sigma1 and
by lam^2 for the others.  The aggregate bound is

  refined = 3 * sum over classes of (sigma1 + sigma2 + sigma3 + sigma4)

and is dominated by the closed form

  main = 18 |W|^3 (6 m_W)^(3 m_W + 4) / N.

Everything in sight is a rational number, so each quantity can be
evaluated exactly with Fractions or on log-magnitudes; the two modes
are kept in lockstep by writing each formula once over a conversion
hook.  Bounds only hold under m_W <= N, enforced as a hard error.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable, Sequence

from randsurf.lognum import LogNumber
from randsurf.words import MAX_TRACE, WordClass, enumerate_classes_by_trace

MODES = ("exact", "log")


def p_k_n(k: int, n: int) -> Fraction:
    """Probability that k prescribed disjoint pairs all lie in the gluing."""
    if not 0 <= k <= 3 * n:
        raise ValueError(f"need 0 <= k <= 3N, got k={k}, N={n}")
    den = 1
    for j in range(1, k + 1):
        den *= 6 * n - 2 * j + 1
    return Fraction(1, den)


def a_k_n(k: int, n: int) -> int:
    """Number of k-step side sequences through k distinct triangles."""
    if not 0 <= k <= 2 * n:
        raise ValueError(f"need 0 <= k <= 2N, got k={k}, N={n}")
    out = 3**k
    for j in range(k):
        out *= 2 * n - j
        if out == 0:
            return 0
    return out


def _conv_for(mode: str) -> Callable:
    if mode == "exact":
        return lambda v: v if isinstance(v, Fraction) else Fraction(v)
    if mode == "log":
        return LogNumber.convert
    raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


def _sum_for(mode: str) -> Callable:
    if mode == "log":
        return LogNumber.sum
    return lambda terms: sum(terms, Fraction(0))


@dataclass(frozen=True)
class SigmaSet:
    s1: object
    s2: object
    s3: object
    s4: object

    @property
    def total(self):
        return self.s1 + self.s2 + self.s3 + self.s4


def _sigma_word(cls: WordClass, lengths: Sequence[int], m_w: int, n: int, mode: str) -> SigmaSet:
    conv = _conv_for(mode)
    add = _sum_for(mode)
    m = cls.word_length

    terms = [conv(a_k_n(m, n)) * conv(p_k_n(m, n)) ** 2]
    for i in range(1, m - 1):
        coef = 3**i * (m - i) ** m * a_k_n(m - i, n)
        terms.append(conv(coef) * conv(p_k_n(m - i, n)) ** 2)
    s1 = add(terms)

    terms = []
    p_m = p_k_n(m, n)
    for mp in lengths:
        pp = conv(p_m * p_k_n(mp, n))
        for i in range(1, 2 * m + 1):
            for j in range(m + 1):
                for k in range(mp + 1):
                    idx = m + mp - i - j - k
                    if idx < 0:
                        continue
                    coef = comb(2 * m, i) * 3 ** (i + j + k) * (m - j) ** m * (mp - k) ** mp
                    if coef == 0:
                        continue
                    terms.append(conv(coef * a_k_n(idx, n)) * pp)
    s2 = add(terms)

    terms = []
    for mp in lengths:
        for i in range(1, m + 1):
            p_factor = conv(p_k_n(m + mp - i, n))
            for j in range(m + 1):
                for k in range(mp + 1):
                    idx = m + mp - i - j - k - 1
                    if idx < 0:
                        continue
                    coef = comb(m, i) * 3 ** (i + j + k) * (m - j) ** m * (mp - k) ** mp
                    if coef == 0:
                        continue
                    terms.append(conv(coef * a_k_n(idx, n)) * p_factor)
    s3 = add(terms)

    base = add([conv(a_k_n(mp, n) * p_k_n(mp, n)) for mp in lengths])
    extra = add(
        [
            conv(3**i * (m - i) ** m * a_k_n(m - i, n) * p_k_n(m - i, n))
            for i in range(1, m - 1)
        ]
    )
    s4 = conv(Fraction(m_w**2, n)) * (base + extra) ** 2

    return SigmaSet(s1, s2, s3, s4)


def _check_class_set(classes: Sequence[WordClass], n: int) -> tuple[int, int]:
    if n < 1:
        raise ValueError(f"N must be >= 1, got {n}")
    if not classes:
        return 0, 0
    m_w = max(c.word_length for c in classes)
    c_w = max(c.class_size for c in classes)
    if m_w > n:
        raise ValueError(f"bound requires m_W <= N, got m_W={m_w}, N={n}")
    if len({c.canonical for c in classes}) != len(classes):
        raise ValueError("duplicate classes in W")
    return m_w, c_w


def sigma_bounds(
    classes: Sequence[WordClass], n: int, mode: str = "exact"
) -> dict[WordClass, SigmaSet]:
    """Class-level sigma values: sigma1 scales by lam, the rest by lam^2."""
    m_w, _ = _check_class_set(classes, n)
    conv = _conv_for(mode)
    lengths = [c.word_length for c in classes]
    out = {}
    for c in classes:
        word_level = _sigma_word(c, lengths, m_w, n, mode)
        lam = conv(c.lam)
        out[c] = SigmaSet(
            lam * word_level.s1,
            lam * lam * word_level.s2,
            lam * lam * word_level.s3,
            lam * lam * word_level.s4,
        )
    return out


def sigma_word_bounds(
    classes: Sequence[WordClass], n: int, mode: str = "exact"
) -> dict[WordClass, SigmaSet]:
    """Unscaled per-representative sigma values (before the lam factors)."""
    m_w, _ = _check_class_set(classes, n)
    lengths = [c.word_length for c in classes]
    return {c: _sigma_word(c, lengths, m_w, n, mode) for c in classes}


def simplified_sigma_bounds(classes: Sequence[WordClass], n: int) -> SigmaSet:
    """Closed forms that dominate the word-level sums for every w in W."""
    m_w, c_w = _check_class_set(classes, n)
    card = len(classes)
    six_fifths = Fraction(6, 5)
    s1 = six_fifths * Fraction(1 + (3 * m_w) ** (m_w + 1), n)
    s2 = six_fifths * card * c_w * Fraction((6 * m_w) ** (3 * m_w + 3), n)
    s3 = six_fifths * card * c_w * Fraction((3 * m_w) ** (3 * m_w + 3), n)
    s4 = Fraction(36 * (card * m_w + (3 * m_w) ** m_w) ** 2, 25 * n)
    return SigmaSet(s1, s2, s3, s4)


def theorem_bound_value(card: int, m_w: int, n: int) -> Fraction:
    if card == 0:
        return Fraction(0)
    if m_w > n:
        raise ValueError(f"bound requires m_W <= N, got m_W={m_w}, N={n}")
    return Fraction(18 * card**3 * (6 * m_w) ** (3 * m_w + 4), n)


def main_bound(classes: Sequence[WordClass], n: int, mode: str = "exact"):
    """Closed-form distance bound 18 |W|^3 (6 m_W)^(3 m_W + 4) / N."""
    m_w, _ = _check_class_set(classes, n)
    conv = _conv_for(mode)
    if not classes:
        return conv(Fraction(0))
    if mode == "log":
        # avoid the astronomically large integer power
        return (
            LogNumber.from_int(18 * len(classes) ** 3)
            * LogNumber.from_int(6 * m_w) ** (3 * m_w + 4)
            / LogNumber.from_int(n)
        )
    return theorem_bound_value(len(classes), m_w, n)


def _refined(sigma: dict[WordClass, SigmaSet], mode: str):
    if not sigma:
        return _conv_for(mode)(Fraction(0))
    return _conv_for(mode)(3) * _sum_for(mode)([s.total for s in sigma.values()])


def refined_mtv_bound(classes: Sequence[WordClass], n: int, mode: str = "exact"):
    """3 times the sum of all class-level sigma values."""
    return _refined(sigma_bounds(classes, n, mode), mode)


def admissible_trace_for_n(n: int, tol) -> int | None:
    """Largest k <= MAX_TRACE with main_bound(W(k), N) <= tol, by the exact census.

    Returns None when even k = 3 overshoots.  The bound grows rapidly
    in k, so the search walks k upward and stops at the first failure;
    it also stops at MAX_TRACE, the largest trace the census covers, so
    a huge N yields MAX_TRACE rather than the true (larger) maximum.
    """
    if n < 2:
        raise ValueError(f"N must be >= 2, got {n}")
    tol = Fraction(tol)
    if not 0 < tol <= 1:
        raise ValueError(f"tolerance must be in (0, 1], got {tol}")
    best = None
    for k in range(3, MAX_TRACE + 1):
        census = enumerate_classes_by_trace(k)
        m_w = census.max_word_length
        if m_w != k - 1:
            raise RuntimeError(f"longest word of trace <= {k} has length {m_w}, not {k - 1}")
        if m_w > n or theorem_bound_value(census.count, m_w, n) > tol:
            break
        best = k
    return best


@dataclass(frozen=True)
class BoundReport:
    half_count: int
    classes: tuple[WordClass, ...]
    card: int
    m_w: int
    c_w: int
    sigma: dict[WordClass, SigmaSet]  # LogNumber values
    refined: LogNumber
    main: LogNumber
    exact_refined: Fraction | None
    exact_main: Fraction | None

    @property
    def refined_le_main(self) -> bool:
        return self.refined <= self.main

    @property
    def refined_clamped(self) -> float:
        return min(1.0, self.refined.to_float())

    @property
    def main_clamped(self) -> float:
        return min(1.0, self.main.to_float())


# exact shadows stay affordable in this corner of parameter space
_EXACT_N_LIMIT = 1000
_EXACT_LEN_LIMIT = 6


def bound_report(classes: Sequence[WordClass], n: int) -> BoundReport:
    m_w, c_w = _check_class_set(classes, n)
    sigma = sigma_bounds(classes, n, mode="log")
    refined = _refined(sigma, "log")
    main = main_bound(classes, n, mode="log")
    # the closed form is one integer power, always affordable exactly;
    # the refined sum is not, so its exact shadow is gated
    exact_main = main_bound(classes, n, mode="exact") if classes else None
    exact_refined = None
    if classes and n <= _EXACT_N_LIMIT and m_w <= _EXACT_LEN_LIMIT:
        exact_refined = refined_mtv_bound(classes, n, mode="exact")
    return BoundReport(
        half_count=n,
        classes=tuple(classes),
        card=len(classes),
        m_w=m_w,
        c_w=c_w,
        sigma=sigma,
        refined=refined,
        main=main,
        exact_refined=exact_refined,
        exact_main=exact_main,
    )

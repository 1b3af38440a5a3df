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

Everything in sight is a rational number.  The word-level sums depend
on a class only through |w|, so they are evaluated exactly once per
distinct word length in W: the p's factor out of the inner sums, the
(j, k) double sum collapses onto j + k, and each sigma is one integer
over a common denominator.  Log mode (LogNumber) is a view of these
exact values, not a second evaluation.  Bounds only hold under
m_W <= N, enforced as a hard error.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import accumulate
from math import comb, perm
from operator import mul
from typing import Callable, NamedTuple, Sequence

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
    return 3**k * perm(2 * n, k)


def _viewer(mode: str) -> Callable:
    if mode == "exact":
        return lambda v: v
    if mode == "log":
        return LogNumber
    raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


class SigmaSet(NamedTuple):
    s1: object
    s2: object
    s3: object
    s4: object

    @property
    def total(self):
        parts = (self.s1, self.s2, self.s3, self.s4)
        if isinstance(self.s1, LogNumber):
            return LogNumber(sum(x.value for x in parts))
        return sum(parts)

    def view(self, viewer: Callable) -> "SigmaSet":
        return SigmaSet(viewer(self.s1), viewer(self.s2), viewer(self.s3), viewer(self.s4))


def _word_sigmas(classes: Sequence[WordClass], n: int) -> dict[int, SigmaSet]:
    """Exact word-level sigma values for each distinct length in W.

    p_{k,N} = 1/P_k with P_k = (6N-1)(6N-3)...(6N-2k+1), and every sum
    index stays below 2 m_W <= 2N.  With D = P_{2 m_W - 1}, each
    q_k = D/P_k is an integer, so every sigma is one integer sum over a
    product of D's and P's.
    """
    m_w, _ = _check_class_set(classes, n)
    lengths = Counter(c.word_length for c in classes)
    a = [a_k_n(k, n) for k in range(2 * m_w)]
    big_p = list(accumulate((6 * n - 2 * j + 1 for j in range(1, 2 * m_w)), mul, initial=1))
    d = big_p[-1]
    q = [d // x for x in big_p]
    base = sum(count * a[mp] * q[mp] for mp, count in lengths.items())
    out = {}
    for m in lengths:
        # (coefficient, index) of 3^i (m-i)^m a_{m-i}, 1 <= i <= m-2
        corrections = [(3**i * (m - i) ** m * a[m - i], m - i) for i in range(1, m - 1)]
        s1 = a[m] * q[m] ** 2 + sum(coef * q[k] ** 2 for coef, k in corrections)
        extra = sum(coef * q[k] for coef, k in corrections)
        # b[r] = sum over i of C(2m, i) 3^i a_{r-i}, so sigma2's sums over
        # i and t = j + k are sum_t conv[t] b[m + m' - t]
        b = [
            sum(comb(2 * m, i) * 3**i * a[r - i] for i in range(1, min(2 * m, r) + 1))
            for r in range(2 * m_w + 1)
        ]
        s2 = s3 = 0
        for mp, count in lengths.items():
            # conv[t] = sum over j + k = t of 3^t (m-j)^m (m'-k)^m'; j = m or
            # k = m' gives a zero power, so t < m + m' - 1
            conv = [0] * (m + mp - 1)
            for j in range(m):
                for k in range(mp):
                    conv[j + k] += 3 ** (j + k) * (m - j) ** m * (mp - k) ** mp
            s2 += count * q[mp] * sum(c * b[m + mp - t] for t, c in enumerate(conv))
            for i in range(1, m + 1):
                i3 = sum(c * a[m + mp - i - t - 1] for t, c in enumerate(conv[: m + mp - i]))
                s3 += count * comb(m, i) * 3**i * q[m + mp - i] * i3
        out[m] = SigmaSet(
            Fraction(s1, d * d),
            Fraction(s2, d * big_p[m]),
            Fraction(s3, d),
            Fraction(m_w**2 * (base + extra) ** 2, n * d * d),
        )
    return out


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


def _class_sigmas(classes: Sequence[WordClass], n: int) -> dict[WordClass, SigmaSet]:
    """Class-level sigma values: sigma1 scales by lam, the rest by lam^2."""
    word = _word_sigmas(classes, n)
    out = {}
    for c in classes:
        w, lam = word[c.word_length], c.lam
        out[c] = SigmaSet(lam * w.s1, lam * lam * w.s2, lam * lam * w.s3, lam * lam * w.s4)
    return out


def sigma_word_bounds(
    classes: Sequence[WordClass], n: int, mode: str = "exact"
) -> dict[WordClass, SigmaSet]:
    """Unscaled per-representative sigma values (before the lam factors)."""
    viewer = _viewer(mode)
    word = _word_sigmas(classes, n)
    return {c: word[c.word_length].view(viewer) for c in classes}


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
    viewer = _viewer(mode)
    m_w, _ = _check_class_set(classes, n)
    return viewer(theorem_bound_value(len(classes), m_w, n))


def _refined(sigma: dict[WordClass, SigmaSet]) -> Fraction:
    return 3 * sum((s.total for s in sigma.values()), Fraction(0))


def refined_mtv_bound(classes: Sequence[WordClass], n: int, mode: str = "exact"):
    """3 times the sum of all class-level sigma values."""
    viewer = _viewer(mode)
    return viewer(_refined(_class_sigmas(classes, n)))


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


class BoundReport(NamedTuple):
    half_count: int
    classes: tuple[WordClass, ...]
    card: int
    m_w: int
    c_w: int
    sigma: dict[WordClass, SigmaSet]  # LogNumber views of the exact values
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


# reports carry the exact refined Fraction only in this corner of
# parameter space, where its digits stay short; the value is computed
# for every report, so the gate sets the format, not the cost
_EXACT_N_LIMIT = 1000
_EXACT_LEN_LIMIT = 6


def bound_report(classes: Sequence[WordClass], n: int) -> BoundReport:
    m_w, c_w = _check_class_set(classes, n)
    sigma = _class_sigmas(classes, n)
    refined = _refined(sigma)
    main = theorem_bound_value(len(classes), m_w, n)
    shown = classes and n <= _EXACT_N_LIMIT and m_w <= _EXACT_LEN_LIMIT
    return BoundReport(
        half_count=n,
        classes=tuple(classes),
        card=len(classes),
        m_w=m_w,
        c_w=c_w,
        sigma={c: s.view(LogNumber) for c, s in sigma.items()},
        refined=LogNumber(refined),
        main=LogNumber(main),
        exact_refined=refined if shown else None,
        exact_main=main if classes else None,
    )

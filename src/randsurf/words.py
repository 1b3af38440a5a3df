"""Words in the letters L and R and their conjugacy-like classes.

A word is a nonempty string over the alphabet {L, R}.  Words act as
2x2 integer matrices through

    L = [[1, 1], [0, 1]],   R = [[1, 0], [1, 1]],

and the quantities we care about (trace, translation length) only
depend on the class of a word under cyclic rotation together with
reverse-with-swap (read the word backwards and exchange L and R).
Single-letter words L^n and R^n have trace 2 and are the parabolic
classes; every mixed word has trace >= 3.

Class enumeration walks binary necklaces instead of all 2^m strings,
which is equivalent (every class contains at least one necklace
representative) and about a factor m cheaper.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator

ALPHABET = "LR"
_SWAP = str.maketrans("LR", "RL")

# enumeration guards, resource limits rather than mathematical ones
MAX_ENUM_LENGTH = 30
MIN_TRACE = 3
MAX_TRACE = 25


def check_word(word: str) -> None:
    if not word:
        raise ValueError("word must be nonempty")
    if any(ch not in ALPHABET for ch in word):
        raise ValueError(f"word must use letters L and R only, got {word!r}")


def check_classes(classes: Iterable[WordClass]) -> tuple[WordClass, ...]:
    """The class-set rule: W as a tuple; an empty W or a canonical word twice raises."""
    classes = tuple(classes)
    if not classes:
        raise ValueError("need at least one class")
    if len({c.canonical for c in classes}) != len(classes):
        raise ValueError("duplicate classes")
    return classes


def check_half_count(n: int) -> int:
    """The rule for N: N as an int; anything but an integer >= 1 raises."""
    n = operator.index(n)
    if n < 1:
        raise ValueError(f"N must be >= 1, got {n}")
    return n


@dataclass(frozen=True)
class WordMatrix:
    """Integer 2x2 matrix with unit determinant."""

    a: int
    b: int
    c: int
    d: int

    def __mul__(self, other: "WordMatrix") -> "WordMatrix":
        return WordMatrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    @property
    def trace(self) -> int:
        return self.a + self.d


IDENTITY = WordMatrix(1, 0, 0, 1)
MAT_L = WordMatrix(1, 1, 0, 1)
MAT_R = WordMatrix(1, 0, 1, 1)
_LETTER_MATRIX = {"L": MAT_L, "R": MAT_R}


def matrix_of_word(word: str) -> WordMatrix:
    """Product of the letter matrices, arbitrary precision."""
    check_word(word)
    out = IDENTITY
    for ch in word:
        out = out * _LETTER_MATRIX[ch]
    return out


def trace_of_word(word: str) -> int:
    return matrix_of_word(word).trace


def _length_from_trace(t: int) -> float:
    # traces can exceed float range for very long words, so fall back
    # to the log form 2*log(x + sqrt(x^2-1)) evaluated stably
    try:
        return 2.0 * math.acosh(t / 2.0)
    except OverflowError:
        ratio = float(Fraction(4, t * t))  # underflows to 0.0 harmlessly
        return 2.0 * (math.log(t) - math.log(2.0) + math.log1p(math.sqrt(1.0 - ratio)))


def reverse_swap(word: str) -> str:
    """Read the word backwards and exchange L with R."""
    return word[::-1].translate(_SWAP)


def mirror(word: str) -> str:
    """Exchange L with R without reversing."""
    return word.translate(_SWAP)


def rotations(word: str) -> Iterator[str]:
    for i in range(len(word)):
        yield word[i:] + word[:i]


def word_period(word: str) -> int:
    """Smallest p dividing len(word) with word equal to its p-rotation."""
    n = len(word)
    for p in range(1, n + 1):
        if n % p == 0 and word == word[p:] + word[:p]:
            return p
    return n


def is_primitive(word: str) -> bool:
    return word_period(word) == len(word)


@dataclass(frozen=True, order=True)
class WordClass:
    """A rotation/reverse-with-swap class, keyed by its canonical word.

    canonical    lexicographically smallest orbit member (L < R)
    class_size   number of distinct orbit members
    lam          class_size / (2 * word_length), the Poisson rate of
                 the class in the large-N limit

    Equality covers every field but lam, which the others determine, so
    a class built with a wrong size or trace is not the class of its
    word.  The hash is the canonical word's, which equal classes share;
    str caches it, so hashing a class does not rehash its fields.
    Sorting is by (word_length, canonical), which no two classes share.
    """

    word_length: int
    canonical: str
    class_size: int
    trace: int
    lam: Fraction = field(compare=False)

    def __hash__(self) -> int:
        return hash(self.canonical)

    @property
    def parabolic(self) -> bool:
        return self.trace == 2

    @property
    def primitive(self) -> bool:
        return is_primitive(self.canonical)

    @property
    def length(self) -> float:
        if self.parabolic:
            return 0.0
        return _length_from_trace(self.trace)

    def mirror_class(self) -> "WordClass":
        return canonicalize(mirror(self.canonical))


def orbit_of_word(word: str) -> frozenset:
    check_word(word)
    rev = reverse_swap(word)
    return frozenset(rotations(word)) | frozenset(rotations(rev))


@lru_cache(maxsize=1 << 18)
def canonicalize(word: str) -> WordClass:
    """Canonical representative and invariants of the class of word."""
    orbit = orbit_of_word(word)
    canonical = min(orbit)
    size = len(orbit)
    return WordClass(
        word_length=len(word),
        canonical=canonical,
        class_size=size,
        trace=trace_of_word(canonical),
        lam=Fraction(size, 2 * len(word)),
    )


def _binary_necklaces(n: int, max_trace: int | None = None) -> Iterator[str]:
    """Lex-least rotation representatives of binary strings of length n.

    With max_trace, only words of trace <= max_trace are listed.  The
    letter matrices have nonnegative entries and a unit diagonal, so
    appending a letter never lowers the trace, and a prefix past
    max_trace is not extended.
    """
    a = [0] * (n + 1)
    prefix = [IDENTITY] * (n + 1)  # prefix[t]: matrix of the letters a[1..t]
    letters = ALPHABET

    def gen(t: int, p: int) -> Iterator[str]:
        if t > n:
            if n % p == 0:
                yield "".join(letters[a[i]] for i in range(1, n + 1))
            return
        choices = [(a[t - p], p)]
        if a[t - p] == 0:
            choices.append((1, t))
        for bit, period in choices:
            if max_trace is not None:
                prefix[t] = prefix[t - 1] * _LETTER_MATRIX[letters[bit]]
                if prefix[t].trace > max_trace:
                    continue
            a[t] = bit
            yield from gen(t + 1, period)

    yield from gen(1, 1)


def _canonical_necklaces(m_max: int, max_trace: int | None = None) -> tuple[WordClass, ...]:
    """Classes of word length <= m_max (and trace <= max_trace), sorted."""
    out = []
    for m in range(1, m_max + 1):
        for neck in _binary_necklaces(m, max_trace):
            cls = canonicalize(neck)
            # each class holds one or two necklaces, keep the smaller
            if cls.canonical == neck:
                out.append(cls)
    return tuple(sorted(out))


# Both censuses are cached; a call that raises caches nothing.  The length
# census grows about as 2^m / m, so only the last few lengths are kept.
@lru_cache(maxsize=8)
def enumerate_classes_by_length(m_max: int) -> tuple[WordClass, ...]:
    """All classes with word length <= m_max, sorted by (length, canonical).

    Parabolic classes are included; use the trace census if only
    trace >= 3 classes are wanted.  The result is cached: a repeated
    call returns the same tuple.
    """
    if not 1 <= m_max <= MAX_ENUM_LENGTH:
        raise ValueError(f"m_max must be in 1..{MAX_ENUM_LENGTH}, got {m_max}")
    return _canonical_necklaces(m_max)


@dataclass(frozen=True)
class TraceCensus:
    """Classes with trace between 3 and max_trace inclusive."""

    max_trace: int
    classes: tuple[WordClass, ...]

    @property
    def count(self) -> int:
        return len(self.classes)

    @property
    def max_word_length(self) -> int:
        return max(c.word_length for c in self.classes)

    @property
    def canonical_words(self) -> tuple[str, ...]:
        return tuple(c.canonical for c in self.classes)


# one census per valid k, the largest (k = 25) of 59 classes
@lru_cache(maxsize=None)
def enumerate_classes_by_trace(k: int) -> TraceCensus:
    """Census of classes with 3 <= trace <= k.

    A mixed word of length m has trace at least m + 1, so it is enough
    to enumerate lengths up to k - 1, and necklace prefixes of trace
    above k are not extended.  Parabolic classes never qualify.  The
    result is cached: a repeated call returns the same frozen census.
    """
    if not MIN_TRACE <= k <= MAX_TRACE:
        raise ValueError(f"max trace must be in {MIN_TRACE}..{MAX_TRACE}, got {k}")
    classes = tuple(c for c in _canonical_necklaces(k - 1, k) if c.trace >= MIN_TRACE)
    return TraceCensus(max_trace=k, classes=classes)

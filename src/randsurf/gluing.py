"""Random gluings of 2N ideal triangles along their 6N sides.

Triangle i (1-based) owns the side labels 3i-2, 3i-1, 3i, in cyclic
order.  A gluing is a perfect matching of {1, ..., 6N}; there are
(6N-1)!! of them and the model picks one uniformly.

Orientation convention: a Left turn moves to the cyclic successor
inside a triangle (3i-2 -> 3i-1 -> 3i -> 3i-2) and a Right turn to
the predecessor.  Crossing to the matched partner of the exit side
gives the step map, which is a bijection on labels for each turn.

Labels are 1-based everywhere in this module; the partner array keeps
a dummy slot 0 mapped to itself.

Sample i of a seed pairs off consecutive entries of permutation(6N)
drawn from PCG64 seeded by SeedSequence(entropy=seed, spawn_key=(i,)).
No SeedSequence is built: the sampler runs numpy's SeedSequence hash
on whole blocks of 256 spawn keys and hands each sample its row of
state words, which yields the same streams bit for bit.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

TURNS = ("L", "R")


def _check_half_count(n: int) -> None:
    if n < 1:
        raise ValueError(f"N must be >= 1, got {n}")


def triangle_of(side: int) -> int:
    return (side + 2) // 3


def next_side(side: int, turn: str) -> int:
    """Neighbouring side label inside the same triangle."""
    if turn not in TURNS:
        raise ValueError(f"turn must be 'L' or 'R', got {turn!r}")
    base = (side - 1) // 3 * 3
    off = (side - 1) % 3
    if turn == "L":
        off = (off + 1) % 3
    else:
        off = (off + 2) % 3
    return base + off + 1


@lru_cache(maxsize=64)
def _next_arrays(n: int) -> tuple[np.ndarray, np.ndarray]:
    """next_side as label-indexed arrays (slot 0 is a dummy).

    Cached per N and shared by every caller, hence read-only.
    """
    sides = np.arange(6 * n, dtype=np.int64)
    base = sides // 3 * 3
    left = np.concatenate(([0], base + (sides + 1) % 3 + 1))
    right = np.concatenate(([0], base + (sides + 2) % 3 + 1))
    left.setflags(write=False)
    right.setflags(write=False)
    return left, right


@dataclass(frozen=True)
class Gluing:
    """A perfect matching of the 6N side labels.

    partner[s] is the label matched with s; partner is an involution
    without fixed points on 1..6N.
    """

    half_count: int
    partner: np.ndarray

    def __post_init__(self):
        n = self.half_count
        _check_half_count(n)
        p = self.partner
        if p.shape != (6 * n + 1,):
            raise ValueError(f"partner array must have length {6 * n + 1}")
        labels = np.arange(6 * n + 1)
        try:
            bad = p[0] != 0 or (p[1:] == labels[1:]).any() or (p[p] != labels).any()
        except IndexError:  # entries out of range or not integers
            bad = True
        if bad:
            raise ValueError("partner must be a fixed-point-free involution on labels")

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "Gluing":
        _check_half_count(n)
        partner = np.zeros(6 * n + 1, dtype=np.int64)
        for a, b in pairs:
            if not (1 <= a <= 6 * n and 1 <= b <= 6 * n):
                raise ValueError(f"labels out of range: ({a}, {b})")
            partner[a] = b
            partner[b] = a
        return cls(half_count=n, partner=partner)

    @classmethod
    def _trusted(cls, n: int, partner: np.ndarray) -> "Gluing":
        """A gluing whose partner array is valid by construction.

        For the sampler and the exhaustive enumeration, which build
        involutions themselves; it skips the checks of __post_init__.
        """
        g = object.__new__(cls)
        object.__setattr__(g, "half_count", n)
        object.__setattr__(g, "partner", partner)
        return g

    def pairs(self) -> tuple[tuple[int, int], ...]:
        out = []
        for s in range(1, 6 * self.half_count + 1):
            t = int(self.partner[s])
            if s < t:
                out.append((s, t))
        return tuple(out)


SEED_BLOCK = 256  # spawn keys seeded in one pass; a power of two <= 2^32

# numpy's SeedSequence: a pool of 4 uint32 words and its hash constants
_POOL = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _uint32_words(value: int) -> list[int]:
    """A nonnegative int as little-endian 32-bit words, as SeedSequence reads it."""
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _mix(x, y):
    r = ((x * _MIX_MULT_L & _MASK32) - (y * _MIX_MULT_R & _MASK32)) & _MASK32
    return r ^ r >> 16


@lru_cache(maxsize=4)
def _seed_block(seed: int, block: int) -> np.ndarray:
    """PCG64 state words of the spawn keys of one block, as (SEED_BLOCK, 4) uint64.

    Row r equals SeedSequence(entropy=seed, spawn_key=(i,))
    .generate_state(4, np.uint64) for i = block * SEED_BLOCK + r: the
    same hash, run once for the whole block.  Each hashed word is a
    Python int or a uint32 array with a value per row, and every
    product is masked to 32 bits, so ints and arrays wrap alike and no
    numpy scalar ever overflows.  The run entropy is padded with zeros
    to the pool size, as it is whenever a spawn key is given, so it
    fills the pool alone and mixes as ints; the varying low word of
    the spawn key makes the pool an array.  A block never straddles a
    multiple of 2^32, so its keys share a word count.

    Cached and shared, hence read-only.
    """
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * _MULT_A & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    run = _uint32_words(seed)
    run += [0] * (_POOL - len(run))
    low, *high = _uint32_words(block * SEED_BLOCK)
    spawn = [np.arange(low, low + SEED_BLOCK, dtype=np.uint32), *high]

    pool = [hashmix(word) for word in run[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in run[_POOL:] + spawn:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], hashmix(word))

    const = _INIT_B
    state = np.empty((SEED_BLOCK, 2 * _POOL), dtype="<u4")
    for i in range(2 * _POOL):
        value = pool[i % _POOL] ^ const
        const = const * _MULT_B & _MASK32
        value = value * const & _MASK32
        state[:, i] = value ^ value >> 16
    # word pairs read as little-endian uint64, as generate_state does
    words = state.view("<u8").astype(np.uint64)
    words.setflags(write=False)
    return words


@lru_cache(maxsize=None)
def _generator_from_state():
    """A function from 4 PCG64 state words to Generator(PCG64(...)).

    numpy.random is imported here, on the first sample, so that
    importing randsurf does not load it.  PCG64 seeds itself from
    generate_state(4, np.uint64) of the seed sequence it is given, so
    a stand-in that returns precomputed words gives the generator of
    the SeedSequence they came from.
    """
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class StateWords(ISeedSequence):
        __slots__ = ("words",)

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or dtype is not np.uint64:
                raise ValueError("only PCG64's 4 uint64 state words are held")
            return self.words

    return lambda words: Generator(PCG64(StateWords(words)))


def sample_uniform_gluing(n: int, seed: int, index: int) -> Gluing:
    """Uniform gluing from the stream determined by (seed, index).

    The sample is the permutation(6N) of Generator(PCG64(s)) with
    s = SeedSequence(entropy=seed, spawn_key=(index,)), paired off in
    consecutive sides.  The state words of s come from _seed_block,
    computed for SEED_BLOCK consecutive indices at once; the stream is
    the same bit for bit.  The sample depends only on the pair (seed,
    index): drawing sample index i is identical whether it happens in a
    serial loop or inside a worker, which is what makes parallel runs
    reproducible.
    """
    _check_half_count(n)
    # Python ints, so that the hash's products never meet a numpy scalar
    seed, index = operator.index(seed), operator.index(index)
    if seed < 0 or index < 0:
        raise ValueError("seed and index must be nonnegative integers")
    block, row = divmod(index, SEED_BLOCK)
    rng = _generator_from_state()(_seed_block(seed, block)[row])
    perm = rng.permutation(6 * n)
    partner = np.zeros(6 * n + 1, dtype=np.int64)
    left = perm[0::2] + 1
    right = perm[1::2] + 1
    partner[left] = right
    partner[right] = left
    return Gluing._trusted(n, partner)


def step(g: Gluing, side: int, turn: str) -> int:
    """Exit through the turn-side of the current triangle and cross over."""
    if not 1 <= side <= 6 * g.half_count:
        raise ValueError(f"side out of range: {side}")
    return int(g.partner[next_side(side, turn)])


def vertex_permutation(g: Gluing) -> np.ndarray:
    """Permutation whose orbits are the cusps: cross over, then turn Left."""
    left, _ = _next_arrays(g.half_count)
    return left[g.partner]


@dataclass(frozen=True)
class TopologyReport:
    connected: bool
    component_count: int
    cusp_count: int
    euler_characteristic: int
    total_genus: int
    cusp_degrees: tuple[int, ...]


def topology(g: Gluing) -> TopologyReport:
    """Cusps, Euler characteristic, connectivity and genus of the surface.

    Both passes are numpy array code, the same for every N.  Cusps are
    the orbits of ``vertex_permutation``: each label learns the minimum
    of its orbit by pointer doubling, and the labels that are their own
    minimum represent the cusps.  Components
    come from min-label propagation over the triangle adjacency, in the
    style of Shiloach-Vishkin: every round hooks each root to the
    smallest root next to its tree and shortcuts the forest to stars,
    until no root has a smaller neighbour.

    Gluings are kept even when the surface is disconnected; the genus
    is then the sum of the per-component genera, each obtained from the
    component Euler characteristic V - E + F = 2 - 2g.  A component
    with an odd triangle count, or with an Euler characteristic that is
    odd or above 2, raises ``RuntimeError``.
    """
    n = g.half_count

    # orbit minima of the vertex permutation; 2^rounds > 6N >= any orbit
    labels = np.arange(6 * n + 1)
    low, jump = labels, vertex_permutation(g)
    for _ in range((6 * n).bit_length()):
        low = np.minimum(low, low[jump])
        jump = jump[jump]
    cusp_reps = np.flatnonzero(low == labels)[1:]
    degrees = np.bincount(low)[cusp_reps]

    # root[t] <= t is the forest parent of triangle t; slot 0 is a dummy.
    # neighbours[i, t - 1] is the triangle across side i of triangle t,
    # laid out by side so that the minimum runs along contiguous rows.
    root = np.arange(2 * n + 1)
    neighbours = (g.partner[1:].reshape(2 * n, 3).T.copy() + 2) // 3
    while True:
        hook = root[neighbours].min(axis=0)
        if (hook >= root[1:]).all():  # every edge stays inside a star
            break
        np.minimum.at(root, root[1:], hook)
        while True:
            up = root[root]
            if (up == root).all():
                break
            root = up

    triangles_in = np.bincount(root[1:], minlength=2 * n + 1)
    cusps_in = np.bincount(root[(cusp_reps + 2) // 3], minlength=2 * n + 1)
    is_root = triangles_in > 0
    triangles_in, cusps_in = triangles_in[is_root], cusps_in[is_root]
    odd = triangles_in % 2 == 1
    if odd.any():
        tri = int(triangles_in[odd][0])
        raise RuntimeError(f"component with {tri} triangles has an odd side count")
    chi = cusps_in - triangles_in // 2  # V - 3T/2 + T
    bad = (chi > 2) | (chi % 2 == 1)
    if bad.any():
        raise RuntimeError(
            f"component Euler characteristic {int(chi[bad][0])} is not even and <= 2"
        )

    components = len(chi)
    cusp_count = len(cusp_reps)
    return TopologyReport(
        connected=components == 1,
        component_count=components,
        cusp_count=cusp_count,
        euler_characteristic=cusp_count - n,  # V - E + F = n - 3N + 2N
        total_genus=int((2 - chi).sum()) // 2,
        cusp_degrees=tuple(np.sort(degrees).tolist()),
    )

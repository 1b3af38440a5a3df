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
No SeedSequence is built per sample, and the streams are the same bit
for bit: the sampler takes the pool of one SeedSequence(seed), mixes
the spawn keys of a whole block of SEED_BLOCK = 256 indices into it in
uint32 array arithmetic, and builds the partner arrays of
block_rows(N) consecutive samples at once, with one Generator.shuffle
per sample and two scatters per block.  block_rows is the one rule for
a block's size: the Monte Carlo and the exact oracle feed the class
counter blocks of the same number of rows.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, NamedTuple

import numpy as np

from randsurf.words import check_half_count


@lru_cache(maxsize=64)
def _next_arrays(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The turn tables: left[s] and right[s] are the sides that a Left and
    a Right turn from side s exit through (slot 0 is a dummy).

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
    without fixed points on 1..6N.  Any integer sequence is stored as an
    int64 array, the dtype the counters compute in (numpy will not mix
    uint64 with int64); anything else raises ValueError.  half_count, and
    each label given to from_pairs, must be an integer, else TypeError.
    """

    half_count: int
    partner: np.ndarray

    def __post_init__(self):
        n = check_half_count(self.half_count)
        object.__setattr__(self, "half_count", n)
        p = np.asarray(self.partner)
        if p.dtype.kind not in "iu":
            raise ValueError("partner must be an integer array")
        p = p.astype(np.int64, copy=False)
        object.__setattr__(self, "partner", p)
        if p.shape != (6 * n + 1,):
            raise ValueError(f"partner array must have length {6 * n + 1}")
        labels = np.arange(6 * n + 1)
        try:
            bad = p[0] != 0 or (p[1:] == labels[1:]).any() or (p[p] != labels).any()
        except IndexError:  # entries out of range
            bad = True
        if bad:
            raise ValueError("partner must be a fixed-point-free involution on labels")

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "Gluing":
        n = check_half_count(n)
        partner = np.zeros(6 * n + 1, dtype=np.int64)
        for a, b in pairs:
            a, b = operator.index(a), operator.index(b)
            if not (1 <= a <= 6 * n and 1 <= b <= 6 * n):
                raise ValueError(f"labels out of range: ({a}, {b})")
            partner[a] = b
            partner[b] = a
        return cls(half_count=n, partner=partner)

    @classmethod
    def _trusted(cls, n: int, partner: np.ndarray) -> "Gluing":
        """A gluing whose partner array is valid by construction.

        For the sampler and enumerate_all_gluings, which build
        involutions themselves; it skips the checks of __post_init__
        and writes the fields straight into the instance dict, at half
        the cost of two object.__setattr__ calls.
        """
        g = object.__new__(cls)
        fields = g.__dict__
        fields["half_count"] = n
        fields["partner"] = partner
        return g

    # value semantics: the generated methods would compare and hash the array
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Gluing):
            return NotImplemented
        return self.half_count == other.half_count and np.array_equal(
            self.partner, other.partner
        )

    def __hash__(self) -> int:
        return hash(tuple(self.partner.tolist()))

    def pairs(self) -> tuple[tuple[int, int], ...]:
        out = []
        for s in range(1, 6 * self.half_count + 1):
            t = int(self.partner[s])
            if s < t:
                out.append((s, t))
        return tuple(out)


SIDE_BUDGET = 4096  # partner entries in one block: 64 rows at N = 10
SEED_BLOCK = 256  # spawn keys seeded in one pass; a power of two <= 2^32

# numpy's SeedSequence: a pool of 4 uint32 words and its hash constants
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _uint32_words(value: int) -> np.ndarray:
    """A nonnegative int as little-endian uint32 words, as SeedSequence reads it."""
    size = max(1, -(-value.bit_length() // 32))
    return np.frombuffer(value.to_bytes(4 * size, "little"), dtype="<u4")


def _hashmix(values: np.ndarray, init: int, mult: int, step: int) -> np.ndarray:
    """numpy's SeedSequence hashmix of the rows of values, one hash step each.

    Row i is hashed with the constant init * mult^(step + i), which then
    steps to init * mult^(step + i + 1); uint32 arrays wrap as the C
    hash does.
    """
    steps = np.arange(step, step + len(values) + 1, dtype=np.uint32)
    const = init * np.power(np.uint32(mult), steps)[:, None]
    out = (values ^ const[:-1]) * const[1:]
    return out ^ out >> 16


@lru_cache(maxsize=4)
def _seed_block(seed: int, block: int) -> np.ndarray:
    """PCG64 state words of the spawn keys of one block, as (SEED_BLOCK, 4) uint64.

    Row r is SeedSequence(seed, spawn_key=(k,)).generate_state(4,
    np.uint64) for k = block * SEED_BLOCK + r.  A spawn key only appends
    words to the seed's, padded with zero words to the pool size, and
    SeedSequence(seed) hashes the same zeros into its pool: that pool
    has already mixed the seed, after 4 * max(4, seed words) hash steps.
    The key's words are mixed into every pool word from there, and the
    8 state words drawn, for the whole block at once.  A block never
    straddles a multiple of 2^32, so its keys share their high words.
    Cached and shared, hence read-only.
    """
    from numpy.random import SeedSequence

    # one row per key word; only the low word varies along a block
    keys = np.repeat(_uint32_words(block * SEED_BLOCK)[:, None], SEED_BLOCK, axis=1)
    keys[0] += np.arange(SEED_BLOCK, dtype=np.uint32)
    step = _POOL * max(_POOL, len(_uint32_words(seed)))
    hashed = _hashmix(np.repeat(keys, _POOL, axis=0), _INIT_A, _MULT_A, step)
    pool = SeedSequence(seed).pool[:, None]
    for word in hashed.reshape(-1, _POOL, SEED_BLOCK):
        pool = pool * _MIX_MULT_L - word * _MIX_MULT_R
        pool ^= pool >> 16
    state = _hashmix(np.tile(pool, (2, 1)), _INIT_B, _MULT_B, 0)
    # word pairs read as little-endian uint64, as generate_state does
    words = state.T.astype("<u4", order="C").view("<u8").astype(np.uint64)
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


@lru_cache(maxsize=64)
def block_rows(n: int) -> int:
    """Rows R of a partner block at N, for the sampler and the class counter.

    R is the largest power of two <= SEED_BLOCK with R * (6N + 1) <=
    SIDE_BUDGET: 256 at N <= 2, 64 at N = 10, 4 at N = 100.  It divides
    SEED_BLOCK, so a partner block never straddles a seed block or a
    Monte Carlo chunk.  Below 4 rows (N > 170) R is 1, one sample per
    block: a block's dozen fixed numpy calls then cost more than the
    per-row calls it saves (shared 2-core Xeon: at N = 250, 48.6 us per
    sample in blocks of 2 against 45.7 us one row at a time; at N = 100,
    27.3 us in blocks of 4 against 28.6 us).
    """
    fit = min(SEED_BLOCK, SIDE_BUDGET // (6 * n + 1))
    return 1 << fit.bit_length() - 1 if fit >= 4 else 1


@lru_cache(maxsize=8)
def _pairing_arrays(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The labels 1..6N tiled R times, and the flat offset of each row.

    Cached per N and shared by every partner block, hence read-only.
    """
    rows, width = block_rows(n), 6 * n + 1
    labels = np.tile(np.arange(1, width, dtype=np.int64), (rows, 1))
    offsets = np.arange(0, rows * width, width, dtype=np.int64)[:, None]
    labels.setflags(write=False)
    offsets.setflags(write=False)
    return labels, offsets


@lru_cache(maxsize=1)
def _partner_block(n: int, seed: int, block: int) -> np.ndarray:
    """Partner arrays of samples block * R .. block * R + R - 1, as (R, 6N + 1) int64.

    One copy of the tiled labels and one shuffle per row with the row's
    own generator: a shuffle picks positions without looking at values,
    so shuffling the labels 1..6N gives permutation(6N) + 1 of that
    generator.  Two flat scatters then pair positions 2j and 2j + 1 of
    every row, from contiguous copies of the even and odd positions,
    which numpy indexes faster than strided views.  Cached and shared,
    hence read-only.  Only the block being read is kept: a Monte Carlo
    chunk reads its blocks in index order and never returns to one, and
    above N = 170 every sample is a block of its own.
    """
    labels, offsets = _pairing_arrays(n)
    rows = len(labels)
    first, start = divmod(block * rows, SEED_BLOCK)
    perm = labels.copy()
    generator = _generator_from_state()
    for row, state in zip(perm, _seed_block(seed, first)[start : start + rows]):
        generator(state).shuffle(row)
    partner = np.zeros((rows, 6 * n + 1), dtype=np.int64)
    flat = partner.ravel()
    even, odd = perm[:, 0::2].copy(), perm[:, 1::2].copy()
    flat[even + offsets] = odd
    flat[odd + offsets] = even
    partner.setflags(write=False)
    return partner


def _checked_key(n: int, seed: int, index: int) -> tuple[int, int, int]:
    """(N, seed, index) as ints, for a valid N and nonnegative seed and index."""
    n = check_half_count(n)
    seed, index = operator.index(seed), operator.index(index)
    if seed < 0 or index < 0:
        raise ValueError("seed and index must be nonnegative integers")
    return n, seed, index


def sample_uniform_gluing(n: int, seed: int, index: int) -> Gluing:
    """Uniform gluing from the stream determined by (seed, index).

    The sample is the permutation(6N) of Generator(PCG64(s)) with
    s = SeedSequence(entropy=seed, spawn_key=(index,)), paired off in
    consecutive sides.  The sample depends only on the pair (seed,
    index): drawing sample index i is identical whether it happens in a
    serial loop or inside a worker, which is what makes parallel runs
    reproducible.

    No SeedSequence is built per sample, and the stream is the same bit
    for bit.  The partner array is row index mod R of the cached
    (R, 6N + 1) block from _partner_block, with R = block_rows(N); its
    rows' state words come from _seed_block, which builds one
    SeedSequence(seed) and mixes the spawn keys of SEED_BLOCK indices
    into its pool at once.  Every row costs one Generator.shuffle.  The
    partner array is int64 and read-only.
    """
    n, seed, index = _checked_key(n, seed, index)
    block, row = divmod(index, block_rows(n))
    return Gluing._trusted(n, _partner_block(n, seed, block)[row])


def sampled_block(n: int, seed: int, index: int) -> np.ndarray:
    """The cached, read-only partner block that holds sample index.

    Its rows are the partner arrays of sample_uniform_gluing(n, seed, i)
    for the R = block_rows(N) indices i from index rounded down to a
    multiple of R.  For callers that sample those indices and count them
    as one block: the block comes from _partner_block's cache, so it is
    built once, by whichever call reaches it first.  The arguments are
    checked as sample_uniform_gluing checks them.
    """
    n, seed, index = _checked_key(n, seed, index)
    return _partner_block(n, seed, index // block_rows(n))


def vertex_permutation(g: Gluing) -> np.ndarray:
    """Permutation whose orbits are the cusps: cross over, then turn Left."""
    left, _ = _next_arrays(g.half_count)
    return left[g.partner]


class TopologyReport(NamedTuple):
    connected: bool
    component_count: int
    cusp_count: int
    euler_characteristic: int
    total_genus: int
    cusp_degrees: tuple[int, ...]


# Plain doubling rounds before topology contracts the runs: a window of 16
# labels.  At N = 100 and N = 1000 alike, 3 or 5 rounds cost more.
WINDOW_ROUNDS = 4


def topology(g: Gluing) -> TopologyReport:
    """Cusps, Euler characteristic, connectivity and genus of the surface.

    Both passes are numpy array code, the same for every N.

    Cusps are the orbits of ``vertex_permutation``, found by pointer
    doubling to the least label of each orbit in two stages.  First,
    WINDOW_ROUNDS plain rounds give each label the least of the first
    2^WINDOW_ROUNDS labels of its orbit, its window minimum; the first
    round reads the permutation itself, the others gather into two
    preallocated buffers.  An orbit no longer than the window is then
    settled: each of its labels holds the orbit minimum.  Along a longer
    orbit the labels sharing a window minimum form one run, about
    2 * 6N / 17 runs in all, and each run is contracted to one node:
    the node is named by that minimum, and its successor is the window
    minimum of the label just past the run's last label.  Settled
    orbits have no run end, so they take no part.  The doubling then
    runs on the nodes alone, and the least node of each cycle of nodes
    is mapped back to the labels of its runs.  At N = 1000 that is 4
    rounds over the 6N + 1 labels and about 10 over some 700 nodes,
    instead of 13 rounds over all the labels.

    A cusp's degree is the size of its orbit: one bincount of the orbit
    minima gives it at the cusp's least label.

    Components come from hook-and-shortcut rounds over the triangle
    adjacency, in the style of Shiloach-Vishkin: every round shortcuts
    the forest to stars, then hooks each root to the smallest root next
    to its tree, until no root has a smaller neighbour.  The forest
    starts from the cusps rather than from singletons: the smallest
    label of a cusp lies in the smallest triangle at that cusp, and
    each triangle's parent is the smallest such triangle over its three
    corners.  That parent is at most the triangle itself and shares a
    cusp with it, so it lies in the same component; on a sampled
    gluing the hooks then find little left to merge.  One bincount of
    the forest roots gives each component's triangle count; the checks
    and the genus run on Python ints, by ascending root.

    Gluings are kept even when the surface is disconnected; the genus
    is then the sum of the per-component genera, each obtained from the
    component Euler characteristic V - E + F = 2 - 2g.  A component
    with an odd triangle count, or with an Euler characteristic that is
    odd or above 2, raises ``RuntimeError``.
    """
    n = g.half_count

    # low[s] is the minimum of the first 2^r labels of the orbit of s after
    # round r.  take with mode="clip" writes straight into its out buffer,
    # which never overlaps its inputs.
    labels = np.arange(6 * n + 1)
    turn = vertex_permutation(g)
    low, jump = np.minimum(labels, turn), turn[turn]
    spare = np.empty_like(jump)
    for r in range(2, WINDOW_ROUNDS + 1):
        np.take(low, jump, out=spare, mode="clip")
        np.minimum(low, spare, out=low)
        if r < WINDOW_ROUNDS:
            np.take(jump, jump, out=spare, mode="clip")
            jump, spare = spare, jump
    # A run ends where the next label's window minimum differs.  node maps
    # each run's minimum to its node index, and later to its orbit minimum;
    # every other label maps to itself.  node reuses the jump buffer, the
    # orbit minima land in spare, and dead arrays go before new ones come,
    # so no more label-sized arrays are live at once than in the plain
    # rounds.  malloc may trim the heap top after each call, and then every
    # array above that peak is paged in again on the next call: at N = 1000
    # that cost about 60 page faults a call in the benchmark's pool workers.
    after = np.take(low, turn, out=spare, mode="clip")
    del turn
    ends = np.flatnonzero(after != low)
    heads = low[ends]
    node = jump
    np.copyto(node, labels)
    node[heads] = np.arange(len(ends))
    succ = node[after[ends]]
    least = heads
    # after round r, least holds the minimum of 2^r nodes along the cycle,
    # and no cycle is longer than len(ends)
    for _ in range(len(ends).bit_length()):
        least = np.minimum(least, least[succ])
        succ = succ[succ]
    node[heads] = least
    low = np.take(node, low, out=spare, mode="clip")
    # a cusp's degree sits at its least label; label 0 is an orbit of its own
    degree = np.bincount(low)
    cusp_reps = np.flatnonzero(degree[1:]) + 1
    degrees = degree[cusp_reps]
    del labels, node, degree

    # root[t] <= t is the forest parent of triangle t; slot 0 is a dummy.
    # Row i of corners holds corner i of every triangle, so the smallest
    # cusp label at each triangle is an elementwise minimum of three rows,
    # about ten times faster than a reduction along the short axis.
    corners = low[1:].reshape(2 * n, 3).T
    smallest = np.minimum(np.minimum(corners[0], corners[1]), corners[2])
    root = np.concatenate(([0], (smallest + 2) // 3))
    # neighbours[i, t - 1] is the triangle across side i of triangle t,
    # laid out by side so that the minimum runs along contiguous rows.
    neighbours = g.partner[1:].reshape(2 * n, 3).T.copy()
    neighbours += 2
    neighbours //= 3
    while True:
        while True:
            up = root[root]
            if (up == root).all():
                break
            root = up
        hook = root[neighbours].min(axis=0)
        if (hook >= root[1:]).all():  # every edge stays inside a star
            break
        np.minimum.at(root, root[1:], hook)

    # every component has a cusp, so the roots of the cusps are all the roots
    cusps_in = Counter(root[(cusp_reps + 2) // 3].tolist())
    roots = sorted(cusps_in)
    twice_genus = 0
    for r, tri in zip(roots, np.bincount(root[1:])[roots].tolist()):
        if tri % 2:
            raise RuntimeError(f"component with {tri} triangles has an odd side count")
        chi = cusps_in[r] - tri // 2  # V - 3T/2 + T
        if chi > 2 or chi % 2:
            raise RuntimeError(
                f"component Euler characteristic {chi} is not even and <= 2"
            )
        twice_genus += 2 - chi

    return TopologyReport(
        connected=len(roots) == 1,
        component_count=len(roots),
        cusp_count=len(cusp_reps),
        euler_characteristic=len(cusp_reps) - n,  # V - E + F = n - 3N + 2N
        total_genus=twice_genus // 2,
        cusp_degrees=tuple(sorted(degrees.tolist())),
    )

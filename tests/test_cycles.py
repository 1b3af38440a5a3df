import math
import threading
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randsurf import cycles
from randsurf.cycles import (
    MAX_CYCLE_LENGTH,
    brute_force_counts,
    count_cycles,
    count_vector,
)
from randsurf.exact import enumerate_all_gluings
from randsurf.gluing import Gluing, block_rows, sample_uniform_gluing, sampled_block, topology
from randsurf.words import (
    canonicalize,
    enumerate_classes_by_length,
    enumerate_classes_by_trace,
    word_period,
)


def count_of(report, word: str) -> int:
    return report.counts.get(canonicalize(word), 0)


def test_length_guard(torus_gluing):
    with pytest.raises(ValueError):
        count_cycles(torus_gluing, 0)
    with pytest.raises(ValueError):
        count_cycles(torus_gluing, MAX_CYCLE_LENGTH + 1)


def test_torus_counts(torus_gluing):
    report = count_cycles(torus_gluing, 4)
    assert count_of(report, "LR") == 3
    assert count_of(report, "LLRR") == 3
    assert count_of(report, "LRLR") == 3
    assert count_of(report, "L") == 0
    assert count_of(report, "LLR") == 0
    assert report.shortest_geodesic_length == pytest.approx(2 * math.acosh(1.5))


def test_sphere_counts(sphere_gluing):
    report = count_cycles(sphere_gluing, 4)
    assert count_of(report, "L") == 2
    assert count_of(report, "LL") == 2
    assert count_of(report, "LLL") == 2
    assert count_of(report, "LLLL") == 3
    assert count_of(report, "LLRR") == 1
    assert count_of(report, "LR") == 0
    assert count_of(report, "LLR") == 0


def test_sphere_systole_estimate(sphere_gluing):
    # up to length 3 the sphere gluing only carries parabolic classes
    assert count_cycles(sphere_gluing, 3).shortest_geodesic_length is None
    report = count_cycles(sphere_gluing, 4)
    assert report.shortest_geodesic_length == pytest.approx(
        canonicalize("LLRR").length
    )


def test_count_cycles_equals_brute_force_on_goldens(torus_gluing, sphere_gluing):
    for g in (torus_gluing, sphere_gluing):
        assert count_cycles(g, 5).counts == brute_force_counts(g, 5)


def test_count_cycles_equals_brute_force_fuzz():
    rng = np.random.default_rng(5)
    for _ in range(30):
        n = int(rng.integers(1, 7))
        g = sample_uniform_gluing(n, seed=int(rng.integers(1 << 30)), index=0)
        assert count_cycles(g, 5).counts == brute_force_counts(g, 5)


def test_count_cycles_equals_brute_force_on_every_n1_gluing():
    for g in enumerate_all_gluings(1):
        assert count_cycles(g, 8).counts == brute_force_counts(g, 8)


def test_fixed_point_route_matches_brute_force():
    rng = np.random.default_rng(7)
    primitive = [c for c in enumerate_classes_by_length(5) if c.primitive]
    for _ in range(25):
        n = int(rng.integers(1, 11))
        g = sample_uniform_gluing(n, seed=int(rng.integers(1 << 30)), index=0)
        ref = brute_force_counts(g, 5)
        counts = count_vector(g, primitive)
        for cls in primitive:
            assert counts[cls] == ref.get(cls, 0), (n, cls)


def _gluing_from_permutation(n: int, perm: list[int]) -> Gluing:
    return Gluing.from_pairs(n, zip(perm[0::2], perm[1::2]))


small_gluings = st.integers(1, 4).flatmap(
    lambda n: st.permutations(range(1, 6 * n + 1)).map(
        lambda perm: _gluing_from_permutation(n, perm)
    )
)
CLASSES_UP_TO_7 = enumerate_classes_by_length(7)  # LL, LRLR, LLRLLR, ... included


@settings(max_examples=40, deadline=None)
@given(small_gluings)
def test_count_vector_equals_brute_force_on_random_gluings(g):
    ref = brute_force_counts(g, 7)
    counts = count_vector(g, CLASSES_UP_TO_7)
    for cls in CLASSES_UP_TO_7:
        assert counts[cls] == ref.get(cls, 0), (g.pairs(), cls.canonical)


def test_burnside_terms_weigh_every_rotation_once():
    # the weights phi(k/d) count the rotations r with gcd(r, k) = d,
    # and only rotations by multiples of the period q can fix anything
    for cls in enumerate_classes_by_length(10):
        terms = cycles._burnside_terms(cls.canonical)
        k, q = cls.word_length, word_period(cls.canonical)
        assert sum(weight for _, weight in terms) == k // q
        assert terms[-1] == (cls.canonical, 1)
        assert (len(terms) == 1) == cls.primitive


def test_indivisible_burnside_sum_raises(torus_gluing):
    # a class whose size does not match its word: the torus has 6 fixed
    # points along LR, and 1 * 6 is not divisible by 2 * 2
    wrong = replace(canonicalize("LR"), class_size=1)
    with pytest.raises(ArithmeticError, match="not divisible by 4"):
        count_vector(torus_gluing, [wrong])


def test_a_class_with_a_wrong_size_or_trace_gets_its_own_counter(torus_gluing):
    lr = canonicalize("LR")
    assert count_vector(torus_gluing, [lr]) == {lr: 3}  # caches the counter of [LR]
    for wrong in (replace(lr, class_size=1), replace(lr, trace=2)):
        assert wrong != lr
        assert len({wrong, lr}) == 2
        assert cycles.block_counter(1, (wrong,)) is not cycles.block_counter(1, (lr,))
    with pytest.raises(ArithmeticError, match="not divisible by 4"):
        count_vector(torus_gluing, [replace(lr, class_size=1)])


def test_sixteen_step_cycles_on_the_torus_peak_and_hold_under_4_mb(torus_gluing):
    # the counter keeps the 4687 nonzero Burnside terms of the 4589 classes
    # of length <= 16, not a dense table of prefixes by classes, and a
    # one-row call allocates work arrays for one row only
    enumerate_classes_by_length(16)  # the classes are not the counter's memory
    cycles.block_counter.cache_clear()
    tracemalloc.start()
    try:
        report = count_cycles(torus_gluing, 16)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        cycles.block_counter.cache_clear()
    assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MB"
    assert held < 4 * 2**20, f"held {held / 2**20:.1f} MB"
    short = {c: k for c, k in report.counts.items() if c.word_length <= 10}
    assert short == brute_force_counts(torus_gluing, 10)


class _CountedReads(np.ndarray):
    """A partner block that counts the reads made from it and its views."""

    reads = 0

    def __getitem__(self, key):
        _CountedReads.reads += 1
        return super().__getitem__(key)

    def take(self, *args, **kwargs):
        _CountedReads.reads += 1
        return super().take(*args, **kwargs)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        _CountedReads.reads += 1
        inputs = [x.view(np.ndarray) if isinstance(x, _CountedReads) else x for x in inputs]
        return getattr(ufunc, method)(*inputs, **kwargs)


def test_step_arrays_are_built_once_per_gluing():
    classes = enumerate_classes_by_trace(7).classes
    assert canonicalize("LRLR") in classes  # two Burnside terms
    gluings = [sample_uniform_gluing(10, seed=4, index=i) for i in range(3)]
    want = [list(count_vector(g, classes).values()) for g in gluings]
    block = np.stack([g.partner for g in gluings]).view(_CountedReads)
    _CountedReads.reads = 0
    assert cycles.block_counter(10, classes)(block).tolist() == want
    # the block is read once, into the slots both step arrays gather
    # from, whatever the classes
    assert _CountedReads.reads == 1


def test_no_classes_count_to_empty_rows(torus_gluing):
    # count_vector takes W through words.check_classes, which refuses an
    # empty W; the counter itself still counts no classes to empty rows
    with pytest.raises(ValueError, match="need at least one class"):
        count_vector(torus_gluing, [])
    block = np.stack([torus_gluing.partner] * 3)
    assert cycles.block_counter(1, ())(block).shape == (3, 0)


def test_count_vector_handles_non_primitive_classes(torus_gluing):
    classes = [canonicalize(w) for w in ("LL", "LR", "LRLR")]
    vec = count_vector(torus_gluing, classes)
    assert [vec[c] for c in classes] == [0, 3, 3]


def test_count_vector_preserves_order_and_fills_zeros():
    g = sample_uniform_gluing(4, seed=17, index=0)
    classes = [canonicalize(w) for w in ("LLLR", "LR", "LLR")]
    vec = count_vector(g, classes)
    full = count_cycles(g, 4).counts
    assert list(vec) == classes
    for c in classes:
        assert vec[c] == full.get(c, 0)


def test_count_vector_refuses_a_repeated_class(torus_gluing):
    # the counts are keyed by class, so a repeat would silently drop an entry
    lr, llr = canonicalize("LR"), canonicalize("LLR")
    with pytest.raises(ValueError, match="duplicate classes"):
        count_vector(torus_gluing, [lr, llr, lr])


def test_count_vector_builds_one_counter_per_class_tuple():
    cycles.block_counter.cache_clear()
    classes = [canonicalize(w) for w in ("LR", "LLR", "LRLR")]
    gluings = [sample_uniform_gluing(5, seed=23, index=i) for i in range(4)]
    got = [count_vector(g, classes) for g in gluings]
    info = cycles.block_counter.cache_info()
    assert (info.misses, info.hits) == (1, 3)
    for g, vec in zip(gluings, got):
        counts = brute_force_counts(g, 4)
        assert vec == {c: counts.get(c, 0) for c in classes}
    count_vector(gluings[0], classes[:2])
    assert cycles.block_counter.cache_info().misses == 2


@pytest.mark.parametrize("n", [1, 10, 1000])
def test_blocks_outside_one_to_block_rows_rows_raise(n):
    classes = (canonicalize("LR"), canonicalize("LLR"))
    count = cycles.block_counter(n, classes)
    rows = block_rows(n)
    g = sample_uniform_gluing(n, seed=5, index=0)
    want = list(count_vector(g, classes).values())
    assert count(np.stack([g.partner] * rows)).tolist() == [want] * rows
    for bad in (0, rows + 1):
        with pytest.raises(ValueError, match=f"has 1..{rows} rows, got {bad}"):
            count(np.zeros((bad, 6 * n + 1), dtype=np.int64))


@pytest.mark.parametrize("n", [10, 1000])
def test_one_counter_counts_blocks_from_two_threads_at_once(n):
    # block_rows gives 64-row blocks at N = 10 and 1-row blocks at N = 1000
    classes = enumerate_classes_by_trace(7).classes
    count = cycles.block_counter(n, classes)
    rows = block_rows(n)
    blocks = [sampled_block(n, 31, first) for first in (0, rows)]
    want = [count(block).tolist() for block in blocks]
    calls = 200 if rows == 1 else 50
    start = threading.Barrier(2)
    got = [[], []]

    def run(t):
        start.wait()
        for _ in range(calls):
            got[t].append(count(blocks[t]).tolist())

    threads = [threading.Thread(target=run, args=(t,)) for t in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for t in range(2):
        assert want[t] != want[1 - t]  # distinct blocks
        assert got[t] == [want[t]] * calls


@pytest.mark.parametrize("n", [2, 10])
def test_interleaved_full_and_one_row_blocks_match_fresh_counters(n):
    classes = enumerate_classes_by_trace(7).classes
    count = cycles.block_counter(n, classes)
    rows = block_rows(n)
    full = sampled_block(n, 8, 0)
    for block in (full, full[3:4], full, full[:1], full[rows - 1 :], full):
        fresh = cycles.block_counter.__wrapped__(n, classes)
        assert count(block).tolist() == fresh(block).tolist()


def _blocks(gluings, n):
    """The gluings' partner arrays, stacked in blocks of block_rows(n) rows."""
    rows = block_rows(n)
    for first in range(0, len(gluings), rows):
        yield np.stack([g.partner for g in gluings[first : first + rows]])


def _every_small_and_sampled(sampled):
    """(N, gluings): every gluing at N <= 2, then (N, count) gluings sampled at seed 5."""
    yield from ((n, list(enumerate_all_gluings(n))) for n in (1, 2))
    for n, count in sampled:
        yield n, [sample_uniform_gluing(n, 5, i) for i in range(count)]


def test_parabolic_counts_are_sums_of_short_cusp_counts():
    # a cusp of degree d is a closed walk of d Left turns, so with phi
    # weights Z_[L^j] is the number of cusps whose degree divides j
    parabolic = tuple(canonicalize("L" * j) for j in range(1, 17))
    for n, gluings in _every_small_and_sampled([(10, 100), (100, 100), (1000, 30)]):
        count = cycles.block_counter(n, parabolic)
        got = np.concatenate([count(block) for block in _blocks(gluings, n)]).tolist()
        for g, row in zip(gluings, got):
            c = Counter(topology(g).cusp_degrees)
            want = [sum(c[d] for d in range(1, j + 1) if j % d == 0) for j in range(1, 17)]
            assert row == want, (n, g.pairs())


def _nonbacktracking_traces(block: np.ndarray, kmax: int) -> list[list[int]]:
    """tr(B^d) for d = 0..kmax of each row of a partner block, as Python ints.

    B is the non-backtracking matrix of the dual cubic multigraph: 2N
    triangles, 3N glued pairs.  Ihara-Bass gives tr(B^d) = tr P_d(A) +
    2N [d even] from the 2N x 2N adjacency A, with P_0 = 2I, P_1 = A and
    P_d = A P_(d-1) - 2 P_(d-2).  A M is three row gathers, one per side,
    over the triangle across it.  The spectrum of A lies in [-3, 3], so the
    entries of P_d(A) stay below 2^d + 1 and int64 is exact; each diagonal
    is summed as Python ints.  The columns go 250 at a time, so that at
    N = 1000 a matrix takes 4 MB rather than 32 MB.
    """
    rows, tri = len(block), (block.shape[1] - 1) // 3
    across = ((block[:, 1:] + 2) // 3 - 1).reshape(rows, tri, 3)
    row = np.arange(rows)[:, None]
    traces = [[0] * (kmax + 1) for _ in range(rows)]
    for first in range(0, tri, 250):
        cols = np.arange(first, min(first + 250, tri))
        diagonal = (slice(None), cols, np.arange(len(cols)))
        eye = np.zeros((rows, tri, len(cols)), dtype=np.int64)
        eye[diagonal] = 1

        def times_a(m):
            return sum(m[row, across[:, :, side]] for side in range(3))

        older = old = None  # P_(d-2) and P_(d-1)
        for d in range(kmax + 1):
            new = 2 * eye if d == 0 else times_a(eye) if d == 1 else times_a(old) - 2 * older
            older, old = old, new
            for total, diag in zip(traces, new[diagonal].tolist()):
                total[d] += sum(diag)
    for total in traces:
        for d in range(0, kmax + 1, 2):
            total[d] += tri
    return traces


def test_length_sums_of_the_counter_equal_the_ihara_bass_traces():
    # Burnside over all words of length k: the counts of the classes of
    # length k add up to (1/2k) sum over d | k of phi(k/d) tr(B^d)
    def phi(q):
        return sum(1 for r in range(1, q + 1) if math.gcd(r, q) == 1)

    for n, gluings in _every_small_and_sampled([(10, 20), (100, 20), (1000, 1)]):
        kmax = 4 if n <= 2 else 10 if n <= 100 else 12
        classes = enumerate_classes_by_length(kmax)
        lengths = np.array([c.word_length for c in classes])
        count = cycles.block_counter(n, classes)
        for block in _blocks(gluings, n):
            counts = count(block)
            got = [counts[:, lengths == k].sum(axis=1).tolist() for k in range(1, kmax + 1)]
            for r, t in enumerate(_nonbacktracking_traces(block, kmax)):
                for k in range(1, kmax + 1):
                    walks = sum(phi(k // d) * t[d] for d in range(1, k + 1) if k % d == 0)
                    assert walks % (2 * k) == 0, (n, k)
                    assert got[k - 1][r] == walks // (2 * k), (n, k, r)


def _walk_fixed_points(g: Gluing, word: str) -> int:
    """Fix(word): the sides to which the walk along word comes back.

    The turns are those of gluing's docstring: a Left turn goes
    3i-2 -> 3i-1 -> 3i -> 3i-2 inside triangle i and a Right turn goes
    the other way.  The walk does not read the gluing's turn tables.
    """
    left, right = {}, {}
    for i in range(1, 2 * g.half_count + 1):
        cycle = (3 * i - 2, 3 * i - 1, 3 * i)
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            left[a], right[b] = b, a
    turns = {"L": left, "R": right}
    partner = g.partner.tolist()
    fixed = 0
    for start in range(1, 6 * g.half_count + 1):
        side = start
        for turn in word:
            side = partner[turns[turn][side]]
        fixed += side == start
    return fixed


def test_counts_of_chiral_classes_follow_the_documented_handedness():
    # swapping Left and Right turns Z_[w] into Z_[mirror w], which only a
    # class unequal to its mirror can notice; every chiral class of length
    # <= 8 is primitive, so Z_[w] = |[w]| Fix(w) / (2|w|) with one walk of w
    chiral = [c for c in enumerate_classes_by_length(8) if c.mirror_class() != c]
    assert len(chiral) == 12 and all(c.primitive for c in chiral)
    for n in (3, 10):
        for i in range(30):
            g = sample_uniform_gluing(n, 5, i)
            expected = {
                c: c.class_size * _walk_fixed_points(g, c.canonical) // (2 * c.word_length)
                for c in chiral
            }
            assert count_vector(g, chiral) == expected, (n, i)

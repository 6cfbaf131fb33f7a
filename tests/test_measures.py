import itertools
import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import erf

from mfchaos import measures
from mfchaos.measures import (EmpiricalMeasure, pinsker_check, tv_estimate, w1,
                              w1_sorted, w1_sorted_rows)


def w1_bruteforce(x, y):
    """Optimal-assignment cost over all pairings; the independent oracle."""
    n = len(x)
    best = np.inf
    for perm in itertools.permutations(range(n)):
        best = min(best, float(np.abs(x[list(perm)] - y).mean()))
    return best


class TestStackedMeasure:
    @pytest.mark.parametrize("K", [1, 2, 20, 40])
    def test_row_means_match_single_measures_bitwise(self, K):
        # the engine steps stacks on this: a row's mean never depends on its neighbours
        gen = np.random.default_rng(K)
        for n in (1, 2, 7, 127, 128, 129, 1000, 4096, 65537):
            rows = gen.normal(1.0, 0.5, size=(K, n))
            stack = EmpiricalMeasure(np.sort(rows, axis=1), presorted=True, stacked=True)
            single = [EmpiricalMeasure(row) for row in rows]
            assert stack.mean.shape == (K, 1)
            assert stack.mean.tobytes() == np.array([[m.mean] for m in single]).tobytes()

    def test_sorts_each_row_and_checks_shape(self):
        mu = EmpiricalMeasure([[3.0, 1.0], [0.0, -2.0]], stacked=True)
        assert np.array_equal(mu.samples, [[1.0, 3.0], [-2.0, 0.0]])
        assert mu.n == 2
        with pytest.raises(ValueError):
            EmpiricalMeasure([1.0, 2.0], stacked=True)


class TestW1:
    def test_identity(self):
        mu = EmpiricalMeasure([0.3, -1.2, 5.0])
        assert w1(mu, mu) == 0.0

    def test_single_atoms(self):
        assert w1(EmpiricalMeasure([0.0]), EmpiricalMeasure([1.0])) == 1.0

    def test_three_point_example(self):
        x = np.array([0.0, 1.0, 4.0])
        y = np.array([1.0, 2.0, 3.0])
        assert w1_bruteforce(x, y) == pytest.approx(1.0)
        assert w1(EmpiricalMeasure(x), EmpiricalMeasure(y)) == pytest.approx(1.0)

    def test_matches_bruteforce_small(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            n = int(rng.integers(1, 7))
            x = rng.normal(size=n)
            y = rng.normal(size=n)
            assert w1(EmpiricalMeasure(x), EmpiricalMeasure(y)) == pytest.approx(
                w1_bruteforce(x, y), abs=1e-12)

    def test_unequal_sizes_against_quantile_oracle(self):
        # oracle: integrate |F_mu^-1 - F_nu^-1| on the lcm refinement
        rng = np.random.default_rng(5)
        for _ in range(200):
            n, m = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            x, y = np.sort(rng.normal(size=n)), np.sort(rng.normal(size=m))
            common = n * m
            qx = np.repeat(x, common // n)
            qy = np.repeat(y, common // m)
            oracle = np.abs(qx - qy).mean()
            assert w1_sorted(x, y) == pytest.approx(oracle, abs=1e-12)

    def test_metric_properties(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            n = int(rng.integers(1, 17))
            a = EmpiricalMeasure(rng.normal(size=n))
            b = EmpiricalMeasure(rng.normal(size=n))
            c = EmpiricalMeasure(rng.normal(size=n))
            assert w1(a, b) == pytest.approx(w1(b, a), abs=1e-14)
            assert w1(a, b) <= w1(a, c) + w1(c, b) + 1e-12
            assert w1(a, a) == 0.0
        # identity of indiscernibles as multisets
        a = EmpiricalMeasure([2.0, 1.0, 1.0])
        b = EmpiricalMeasure([1.0, 2.0, 1.0])
        assert w1(a, b) == 0.0

    def test_rowwise_matches_scalar(self):
        rng = np.random.default_rng(9)
        xs = np.sort(rng.normal(size=(5, 8)), axis=1)
        ys = np.sort(rng.normal(size=(5, 32)), axis=1)
        rows = w1_sorted_rows(xs, ys)
        for k in range(5):
            assert rows[k] == pytest.approx(w1_sorted(xs[k], ys[k]), abs=1e-14)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            EmpiricalMeasure([])


def w1_rows_repeat(xs, ys):
    """The expanded nested-count formula the blocked kernel must reproduce bit for bit."""
    n, m = xs.shape[1], ys.shape[1]
    if m % n == 0:
        return np.abs(np.repeat(xs, m // n, axis=1) - ys).mean(axis=1)
    return np.abs(np.repeat(ys, n // m, axis=1) - xs).mean(axis=1)


def w1_quantile_oracle(x, y):
    """Integral of |F_x^-1 - F_y^-1| on the lcm refinement, summed exactly."""
    common = math.lcm(len(x), len(y))
    qx = np.repeat(x, common // len(x))
    qy = np.repeat(y, common // len(y))
    return math.fsum(np.abs(qx - qy)) / common


def w1_exact(x, y):
    """(W1 as an exact rational, number of segments): the quantile functions are
    constant between the breakpoints {i/n} and {j/m}, integer steps on the grid of 1/L."""
    n, m = len(x), len(y)
    L = math.lcm(n, m)
    cuts = sorted(set(range(0, L, L // n)) | set(range(0, L, L // m))) + [L]
    total = sum((d - c) * abs(Fraction(x[c * n // L]) - Fraction(y[c * m // L]))
                for c, d in zip(cuts, cuts[1:]))
    return total / L, len(cuts) - 1


def assert_within_derived_bound(got, x, y):
    # two roundings per term, at most ceil(log2 S) + 17 in numpy's pairwise sum, one division
    exact, segments = w1_exact(x, y)
    k = math.ceil(math.log2(segments)) + 20
    assert abs(Fraction(got) - exact) <= ((1 + Fraction(1, 2 ** 53)) ** k - 1) * exact


@st.composite
def sorted_rows(draw, rows, n):
    """A (rows, n) stack of sorted samples: continuous values, or ties from {-2, ..., 2}."""
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        vals = gen.uniform(-10.0, 10.0, size=(rows, n))
    else:
        vals = gen.integers(-2, 3, size=(rows, n)).astype(float)
    return np.sort(vals, axis=1)


class TestW1Kernel:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), rows=st.integers(1, 6), n=st.integers(1, 24),
           r=st.integers(1, 24), block_bytes=st.sampled_from([8, 200, 1 << 20]))
    def test_nested_matches_expanded_formula_bitwise(self, data, rows, n, r, block_bytes):
        xs = data.draw(sorted_rows(rows, n))
        ys = data.draw(sorted_rows(rows, n * r))
        want = w1_rows_repeat(xs, ys).tobytes()
        with mock.patch.object(measures, "_W1_BLOCK_BYTES", block_bytes):
            assert w1_sorted_rows(xs, ys).tobytes() == want
            assert w1_sorted_rows(ys, xs).tobytes() == want

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), rows=st.integers(1, 4), n=st.integers(1, 30), m=st.integers(1, 30))
    def test_rows_match_scalar_bitwise(self, data, rows, n, m):
        xs = data.draw(sorted_rows(rows, n))
        ys = data.draw(sorted_rows(rows, m))
        per_row = np.array([w1_sorted(xs[k], ys[k]) for k in range(rows)])
        assert w1_sorted_rows(xs, ys).tobytes() == per_row.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n=st.integers(1, 40), m=st.integers(1, 40))
    def test_any_counts_match_quantile_oracle(self, data, n, m):
        x = data.draw(sorted_rows(1, n))[0]
        y = data.draw(sorted_rows(1, m))[0]
        assert abs(w1_sorted(x, y) - w1_quantile_oracle(x, y)) <= 1e-12

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), rows=st.integers(1, 3), n=st.integers(2, 300), m=st.integers(2, 300),
           offset=st.sampled_from([0.0, 1e6]))
    def test_non_nested_counts_within_derived_bound_of_exact_oracle(self, data, rows, n, m,
                                                                    offset):
        assume(n % m and m % n)
        xs = data.draw(sorted_rows(rows, n)) + offset
        ys = data.draw(sorted_rows(rows, m)) + offset
        got = w1_sorted_rows(xs, ys)
        assert got.tobytes() == w1_sorted_rows(ys, xs).tobytes()
        for k in range(rows):
            assert_within_derived_bound(got[k], xs[k], ys[k])

    @pytest.mark.parametrize("n,m", [(4095, 4096), (1000, 32768), (40, 768)])
    @pytest.mark.parametrize("offset", [0.0, 1e6])
    def test_large_lcm_within_derived_bound_of_exact_oracle(self, n, m, offset):
        # lcm(4095, 4096) = 16,773,120: the bound depends on the n + m segments only
        gen = np.random.default_rng(n + m)
        xs = np.sort(gen.normal(size=(2, n)), axis=1) + offset
        y = np.sort(gen.normal(size=m)) + offset
        got = w1_sorted_rows(xs, np.broadcast_to(y, (2, m)))
        for k in range(2):
            assert_within_derived_bound(got[k], xs[k], y)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(1, 40), m=st.integers(1, 40))
    def test_symmetric_and_zero_on_self(self, data, n, m):
        a = EmpiricalMeasure(data.draw(sorted_rows(1, n))[0])
        b = EmpiricalMeasure(data.draw(sorted_rows(1, m))[0])
        assert w1(a, b) == w1(b, a)
        assert w1(a, a) == 0.0

    def test_reference_sized_rows_stay_small_and_exact(self):
        # the chaos-rate sweep's shape: 101 grid times, N=64 against M=32768;
        # the expanded formula needs over 50 MiB of temporaries here
        rng = np.random.default_rng(41)
        xs = np.sort(rng.normal(size=(101, 64)), axis=1)
        ys = np.sort(rng.normal(size=(101, 32768)), axis=1)
        tracemalloc.start()
        try:
            got = w1_sorted_rows(xs, ys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20
        assert got.tobytes() == w1_rows_repeat(xs, ys).tobytes()

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), rows=st.integers(1, 6), n=st.integers(1, 24),
           m=st.integers(1, 24), nested=st.booleans())
    def test_broadcast_row_matches_materialised_bitwise(self, data, rows, n, m, nested):
        # one reference row against every row of a stack, as a sweep scores a step
        m = n * m if nested else m
        xs = data.draw(sorted_rows(rows, n))
        y = data.draw(sorted_rows(1, m))[0]
        want = w1_sorted_rows(xs, np.tile(y, (rows, 1))).tobytes()
        assert w1_sorted_rows(xs, np.broadcast_to(y, (rows, m))).tobytes() == want
        assert w1_sorted_rows(np.broadcast_to(y, (rows, m)), xs).tobytes() == want

    def test_broadcast_reference_row_stays_small(self):
        # one sweep step: 2 x 20 rows of N=64 (nesting) or N=1000 (not) against one
        # M=32768 reference row
        rng = np.random.default_rng(43)
        xs = np.sort(rng.normal(size=(40, 64)), axis=1)
        y = np.sort(rng.normal(size=32768))
        for xs in (xs, np.sort(rng.normal(size=(40, 1000)), axis=1)):
            measures._segments.cache_clear()   # the segment plan counts too
            tracemalloc.start()
            try:
                got = w1_sorted_rows(xs, np.broadcast_to(y, (40, 32768)))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4 * 2 ** 20
            assert got.tobytes() == w1_sorted_rows(xs, np.tile(y, (40, 1))).tobytes()

    def test_shape_errors(self):
        with pytest.raises(ValueError):
            w1_sorted_rows(np.zeros((2, 3)), np.zeros((3, 3)))
        with pytest.raises(ValueError):
            w1_sorted_rows(np.zeros(3), np.zeros((1, 3)))
        with pytest.raises(ValueError):
            w1_sorted_rows(np.zeros((1, 0)), np.zeros((1, 3)))


def lipschitz_test_function(knots, start_value, slopes):
    """Piecewise-linear f with slopes clipped to [-1, 1], constant outside the knots."""
    knots = np.asarray(knots, dtype=float)
    steps = np.clip(slopes, -1.0, 1.0) * np.diff(knots)
    values = np.concatenate([[start_value], start_value + np.cumsum(steps)])
    return lambda x: np.interp(x, knots, values)


def dual_gap(mu, nu, f):
    """|mu(f) - nu(f)|: a lower bound on W1 for every 1-Lipschitz f (Kantorovich duality)."""
    return abs(f(mu.samples).mean() - f(nu.samples).mean())


class TestDualLowerBound:
    def test_identity_map_attains_single_atoms(self):
        f = lipschitz_test_function([-1.0, 2.0], -1.0, [1.0])
        mu, nu = EmpiricalMeasure([0.0]), EmpiricalMeasure([1.0])
        assert dual_gap(mu, nu, f) == pytest.approx(w1(mu, nu))

    def test_identical_measures_zero(self):
        f = lipschitz_test_function([-1.0, 1.0], 0.0, [0.7])
        mu = EmpiricalMeasure([0.0, 0.5, 2.0])
        assert dual_gap(mu, mu, f) == 0.0 == w1(mu, mu)

    def test_fuzz_never_exceeds_w1(self):
        rng = np.random.default_rng(17)
        trials = 100_000
        for _ in range(trials // 100):
            # one family per batch of measures keeps the harness fast without
            # thinning the number of (family, measure-pair) trials
            fam = [lipschitz_test_function(np.sort(rng.uniform(-4, 4, size=5)),
                                           rng.normal(),
                                           rng.uniform(-1.5, 1.5, size=4))
                   for _ in range(3)]
            for _ in range(100 // 3 + 1):
                mu = EmpiricalMeasure(rng.normal(size=10))
                nu = EmpiricalMeasure(rng.normal(size=10))
                bound = max(dual_gap(mu, nu, f) for f in fam)
                assert bound <= w1(mu, nu) + 1e-12


class TestCouplingBound:
    """W1 never exceeds the mean gap of a pairing: the identity pairing is a coupling."""

    def test_permutation_gives_zero_w1(self):
        x = np.array([0.0, 1.0, 2.0, 3.0])
        assert w1(EmpiricalMeasure(x), EmpiricalMeasure(x[::-1])) == 0.0

    def test_translation(self):
        x = np.linspace(-1, 1, 8)
        assert w1(EmpiricalMeasure(x), EmpiricalMeasure(x + 0.7)) == pytest.approx(0.7)
        assert np.abs(x - (x + 0.7)).mean() == pytest.approx(0.7)

    def test_fuzz_inequality(self):
        # 1e5 Gaussian pairs at N=64, vectorized form of the same inequality
        rng = np.random.default_rng(23)
        x = rng.normal(size=(100_000, 64))
        y = rng.normal(size=(100_000, 64))
        w1s = np.abs(np.sort(x, axis=1) - np.sort(y, axis=1)).mean(axis=1)
        pairs = np.abs(x - y).mean(axis=1)
        assert np.all(w1s <= pairs + 1e-12)
        # and the library routine itself on a sample of them
        for k in range(0, 100_000, 997):
            assert w1_sorted(np.sort(x[k]), np.sort(y[k])) == pytest.approx(w1s[k], abs=1e-12)


class TestTvEstimate:
    def test_identical_samples_zero(self):
        rng = np.random.default_rng(1)
        s = rng.normal(size=500)
        assert tv_estimate(EmpiricalMeasure(s), EmpiricalMeasure(s), 0.1) == 0.0

    def test_disjoint_supports_one(self):
        a = EmpiricalMeasure(np.linspace(0, 1, 50))
        b = EmpiricalMeasure(np.linspace(100, 101, 50))
        assert tv_estimate(a, b, 0.5) == pytest.approx(1.0)

    def test_gaussian_shift_against_closed_form(self):
        # TV(N(0,1), N(1,1)) = erf(1/(2 sqrt 2)); plug-in estimate at N=1e5
        rng = np.random.default_rng(99)
        a = EmpiricalMeasure(rng.normal(size=100_000))
        b = EmpiricalMeasure(rng.normal(size=100_000) + 1.0)
        oracle = float(erf(1.0 / (2.0 * np.sqrt(2.0))))
        assert oracle == pytest.approx(0.38292, abs=1e-4)
        assert tv_estimate(a, b, 0.05) == pytest.approx(oracle, abs=0.02)

    def test_bad_bin_width_rejected(self):
        a = EmpiricalMeasure([0.0, 1.0])
        with pytest.raises(ValueError):
            tv_estimate(a, a, -1.0)


class TestPinsker:
    def test_equal_distributions(self):
        assert pinsker_check([0.5, 0.5], [0.5, 0.5]) == (0.0, 0.0, True)

    def test_binary_example_exact(self):
        # var = |0.5-0.9| + |0.5-0.1| = 0.8
        # ent = 0.9 log 1.8 + 0.1 log 0.2
        var, ent, holds = pinsker_check([0.5, 0.5], [0.9, 0.1])
        assert var == pytest.approx(0.8)
        assert ent == pytest.approx(0.9 * np.log(1.8) + 0.1 * np.log(0.2))
        assert ent == pytest.approx(0.3681, abs=1e-4)
        assert holds and 0.64 <= 2 * ent

    def test_support_escape_is_vacuous(self):
        var, ent, holds = pinsker_check([1.0, 0.0], [0.5, 0.5])
        assert ent == np.inf
        assert holds

    def test_fuzz_random_distributions(self):
        rng = np.random.default_rng(31)
        for _ in range(2000):
            k = int(rng.integers(2, 9))
            p = rng.random(k) + 1e-3
            q = rng.random(k) + 1e-3
            var, ent, holds = pinsker_check(p / p.sum(), q / q.sum())
            assert holds
            assert var * var <= 2.0 * ent + 1e-12

    def test_invalid_vectors_rejected(self):
        with pytest.raises(ValueError):
            pinsker_check([0.5, 0.6], [0.5, 0.5])

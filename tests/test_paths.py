import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfchaos.engine import ParticleEnsemble
from mfchaos.paths import DelayMeasure, Segment, l1m_norm, uniform_norm


def ramp_segment(lo, hi, points, r=1.0):
    return Segment(r, r / (points - 1), np.linspace(lo, hi, points))


class TestUniformNorm:
    def test_constant_segment(self):
        seg = Segment(1.0, 0.25, np.full(5, 2.0))
        assert uniform_norm(seg) == 2.0

    def test_sign_symmetry(self):
        seg = Segment(1.0, 0.5, [-3.0, 1.0, 0.0])
        assert uniform_norm(seg) == 3.0

    def test_linear_ramp_enumerated(self):
        # oracle: enumerate the grid values and take the max by hand
        vals = np.linspace(-1.0, 0.5, 11)
        expected = max(abs(v) for v in vals)
        assert uniform_norm(ramp_segment(-1.0, 0.5, 11)) == expected == 1.0


class TestL1mNorm:
    def test_dirac_picks_one_point(self):
        seg = Segment(1.0, 0.25, [4.0, 0.0, 0.0, 0.0, 0.0])
        assert l1m_norm(seg, DelayMeasure.dirac(-1.0)) == pytest.approx(4.0)

    def test_two_atom_average(self):
        seg = Segment(1.0, 0.25, [-2.0, 0.0, 0.0, 0.0, 6.0])
        m = DelayMeasure([-1.0, 0.0], [0.5, 0.5])
        assert l1m_norm(seg, m) == pytest.approx(4.0)

    def test_uniform_atoms_on_ramp(self):
        # oracle: interpolated values at the five atoms summed by hand
        seg = ramp_segment(0.0, 1.0, 5)
        m = DelayMeasure.uniform(1.0, 5)
        expected = np.mean([seg.interpolate(s) for s in np.linspace(-1.0, 0.0, 5)])
        assert expected == pytest.approx(0.5)
        assert l1m_norm(seg, m) == pytest.approx(0.5)

    def test_atom_outside_window_rejected(self):
        seg = Segment(0.5, 0.25, [1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            l1m_norm(seg, DelayMeasure.dirac(-1.0))


class TestAdvance:
    def test_shift_semantics(self):
        seg = Segment(1.0, 0.5, [1.0, 2.0, 3.0])
        assert np.array_equal(seg.advance(4.0).values, [2.0, 3.0, 4.0])

    def test_constant_fixed_point(self):
        seg = Segment(1.0, 0.5, np.full(3, 7.0))
        assert np.array_equal(seg.advance(7.0).values, seg.values)

    def test_replay_reproduces_path(self):
        rng = np.random.default_rng(0)
        vals = rng.normal(size=9)
        seg = Segment(1.0, 0.125, np.zeros(9))
        for v in vals:
            seg = seg.advance(v)
        assert np.allclose(seg.values, vals)

    def test_length_preserving(self):
        seg = Segment(1.0, 0.2, np.zeros(6))
        assert len(seg.advance(1.0)) == len(seg)

    def test_rejects_nonfinite(self):
        seg = Segment(1.0, 0.5, [0.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            seg.advance(np.inf)


class TestInterpolate:
    def test_exact_at_grid_points(self):
        vals = np.array([0.3, -1.2, 0.7])
        seg = Segment(1.0, 0.5, vals)
        for j, s in enumerate([-1.0, -0.5, 0.0]):
            assert seg.interpolate(s) == vals[j]

    def test_midpoint_linearity(self):
        seg = Segment(1.0, 1.0, [0.0, 1.0])
        assert seg.interpolate(-0.5) == pytest.approx(0.5)

    def test_quarter_point_on_ramp(self):
        # closed form: ramp 0..1 over [-r, 0], query at s = -0.25 r
        seg = ramp_segment(0.0, 1.0, 9)
        assert seg.interpolate(-0.25) == pytest.approx(0.75)

    def test_out_of_window_rejected(self):
        seg = Segment(1.0, 0.5, [0.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            seg.interpolate(-1.5)
        with pytest.raises(ValueError):
            seg.interpolate(0.5)


class TestConstruction:
    def test_incommensurate_grid_rejected(self):
        with pytest.raises(ValueError):
            Segment(1.0, 0.3, [0.0, 0.0, 0.0, 0.0])

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            Segment(1.0, 0.5, [0.0, 0.0])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            Segment(1.0, 0.5, [0.0, np.nan, 0.0])


class TestDelayMeasure:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            DelayMeasure([-1.0, 0.0], [0.5, 0.6])

    def test_locations_sorted_on_construction(self):
        m = DelayMeasure([0.0, -1.0], [0.25, 0.75])
        assert np.array_equal(m.locations, [-1.0, 0.0])
        assert np.array_equal(m.weights, [0.75, 0.25])

    def test_positive_locations_rejected(self):
        with pytest.raises(ValueError):
            DelayMeasure([0.5], [1.0])

    def test_snapping_merges_coincident_atoms(self):
        m = DelayMeasure([-0.1001, -0.0999], [0.5, 0.5])
        snapped, worst = m.snapped(0.1)
        assert len(snapped.locations) == 1
        assert snapped.weights[0] == pytest.approx(1.0)
        assert worst <= 0.01 + 1e-12


class TestInvariants:
    def test_l1m_bounded_by_uniform_gap(self):
        # |l1m(xi) - l1m(eta)| <= sup|xi - eta| since m is a probability measure
        rng = np.random.default_rng(42)
        for _ in range(300):
            n = int(rng.integers(2, 12))
            r = 1.0
            xi = Segment(r, r / (n - 1), rng.normal(size=n))
            eta = Segment(r, r / (n - 1), rng.normal(size=n))
            k = int(rng.integers(1, 6))
            locs = np.sort(rng.uniform(-r, 0.0, size=k))
            w = rng.random(k) + 0.1
            m = DelayMeasure(locs, w / w.sum())
            gap = abs(l1m_norm(xi, m) - l1m_norm(eta, m))
            assert gap <= uniform_norm(xi - eta) + 1e-12

    def test_l1m_bounded_by_uniform(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            n = int(rng.integers(2, 12))
            xi = Segment(1.0, 1.0 / (n - 1), rng.normal(size=n))
            m = DelayMeasure.uniform(1.0, int(rng.integers(1, 9)))
            assert l1m_norm(xi, m) <= uniform_norm(xi) + 1e-12


class TestProperties:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), width=st.integers(1, 10), n=st.integers(1, 4),
           h=st.sampled_from([0.02, 0.1, 0.25]), advances=st.integers(0, 25))
    def test_batch_value_at_matches_segment_interpolate(self, data, width, n, h, advances):
        # the ensemble's ring buffers and per-particle Segments, advanced
        # side by side, interpolate to the same bits at any lag
        r = (width - 1) * h
        gen = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        init = gen.normal(size=(n, width))
        ens = ParticleEnsemble(r, h, init)
        segs = [Segment(r, h, row) for row in init]
        for _ in range(advances):
            new = gen.normal(size=n)
            ens.advance(new)
            segs = [seg.advance(v) for seg, v in zip(segs, new)]
        grid = [j * h - r for j in range(width)]
        lags = grid + data.draw(st.lists(st.floats(-r, 0.0), max_size=5))
        batch = ens.batch()
        for s in lags:
            got = batch.value_at(s)
            assert got.tobytes() == np.array([seg.interpolate(s) for seg in segs]).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), h=st.sampled_from([0.01, 0.02, 0.1, 0.3]), atoms=st.integers(1, 12))
    def test_snapped_conserves_mass(self, data, h, atoms):
        locs = np.array(data.draw(st.lists(st.floats(-2.0, 0.0), min_size=atoms,
                                           max_size=atoms)))
        raw = np.array(data.draw(st.lists(st.floats(0.01, 1.0), min_size=atoms,
                                          max_size=atoms)))
        m = DelayMeasure(locs, raw / raw.sum())
        snapped, worst = m.snapped(h)
        assert math.fsum(snapped.weights) == pytest.approx(math.fsum(m.weights), abs=1e-14)
        assert worst <= h / 2 + 1e-12
        # each snapped atom carries exactly the mass of the atoms rounded onto it
        target = np.minimum(np.round(m.locations / h) * h, 0.0)
        for loc, w in zip(snapped.locations, snapped.weights):
            assert w == pytest.approx(math.fsum(m.weights[target == loc]), abs=1e-15)
        assert len(snapped.locations) == len(np.unique(target))

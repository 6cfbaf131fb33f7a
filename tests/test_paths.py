from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfchaos.engine import BlowUpError, ParticleEnsemble, step_interacting
from mfchaos.model import make_linear_model
from mfchaos.paths import DelayMeasure, SegmentBatch, l1m_norm


def one_particle(values, r=1.0):
    """The segment of one particle holding `values` on [-r, 0], oldest first."""
    values = np.asarray(values, dtype=float)
    return SegmentBatch(values[None], 0, r, r / (len(values) - 1) if len(values) > 1 else 1.0)


def ramp_segment(lo, hi, points, r=1.0):
    return one_particle(np.linspace(lo, hi, points), r)


class TestL1mNorm:
    def test_dirac_picks_one_point(self):
        seg = one_particle([4.0, 0.0, 0.0, 0.0, 0.0])
        assert l1m_norm(seg, DelayMeasure.dirac(-1.0)).tolist() == [4.0]

    def test_two_atom_average(self):
        seg = one_particle([-2.0, 0.0, 0.0, 0.0, 6.0])
        m = DelayMeasure([-1.0, 0.0], [0.5, 0.5])
        assert l1m_norm(seg, m) == pytest.approx([4.0])

    def test_uniform_atoms_on_ramp(self):
        # oracle: the ramp's values at the five atoms, averaged by hand
        seg = ramp_segment(0.0, 1.0, 5)
        m = DelayMeasure.uniform(1.0, 5)
        expected = np.mean(np.interp(m.locations, np.linspace(-1.0, 0.0, 5),
                                     np.linspace(0.0, 1.0, 5)))
        assert expected == pytest.approx(0.5)
        assert l1m_norm(seg, m) == pytest.approx([0.5])

    def test_one_point_window(self):
        # r = 0: the window is the current value, as for the non-delay models
        seg = SegmentBatch(np.array([[-3.0]]), 0, 0.0, 1.0)
        assert l1m_norm(seg, DelayMeasure.dirac(0.0)).tolist() == [3.0]

    def test_atom_outside_window_rejected(self):
        seg = one_particle([1.0, 1.0, 1.0], r=0.5)
        with pytest.raises(ValueError):
            l1m_norm(seg, DelayMeasure.dirac(-1.0))

    @pytest.mark.parametrize("atoms", [1, 2, 5, 16])
    def test_stack_gives_each_particles_own_bits(self, atoms):
        # a (K, N, width) batch, read from a ring that has wrapped, against
        # each particle's one-particle segment of the same window
        rng = np.random.default_rng(atoms)
        r, h = 0.7, 0.1
        ens = ParticleEnsemble(r, h, rng.normal(size=(3, 50, 8)), stacked=True)
        for _ in range(11):
            ens.advance(rng.normal(size=(3, 50)))
        locs = rng.uniform(-r, 0.0, size=atoms)
        w = rng.random(atoms) + 0.1
        m = DelayMeasure(locs, w / w.sum())
        batch = ens.batch()
        got = l1m_norm(batch, m)
        assert got.shape == (3, 50)
        window = np.roll(ens.buf, -ens.head, axis=-1)   # oldest column first
        for k in range(3):
            for i in range(50):
                alone = SegmentBatch(window[k, i][None].copy(), 0, r, h)
                assert got[k, i].tobytes() == l1m_norm(alone, m)[0].tobytes()


class TestAdvance:
    # the engine's ring buffer, read back through SegmentBatch
    def test_shift_semantics(self):
        ens = ParticleEnsemble(1.0, 0.5, np.array([[1.0, 2.0, 3.0]]))
        ens.advance(np.array([4.0]))
        batch = ens.batch()
        assert [batch.value_at(s)[0] for s in (-1.0, -0.5, 0.0)] == [2.0, 3.0, 4.0]

    def test_constant_fixed_point(self):
        ens = ParticleEnsemble(1.0, 0.5, np.array([[7.0, 7.0, 7.0]]))
        ens.advance(np.array([7.0]))
        batch = ens.batch()
        assert [batch.value_at(s)[0] for s in (-1.0, -0.5, 0.0)] == [7.0, 7.0, 7.0]

    def test_replay_reproduces_path(self):
        rng = np.random.default_rng(0)
        vals = rng.normal(size=9)
        ens = ParticleEnsemble(1.0, 0.125, np.zeros(1))
        for v in vals:
            ens.advance(np.array([v]))
        batch = ens.batch()
        assert [batch.value_at(j * 0.125 - 1.0)[0] for j in range(9)] == vals.tolist()
        assert batch.current.tolist() == [vals[-1]]

    def test_length_preserving(self):
        ens = ParticleEnsemble(1.0, 0.2, np.zeros((2, 6)))
        ens.advance(np.ones(2))
        assert (ens.batch().width, len(ens.batch())) == (6, 2)

    def test_rejects_nonfinite(self):
        # a step whose update overflows raises before the window advances
        cubic = replace(make_linear_model(), drift=lambda t, x, mu: x ** 3)
        ens = ParticleEnsemble(1.0, 0.5, np.full((1, 3), 1e200))
        with np.errstate(over="ignore"), pytest.raises(BlowUpError):
            step_interacting(ens, cubic, 0.0, 0.5, seed=0)
        assert ens.step_index == 0
        assert ens.buf.tolist() == [[1e200, 1e200, 1e200]]


class TestInterpolate:
    def test_exact_at_grid_points(self):
        vals = np.array([0.3, -1.2, 0.7])
        seg = one_particle(vals)
        for j, s in enumerate([-1.0, -0.5, 0.0]):
            assert seg.value_at(s)[0] == vals[j]

    def test_midpoint_linearity(self):
        seg = one_particle([0.0, 1.0])
        assert seg.value_at(-0.5)[0] == pytest.approx(0.5)

    def test_quarter_point_on_ramp(self):
        # closed form: ramp 0..1 over [-r, 0], query at s = -0.25 r
        seg = ramp_segment(0.0, 1.0, 9)
        assert seg.value_at(-0.25)[0] == pytest.approx(0.75)


class TestConstruction:
    # a window is built by the engine's ensemble, which checks its grid
    def test_incommensurate_grid_rejected(self):
        with pytest.raises(ValueError):
            ParticleEnsemble(1.0, 0.3, np.zeros((1, 4)))

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            ParticleEnsemble(1.0, 0.5, np.zeros((1, 2)))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            ParticleEnsemble(1.0, 0.5, np.array([[0.0, np.nan, 0.0]]))


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


class TestInvariants:
    def test_l1m_bounded_by_uniform_gap(self):
        # |l1m(xi) - l1m(eta)| <= sup|xi - eta| since m is a probability measure
        rng = np.random.default_rng(42)
        for _ in range(300):
            n = int(rng.integers(2, 12))
            xi, eta = rng.normal(size=n), rng.normal(size=n)
            k = int(rng.integers(1, 6))
            locs = np.sort(rng.uniform(-1.0, 0.0, size=k))
            w = rng.random(k) + 0.1
            m = DelayMeasure(locs, w / w.sum())
            gap = abs(l1m_norm(one_particle(xi), m)[0] - l1m_norm(one_particle(eta), m)[0])
            assert gap <= np.abs(xi - eta).max() + 1e-12

    def test_l1m_bounded_by_uniform(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            n = int(rng.integers(2, 12))
            xi = rng.normal(size=n)
            m = DelayMeasure.uniform(1.0, int(rng.integers(1, 9)))
            assert l1m_norm(one_particle(xi), m)[0] <= np.abs(xi).max() + 1e-12


class TestProperties:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), width=st.integers(1, 10), n=st.integers(1, 4),
           h=st.sampled_from([0.02, 0.1, 0.25, 0.125, 2.0 ** -6]), advances=st.integers(0, 25))
    def test_ring_buffer_matches_sliding_windows(self, data, width, n, h, advances):
        # the ensemble's ring buffers against per-particle windows that drop
        # their oldest value on each advance: np.interp's value at any lag up
        # to rounding, and on a dyadic grid, where a grid lag's position is
        # exact, the window's own value there
        r = (width - 1) * h
        gen = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        init = gen.normal(size=(n, width))
        ens = ParticleEnsemble(r, h, init)
        windows = list(init)
        for _ in range(advances):
            new = gen.normal(size=n)
            ens.advance(new)
            windows = [np.append(w[1:], v) for w, v in zip(windows, new)]
        batch = ens.batch()
        grid = [j * h - r for j in range(width)]
        if np.log2(h).is_integer():
            for j, s in enumerate(grid):
                assert batch.value_at(s).tobytes() == np.array([w[j] for w in windows]).tobytes()
        scale = max(np.abs(windows).max(), 1.0)
        for s in grid + data.draw(st.lists(st.floats(-r, 0.0), max_size=5)):
            want = [np.interp(s, np.linspace(-r, 0.0, width), w) for w in windows]
            assert batch.value_at(s) == pytest.approx(want, rel=0, abs=1e-12 * scale)

import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import quad

from mfchaos.model import make_linear_model, make_sqrt_model
from mfchaos.yamada import (bump, make_yamada, mollifier_error_bound,
                            mollify_sigma, rho_moment)

EPS_GRID = (0.05, 0.1, 0.3)


class TestKernel:
    def test_unit_mass(self):
        yw = make_yamada(0.1)
        assert yw.mass() == pytest.approx(1.0, abs=1e-10)

    def test_compact_support(self):
        eps = 0.1
        yw = make_yamada(eps)
        assert yw.psi(np.array([2.0 * eps]))[0] == 0.0
        assert yw.psi(np.array([0.5 * yw.support[0]]))[0] == 0.0

    @pytest.mark.parametrize("eps", EPS_GRID)
    def test_hyperbola_bound_on_dense_grid(self, eps):
        yw = make_yamada(eps)
        lo, hi = yw.support
        grid = np.exp(np.linspace(np.log(lo), np.log(hi), 50_001))
        assert np.max(yw.psi(grid) * grid / eps) <= 2.0

    def test_epsilon_domain(self):
        with pytest.raises(ValueError):
            make_yamada(0.01)
        with pytest.raises(ValueError):
            make_yamada(1.0)


class TestV:
    def test_zero_at_origin(self):
        yw = make_yamada(0.1)
        assert yw.V(np.zeros(1))[0] == 0.0
        assert yw.V_prime(np.zeros(1))[0] == 0.0

    @pytest.mark.parametrize("eps", EPS_GRID)
    def test_sandwich_between_abs_and_abs_minus_eps(self, eps):
        yw = make_yamada(eps)
        x = np.linspace(-2.0, 2.0, 10_001)
        v = yw.V(x)
        assert np.all(v <= np.abs(x) + 1e-8)
        assert np.all(v >= np.abs(x) - eps - 1e-8)

    @pytest.mark.parametrize("eps", EPS_GRID)
    def test_derivative_range(self, eps):
        yw = make_yamada(eps)
        x = np.linspace(-2.0, 2.0, 10_001)
        signed = np.sign(x) * yw.V_prime(x)
        assert np.all(signed >= -1e-12)
        assert np.all(signed <= 1.0 + 1e-12)

    def test_V_even_Vprime_odd(self):
        yw = make_yamada(0.1)
        x = np.linspace(0.0, 1.0, 500)
        assert np.allclose(yw.V(x), yw.V(-x))
        assert np.allclose(yw.V_prime(x), -yw.V_prime(-x))

    @pytest.mark.parametrize("eps", EPS_GRID)
    def test_second_derivative_bound_and_support(self, eps):
        yw = make_yamada(eps)
        lo, hi = yw.support
        on = np.exp(np.linspace(np.log(lo), np.log(hi), 10_001))
        assert np.all(yw.V_second(on) >= 0.0)
        assert np.all(yw.V_second(on) * on <= 2.0 * eps)
        off = np.array([lo / 2.0, hi * 1.5, 3.0])
        assert np.all(yw.V_second(off) == 0.0)

    def test_Vsecond_equals_kernel(self):
        yw = make_yamada(0.2)
        x = np.linspace(1e-4, 0.25, 1000)
        assert np.array_equal(yw.V_second(x), yw.psi(x))

    def test_V_matches_double_quadrature(self):
        # independent oracle: integrate psi twice with adaptive quadrature
        yw = make_yamada(0.3)
        lo, hi = yw.support
        for q in (0.05, 0.12, 0.29, 0.7):
            inner = lambda y: (quad(lambda u: yw.psi(np.array([u]))[0], lo, min(y, hi),
                                    limit=200)[0] if y > lo else 0.0)
            oracle, _ = quad(inner, lo, max(q, lo), limit=200)
            assert yw.V(np.array([q]))[0] == pytest.approx(oracle, abs=1e-7)


class TestMollify:
    def test_constant_sigma_unchanged(self):
        mdl = make_linear_model(sigma0=0.7)
        sn = mollify_sigma(mdl, 16)
        x = np.linspace(-3, 3, 101)
        assert np.allclose(sn(0.0, x), 0.7, atol=1e-14)

    def test_linear_sigma_unchanged_by_symmetry(self):
        mdl = make_linear_model()
        lin = type(mdl)(**{**mdl.__dict__, "sigma": lambda t, x: np.asarray(x, dtype=float)})
        sn = mollify_sigma(lin, 8)
        x = np.linspace(-2, 2, 51)
        assert np.allclose(sn(0.0, x), x, atol=1e-13)

    @pytest.mark.parametrize("n", (4, 16, 64, 256))
    def test_sqrt_gap_obeys_moment_bound(self, n):
        mdl = make_sqrt_model(sigma0=1.0)
        sn = mollify_sigma(mdl, n)
        grid = np.linspace(-2.0, 2.0, 4001)
        gap = np.max(np.abs(sn(0.0, grid) - mdl.sigma(0.0, grid)))
        bound = mollifier_error_bound(1.0, 0.5, n)
        # equality is attained at the kink, so allow quadrature roundoff
        assert gap <= bound * (1.0 + 1e-6)

    def test_gap_shrinks_with_n(self):
        mdl = make_sqrt_model(sigma0=1.0)
        grid = np.linspace(-2.0, 2.0, 2001)
        gaps = []
        for n in (4, 16, 64, 256):
            sn = mollify_sigma(mdl, n)
            gaps.append(np.max(np.abs(sn(0.0, grid) - mdl.sigma(0.0, grid))))
        for a, b in zip(gaps, gaps[1:]):
            assert a / b >= 1.8

    def test_lipschitz_for_fixed_n(self):
        # finite-difference slope of the smoothed coefficient stays bounded
        mdl = make_sqrt_model(sigma0=1.0)
        sn = mollify_sigma(mdl, 32)
        x = np.linspace(-1.0, 1.0, 20_001)
        vals = sn(0.0, x)
        slopes = np.abs(np.diff(vals) / np.diff(x))
        assert slopes.max() < 10.0 * np.sqrt(32)   # K_n finite; scale ~ sqrt(n)
        assert abs(sn(0.0, np.zeros(1))[0]) <= mdl.K_sigma

    def test_invalid_n_rejected(self):
        with pytest.raises(ValueError):
            mollify_sigma(make_sqrt_model(), 0)


class TestBound:
    def test_decreasing_in_n(self):
        vals = [mollifier_error_bound(1.0, 0.5, n) for n in (1, 2, 4, 8, 64)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_power_law_halving(self):
        # n -> n * 2^(1/alpha) halves the bound exactly
        for alpha in (0.5, 0.75, 1.0):
            b1 = mollifier_error_bound(2.0, alpha, 16)
            b2 = mollifier_error_bound(2.0, alpha, 16 * 2.0 ** (1.0 / alpha))
            assert b2 == pytest.approx(b1 / 2.0, rel=1e-9)

    def test_value_against_quadrature(self):
        # alpha = 1/2, K = 1, n = 100: bound = 0.1 * (moment of the bump)
        oracle, _ = quad(lambda u: abs(u) ** 0.5 * bump(u),
                         -1.0, 1.0, points=[0.0], limit=200)
        assert mollifier_error_bound(1.0, 0.5, 100) == pytest.approx(0.1 * oracle, rel=1e-10)
        assert rho_moment(0.5) == pytest.approx(oracle, rel=1e-10)

    def test_bump_is_normalized(self):
        total, _ = quad(bump, -1.0, 1.0, limit=200)
        assert total == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("module", ["scipy.integrate", "scipy.special",
                                    "scipy._lib._array_api", "numpy.f2py"])
def test_cli_import_leaves_quadrature_unloaded(module):
    # only the audits integrate, so loading the CLI must not pay for scipy.integrate;
    # nor for the scipy.special package, whose array-API layer imports numpy.f2py
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import mfchaos.cli; "
            "print(sys.argv[2] in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code, src, module], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]

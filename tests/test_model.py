import numpy as np
import pytest

from mfchaos.measures import EmpiricalMeasure
from mfchaos.model import (ModelError, ModelSpec, check_assumptions, eval_drift,
                           eval_path_drift, eval_sigma, make_delay_model,
                           make_linear_model, make_model, make_sqrt_model)
from mfchaos.paths import DelayMeasure, SegmentBatch


def point_measure(x):
    return EmpiricalMeasure([x])


class TestEval:
    def test_linear_drift_value(self):
        mdl = make_linear_model(a=-1.0, c=0.5, sigma0=0.2)
        assert float(eval_drift(mdl, 0.0, 1.0, point_measure(1.0))) == pytest.approx(-0.5)

    def test_constant_sigma(self):
        mdl = make_linear_model(sigma0=0.2)
        for x in (-5.0, 0.0, 3.3):
            assert float(eval_sigma(mdl, 0.7, x)) == pytest.approx(0.2)

    def test_sqrt_sigma_closed_form(self):
        mdl = make_sqrt_model(sigma0=1.0)
        assert eval_sigma(mdl, 0.0, np.array([4.0]))[0] == pytest.approx(2.0)
        assert mdl.alpha == 0.5

    def test_delay_path_drift_uses_measure(self):
        mdl = make_delay_model(beta=2.0, r=1.0)
        seg = SegmentBatch(np.array([[3.0, 0.0, 0.0, 0.0, 0.0]]), 0, 1.0, 0.25)   # one particle
        assert eval_path_drift(mdl, 0.0, seg, point_measure(0.0))[0] == pytest.approx(6.0)

    def test_eval_is_pure(self):
        mdl = make_sqrt_model()
        mu = EmpiricalMeasure(np.linspace(-1, 1, 5))
        a = eval_drift(mdl, 0.3, np.array([0.5, -0.5]), mu)
        b = eval_drift(mdl, 0.3, np.array([0.5, -0.5]), mu)
        assert np.array_equal(a, b)

    def test_vectorized_matches_scalar(self):
        mdl = make_linear_model(a=-0.7, c=0.3)
        mu = EmpiricalMeasure([0.0, 2.0])
        xs = np.array([-1.0, 0.0, 2.5])
        vec = eval_drift(mdl, 0.0, xs, mu)
        for x, v in zip(xs, vec):
            assert float(eval_drift(mdl, 0.0, x, mu)) == pytest.approx(float(v))


class TestSpecValidation:
    def test_alpha_range_enforced(self):
        with pytest.raises(ValueError, match="alpha"):
            make_sqrt_model(alpha=0.3)
        with pytest.raises(ValueError, match="alpha"):
            make_linear_model(alpha=1.2)

    def test_negative_constants_rejected(self):
        mdl = make_linear_model()
        with pytest.raises(ValueError):
            ModelSpec(name="bad", drift=mdl.drift, path_drift=mdl.path_drift,
                      sigma=mdl.sigma, K_b=0.0, K_B=-1.0, K_sigma=0.0, alpha=1.0,
                      delay_measure=DelayMeasure.dirac(0.0))

    def test_zoo_lookup(self):
        assert make_model("linear").name == "linear"
        with pytest.raises(ValueError, match="unknown model"):
            make_model("nope")


class TestCheckAssumptions:
    def test_linear_model_passes_with_analytic_constants(self):
        mdl = make_linear_model(a=-1.0, c=0.5, sigma0=0.2)
        assert mdl.K_b == pytest.approx(0.5)   # max(a, 0) + |c|
        rep = check_assumptions(mdl, sample_count=10_000, seed=1)
        assert rep.all_ok
        assert rep.K_b_hat <= mdl.K_b + rep.tol

    def test_sqrt_sigma_passes_at_half(self):
        # |sqrt|x| - sqrt|y|| <= sqrt|x - y|, so K_sigma = 1 at alpha = 1/2
        mdl = make_sqrt_model(sigma0=1.0)
        rep = check_assumptions(mdl, sample_count=10_000, seed=2)
        assert rep.sigma_ok
        assert rep.K_sigma_hat <= 1.0 + rep.tol
        assert rep.alpha_hat == pytest.approx(0.5, abs=0.1)

    def test_sqrt_sigma_fails_when_declared_lipschitz(self):
        # the difference quotient blows up near 0, so alpha = 1 must fail
        bad = make_sqrt_model(sigma0=1.0, alpha=1.0)
        rep = check_assumptions(bad, sample_count=10_000, seed=3)
        assert not rep.sigma_ok
        ratio, witness = rep.witnesses["sigma"]
        assert ratio > bad.K_sigma + rep.tol
        _, x, y = witness
        assert min(abs(x), abs(y)) < 0.1   # worst pair sits near the origin

    def test_delay_model_passes(self):
        mdl = make_delay_model(beta=0.8, r=1.0, sigma0=0.1)
        rep = check_assumptions(mdl, sample_count=10_000, seed=4)
        assert rep.all_ok
        assert rep.K_B_hat <= 0.8 + rep.tol

    def test_coefficients_get_the_engines_types(self):
        # written against what a run hands them: the batch's own integral,
        # and a square root taken in place on the array abs allocates
        dm = DelayMeasure.uniform(1.0, 4)

        def sigma(t, x):
            s = np.abs(x)
            np.sqrt(s, out=s)
            return s

        mdl = ModelSpec(name="custom", drift=lambda t, x, mu: -x,
                        path_drift=lambda t, seg, mu: seg.integral_against(dm), sigma=sigma,
                        K_b=0.0, K_B=1.0, K_sigma=1.0, alpha=0.5, delay_measure=dm)
        rep = check_assumptions(mdl, sample_count=400, seed=6)
        assert rep.all_ok
        assert 0.0 < rep.K_B_hat <= 1.0 + rep.tol

    @pytest.mark.parametrize("sample_count", [7, 2_000])
    def test_each_coefficient_is_called_once_per_audit_time_on_a_stack(self, sample_count):
        # an audit time's tuples reach each coefficient as a run's stack does:
        # (K, 1) states, a stacked measure and a (K, 1, width) batch, however
        # many tuples there are; the zero-point bounds add one-element calls
        dm = DelayMeasure.uniform(1.0, 4)
        calls = {"drift": [], "path": [], "sigma": []}

        def drift(t, x, mu):
            calls["drift"].append((x.shape, np.shape(mu.mean)))
            return -x

        def path_drift(t, seg, mu):
            calls["path"].append((seg.current.shape, seg.width, np.shape(mu.mean)))
            return seg.integral_against(dm)

        def sigma(t, x):
            calls["sigma"].append(x.shape)
            return np.ones_like(x)

        mdl = ModelSpec(name="spy", drift=drift, path_drift=path_drift, sigma=sigma,
                        K_b=0.0, K_B=1.0, K_sigma=1.0, alpha=1.0, delay_measure=dm)
        check_assumptions(mdl, sample_count=sample_count, seed=0)
        assert all(len(c) <= 3 * 11 for c in calls.values())
        # the zero-point bounds: one element and a one-particle batch at each audit time
        zero_point = ((1,), 17, ())
        assert calls["sigma"].count((1,)) == calls["path"].count(zero_point) == 11
        sigma = [x for x in calls["sigma"] if x != (1,)]
        path = [c for c in calls["path"] if c != zero_point]
        assert all(x == mean == (x[0], 1) for x, mean in calls["drift"])
        assert all(x == (x[0], 1) for x in sigma)
        assert all(x == mean == (x[0], 1) and width == 17 for x, width, mean in path)
        # every tuple at x and at y; the path drift at every 4th
        assert sum(x[0] for x, _ in calls["drift"]) == sum(x[0] for x in sigma) == 2 * sample_count
        assert sum(x[0] for x, _, _ in path) == 2 * len(range(0, sample_count, 4))

    @pytest.mark.parametrize("bad", ["drift", "path drift", "sigma"])
    def test_a_non_finite_coefficient_is_named(self, bad):
        # a stack holding one non-finite value still names its coefficient
        def value(name, x):
            return np.where(np.abs(x) > 2.5, np.nan, 0.0) if name == bad else np.zeros_like(x)

        mdl = ModelSpec(name="nan", drift=lambda t, x, mu: value("drift", x),
                        path_drift=lambda t, seg, mu: value("path drift", seg.current),
                        sigma=lambda t, x: value("sigma", x), K_b=0.0, K_B=0.0, K_sigma=0.0,
                        alpha=1.0, delay_measure=DelayMeasure.uniform(1.0, 4))
        with pytest.raises(ModelError, match=f"^{bad} returned a non-finite value"):
            check_assumptions(mdl, sample_count=200, seed=0)

    @pytest.mark.parametrize("seed", [0, 1, 20260810])
    @pytest.mark.parametrize("name, params", [("linear", {}), ("sqrt", {}), ("delay", {}),
                                              ("delay", {"m": "uniform", "atoms": 8})],
                             ids=["linear", "sqrt", "delay", "delay-uniform-8"])
    def test_estimates_and_witnesses_are_python_floats(self, name, params, seed):
        # a near pair clipped to the box gave numpy scalars that reached the
        # estimates and witnesses; every delay audit's first drift ratio is one
        rep = check_assumptions(make_model(name, **params), sample_count=2_000, seed=seed)
        values = [rep.K_b_hat, rep.K_B_hat, rep.K_sigma_hat, rep.alpha_hat]
        for ratio, witness in rep.witnesses.values():
            values += [ratio, *(witness or ())]
        assert [type(v) for v in values] == [float] * len(values)

    def test_report_carries_audit_disclaimer(self):
        rep = check_assumptions(make_linear_model(), sample_count=500, seed=5)
        assert "no violation" in rep.note

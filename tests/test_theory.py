from fractions import Fraction

import numpy as np
import pytest

from sea_ensemble import theory


class TestSeaBounds:
    def test_m5(self):
        lo, hi = theory.sea_k_bounds(5)
        assert lo == pytest.approx(-0.25) and hi == pytest.approx(2.25)

    def test_m2(self):
        assert theory.sea_k_bounds(2) == (-1.0, 3.0)

    def test_limits_approach_zero_two(self):
        prev_lo, prev_hi = theory.sea_k_bounds(2)
        for m in (5, 10, 100, 10_000):
            lo, hi = theory.sea_k_bounds(m)
            assert prev_lo < lo < 0.0
            assert 2.0 < hi < prev_hi
            prev_lo, prev_hi = lo, hi

    def test_m1_rejected(self):
        with pytest.raises(ValueError):
            theory.sea_k_bounds(1)


class TestBeta:
    def test_k_one_zero_for_all_m(self):
        for m in (2, 3, 17, 400):
            assert theory.beta_from_k(1.0, m) == 0.0

    def test_k0_m5(self):
        assert theory.beta_from_k(0.0, 5) == pytest.approx(0.8)

    def test_unit_magnitude_at_endpoints(self):
        for m in range(2, 60):
            lo, hi = theory.sea_k_bounds(m)
            assert abs(theory.beta_from_k(lo, m)) == pytest.approx(1.0, abs=1e-12)
            assert abs(theory.beta_from_k(hi, m)) == pytest.approx(1.0, abs=1e-12)

    def test_inside_iff_contraction(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            m = int(rng.integers(2, 80))
            k = float(rng.uniform(-1.5, 3.5))
            lo, hi = theory.sea_k_bounds(m)
            inside = lo < k < hi
            assert (abs(theory.beta_from_k(k, m)) < 1.0) == inside


class TestMappings:
    def test_origin_fixed_point(self):
        assert theory.gamma_from_k(0.0, 7) == 0.0
        assert theory.k_from_gamma(0.0, 7) == 0.0
        assert theory.lambda_from_k(0.0, 7) == 0.0
        assert theory.k_from_lambda(0.0, 7) == 0.0

    def test_gamma_hand_values(self):
        assert theory.gamma_from_k(1.0, 5) == pytest.approx(1.25)
        assert theory.gamma_from_k(2.25, 5) == pytest.approx(1.40625)

    def test_lambda_hand_values(self):
        for m in (2, 5, 30):
            assert theory.lambda_from_k(1.0, m) == pytest.approx(1.0)
        assert theory.lambda_from_k(2.0, 5) == pytest.approx(10.0 / 9.0)
        assert theory.k_from_lambda(0.5, 5) == pytest.approx(1.0 / 6.0)
        assert theory.lambda_from_k(1.0 / 6.0, 5) == pytest.approx(0.5)

    def test_round_trips(self):
        ks = np.linspace(-0.2, 2.2, 241)
        for m in range(2, 101):
            sing = -1.0 / (m - 1)
            use = ks[np.abs(ks - sing) > 1e-3]
            back_g = theory.k_from_gamma(theory.gamma_from_k(use, m), m)
            np.testing.assert_allclose(back_g, use, rtol=0, atol=1e-12)
            back_l = theory.k_from_lambda(theory.lambda_from_k(use, m), m)
            np.testing.assert_allclose(back_l, use, rtol=0, atol=1e-12)

    def test_singularity_raises(self):
        with pytest.raises(ZeroDivisionError):
            theory.lambda_from_k(-0.25, 5)
        with pytest.raises(ZeroDivisionError):
            theory.k_from_lambda(5.0 / 4.0, 5)
        with pytest.raises(ZeroDivisionError):
            theory.k_from_gamma(25.0 / 16.0, 5)


class TestBounds:
    @staticmethod
    def _exact(m: int):
        # Spreadsheet-style recomputation with exact rationals.
        m = Fraction(m)
        lam1 = m / (m - 1)
        lam_sea = (2 * m - 1) / (2 * (m - 1))
        gam1 = (m / (m - 1)) ** 2
        gam_sea = m * (m - Fraction(1, 2)) / (m - 1) ** 2
        return lam_sea, lam1, gam_sea, gam1

    def test_ncl_lambda_hand_values(self):
        assert theory.ncl_lambda_bounds(5) == (1.125, 1.25)
        assert theory.ncl_lambda_bounds(2) == (1.5, 2.0)

    def test_nclstar_gamma_hand_values(self):
        assert theory.nclstar_gamma_bounds(5) == (1.40625, 1.5625)
        assert theory.nclstar_gamma_bounds(2) == (3.0, 4.0)

    def test_exact_recomputation(self):
        for m in range(2, 101):
            lam_sea, lam1, gam_sea, gam1 = self._exact(m)
            got_lam = theory.ncl_lambda_bounds(m)
            got_gam = theory.nclstar_gamma_bounds(m)
            assert abs(got_lam[0] - float(lam_sea)) < 1e-12
            assert abs(got_lam[1] - float(lam1)) < 1e-12
            assert abs(got_gam[0] - float(gam_sea)) < 1e-12
            assert abs(got_gam[1] - float(gam1)) < 1e-12

    def test_tightness_ordering(self):
        for m in range(2, 1001):
            lam_sea, lam1 = theory.ncl_lambda_bounds(m)
            gam_sea, gam1 = theory.nclstar_gamma_bounds(m)
            assert lam_sea < lam1
            assert gam_sea < gam1

    def test_limits_approach_one(self):
        lam_sea, lam1 = theory.ncl_lambda_bounds(10_000)
        gam_sea, gam1 = theory.nclstar_gamma_bounds(10_000)
        for v in (lam_sea, lam1, gam_sea, gam1):
            assert v == pytest.approx(1.0, abs=1e-3)

    def test_bound_consistency_with_mappings(self):
        for m in range(2, 101):
            _, hi = theory.sea_k_bounds(m)
            assert abs(theory.gamma_from_k(hi, m) - theory.nclstar_gamma_bounds(m)[0]) < 1e-12
            assert abs(theory.lambda_from_k(hi, m) - theory.ncl_lambda_bounds(m)[0]) < 1e-12


class TestEffectiveRange:
    def test_sea(self):
        assert theory.effective_range("sea", 9) == (0.0, 2.0)

    def test_ncl_always_unit(self):
        for m in (2, 5, 77):
            assert theory.effective_range("ncl", m) == (0.0, 1.0)
            # consistency with the mapping: lambda=1 maps to k=1
            assert theory.k_from_lambda(1.0, m) == pytest.approx(1.0)

    def test_nclstar_m5(self):
        _, hi = theory.effective_range("nclstar", 5)
        assert hi == pytest.approx(4.0 / 9.0)
        assert hi == pytest.approx(theory.k_from_gamma(1.0, 5))

    def test_strict_nesting(self):
        for m in range(2, 1001):
            star = theory.effective_range("nclstar", m)
            ncl = theory.effective_range("ncl", m)
            sea = theory.effective_range("sea", m)
            assert star[1] < ncl[1] < sea[1]
            assert star[0] == ncl[0] == sea[0] == 0.0


class TestEmpiricalStd:
    def test_all_equal(self):
        assert theory.empirical_std(np.full((6, 3), 2.2)) == 0.0

    def test_two_values(self):
        assert theory.empirical_std(np.array([[1.0], [3.0]])) == pytest.approx(1.0)

    def test_three_values(self):
        got = theory.empirical_std(np.array([[0.0], [1.0], [2.0]]))
        assert got == pytest.approx(np.sqrt(2.0 / 3.0))

    def test_batch_averaging(self):
        # two samples with per-sample stds 1 and 0 -> mean 0.5
        preds = np.zeros((2, 2, 1))
        preds[0, 0, 0] = 1.0
        preds[1, 0, 0] = 3.0
        preds[:, 1, 0] = 5.0
        assert theory.empirical_std(preds) == pytest.approx(0.5)


class TestPredictedStd:
    def test_sea_at_k0(self):
        for m, c in ((2, 1.0), (5, 0.3), (20, 2.0)):
            assert theory.predicted_std_sea(0.0, m, c) == pytest.approx((m - 1) * c / m)

    def test_ncl_at_zero_matches_sea_at_zero(self):
        assert theory.predicted_std_ncl(0.0, 5, 1.0) == pytest.approx(0.8)
        assert theory.predicted_std_ncl(0.0, 5, 1.0) == pytest.approx(
            theory.predicted_std_sea(0.0, 5, 1.0)
        )

    def test_reparameterization_agreement(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            m = int(rng.integers(2, 101))
            c = float(rng.uniform(0.1, 3.0))
            k = float(rng.uniform(0.0, 2.0))
            lam = theory.lambda_from_k(k, m)
            a = theory.predicted_std_sea(k, m, c)
            b = theory.predicted_std_ncl(lam, m, c)
            assert a == pytest.approx(b, rel=1e-10)

    def test_sea_linear_second_differences(self):
        # dyadic grid and M in {2, 4}: values are exact dyadics, so the
        # second difference is exactly zero; other M stay within rounding.
        ks = np.arange(0.0, 2.001, 0.25)
        for m in (2, 4):
            vals = theory.predicted_std_sea(ks, m, 1.0)
            assert (np.diff(vals, 2) == 0.0).all()
        for m in (3, 5, 20):
            vals = theory.predicted_std_sea(ks, m, 1.0)
            assert np.abs(np.diff(vals, 2)).max() < 1e-12

    def test_ncl_convexity_grows_with_m(self):
        lams = np.linspace(0.0, 1.0, 11)
        prev = None
        for m in (2, 5, 20):
            vals = theory.predicted_std_ncl(lams, m, 1.0)
            dd = np.diff(vals, 2)
            assert (dd > 0).all()
            if prev is not None:
                assert (dd > prev).all()
            prev = dd

    def test_ncl_singularity(self):
        with pytest.raises(ZeroDivisionError):
            theory.predicted_std_ncl(5.0 / 4.0, 5, 1.0)

    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            theory.predicted_std_sea(0.5, 5, 0.0)


class TestFitScale:
    def test_recovers_known_scale(self):
        ks = np.linspace(0, 1, 11)
        truth = theory.predicted_std_sea(ks, 5, 0.37)
        c = theory.fit_std_scale("sea", ks, 5, truth)
        assert c == pytest.approx(0.37, rel=1e-12)

    def test_ncl_recovers_known_scale(self):
        lams = np.linspace(0, 1, 11)
        truth = theory.predicted_std_ncl(lams, 8, 1.9)
        c = theory.fit_std_scale("ncl", lams, 8, truth)
        assert c == pytest.approx(1.9, rel=1e-12)

    def test_curve_object(self):
        ks = np.linspace(0, 1, 5)
        pred = theory.predicted_std_curve("ncl", ks, 5, 1.0)
        assert isinstance(pred, np.ndarray) and pred.shape == ks.shape


class TestLinearityScore:
    def test_exact_line(self):
        xs = np.linspace(0, 1, 7)
        assert theory.linearity_score(xs, 3 * xs - 2) == 1.0

    def test_constant_series(self):
        assert theory.linearity_score(np.arange(5.0), np.full(5, 2.0)) == 1.0

    def test_quadratic_frozen_oracle_value(self):
        # Frozen from the closed-form least-squares oracle: slope is exactly
        # 1.0, intercept -0.15, SS_res = 0.0858, SS_tot = 1.1858.
        xs = np.linspace(0, 1, 11)
        got = theory.linearity_score(xs, xs**2)
        assert got == pytest.approx(1.0 - 0.0858 / 1.1858, abs=1e-12)
        assert got == pytest.approx(0.9276437847866419, abs=1e-12)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            theory.linearity_score([0.0, 1.0], [0.0, 1.0])

    def test_degenerate_xs(self):
        with pytest.raises(ValueError):
            theory.linearity_score([1.0, 1.0, 1.0], [0.0, 1.0, 2.0])

    def test_clamped_at_zero(self):
        xs = np.array([0.0, 1.0, 2.0, 3.0])
        ys = np.array([0.0, 5.0, -5.0, 0.0])
        assert theory.linearity_score(xs, ys) >= 0.0

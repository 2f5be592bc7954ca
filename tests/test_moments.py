import itertools
import math
import types
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from urnsim import (
    DistributionError,
    DistributionSpec,
    T_LSTAR_REGIME,
    asym_mean_coeff,
    asym_var_coeff,
    binomial_tail_at_least,
    build_distribution,
    depoissonization_gap,
    exact_mean,
    exact_var,
    gamma_tail_partial_sum,
    mean_difference,
    mean_increment_check,
    moment_report,
    normalizer,
    run_coupled,
    slowly_varying,
    smoothed_slowly_varying,
    variance_sandwich_check,
)
from urnsim import distributions, moments
from urnsim.distributions import _EM_MIN_INDEX, _MAX_ORDER, _SLOTS, _TABLE_SIZE
from urnsim.simulate import CheckpointGrid

# 50-digit summation oracle: exp(-5) * (1 + 5 + 25/2)
POI_5_LT_3 = 0.12465201948308114
# high-precision binomial complement, n=1000, p=0.01
BIN_1000_001_GE3 = 0.997320568006208466
POI_10_GE3 = 0.99723060428448842
# 200-term direct sum of 1 - exp(-2^-j) at 50 digits
GEO_T1_K1_STAR = 0.85461332089277831
# brute force over 1e7 cells (plus analytic completion) for zipf s=2,
# E[cells with >= 1 ball] after n = 100 fixed throws
ZIPF_N100_LO = 13.337047249829562
ZIPF_N100_HI = 13.33705332910058
# float.hex of the series_sweep outputs at (family, t, k), at-least-k counts:
# moment_report (binomial law) exact_mean, exact_var, asym_mean, asym_var,
# truncation_error, then poisson exact_mean and mean_difference (value,
# bound).  Frozen when the tail power sums of all orders at a cut came from
# one composite Gauss pass and their bounds took in the rounding of
# (t p(x0))^r.  The asymptotic values of theta_one_log at k = 1, on the
# t L*(t) scale, were re-pinned when L* became the exact at-least-1 Poisson
# series over t: they are the bits of its poisson exact_mean.  The
# theta_one_log k = 1 row was re-pinned when its r = 1 tail power sum left
# scipy quad for the same Gauss pass as the other orders: its values moved one
# ulp and its bounds fell 50- and 120-fold, still within the bounds of the older
# pins below.
# Re-pinned when every series head took at least _EM_MIN_INDEX cells (the
# tail power sums no longer bridge a lower cut by explicit summation) and
# mean_difference's bound took in the rounding of the gap head's cells and
# of the gap tail's coefficients: values moved by an ulp or two only where
# the old head had fewer than 2^10 cells (all rows but theta_one_log at
# 1e7 and geometric), every mean_difference bound grew, and so did the
# binomial mean's bound and with it truncation_error.  SERIES_HEX holds the
# bits where numpy dispatches its AVX-512 loops and SERIES_HEX_NO_V4 where
# it does not; the older pins below are the AVX-512 ones.  The asym_var of
# zipf_log21 (index 3) was re-pinned when math.gamma replaced scipy's gamma
# in the asymptotic constants: it moved 3 ulps (its constant 4 ulps, to
# within 3.3e-16 of a 40-digit one, from 8.6e-16).
# Both sets were re-pinned when tail_power_sum formed (t f(x0) / Z)^r by
# repeated products in place of exp(r (ln t + ln p(x0))), whose bound
# charged 3 r (|ln t| + |ln p(x0)|) ulps: the theta_one_log values moved by
# 1-4 ulps and its mean_difference at 1e7 by 16 (3e-15 of it, within the
# gap's bound), and the bounds fell, truncation_error and the Poisson mean's
# by 0.2% (zipf_log21) to 37% (theta_one_log at 1e7), the gap's by up to
# 42%.  zipf_log21's asym_mean (index 2) moved one ulp at the same time, when
# the at-least-k constant became Gamma(k-theta)/Gamma(k): it is now the
# rounded 40-digit value, where the telescoping loop was 0.65 ulp off.
# Both sets were re-pinned when the head became the N(t) cells that the
# counting function counts at t, not N(2t), and the tail stopped at the
# first order whose proved remainder bound is at most 1e-16 of the sum.
# Only theta_one_log at 1e7 has a head above the _EM_MIN_INDEX floor
# (98,165 -> 54,518 cells): its means and variance moved by 1-3 ulps and
# its mean_difference by 14 ulps (2.5e-15 of it, within both bounds);
# truncation_error and the Poisson mean's bound rose 21.5%, the gap's
# bound 1.97-fold.  The other rows keep their heads and values: their
# bounds rose by 1.6e-6 (zipf2), 3.4e-7 (zipf_log21) and 1.5e-5 to 2.1e-5
# (theta_one_log at 31 623) of themselves, where the remainder bound takes
# the orders past the stop in place of the last kept term, and
# theta_one_log's mean_difference at 31 623 moved one ulp on the AVX-512
# path.  geometric_half did not move.
# Both sets were re-pinned when the tail summed every order to _MAX_ORDER
# in place of stopping at the first small remainder, and bounded the
# orders past it by one closed-form term: only theta_one_log's
# mean_difference at 31 623 moved, one ulp on the AVX-512 path, and the
# bounds fell, truncation_error and the Poisson mean's by 0.008%
# (zipf_log21) to 0.19% (zipf2), the gap's by 1.5e-6 (zipf2) to 9.2e-5
# (theta_one_log at 1e7) of themselves.  geometric_half did not move.
SERIES_HEX = {
    ("zipf2", 10_000, 1): (
        "0x1.1366161698713p+7", "0x1.c9f25ed958dc1p+5", "0x1.10f5387a6d806p+7",
        "0x1.c4405eb353bb3p+5", "0x1.61bedffec5c39p-39", "0x1.136533a9eef9cp+7",
        "0x1.6112a41cacea8p-39", "0x1.c4d952eed5355p-10", "0x1.58877bfad4a09p-48"),
    ("zipf_log21", 316_228, 2): (
        "0x1.96c6ca4c9870ep+7", "0x1.61353d6721c20p+5", "0x1.95e455a56da2bp+7",
        "0x1.817ead7c6edb1p+5", "0x1.f82e28986de5fp-39", "0x1.96c6bfefe4f5ep+7",
        "0x1.f82df8c37a565p-39", "0x1.4b966f606b1e6p-14", "0x1.3f8e1920eebe6p-57"),
    ("theta_one_log", 31_623, 1): (
        "0x1.c15656b974b66p+11", "0x1.74712e7ed444ep+11", "0x1.c15627386fdf0p+11",
        "0x1.c15627386fdf0p+11", "0x1.ef7d8974d8a4bp-32", "0x1.c15627386fdf0p+11",
        "0x1.734c456be42fcp-33", "0x1.7c0826bb777fdp-8", "0x1.f53da56357fbfp-48"),
    ("theta_one_log", 10_000_000, 2): (
        "0x1.8f7c15bf89622p+15", "0x1.4e7e13333204ep+14", "0x1.a9ec000000000p+15",
        "0x1.a9ec000000000p+14", "0x1.1586648d0dbe5p-30", "0x1.8f7c1597a5bd8p+15",
        "0x1.15866584ef2e0p-30", "0x1.3f1d24f615ec8p-12", "0x1.f1f557d4d26e6p-53"),
    ("geometric_half", 1_000, 2): (
        "0x1.1b68d308362eep+3", "0x1.4752cf481c0c6p-1", "0x1.2000000000000p+3",
        "nan", "0x1.3286a9b332394p-43", "0x1.1b62eb5093c12p+3",
        "0x1.2fb04b05e2075p-43", "0x1.79ede89b71495p-11", "0x1.6b2f56a818fc4p-50"),
}
SERIES_HEX_NO_V4 = {
    **SERIES_HEX,
    ("zipf2", 10_000, 1): (
        "0x1.1366161698713p+7", "0x1.c9f25ed958dc1p+5", "0x1.10f5387a6d806p+7",
        "0x1.c4405eb353bb3p+5", "0x1.61be68e7ae551p-39", "0x1.136533a9eef9cp+7",
        "0x1.61122d0592c82p-39", "0x1.c4d952eed5355p-10", "0x1.58877bf56cbd8p-48"),
    ("zipf_log21", 316_228, 2): (
        "0x1.96c6ca4c9870ep+7", "0x1.61353d6721c20p+5", "0x1.95e455a56da2bp+7",
        "0x1.817ead7c6edb1p+5", "0x1.f82e5b49843e9p-39", "0x1.96c6bfefe4f5ep+7",
        "0x1.f82e2b749b325p-39", "0x1.4b966f606b1e6p-14", "0x1.3f8e432e32cc0p-57"),
    ("theta_one_log", 31_623, 1): (
        "0x1.c15656b974b66p+11", "0x1.74712e7ed444ep+11", "0x1.c15627386fdf0p+11",
        "0x1.c15627386fdf0p+11", "0x1.ef7dab3123502p-32", "0x1.c15627386fdf0p+11",
        "0x1.734c4a575f798p-33", "0x1.7c0826bb77800p-8", "0x1.f53dc61497814p-48"),
    ("theta_one_log", 10_000_000, 2): (
        "0x1.8f7c15bf89623p+15", "0x1.4e7e133332050p+14", "0x1.a9ec000000000p+15",
        "0x1.a9ec000000000p+14", "0x1.15c5318fc1cfcp-30", "0x1.8f7c1597a5bd8p+15",
        "0x1.15c532880656ep-30", "0x1.3f1d24f615ec8p-12", "0x1.f226e3919590ap-53"),
}
# The same outputs before that change, when a head had at least 1000 cells
# and the tail power sums below _EM_MIN_INDEX added the cells up to it.
SERIES_HEX_EM_BRIDGE = {
    ("zipf2", 10_000, 1): (
        "0x1.1366161698714p+7", "0x1.c9f25ed958dbfp+5", "0x1.10f5387a6d806p+7",
        "0x1.c4405eb353bb3p+5", "0x1.6e137bac9b165p-39", "0x1.136533a9eef9dp+7",
        "0x1.6e12e51629c38p-39", "0x1.c4d952eed5354p-10", "0x1.46d1eecd79182p-56"),
    ("zipf_log21", 316_228, 2): (
        "0x1.96c6ca4c9870ep+7", "0x1.61353d6721c20p+5", "0x1.95e455a56da2ap+7",
        "0x1.817ead7c6edb4p+5", "0x1.f96b28b9b1a2bp-39", "0x1.96c6bfefe4f5ep+7",
        "0x1.f96b2e37b0e6dp-39", "0x1.4b966f606b1e4p-14", "0x1.79a81a6337143p-59"),
    ("theta_one_log", 31_623, 1): (
        "0x1.c15656b974b66p+11", "0x1.74712e7ed4448p+11", "0x1.c15627386fdefp+11",
        "0x1.c15627386fdefp+11", "0x1.0f6dfbb48e331p-31", "0x1.c15627386fdefp+11",
        "0x1.c9026dca0492cp-33", "0x1.7c0826bb777fdp-8", "0x1.3caed0b627cb0p-48"),
    ("theta_one_log", 10_000_000, 2): (
        "0x1.8f7c15bf89623p+15", "0x1.4e7e133332051p+14", "0x1.a9ec000000000p+15",
        "0x1.a9ec000000000p+14", "0x1.69ce8871e10a1p-30", "0x1.8f7c1597a5bdap+15",
        "0x1.69ce8a6b9eff7p-30", "0x1.3f1d24f615ec6p-12", "0x1.fc0cc3fe368d3p-54"),
    ("geometric_half", 1_000, 2): (
        "0x1.1b68d308362eep+3", "0x1.4752cf481c0c6p-1", "0x1.2000000000000p+3",
        "nan", "0x1.2fb69d1e32189p-43", "0x1.1b62eb5093c12p+3",
        "0x1.2fb04b05e2075p-43", "0x1.79ede89b71495p-11", "0x1.09f1b218c17cap-57"),
}
# The same outputs before that change, when each tail power sum was one
# scipy quad at its (t, J) and the head one pass with the Poisson
# probabilities by recurrence.
SERIES_HEX_QUAD = {
    ("zipf2", 10_000, 1): (
        "0x1.1366161698714p+7", "0x1.c9f25ed958dbfp+5", "0x1.10f5387a6d806p+7",
        "0x1.c4405eb353bb3p+5", "0x1.15a49d6518118p-38", "0x1.136533a9eef9dp+7",
        "0x1.15a45205c3ceep-38", "0x1.c4d952eed5354p-10", "0x1.4681806879948p-56"),
    ("zipf_log21", 316_228, 2): (
        "0x1.96c6ca4c9870ep+7", "0x1.61353d6721c20p+5", "0x1.95e455a56da2ap+7",
        "0x1.817ead7c6edb4p+5", "0x1.f82a7a0358dfap-39", "0x1.96c6bfefe4f5ep+7",
        "0x1.f82a7f3b997f4p-39", "0x1.4b966f606b1e4p-14", "0x1.754c301bc8410p-59"),
    ("theta_one_log", 31_623, 1): (
        "0x1.c15656b974b67p+11", "0x1.74712e7ed444ap+11", "0x1.c15627674959bp+11",
        "0x1.c15627674959bp+11", "0x1.b0897153cf20ap-26", "0x1.c15627386fdf0p+11",
        "0x1.ab5bfa01e78dap-26", "0x1.7c0826bb777fap-8", "0x1.4e5eb96b48507p-48"),
    ("theta_one_log", 10_000_000, 2): (
        "0x1.8f7c15bf89622p+15", "0x1.4e7e13333204ep+14", "0x1.a9ec000000000p+15",
        "0x1.a9ec000000000p+14", "0x1.b441619a3cee5p-31", "0x1.8f7c1597a5bd8p+15",
        "0x1.b44162821c349p-31", "0x1.3f1d24f615ed6p-12", "0x1.d8f9c710d94cap-56"),
    ("geometric_half", 1_000, 2): (
        "0x1.1b68d308362eep+3", "0x1.4752cf481c0c6p-1", "0x1.2000000000000p+3",
        "nan", "0x1.2fb69d1e32189p-43", "0x1.1b62eb5093c12p+3",
        "0x1.2fb04b05e2075p-43", "0x1.79ede89b71495p-11", "0x1.09f1b218c17cap-57"),
}
# The same outputs before the head became one pass, when it took the
# incomplete gamma functions; the series values moved within the two bounds
# of these.
# The mean_difference pairs of zipf_log21 and theta_one_log had been
# re-pinned when its tail coefficients stopped subtracting the binomial and
# Poisson ones (TestDepoissonization shows the new values are the right
# ones).
SERIES_HEX_GAMMAINC = {
    ("zipf2", 10_000, 1): (
        "0x1.1366161698714p+7", "0x1.c9f25ed958dc0p+5", "0x1.10f5387a6d806p+7",
        "0x1.c4405eb353bb3p+5", "0x1.4452c4fb39804p-43", "0x1.136533a9eef9dp+7",
        "0x1.4457405fb5616p-43", "0x1.c4d952eed5355p-10", "0x1.3ebb2dd0fffccp-56"),
    ("zipf_log21", 316_228, 2): (
        "0x1.96c6ca4c9870ep+7", "0x1.61353d6721c1fp+5", "0x1.95e455a56da2ap+7",
        "0x1.817ead7c6edb4p+5", "0x1.caf41082c872bp-43", "0x1.96c6bfefe4f5ep+7",
        "0x1.caf40c08e5b55p-43", "0x1.4b966f606b1e4p-14", "0x1.d774c7c74159ap-61"),
    ("theta_one_log", 31_623, 1): (
        "0x1.c15656b974b68p+11", "0x1.74712e7ed444ap+11", "0x1.c15627674959bp+11",
        "0x1.c15627674959bp+11", "0x1.08f89a9dea5d3p-38", "0x1.c15627386fdf0p+11",
        "0x1.090019032c781p-38", "0x1.7c0826bb777fap-8", "0x1.8e9cb393ca731p-55"),
    ("theta_one_log", 10_000_000, 2): (
        "0x1.8f7c15bf89622p+15", "0x1.4e7e13333204ep+14", "0x1.a9ec000000000p+15",
        "0x1.a9ec000000000p+14", "0x1.d2c73684c6d2ap-35", "0x1.8f7c1597a5bd8p+15",
        "0x1.d2c7420a54993p-35", "0x1.3f1d24f615ed0p-12", "0x1.38b809bdbf9dfp-57"),
    ("geometric_half", 1000, 2): (
        "0x1.1b68d308362edp+3", "0x1.4752cf481c0c6p-1", "0x1.2000000000000p+3",
        "nan", "0x1.3f1737d9ff7adp-47", "0x1.1b62eb5093c11p+3",
        "0x1.3f1091cf2542dp-47", "0x1.79ede89b71495p-11", "0x1.09f1b218c17cap-57"),
}


def series_point(d, t, k):
    """The outputs of one series_sweep op, as float.hex strings."""
    rep = moment_report(d, t, k, star=True, law="binomial")
    vals = (rep.exact_mean, rep.exact_var, rep.asym_mean, rep.asym_var,
            rep.truncation_error) + exact_mean(d, t, k, True, "poisson") \
        + mean_difference(d, t, k, True)
    return tuple(float(v).hex() for v in vals)


def poisson_cells(lam, k):
    """P(Poisson(lam) >= k) and P(Poisson(lam) < k) of the head kernel."""
    g, gc, _ = moments._poisson_cells(np.array([float(lam)]), k, True)
    return float(g[0]), float(gc[0])


class TestPoissonCdf:
    """P(Poisson(lam) >= k) and P(Poisson(lam) < k) of the head kernel,
    which every head sum takes, to an absolute 1e-14 and within
    _CELL_ULPS ulps (the per-cell error the series bounds assume)."""

    def test_zero_rate(self):
        for k in (1, 2, 7):
            assert poisson_cells(0.0, k) == (0.0, 1.0)

    def test_log2_half(self):
        assert abs(poisson_cells(math.log(2.0), 1)[1] - 0.5) < 1e-14

    def test_frozen_oracle(self):
        assert abs(poisson_cells(5.0, 3)[1] - POI_5_LT_3) < 1e-14

    @given(lam=st.one_of(st.floats(min_value=0.0, max_value=0.5),
                         st.floats(min_value=0.0, max_value=50.0)),
           k=st.integers(min_value=1, max_value=10))
    @settings(max_examples=50, deadline=None)
    def test_matches_high_precision(self, lam, k):
        # lam below 1/2 too: the _EM_MIN_INDEX floor puts head cells there
        with mp.workdps(30):
            want = (float(mp.gammainc(k, 0, lam, regularized=True)),
                    float(mp.gammainc(k, lam, mp.inf, regularized=True)))
        for got, w in zip(poisson_cells(lam, k), want):
            assert abs(got - w) < 1e-14
            if w < 1e-290:
                assert abs(got - w) <= 1e-300
            else:
                assert abs(got - w) <= moments._CELL_ULPS * math.ulp(w), (lam, k, got, w)

    def test_large_rates(self):
        # exp(-800) underflows, so the pmfs come from their logarithms and
        # at least 1000 is not 1 - 0; the bound is the conditioning,
        # |k - lam| ulps, of the pmf at k
        for lam, k in ((800.0, 1000), (1e8, 3)):
            with mp.workdps(30):
                want = (float(mp.gammainc(k, 0, lam, regularized=True)),
                        float(mp.gammainc(k, lam, mp.inf, regularized=True)))
            got = poisson_cells(lam, k)
            for g, w in zip(got, want):
                assert abs(g - w) <= abs(k - lam) * math.ulp(w), (lam, k, got, want)
        assert 0.0 < poisson_cells(800.0, 1000)[0] < 1e-11


class TestBinomialTail:
    def test_k1_closed_form(self):
        for n, p in ((10, 0.3), (1000, 0.001), (7, 0.9)):
            want = -math.expm1(n * math.log1p(-p))
            assert abs(binomial_tail_at_least(n, p, 1) - want) < 1e-13

    def test_two_coins(self):
        assert abs(binomial_tail_at_least(2, 0.5, 2) - 0.25) < 1e-15

    def test_frozen_oracle_and_poisson_proximity(self):
        got = binomial_tail_at_least(1000, 0.01, 3)
        assert abs(got - BIN_1000_001_GE3) < 1e-12
        assert abs(got - POI_10_GE3) < 0.02

    def test_k_above_n(self):
        assert binomial_tail_at_least(5, 0.5, 6) == 0.0
        assert binomial_tail_at_least(10, 0.5, 70) == 0.0

    def test_k_past_the_falling_factors(self):
        # k - 1 <= _MAX_ORDER orders of falling factors: k = 61 is the last
        got = binomial_tail_at_least(1000, 0.06, 61)
        assert got == 0.46572111717245535
        with mp.workdps(40):
            q = mp.mpf(0.06)
            want = 1 - mp.fsum(mp.binomial(1000, i) * q ** i * (1 - q) ** (1000 - i)
                               for i in range(61))
        assert abs(got - float(want)) < 1e-13
        for n, p, k in ((1000, 0.06, 62), (100, 0.5, 70), (5, 0.5, 0)):
            message = f"k must be >= 1 and <= 61 \\(or > n\\), got {k}$"
            with pytest.raises(ValueError, match=message):
                binomial_tail_at_least(n, p, k)

    def test_sure_success(self):
        # Binomial(n, 1) = n: every k <= n is reached, with no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert binomial_tail_at_least(5, 1.0, 2) == 1.0
            got = binomial_tail_at_least(5, [0.5, 1.0], 3)
        assert abs(got[0] - 0.5) < 1e-15 and got[1] == 1.0

    def test_large_n_head_cells(self):
        # the head cells of the series at n ~ 1e8 have n p in [0.5, 4]; the
        # Poisson tail plus the binomial-minus-Poisson correction matches a
        # 40-digit evaluation of 1 - sum_{i<k} C(n,i) p^i (1-p)^(n-i)
        n = 99_504_511
        lams = np.linspace(0.5, 4.0, 15)
        for k in (2, 3):
            vec = binomial_tail_at_least(n, lams / n, k)
            for lam, got_vec in zip(lams, vec):
                p = lam / n
                with mp.workdps(40):
                    q = mp.mpf(p)
                    want = float(1 - mp.fsum(mp.binomial(n, i) * q ** i * (1 - q) ** (n - i)
                                             for i in range(k)))
                for got in (got_vec, binomial_tail_at_least(n, p, k)):
                    assert abs(got - want) <= 1e-13 * want


class TestExactMean:
    def test_zero_scale(self, zipf2, geometric_half):
        for d in (zipf2, geometric_half):
            for k in (1, 2, 3):
                for star in (True, False):
                    assert exact_mean(d, 0.0, k, star) == (0.0, 0.0)

    def test_geometric_frozen(self, geometric_half):
        val, trunc = exact_mean(geometric_half, 1.0, 1, star=True)
        assert abs(val - GEO_T1_K1_STAR) < 1e-12
        assert trunc < 1e-10

    def test_zipf_binomial_frozen_bracket(self, zipf2):
        val, trunc = exact_mean(zipf2, 100.0, 1, star=True, law="binomial")
        assert ZIPF_N100_LO <= val <= ZIPF_N100_HI + 1e-9
        assert trunc < 1e-6

    @pytest.mark.parametrize("n", [17, 10 ** 3, 10 ** 5])
    def test_binomial_matches_oracle(self, zipf2, n):
        # 40 digits: P(Bin(n, p_j) in A) summed over the cells j <= M, plus
        # the cells beyond (n p_j <= 0.1, so r <= 80 suffices) from
        # P(Bin(n, p) = i) = sum_r C(n, i) C(n - i, r - i) (-1)^(r - i) p^r
        # and sum_{j > M} p_j^r = zeta(2r, M + 1) / zeta(2)^r
        with mp.workdps(40):
            z2 = mp.zeta(2)
            M = max(100, math.ceil(math.sqrt(10 * n / float(z2))))
            pmf_sum = [mp.mpf(0)] * 4  # sum_j P(Bin = i), j <= M
            ge_sum = [mp.mpf(0)] * 4   # sum_j P(Bin >= i), j <= M
            for j in range(1, M + 1):
                p = 1 / (z2 * j * j)
                below = mp.mpf(0)
                for i in range(4):
                    pmf = mp.binomial(n, i) * p ** i * (1 - p) ** (n - i)
                    pmf_sum[i] += pmf
                    ge_sum[i] += 1 - below
                    below += pmf
            R = min(n, 80)
            power = [mp.zeta(2 * r, M + 1) / z2 ** r for r in range(R + 1)]
            # the r = 0 term of i = 0 is the 1 of P(Bin >= k) = 1 - P(Bin < k)
            pmf_tail = [mp.fsum(mp.binomial(n, i) * mp.binomial(n - i, r - i)
                                * (-1) ** (r - i) * power[r]
                                for r in range(max(i, 1), R + 1)) for i in range(4)]
            for k in (1, 2, 3):
                for star in (True, False):
                    want = float(ge_sum[k] - mp.fsum(pmf_tail[:k]) if star
                                 else pmf_sum[k] + pmf_tail[k])
                    got, bound = exact_mean(zipf2, float(n), k, star, law="binomial")
                    assert abs(got - want) <= bound + 1e-14 * abs(want), (k, star)
                    # the bound alone covers the error: the head's rounding
                    # and the tail power sums' remainders are in it
                    assert abs(got - want) <= bound, (k, star, got - want, bound)

    @pytest.mark.parametrize("t", [17, 10 ** 3, 10 ** 5])
    def test_poisson_matches_oracle(self, zipf2, t):
        # 40 digits, as the binomial oracle: P(Pois(t p_j) in A) over the
        # cells j <= M, and beyond them P(Pois(t p) = i) =
        # sum_r (-1)^(r - i) t^r p^r / (i! (r - i)!), r <= 80
        with mp.workdps(40):
            z2 = mp.zeta(2)
            M = max(100, math.ceil(math.sqrt(10 * t / float(z2))))
            pmf_sum = [mp.mpf(0)] * 4
            ge_sum = [mp.mpf(0)] * 4
            for j in range(1, M + 1):
                lam = t / (z2 * j * j)
                below = mp.mpf(0)
                for i in range(4):
                    pmf = mp.exp(-lam) * lam ** i / mp.factorial(i)
                    pmf_sum[i] += pmf
                    ge_sum[i] += 1 - below
                    below += pmf
            power = [(t / z2) ** r * mp.zeta(2 * r, M + 1) for r in range(81)]
            pmf_tail = [mp.fsum((-1) ** (r - i) * power[r] / (mp.factorial(i) * mp.factorial(r - i))
                                for r in range(max(i, 1), 81)) for i in range(4)]
            for k in (1, 2, 3):
                for star in (True, False):
                    want = float(ge_sum[k] - mp.fsum(pmf_tail[:k]) if star
                                 else pmf_sum[k] + pmf_tail[k])
                    got, bound = exact_mean(zipf2, float(t), k, star)
                    assert abs(got - want) <= bound, (k, star, got - want, bound)

    @pytest.mark.parametrize("t", [1e2, 1e5, 1e8])
    def test_truncation_budget(self, zipf2, theta_one_log, t):
        for d in (zipf2, theta_one_log):
            for k in (1, 2, 3):
                for star in (True, False):
                    val, trunc = exact_mean(d, t, k, star)
                    assert trunc < 1e-6 * max(1.0, val)
                    assert trunc < 1e-8 * max(1.0, val)  # design budget

    def test_additivity(self, zipf2, theta_one_log, geometric_half):
        # at-least-k = at-least-1 minus the exactly-i pieces, i < k
        for d in (zipf2, theta_one_log, geometric_half):
            for t in (50.0, 1e4):
                base, e0 = exact_mean(d, t, 1, star=True)
                for k in (2, 3, 4):
                    direct, e1 = exact_mean(d, t, k, star=True)
                    recon = base
                    err = e0 + e1
                    for i in range(1, k):
                        mi, ei = exact_mean(d, t, i, star=False)
                        recon -= mi
                        err += ei
                    assert abs(direct - recon) <= err + 1e-10 * max(1.0, direct)

    def test_monotone_in_t(self, zipf2):
        vals = [exact_mean(zipf2, t, 2, star=True)[0]
                for t in (10.0, 100.0, 1e3, 1e4)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_binomial_requires_integer(self, zipf2):
        with pytest.raises(ValueError):
            exact_mean(zipf2, 10.5, 1, star=True, law="binomial")


class TestExactVar:
    def test_zero_scale(self, zipf2):
        assert exact_var(zipf2, 0.0, 2, star=True) == (0.0, 0.0)

    def test_variance_below_mean_star(self, zipf2, theta_one_log, geometric_half):
        for d in (zipf2, theta_one_log, geometric_half):
            for t in (10.0, 1e4):
                for k in (1, 2, 3):
                    v, _ = exact_var(d, t, k, star=True)
                    m, _ = exact_mean(d, t, k, star=True)
                    assert 0.0 <= v <= m

    @pytest.mark.slow
    def test_monte_carlo_oracle(self, zipf2):
        # 1e4 poissonized replications at t = 1e4; sample variance within
        # 5 relative standard errors of the exact series value.
        t = 10_000
        grid = CheckpointGrid(positions=(t,), k_max=1)
        vals = np.empty(10_000)
        for i in range(vals.size):
            traj = run_coupled(zipf2, grid, seed=(991, i))
            vals[i] = traj.rstar_poisson[0, 0]
        v_exact, _ = exact_var(zipf2, float(t), 1, star=True)
        m = vals.mean()
        centered = vals - m
        m2 = float((centered ** 2).mean())
        m4 = float((centered ** 4).mean())
        se_var = math.sqrt(max(m4 - m2 ** 2, 0.0) / vals.size)
        assert abs(vals.var(ddof=1) - v_exact) < 5 * se_var


class TestAsymCoeffs:
    def test_nonstar_half(self):
        assert abs(asym_mean_coeff(0.5, 1, star=False) - math.sqrt(math.pi) / 2) < 1e-12

    def test_star_half_via_partial_sum_oracle(self):
        # partial sums telescope; direct summation agrees with the closed
        # form and the limit is Gamma(1/2)
        M = 100_000
        i = np.arange(1, M + 1, dtype=np.float64)
        from scipy.special import gammaln
        direct = 0.5 * np.exp(gammaln(i - 0.5) - gammaln(i + 1)).sum()
        assert abs(direct - gamma_tail_partial_sum(0.5, M)) < 1e-10
        assert abs(asym_mean_coeff(0.5, 1, star=True) - math.sqrt(math.pi)) < 1e-12
        assert abs(gamma_tail_partial_sum(0.5, 1e17) - math.sqrt(math.pi)) < 1e-8

    @pytest.mark.parametrize("theta", [0.2, 0.5, 0.8])
    def test_partial_sum_against_mpmath(self, theta):
        # Gamma(1-theta) - Gamma(M+1-theta)/Gamma(M+1) to 50 digits, with
        # M + 1 - theta formed in mpf (the float sum alone moves it by about
        # 1e-12): within 4 ulps of Gamma(1-theta) for M = 10..1e12.  A
        # difference of two lgamma values was off by 2e-12 at theta = 0.2,
        # M = 1e4, and 6.5e-11 at 1e6
        with mp.workdps(50):
            th = mp.mpf(theta)
            for M in 10.0 ** np.arange(1, 13):
                want = mp.gamma(1 - th) - mp.exp(mp.loggamma(mp.mpf(M) + 1 - th)
                                                 - mp.loggamma(mp.mpf(M) + 1))
                got = gamma_tail_partial_sum(theta, float(M))
                assert abs(got - want) <= 4 * 2.0 ** -52 * math.gamma(1 - theta), (M, got)

    @pytest.mark.parametrize("theta", [0.0, 0.2, 0.5, 0.8, 0.9, 1.0])
    def test_star_against_mpmath(self, theta):
        # Gamma(k-theta)/(k-1)! to 40 digits for k = 1..60: the closed form
        # is within 1.5e-14 (math.gamma's own error at large arguments); a
        # loop subtracting theta Gamma(i-theta)/i! from Gamma(1-theta) was
        # 3.0e-14 off at theta = 0.9, k = 60
        with mp.workdps(40):
            for k in range(2 if theta == 1.0 else 1, 61):
                want = mp.gamma(k - mp.mpf(theta)) / mp.factorial(k - 1)
                got = asym_mean_coeff(theta, k, star=True)
                assert abs(got - want) <= 2e-14 * want, (k, got)

    def test_star_at_theta_zero_and_one(self):
        # the closed form keeps the old branches' 1.0 (theta = 0) bitwise for
        # every k math.gamma takes, and 1/(k-1) (theta = 1) bitwise while
        # math.gamma is exact on integers (k <= 23), within 3 ulps past it;
        # past k = 171 Gamma(k) overflows, as Gamma(k-theta) does for every
        # theta
        for k in range(1, 172):
            assert asym_mean_coeff(0.0, k, star=True) == 1.0, k
        for k in range(2, 172):
            got, want = asym_mean_coeff(1.0, k, star=True), 1.0 / (k - 1)
            assert got == want if k <= 23 else abs(got - want) <= 3 * math.ulp(want), k
        for theta in (0.0, 0.5, 1.0):
            with pytest.raises(OverflowError):
                asym_mean_coeff(theta, 172, star=True)

    def test_star_additivity(self):
        want = (math.sqrt(math.pi) - asym_mean_coeff(0.5, 1, star=False)
                - asym_mean_coeff(0.5, 2, star=False))
        assert abs(asym_mean_coeff(0.5, 3, star=True) - want) < 1e-12

    def test_regime_flags(self):
        assert asym_mean_coeff(1.0, 1, star=True) is T_LSTAR_REGIME
        assert asym_mean_coeff(1.0, 1, star=False) is T_LSTAR_REGIME
        assert asym_var_coeff(1.0, 1, star=True) is T_LSTAR_REGIME

    def test_theta0(self):
        assert asym_mean_coeff(0.0, 3, star=True) == 1.0
        assert asym_mean_coeff(0.0, 3, star=False) == 0.0
        with pytest.raises(DistributionError):
            asym_var_coeff(0.0, 2, star=True)

    def test_var_coeff_values(self):
        assert abs(asym_var_coeff(0.5, 1, star=True)
                   - math.sqrt(math.pi) * (math.sqrt(2) - 1)) < 1e-12
        # hand-derived: 2 Gamma(1) - Gamma(1)/1! - Gamma(1)/2 = 1/2
        assert abs(asym_var_coeff(1.0, 2, star=True) - 0.5) < 1e-12
        assert abs(asym_var_coeff(1.0, 3, star=True) - 0.1875) < 1e-12

    def test_var_coeff_positive_and_mean_decreasing(self):
        for theta in (0.2, 0.5, 0.8):
            prev = math.inf
            for k in (1, 2, 3, 4):
                assert asym_var_coeff(theta, k, star=False) > 0.0
                c = asym_mean_coeff(theta, k, star=False)
                assert c < prev
                prev = c

    @pytest.mark.parametrize("theta", [0.2, 0.3, 0.5, 0.8, 1.0])
    def test_constants_match_scipy_gamma(self, monkeypatch, theta):
        # math.gamma and math.lgamma against scipy's gamma and gammaln in
        # the same formulas: within 1e-14 relative on the theta grids above.
        # The partial sum is compared at M = 4, below the cut where it stops
        # taking lgamma (test_partial_sum_against_mpmath checks it above)
        def constants():
            out = [gamma_tail_partial_sum(theta, 4.0)] if theta < 1.0 else []
            for k, star in itertools.product((1, 2, 3, 4), (True, False)):
                for coeff in (asym_mean_coeff, asym_var_coeff):
                    c = coeff(theta, k, star)
                    out += [] if c is T_LSTAR_REGIME else [c]
            return out

        got = constants()
        monkeypatch.setattr(moments, "math", types.SimpleNamespace(
            **{**vars(math), "gamma": special.gamma, "lgamma": special.gammaln}))
        want = constants()
        assert len(got) == len(want) > 10
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-14 * abs(w), (g, w)

    def test_star_var_matches_exact_series_zipf(self, zipf2):
        t = 1e8
        count = zipf2.counting_function(t)
        for k in (2, 3):
            v, _ = exact_var(zipf2, t, k, star=True)
            coeff = asym_var_coeff(0.5, k, star=True)
            assert abs(v / (coeff * count) - 1.0) < 0.05

    def test_theta0_scaled_means_vanish(self, geometric_half):
        # exactly-k means stay O(1) while the counting function grows
        # like log t, so the scaled ratios trend to zero (logarithmically)
        for k in (1, 2):
            ratios = [exact_mean(geometric_half, t, k, star=False)[0]
                      / geometric_half.counting_function(t)
                      for t in (1e2, 1e4, 1e6, 1e8)]
            assert all(b < a for a, b in zip(ratios, ratios[1:]))
            assert ratios[-1] < 0.25 * ratios[0]


# float.hex of (b(n), tprime(n)) at n = 16, 1e4, 1e7, frozen from the
# normalizer before it read theta from the distribution.  For theta < 1 the
# 1/ln n branch of the minimum is the smaller one at these n, so the three
# theta < 1 families share one row for both k.
_NORMALIZER_BITS_THETA_LT1 = (
    ("0x1.6a2a6fe4309f2p-2", "0x1.051065802df07p+2"),
    ("0x1.90966476a737bp-5", "0x1.bc10bb843467ap+7"),
    ("0x1.6da76f8703d36p-6", "0x1.12b79a57a9a42p+13"),
)
NORMALIZER_BITS = {
    ("zipf2", 1): _NORMALIZER_BITS_THETA_LT1,
    ("zipf2", 2): _NORMALIZER_BITS_THETA_LT1,
    ("zipf_log21", 1): _NORMALIZER_BITS_THETA_LT1,
    ("zipf_log21", 2): _NORMALIZER_BITS_THETA_LT1,
    ("geometric_half", 1): _NORMALIZER_BITS_THETA_LT1,
    ("geometric_half", 2): _NORMALIZER_BITS_THETA_LT1,
    # re-pinned when L* became the exact series, again (n = 1e4, 1e7, 1-3
    # ulps) when its r = 1 tail sum came from the Gauss pass, and again (n =
    # 1e4, 1e7, 1-3 ulps) when tail_power_sum formed (t f(x0) / Z)^r by
    # products; see NORMALIZER_BITS_SIMPSON.  Until then L*(16), and b(16)
    # with it, was one ulp lower where numpy's AVX-512 loops do not run; now
    # both paths give these bits, so there is one set
    ("theta_one_log", 1): (
        ("0x1.57051c0ceba49p-2", "0x1.2cb7e93e697e1p+2"),
        ("0x1.2c82cb4cd0858p-6", "0x1.ecad77fd2a726p+7"),
        ("0x1.8dd85c1d87334p-11", "0x1.49922c1d8b8e6p+13"),
    ),
    ("theta_one_log", 2): (
        ("0x1.24b8e77439bf1p-1", "0x1.88dd68508b3d7p+2"),
        ("0x1.71d0d2557537ap-5", "0x1.827716bd48173p+8"),
        ("0x1.50af051ba0e51p-9", "0x1.2f2e82da65452p+14"),
    ),
}


# The theta_one_log k = 1 row before that, when L* came from a log-grid
# Simpson rule over the counting function, refined until two resolutions
# agreed to 1e-6 relative or six refinements were done, with the relative
# error it returned at each n (at n = 16 it stopped short of the target).
NORMALIZER_BITS_SIMPSON = (
    ("0x1.570527e6e8bdbp-2", "0x1.2cb7ee70543a4p+2"),
    ("0x1.2c82d104a00e2p-6", "0x1.ecad7cad199f9p+7"),
    ("0x1.8dd85c2db5836p-11", "0x1.49922c243f481p+13"),
)
LSTAR_SIMPSON_REL_ERR = (2.65e-6, 1.12e-7, 4.0e-10)


class TestNormalizer:
    @pytest.mark.parametrize("fixture,k", sorted(NORMALIZER_BITS))
    def test_frozen_bits(self, request, fixture, k):
        spec = normalizer(request.getfixturevalue(fixture), k)
        got = tuple((spec.b(n).hex(), spec.tprime(n).hex()) for n in (16.0, 1e4, 1e7))
        assert got == NORMALIZER_BITS[(fixture, k)]

    def test_within_simpson_bits(self, theta_one_log):
        # the Simpson L* was good to its 1e-6 target or its returned error,
        # whichever is larger; b goes as L*^-1/2 and tprime as L*^-1/4
        spec = normalizer(theta_one_log, 1)
        for n, (b, tprime), err in zip((16.0, 1e4, 1e7), NORMALIZER_BITS_SIMPSON,
                                       LSTAR_SIMPSON_REL_ERR):
            tol = max(1e-6, err)
            for got, old, power in ((spec.b(n), b, 0.5), (spec.tprime(n), tprime, 0.25)):
                old = float.fromhex(old)
                assert abs(got - old) <= (power * tol + 1e-12) * old, (n, power)

    def test_theta1_k1_formula(self, theta_one_log):
        spec = normalizer(theta_one_log, 1)
        n = 1e6
        want = (n * smoothed_slowly_varying(theta_one_log, n) * math.log(math.log(n))) ** -0.5
        assert abs(spec.b(n) - want) < 1e-12 * want

    def test_theta1_k2_uses_plain_L(self, theta_one_log):
        spec = normalizer(theta_one_log, 2)
        n = 1e6
        want = (n * slowly_varying(theta_one_log, n) * math.log(math.log(n))) ** -0.5
        assert abs(spec.b(n) - want) < 1e-12 * want

    def test_theta_half_min_structure(self, zipf2):
        spec = normalizer(zipf2, 1)
        n = 1e6
        assert spec.b(n) <= 1.0 / (math.log(n) * math.log(math.log(n))) + 1e-15

    def test_small_o_of_admissible_class(self, zipf2):
        # ratio of our b_n to the admissible bound must decrease to 0
        spec = normalizer(zipf2, 1)
        ratios = []
        for n in np.logspace(3, 9, 7):
            bound = min(n ** 0.0 / (slowly_varying(zipf2, n) * math.log(math.log(n))),
                        1.0 / math.log(n))
            ratios.append(spec.b(n) / bound)
        assert all(b < a for a, b in zip(ratios, ratios[1:]))

    def test_b_decreasing_tprime_small_o(self, zipf2, theta_one_log):
        for d in (zipf2, theta_one_log):
            spec = normalizer(d, 1)
            ns = np.logspace(2, 8, 7)
            bs = [spec.b(n) for n in ns]
            assert all(b < a for a, b in zip(bs, bs[1:]))
            tp = [spec.tprime(n) / n for n in ns]
            assert all(b < a for a, b in zip(tp, tp[1:]))

    def test_requires_n_at_least_16(self, zipf2):
        spec = normalizer(zipf2, 1)
        with pytest.raises(ValueError):
            spec.b(15.0)


class TestIncrementCheck:
    def test_zero_shift(self, zipf2):
        chk = mean_increment_check(zipf2, 1000, 0.0, 1)
        assert chk.lhs == 0.0 and chk.rhs == 0.0 and chk.holds

    def test_zipf_sqrt_window(self, zipf2):
        n = 100_000
        chk = mean_increment_check(zipf2, n, math.sqrt(n), 2)
        assert chk.holds and chk.margin > 0.0

    def test_lhs_increasing_in_shift(self, zipf2):
        n = 10_000
        lhs = [mean_increment_check(zipf2, n, t, 1).lhs
               for t in (10.0, 100.0, 1000.0)]
        assert lhs[0] < lhs[1] < lhs[2]

    def test_requires_small_shift(self, zipf2):
        with pytest.raises(ValueError):
            mean_increment_check(zipf2, 100, 100.0, 1)


class TestSandwich:
    def test_zipf_all_positive(self, zipf2):
        m = variance_sandwich_check(zipf2, 10_000, 1)
        assert m.holds
        assert m.lower_margin > 0 and m.upper_margin > 0 and m.strict_margin > 0

    def test_geometric(self, geometric_half):
        assert variance_sandwich_check(geometric_half, 100, 2).holds

    def test_star_variance_below_star_mean(self, zipf2):
        v, _ = exact_var(zipf2, 500.0, 1, star=True)
        m, _ = exact_mean(zipf2, 500.0, 1, star=True)
        assert v <= m


class TestMeanDifference:
    def test_matches_direct_subtraction_moderate_n(self, zipf2, geometric_half):
        n = 1000
        for d in (zipf2, geometric_half):
            for k, star in ((1, True), (2, True), (1, False), (2, False)):
                fine = mean_difference(d, n, k, star)[0]
                coarse = (exact_mean(d, float(n), k, star, law="binomial")[0]
                          - exact_mean(d, float(n), k, star, law="poisson")[0])
                assert abs(fine - coarse) < 1e-8 * max(1.0, abs(fine))

    def test_positive_for_occupied_count(self, zipf2):
        for n in (1000, 100_000):
            assert mean_difference(zipf2, n, 1, star=True)[0] > 0.0

    def test_zero_balls(self, zipf2):
        assert mean_difference(zipf2, 0, 1, star=True) == (0.0, 0.0)

    # the argument checks of the binomial-law exact_mean
    @pytest.mark.parametrize("n,k,star,match", [
        (1000.7, 2, True, "integer n"),
        (1000, 0, False, "k must be >= 1"),
        (-5, 1, True, "t must be >= 0"),
    ])
    def test_rejects_bad_arguments(self, zipf2, n, k, star, match):
        with pytest.raises(ValueError, match=match):
            exact_mean(zipf2, n, k, star, law="binomial")
        with pytest.raises(ValueError, match=match):
            mean_difference(zipf2, n, k, star)

    def test_k_within_the_tail_orders(self, zipf2):
        # the tail has orders 1.._MAX_ORDER, so k = 60 is the last k a series takes
        assert _MAX_ORDER == 60
        assert exact_mean(zipf2, 1e4, 60, True)[0] == pytest.approx(9.629032375569306, rel=1e-12)
        for value, bound in (exact_mean(zipf2, 1e4, 60, False, law="binomial"),
                             exact_var(zipf2, 1e4, 60, True),
                             mean_difference(zipf2, 10_000, 60, True)):
            assert value > 0.0 and 0.0 < bound < 1e-10
        for star in (True, False):
            for law in ("poisson", "binomial"):
                with pytest.raises(ValueError, match="k must be >= 1 and <= 60, got 61"):
                    exact_mean(zipf2, 1e4, 61, star, law=law)
            with pytest.raises(ValueError, match="k must be >= 1 and <= 60, got 61"):
                exact_var(zipf2, 1e4, 61, star)
            with pytest.raises(ValueError, match="k must be >= 1 and <= 60, got 61"):
                mean_difference(zipf2, 10_000, 61, star)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_rejects_non_finite_t(self, zipf2, t):
        for law in ("poisson", "binomial"):
            with pytest.raises(ValueError, match="finite"):
                exact_mean(zipf2, t, 1, star=True, law=law)
        with pytest.raises(ValueError, match="finite"):
            exact_var(zipf2, t, 1, star=True)
        with pytest.raises(ValueError, match="finite"):
            mean_difference(zipf2, t, 1, star=True)

    def test_theta_one_log_large_n_head(self, theta_one_log):
        # at-least-2 gap at n = 1e8: per head cell
        #   e^-lam (-expm1(n L)) - lam e^-lam expm1(n L - log1p(-p)),
        # L = log1p(-p) + p, here from its Taylor series below p = 1e-3;
        # the analytic tail from the Maclaurin series of the code with each
        # coefficient difference cb - cp taken at 50 digits
        n, k = 10 ** 8, 2
        J = moments._head_length(theta_one_log, float(n))
        p = theta_one_log.prob_array(np.arange(1, J + 1))
        lam = n * p
        small = p < 1e-3
        L = np.where(small, -p * p * sum(p ** (m - 2) / m for m in range(2, 9)),
                     np.log1p(-p) + p)
        head = float((np.exp(-lam) * (-np.expm1(n * L))
                      - lam * np.exp(-lam) * np.expm1(n * L - np.log1p(-p))).sum())
        coeffs = np.zeros(moments._MAX_ORDER + 1)
        with mp.workdps(50):
            for r in range(k, coeffs.size):
                m = r - k
                cp = mp.mpf(-1) ** m / (mp.factorial(m) * r * mp.factorial(k - 1))
                falling = mp.fprod(1 - mp.mpf(i) / n for i in range(r))
                coeffs[r] = float(cp * (falling - 1))
        tail, _, _ = moments._tail_series(theta_one_log, float(n), J, coeffs)
        got, bound = mean_difference(theta_one_log, n, k, True)
        assert abs(got - (head + tail)) <= 1e-10 * abs(head + tail)
        assert bound < 1e-10 * abs(got)


def exact_gaps(d, n):
    """{(k, star): mean_difference at 50 digits}, k = 1..3, over the
    computed p_j: the head cells j <= J term by term, and past them the tail
    power sums of d (whose own bounds the series bound carries) times the
    exact coefficients, or for geometric the cells themselves up to J + 3000
    (what is left is below 1e-30)."""
    J = moments._head_length(d, float(n))
    ps = list(d.prob_array(np.arange(1, J + 1)))
    if d.family == "geometric":
        ps += list(d.prob_array(np.arange(J + 1, J + 3001)))
    with mp.workdps(50):
        # per i, the sum over cells of P(Bin(n, p) = i) - P(Pois(n p) = i)
        diffs = [mp.mpf(0)] * 4
        for p in ps:
            p = mp.mpf(float(p))
            lam, l1p = n * p, mp.log1p(-p)
            for i in range(4):
                diffs[i] += (mp.binomial(n, i) * p ** i * mp.exp((n - i) * l1p)
                             - mp.exp(-lam) * lam ** i / mp.factorial(i))
        out = {}
        values = [] if d.family == "geometric" else d.tail_power_sum(float(n), J)[0]
        for k, star in itertools.product((1, 2, 3), (True, False)):
            total = -mp.fsum(diffs[:k]) if star else diffs[k]
            for r in range(k, len(values) + 1):
                m = r - k
                c = (mp.mpf(-1) ** m / (mp.factorial(m) * r * mp.factorial(k - 1)) if star
                     else mp.mpf(-1) ** m / (mp.factorial(k) * mp.factorial(m)))
                falling = mp.fprod(1 - mp.mpf(i) / n for i in range(r))
                total += c * (falling - 1) * mp.mpf(float(values[r - 1]))
            out[(k, star)] = total
        return out


class TestMeanDifferenceBound:
    """mean_difference's bound holds against exact_gaps, the gap head's
    cancellation included: the head cells' exponents n (log1p(-p) + p) lose
    about 2^-52 n p to rounding where p > 1e-4, which a bound of 1e-14 of
    the head missed 20- to 130-fold at the points of POINTS_SEEN; for
    geometric q = 0.99 at n = 1e4, exactly 3, whose gap is below 1e-19, the
    value is rounding (about 5e-16) and a bound that omitted the head's
    and the tail's rounding read 1e-24."""

    SPECS = {
        "zipf2": DistributionSpec(family="zipf", s=2.0),
        "zipf_log1.5-1": DistributionSpec(family="zipf_log", s=1.5, a=1.0),
        "theta_one_log": DistributionSpec(family="theta_one_log"),
    }
    POINTS_SEEN = (("zipf2", 31_623, 3, False), ("zipf2", 10_000, 3, False),
                   ("zipf_log1.5-1", 10_000, 3, False), ("theta_one_log", 1_000, 3, True))

    N = (1_000, 10_000, 31_623)
    COUNTS = ((1, True), (2, True), (3, True), (2, False), (3, False))

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_holds_at_fifty_digits(self, name):
        d = build_distribution(self.SPECS[name])
        assert all(n in self.N and (k, star) in self.COUNTS
                   for fam, n, k, star in self.POINTS_SEEN if fam == name)
        for n in self.N:
            wants = exact_gaps(d, n)
            for k, star in self.COUNTS:
                got, bound = mean_difference(d, n, k, star)
                assert abs(mp.mpf(got) - wants[(k, star)]) <= bound, (n, k, star, got, bound)
                assert bound <= 1e-9 * abs(got)

    def test_holds_where_the_gap_cancels(self):
        d = build_distribution(DistributionSpec(family="geometric", q=0.99))
        got, bound = mean_difference(d, 10_000, 3, False)
        want = exact_gaps(d, 10_000)[(3, False)]
        assert abs(want) < 1e-19 < 1e-17 < abs(got)
        assert abs(mp.mpf(got) - want) <= bound < 1e-12

    @pytest.mark.parametrize("fam", ["zipf2", "zipf_log21", "theta_one_log", "geometric_half"])
    def test_more_counts_than_balls(self, request, fam):
        # n balls fill no cell to k = n + 1, so the fixed-n mean is 0 and the
        # gap is minus the poissonized mean; the at-least-k head takes that
        # as it is, so its bound stays a few ulps of the gap
        d = request.getfixturevalue(fam)
        for n in (3, 10, 59):
            for star in (True, False):
                gap, bound = mean_difference(d, n, n + 1, star)
                mean, mean_bound = exact_mean(d, float(n), n + 1, star, "poisson")
                assert gap < 0.0 and abs(gap + mean) <= bound + mean_bound, (n, star, gap, mean)
                assert bound <= 1e-12 * abs(gap), (n, star, gap, bound)


_FAMILIES = ("zipf2", "zipf_log21", "theta_one_log", "geometric_half")
_GAP_N = (10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6, 10 ** 7, 10 ** 8, 3 * 10 ** 8)


class TestDepoissonization:
    # |n (mean_difference / prediction - 1)| sits at 0.04..0.25 on these
    # rows at every n.  At theta = 0 the exactly-k prediction nearly cancels
    # and the next order swings n (ratio - 1) through +-75, so geometric
    # exactly-k rows are checked against a direct sum instead.
    C_LIMIT = 1.0

    @pytest.mark.parametrize("fam", _FAMILIES)
    def test_gap_matches_second_order_prediction(self, request, fam):
        d = request.getfixturevalue(fam)
        for n in _GAP_N:
            for k in (1, 2, 3):
                for star in (True, False) if d.theta > 0 else (True,):
                    gap, bound = mean_difference(d, n, k, star)
                    pred = depoissonization_gap(d, n, k, star)
                    dev = n * (gap / pred - 1.0)
                    assert abs(dev) <= self.C_LIMIT, (fam, n, k, star, gap, pred, dev)
                    assert bound < 1e-9 * abs(gap)

    def test_geometric_gap_direct_sum(self, geometric_half):
        # 40-digit sum over the cells p_j = 2^-j that carry the gap
        def direct(n, k, star):
            tot = mp.mpf(0)
            for j in range(1, int(math.log2(n)) + 120):
                p = mp.mpf(2) ** -j
                lam = n * p
                binom = [mp.binomial(n, i) * p ** i * (1 - p) ** (n - i) for i in range(k + 1)]
                pois = [mp.exp(-lam) * lam ** i / mp.factorial(i) for i in range(k + 1)]
                tot += sum(pois[:k]) - sum(binom[:k]) if star else binom[k] - pois[k]
            return tot

        for n in (10 ** 3, 10 ** 5, 3 * 10 ** 8):
            for k in (1, 2, 3):
                for star in (True, False):
                    with mp.workdps(40):
                        want = float(direct(n, k, star))
                    got, _ = mean_difference(geometric_half, n, k, star)
                    assert abs(got - want) <= 1e-9 * abs(want), (n, k, star, got, want)

    @pytest.mark.parametrize("fam", _FAMILIES)
    def test_occupied_gap_bound(self, request, fam):
        # 0 < E K_n - Phi(n) < 2 Phi_2(n) / n (Gnedin, Hansen and Pitman
        # 2007); positive since (1 - p)^n <= exp(-n p) per cell
        d = request.getfixturevalue(fam)
        for n in _GAP_N:
            gap, _ = mean_difference(d, n, 1, True)
            phi2, _ = exact_mean(d, float(n), 2, False)
            assert 0.0 < gap < 2.0 * phi2 / n, (fam, n, gap, phi2)

    def test_prediction_arguments(self, zipf2):
        assert depoissonization_gap(zipf2, 0, 2, True) == 0.0
        with pytest.raises(ValueError, match="integer n"):
            depoissonization_gap(zipf2, 1000.5, 1, True)
        # it reads the exactly-j means up to k + 1 (at least) or k + 2
        # (exactly), and names the caller's k past the last one
        for star, top, law in ((True, 59, "at-least"), (False, 58, "exactly")):
            assert math.isfinite(depoissonization_gap(zipf2, 1000, top, star))
            for k in (top + 1, _MAX_ORDER):
                with pytest.raises(ValueError,
                                   match=f"k must be <= {top} for the {law}-k gap, got {k}$"):
                    depoissonization_gap(zipf2, 1000, k, star)


class TestSharedTailSums:
    def test_series_bitwise_frozen(self, request, x86_v4):
        for (fam, t, k), want in (SERIES_HEX if x86_v4 else SERIES_HEX_NO_V4).items():
            d = request.getfixturevalue(fam)
            assert series_point(d, t, k) == want
            # again with every tail power sum at t already computed
            assert series_point(d, t, k) == want

    @staticmethod
    def assert_within_bounds(pins, older):
        # (value, bound) positions in series_point; the asymptotic values
        # keep their bits, except those on the t L*(t) scale (theta = 1,
        # k = 1), which the older pins took from a quadrature good to 1e-6,
        # and zipf_log21's, whose asym_var the older pins took from scipy's
        # gamma (3 ulps from math.gamma's) and whose asym_mean from the
        # telescoping loop (0x1.95e455a56da2ap+7, where the closed form
        # gives the rounded 40-digit value 0x1.95e455a56da2bp+7)
        pairs = ((0, 4), (1, 4), (5, 6), (7, 8))
        for key, new in pins.items():
            old = older[key]
            new_f = [float.fromhex(v) for v in new]
            old_f = [float.fromhex(v) for v in old]
            if key[0] == "theta_one_log" and key[2] == 1:
                for v in (2, 3):
                    assert abs(new_f[v] - old_f[v]) <= 1e-6 * old_f[v], (key, v)
            elif key[0] == "zipf_log21":
                assert (old[2], new[2]) == ("0x1.95e455a56da2ap+7", "0x1.95e455a56da2bp+7"), key
                assert abs(new_f[3] - old_f[3]) <= 3 * math.ulp(old_f[3]), key
            else:
                assert new[2:4] == old[2:4], key
            for v, b in pairs:
                assert abs(new_f[v] - old_f[v]) <= new_f[b] + old_f[b], (key, v)

    def test_series_within_bounds_of_gammainc_head(self):
        for pins in (SERIES_HEX, SERIES_HEX_NO_V4):
            self.assert_within_bounds(pins, SERIES_HEX_GAMMAINC)

    def test_series_within_bounds_of_quad_tail(self):
        for pins in (SERIES_HEX, SERIES_HEX_NO_V4):
            self.assert_within_bounds(pins, SERIES_HEX_QUAD)

    def test_series_within_bounds_of_em_bridge(self):
        for pins in (SERIES_HEX, SERIES_HEX_NO_V4):
            self.assert_within_bounds(pins, SERIES_HEX_EM_BRIDGE)

    @pytest.mark.parametrize("spec, t", [
        (DistributionSpec(family="zipf", s=2.0), 10_000),  # head at the floor
        (DistributionSpec(family="zipf_log", s=2.0, a=1.0), 1_000_000),
        (DistributionSpec(family="theta_one_log"), 100_000),  # k = 1 reaches L*
    ])
    def test_one_pass_per_tail_cut(self, monkeypatch, spec, t):
        d = build_distribution(spec)
        asked = []
        passes = []
        tail_power_sum = distributions.CellDistribution.tail_power_sum
        power_integrals = distributions._power_integrals

        def spy_tail(self, at, J):
            asked.append((at, J))
            return tail_power_sum(self, at, J)

        def spy_pass(*args):
            passes.append(args)
            return power_integrals(*args)

        monkeypatch.setattr(distributions.CellDistribution, "tail_power_sum", spy_tail)
        monkeypatch.setattr(distributions, "_power_integrals", spy_pass)
        series = 0
        for k in (1, 2, 3):
            series_point(d, t, k)
            # moment_report's binomial mean and variance (and at theta = 1,
            # k = 1, L* for its asymptotic mean and variance), the Poisson
            # mean and the gap
            series += 6 if d.theta == 1.0 and k == 1 else 4
        # one call per series, every order from it, at one cut per t, which
        # is never below _EM_MIN_INDEX; its orders come from one pass, the
        # r = 1 sum of theta_one_log (r s = 1) included
        assert len(asked) == series
        cuts = {J for _, J in asked}
        assert cuts == {moments._head_length(d, t)}
        assert min(cuts) >= _EM_MIN_INDEX
        assert len(passes) == len(cuts)
        assert len(asked) > 4 * len(passes)

    # the series share the head too: theta_one_log at this t has 3.7e4 head
    # cells, more than one _HEAD_CHUNK
    SPEC = DistributionSpec(family="theta_one_log")
    T = 3_000_017
    CALLS = {
        "mean_binomial": lambda d, t, k, star: exact_mean(d, t, k, star, "binomial"),
        "mean_poisson": lambda d, t, k, star: exact_mean(d, t, k, star, "poisson"),
        "var": exact_var,
        "gap": mean_difference,
    }

    @staticmethod
    def count_head_work(monkeypatch) -> dict:
        """Spy on the head work: the cells passed to the head kernel
        _poisson_cells, and the thresholds of counting_function (the head
        length at t and moment_report's count read one kept search at t)."""
        work = {"cells": 0, "searches": []}
        kernel = moments._poisson_cells

        def cells(lam, k, star):
            work["cells"] += lam.size
            return kernel(lam, k, star)

        monkeypatch.setattr(moments, "_poisson_cells", cells)
        counting_function = distributions.CellDistribution.counting_function

        def search(self, x):
            work["searches"].append(x)
            return counting_function(self, x)

        monkeypatch.setattr(distributions.CellDistribution, "counting_function", search)
        return work

    def test_one_head_pass_per_point(self, monkeypatch):
        # zipf_log's head at t = 1e4 is the _EM_MIN_INDEX floor
        for spec, ts in ((self.SPEC, (31_623, self.T)),
                         (DistributionSpec(family="zipf_log", s=2.0, a=1.0), (10_000,))):
            d = build_distribution(spec)
            work = self.count_head_work(monkeypatch)
            for t in ts:
                J = moments._head_length(d, t)
                for k in (1, 2, 3):
                    work["cells"] = 0
                    series_point(d, t, k)
                    # one pass over the head gives all four sums
                    assert work["cells"] == J
            # one search per t, which the head length and moment_report's
            # count share
            assert work["searches"] == list(ts)

    @pytest.mark.parametrize("law", ["poisson", "binomial"])
    def test_report_and_lstar_one_head_pass(self, monkeypatch, law):
        # at theta = 1, k = 1 moment_report reaches L*(t), which reads the
        # head sums its own series kept at (t, 1, star) and searches nothing
        # beyond the count at t, which is the head length too
        points = []
        head_pass = moments._head_pass

        def spy(d, t, k, star, J):
            points.append((t, k, star))
            return head_pass(d, t, k, star, J)

        work = self.count_head_work(monkeypatch)
        monkeypatch.setattr(moments, "_head_pass", spy)
        for t in (31_623, self.T):
            d = build_distribution(self.SPEC)
            points.clear()
            work["searches"].clear()
            rep = moment_report(d, t, 1, star=True, law=law)
            assert points == [(t, 1, True)]
            assert work["searches"] == [t]
            assert rep.asym_mean == rep.asym_var == t * smoothed_slowly_varying(d, t)

    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_no_more_head_work_alone(self, monkeypatch, name):
        # each series alone makes the one pass, at an integer t (four sums)
        # and at a t that is not (two sums), and then every other series
        # at the point reads the kept sums
        work = self.count_head_work(monkeypatch)
        J = moments._head_length(build_distribution(self.SPEC), self.T)
        ts = (self.T, self.T + 0.5) if name in ("mean_poisson", "var") else (self.T,)
        for t in ts:
            for k, star in ((1, True), (2, True), (2, False)):
                work.update(cells=0, searches=[])
                d = build_distribution(self.SPEC)
                self.CALLS[name](d, t, k, star)
                assert work["cells"] == J
                assert work["searches"] == [t]
                for other in self.CALLS:
                    if t == self.T or other in ("mean_poisson", "var"):
                        self.CALLS[other](d, t, k, star)
                assert work["cells"] == J

    @pytest.mark.parametrize("k, star", [(1, True), (2, True), (2, False)])
    def test_any_order_matches_cold_calls(self, k, star):
        cold = {name: call(build_distribution(self.SPEC), self.T, k, star)
                for name, call in self.CALLS.items()}
        for order in itertools.permutations(self.CALLS):
            d = build_distribution(self.SPEC)
            for name in order:
                got = self.CALLS[name](d, self.T, k, star)
                assert [v.hex() for v in got] == [v.hex() for v in cold[name]], (order, name)

    def test_memo_stays_at_cap(self, monkeypatch):
        work = self.count_head_work(monkeypatch)
        d = build_distribution(DistributionSpec(family="zipf", s=2.0))
        for t, k in itertools.product(np.logspace(3, 6, 34).astype(int), (1, 2, 3)):
            J = moments._head_length(d, int(t))
            work["cells"] = 0
            series_point(d, int(t), k)
            series_point(d, int(t), k)
            # one pass for the new point, none for the kept one
            assert work["cells"] == J
            assert len(d._head_sums) <= _SLOTS
            assert len(d._head_lengths) <= _SLOTS
            # the sums and their bounds are scalars; no head array is kept
            assert all(isinstance(v, float) for sums in d._head_sums.values()
                       for pair in sums.values() for v in pair)
            assert not any(isinstance(v, np.ndarray) and v.size == J for v in vars(d).values())
        assert len(d._head_sums) == _SLOTS


def exact_tail_coeffs(name, n, k, star, top):
    """The Maclaurin coefficients a_0..a_top of the tail rule ``name`` of
    moments._tail_coeffs, at the working precision: "pois" c, "var"
    c - c^2, "binom" c falling(n, r) / n^r and "gap" c (falling(n, r) / n^r - 1)."""
    c = [mp.mpf(0)] * k + [
        mp.mpf(-1) ** (r - k) / (mp.factorial(r - k) * r * mp.factorial(k - 1)) if star
        else mp.mpf(-1) ** (r - k) / (mp.factorial(k) * mp.factorial(r - k))
        for r in range(k, top + 1)]
    if name == "var":
        return [c[r] - mp.fsum(c[i] * c[r - i] for i in range(k, r - k + 1))
                for r in range(top + 1)]
    falling = [mp.mpf(1)]
    for r in range(1, top + 1):
        falling.append(falling[-1] * (1 - mp.mpf(r - 1) / n))
    if name == "binom":
        return [a * f for a, f in zip(c, falling)]
    if name == "gap":
        return [a * (f - 1) for a, f in zip(c, falling)]
    return c


class TestTailRemainder:
    """The tail of a series is cut at N(t) cells, so every tail cell has
    t p_j < 1, and sums every order to _MAX_ORDER, with a proved bound on
    the orders past it."""

    TOP = 200  # orders past it add below 1e-300 to these sums

    @pytest.mark.parametrize("k", [1, 2, 3, 10, 60])
    def test_bound_covers_the_dropped_orders(self, k):
        # at lam* = 1: the power sums of one cell at t p = 1 (every S_r = 1),
        # and of five cells up to it; the bound past _MAX_ORDER is at least
        # the sum of |a_r| S_r over the orders past it, by the exact
        # coefficients
        cells = ([1.0], [1.0, 0.99, 0.9, 0.5, 0.1])
        with mp.workdps(40):
            for name, n, star in itertools.product(("pois", "var", "binom", "gap"),
                                                   (50, 10 ** 6), (True, False)):
                if (name in ("pois", "var") and n != 50) or (name == "binom" and k > n):
                    continue
                coeffs = moments._tail_coeffs(name, float(n), k, star)
                exact = exact_tail_coeffs(name, n, k, star, self.TOP)
                for lams in cells:
                    sums = [mp.fsum(mp.mpf(x) ** r for x in lams) for r in range(self.TOP + 1)]
                    past = moments._past_orders(coeffs, float(sums[_MAX_ORDER]), 1.0)
                    dropped = mp.fsum(abs(exact[r]) * sums[r]
                                      for r in range(_MAX_ORDER + 1, self.TOP + 1))
                    assert mp.mpf(past) >= dropped, (name, n, k, star, lams)

    SPECS = {
        "zipf1.2": DistributionSpec(family="zipf", s=1.2),
        "zipf2": DistributionSpec(family="zipf", s=2.0),
        "zipf_log1.5-1": DistributionSpec(family="zipf_log", s=1.5, a=1.0),
        "theta_one_log": DistributionSpec(family="theta_one_log"),
        "geometric0.9": DistributionSpec(family="geometric", q=0.9),
    }
    SERIES = {
        "pois": exact_mean,
        "var": exact_var,
        "binom": lambda d, t, k, star: exact_mean(d, t, k, star, "binomial"),
        "gap": mean_difference,
    }

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_tail_cells_below_one(self, monkeypatch, name):
        # the head takes every cell with t p_j >= 1, and the bound on the
        # tail's orders past _MAX_ORDER the largest tail cell's t p_{J+1},
        # rounded up
        lams = []
        past_orders = moments._past_orders

        def spy(coeffs, s60, lam):
            lams.append(lam)
            return past_orders(coeffs, s60, lam)

        monkeypatch.setattr(moments, "_past_orders", spy)
        for t in (10 ** 3, 10 ** 5, 10 ** 7):
            d = build_distribution(self.SPECS[name])
            J = moments._head_length(d, t)
            exact_mean(d, t, 2, True)
            assert t * d.prob(J + 1) <= lams[-1] < 1.0
            assert J == _EM_MIN_INDEX or t * d.prob(J) >= 1.0

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_agrees_with_the_half_cut(self, monkeypatch, name):
        # the head over N(t) cells against the head over N(2t), where every
        # tail cell has t p_j <= 1/2: the two values agree within the sum of
        # their bounds, and each bound is at most 1e-10 of its value.  The
        # gap's bound, 5e-10 of the gap at k = 10 at either cut, and the gap
        # itself cancels for geometric exactly-k, so it is held to 1e-10 of
        # the means.  Geometric's head is the _EM_MIN_INDEX floor at both cuts.
        def series(t):
            d = build_distribution(self.SPECS[name])
            return {(s, k, star): call(d, t, k, star) for s, call in self.SERIES.items()
                    for k, star in ((1, True), (2, True), (2, False), (3, True), (10, True))}

        heads = []

        def half_cut(d, x):
            heads.append(max(d.counting_function(2 * x), _EM_MIN_INDEX))
            return heads[-1]

        for t in (10 ** 3, 10 ** 5, 10 ** 7):
            new = series(t)
            with monkeypatch.context() as m:
                m.setattr(moments, "_head_length", half_cut)
                old = series(t)
            for (s, k, star), (value, bound) in new.items():
                old_value, old_bound = old[(s, k, star)]
                assert abs(value - old_value) <= bound + old_bound, (t, s, k, star)
                scale = abs(value) if s != "gap" else max(
                    abs(new[(m, k, star)][0]) for m in ("pois", "binom"))
                assert bound <= 1e-10 * scale, (t, s, k, star, value, bound)
        if name != "geometric0.9":
            assert max(heads) > 2 * _EM_MIN_INDEX


class TestEulerMaclaurinHead:
    """Past the _TABLE_SIZE cells that it sums one by one, a head is summed
    by midpoint Euler-Maclaurin over the smooth p(x); at points whose N(t)
    passes 2^16 that agrees with the explicit sum over all N(t) cells."""

    POINTS = [
        pytest.param(DistributionSpec(family="zipf", s=1.2), 10 ** 8, id="zipf1.2-1e8"),
        # zipf_log (1.5, 1) has 34,854 head cells at 1e8 and 148,379 at 1e9
        pytest.param(DistributionSpec(family="zipf_log", s=1.5, a=1.0), 10 ** 9,
                     id="zipf_log1.5-1-1e9"),
        pytest.param(DistributionSpec(family="theta_one_log"), 10 ** 8, id="theta_one_log-1e8"),
        pytest.param(DistributionSpec(family="theta_one_log"), 10 ** 9, id="theta_one_log-1e9"),
        pytest.param(DistributionSpec(family="geometric", q=0.9999), 10 ** 10,
                     id="geometric0.9999-1e10"),
    ]

    @pytest.mark.parametrize("spec, t", POINTS)
    def test_agrees_with_the_explicit_head(self, spec, t):
        # each of the four sums within the sum of the two bounds, and the
        # new bound at most 1e-10 of the value (of the means for the gap,
        # which cancels for geometric exactly-k)
        d = build_distribution(spec)
        J = moments._head_length(d, t)
        assert J > _TABLE_SIZE
        for k, star in itertools.product((1, 2, 3), (True, False)):
            sums = moments._head_pass(d, t, k, star, J)
            explicit = moments._head_pass(d, t, k, star, J, d.prob_array(np.arange(1, J + 1)))
            assert sorted(sums) == sorted(explicit) == ["binom", "gap", "pois", "var"]
            for name, (value, bound) in sums.items():
                want, want_bound = explicit[name]
                assert abs(value - want) <= bound + want_bound, (k, star, name, value, want)
                scale = max(abs(sums["pois"][0]), abs(sums["binom"][0])) if name == "gap" \
                    else abs(value)
                assert bound <= 1e-10 * scale, (k, star, name, value, bound)

    @pytest.mark.parametrize("k, star", [(1, True), (2, True), (3, True), (1, False),
                                         (3, False), (10, True)])
    def test_theta_coefficients_bound_the_derivatives(self, k, star):
        # the remainder's sizes: sum_i |c_i| pmf_i(lam) >= |theta^m g(lam)|,
        # theta = lam d/dlam = d/du at u = ln lam, m = 1..3, against a
        # 30-digit numerical derivative (of -P(Poisson < k) for star, which
        # keeps its digits where g is near 1)
        coeffs = moments._theta_coeffs(k, star)
        with mp.workdps(30):
            def g(u):
                lam = mp.exp(u)
                return (-mp.gammainc(k, lam, mp.inf, regularized=True) if star
                        else mp.exp(-lam) * lam ** k / mp.factorial(k))
            for lam in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 100.0):
                pmf = [mp.exp(-lam) * mp.mpf(lam) ** i / mp.factorial(i) for i in range(k + 4)]
                for m in (1, 2, 3):
                    size = mp.fsum(mp.mpf(float(c)) * q for c, q in zip(coeffs[m - 1], pmf))
                    assert abs(mp.diff(g, mp.log(lam), m)) <= size * (1 + mp.mpf(10) ** -20), \
                        (lam, m)


class TestMomentReport:
    def test_report_coherent(self, zipf2):
        rep = moment_report(zipf2, 1e4, 2, star=True)
        m, _ = exact_mean(zipf2, 1e4, 2, star=True)
        v, _ = exact_var(zipf2, 1e4, 2, star=True)
        assert rep.exact_mean == m and rep.exact_var == v
        assert 0.9 < rep.exact_mean / rep.asym_mean < 1.1
        row = rep.csv_row()
        assert len(row.split(",")) == len(rep.CSV_HEADER.split(","))

    def test_report_tlstar_scale(self, theta_one_log):
        rep = moment_report(theta_one_log, 1e4, 1, star=True)
        want = 1e4 * smoothed_slowly_varying(theta_one_log, 1e4)
        assert abs(rep.asym_mean - want) < 1e-9 * want

    def test_theta_one_log_k1_truncation_error(self, theta_one_log):
        # (t p(x0))^r as exp(r (ln t + ln p(x0))) was charged
        # 3 r (|ln t| + |ln p(x0)|) ulps, which set this bound at 2.07e-9;
        # formed by products, t p(x0) is charged a few ulps per order
        rep = moment_report(theta_one_log, 1e6, 1, star=True)
        assert rep.truncation_error <= 1e-9

import dataclasses
import hashlib
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from urnsim import (
    DistributionError,
    DistributionSpec,
    build_distribution,
    slowly_varying,
    smoothed_slowly_varying,
)
from urnsim.distributions import (
    _EM_MIN_INDEX,
    _MAX_ORDER,
    _NORM_TOL,
    _PREFIX_CAP,
    _TABLE_SIZE,
    _TAIL_SLOTS,
    _powerlog_tail_integral,
    _powerlog_tail_sum,
)
from urnsim.moments import exact_mean

_SAMPLER_SPECS = {
    "zipf_s2": DistributionSpec(family="zipf", s=2.0),
    "zipf_s1.2": DistributionSpec(family="zipf", s=1.2),
    "zipf_log": DistributionSpec(family="zipf_log", s=2.0, a=1.0),
    "theta_one_log": DistributionSpec(family="theta_one_log"),
    "geometric": DistributionSpec(family="geometric", q=0.5),
    # about 0.1% of the mass lies beyond the table
    "geometric_near_one": DistributionSpec(family="geometric", q=0.9999),
    # theta just below 1 with a < 0: Z = 49 normalizes only by the bound
    # relative to Z, and 65% of the mass lies beyond the table
    "zipf_log_near_one": DistributionSpec(family="zipf_log", s=1.07, a=-0.5),
}
# sha256 of draw_cells and _draw_tail_block at fixed seeds; see
# TestSampler.test_draws_pinned
_PINNED_DRAWS = {
    "zipf_s2": ("944b64f2db9c95642dc0a779b10f6666f6f2c979086af784e5a4b15c5a5f2b96",
                "0882a62ee1ada591f58c99531552c50724865e4adef358efd136c288da107290"),
    "zipf_s1.2": ("1fd644de7bd98bf62e8de70f83ad4135a1e0eb9663d4d0758501dec26981e39b",
                  "198b9237aeae768a36b40ef3fb6afb54e0d34646ae157b84600f840294ec6ab8"),
    "zipf_log": ("52e43911ecdf3ab76a0d3749ec9bb9c058874f291a092e47e48b66a1c538ebcd",
                 "d3fd964e4fbb69f6d36c377d0303c29cef0016de0ece99bc664c4b7a56c98161"),
    "theta_one_log": ("2cd703ff1ff8be62a2cab0431617d895a0bf979334d9727b560319c3bd4216ac",
                      "50303a4aaebc70d69e8080df2d656db02e6b00fa454468ef3f6494d02aa3022f"),
    "geometric": ("e4f0fc4345988f7c2c650277e1d45e0c404e197e51dae2d62f2dfe25c11dd2f6", None),
}

# Normalization constants, frozen from independent dev-time oracles:
# zipf_log(2,1): brute partial sum over 1e8 terms plus integral tail bracket;
# theta_one_log: 50-digit partial sum plus analytic tail split.
Z_ZIPF_LOG_2_1 = 1.1049612593602216
Z_THETA_ONE_LOG = 1.5420406653310758
# Linear scan over exact p_j, zipf s=2
ALPHA_1E6_ZIPF2 = 779
# Direct summation of p_j, j in [1001, 1.1e7), zipf s=2, plus the remaining
# analytic completion bound 1/(Z*1.1e7)
TAIL_1000_ZIPF2_LO = 0.0006075679785453176
TAIL_1000_ZIPF2_COMPLETION = 5.6e-8
# (value, error) of L*(theta_one_log, t) as float.hex, frozen when it came
# from a log-grid Simpson rule over the counting function, refined until two
# resolutions agreed to 1e-6 relative, and its analytic remainder past y = 100
LSTAR_T1L_HEX = {
    10_000: ("0x1.122d7fb080298p-3", "0x1.ff6844601f2b5p-27"),
    31_623: ("0x1.d19b253a4cdd4p-4", "0x1.6aaaf5ac1a003p-27"),
    100_000: ("0x1.92a3a7fae63c2p-4", "0x1.6fc504e057dc5p-29"),
    316_228: ("0x1.617a2f6c54868p-4", "0x1.15a4c0025859ep-32"),
}
FAMILY_FIXTURES = ("zipf2", "zipf_log21", "theta_one_log", "geometric_half")
FAMILY_SPECS = (DistributionSpec(family="zipf", s=2.0),
                DistributionSpec(family="zipf_log", s=2.0, a=1.0),
                DistributionSpec(family="theta_one_log"),
                DistributionSpec(family="geometric", q=0.5))
# prefix length of the grown copies in the equivalence test
GROWN = 100_003
# float.hex of Z for families that built before large Z could be judged
# relative to itself; each normalizes by the absolute bound, so Z keeps its bits
Z_HEX = {
    ("zipf", 2.0, None): "0x1.a51a6625307d4p+0",
    ("zipf", 1.2, None): "0x1.65dc7c996fc33p+2",
    ("zipf_log", 2.0, 1.0): "0x1.1adebdb84c920p+0",
    ("zipf_log", 1.5, 1.0): "0x1.7824f1965a2c0p+0",
    ("zipf_log", 1.1, -0.5): "0x1.d73ca7e20dc96p+4",
    ("zipf_log", 1.01, 1.0): "0x1.3c2d449472d04p+2",
    ("zipf_log", 3.0, -2.0): "0x1.2a968edd9d369p+1",
    ("theta_one_log", None, None): "0x1.8ac32d52b2f53p+0",
}


def scalar_count(d, x):
    """Reference counting function: one threshold, doubling then bisection
    on prob_array(j) >= 1/x.  Each probe is a length-1 array because numpy
    may round pow and log of a 0-d array differently in the last place."""
    if x <= 0.0:
        return 0
    thr = 1.0 / x

    def holds(j):
        return d.prob_array(np.array([j]))[0] >= thr

    if not holds(1):
        return 0
    lo, hi = 1, 2
    while holds(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if holds(mid) else (lo, mid)
    return lo


def edge_thresholds(d, cells):
    """x at and one ulp around 1/p_j for each cell j with p_j > 0."""
    out = []
    for j in cells:
        p = d.prob_array(np.array([j]))[0]
        if p > 0.0:
            x = 1.0 / p
            out += [x, np.nextafter(x, 0.0), np.nextafter(x, math.inf)]
    return out


@pytest.fixture(scope="module")
def grown_family():
    """Fresh copies of the four families with the prefix grown to GROWN."""
    out = []
    for spec in FAMILY_SPECS:
        d = build_distribution(spec)
        d.probs_prefix(GROWN)
        assert d._prefix.size == GROWN
        out.append(d)
    return out


class TestBuild:
    def test_geometric_half_exact(self, geometric_half):
        assert geometric_half.Z == 1.0
        assert geometric_half.prob(1) == 0.5
        assert geometric_half.prob(2) == 0.25
        assert geometric_half.theta == 0.0

    def test_zipf2_zeta(self, zipf2):
        assert abs(zipf2.Z - math.pi ** 2 / 6.0) <= 1e-12
        assert zipf2.theta == 0.5

    def test_zipf_log_brute_force_oracle(self, zipf_log21):
        assert abs(zipf_log21.Z - Z_ZIPF_LOG_2_1) < 1e-11

    def test_theta_one_log_constant(self, theta_one_log):
        assert abs(theta_one_log.Z - Z_THETA_ONE_LOG) < 1e-11
        assert theta_one_log.theta == 1.0

    @pytest.mark.parametrize("spec", [
        dict(family="zipf", s=1.0),
        dict(family="zipf", s=0.5),
        dict(family="geometric", q=0.0),
        dict(family="geometric", q=1.0),
        dict(family="geometric", q=1.7),
        dict(family="zipf", s=2.0, q=0.5),
        dict(family="zipf_log", s=2.0),
        dict(family="theta_one_log", s=1.0),
        dict(family="nope"),
    ])
    def test_invalid_specs_rejected(self, spec):
        with pytest.raises(DistributionError):
            build_distribution(DistributionSpec(**spec))

    @pytest.mark.parametrize("spec, name", [
        (dict(family="zipf", s=math.inf), "s"),
        (dict(family="zipf", s=math.nan), "s"),
        (dict(family="zipf_log", s=math.inf, a=1.0), "s"),
        (dict(family="zipf_log", s=2.0, a=math.nan), "a"),
        (dict(family="zipf_log", s=2.0, a=math.inf), "a"),
        (dict(family="zipf_log", s=2.0, a=-math.inf), "a"),
        (dict(family="geometric", q=math.nan), "q"),
    ])
    def test_non_finite_parameters_rejected(self, spec, name):
        with pytest.raises(DistributionError, match=f"^{name} must be finite"):
            build_distribution(DistributionSpec(**spec))

    def test_spec_checked_when_built(self):
        # no distribution is built: the spec refuses itself, and
        # dataclasses.replace builds (and so checks) a new spec
        with pytest.raises(DistributionError, match="s > 1"):
            DistributionSpec(family="zipf", s=0.5)
        spec = DistributionSpec(family="zipf", s=2.0)
        with pytest.raises(DistributionError, match="s > 1"):
            dataclasses.replace(spec, s=1.0)

    @pytest.mark.parametrize("family, s, a", sorted(Z_HEX, key=str))
    def test_normalization_bits_pinned(self, family, s, a):
        d = build_distribution(DistributionSpec(family=family, s=s, a=a))
        assert d.Z.hex() == Z_HEX[(family, s, a)]

    def test_near_one_negative_log_power(self):
        # the absolute bound at the last cut, 2^22, is above _NORM_TOL but
        # within _NORM_TOL Z; Z and the tail masses hold within their bounds
        # against 40-digit Euler-Maclaurin sums
        d = build_distribution(_SAMPLER_SPECS["zipf_log_near_one"])
        bound = _powerlog_tail_sum(d.s, d.a, 1 << 22)[1]
        assert _NORM_TOL < bound <= _NORM_TOL * d.Z
        with mp.workdps(40):
            head = mp.fsum(mp.mpf(j) ** -mp.mpf(d.s) * mp.log(j + mp.e) ** -mp.mpf(d.a)
                           for j in range(1, 1001))
        want = float(head + mp.mpf(tail_power_oracle(d, d.Z, 1000, 1)))
        assert abs(d.Z - want) <= bound
        for J in (1000, _TABLE_SIZE, 10 ** 7):
            # tail_mass is the estimate plus its bound at max(J, _EM_MIN_INDEX)
            excess = d.tail_mass(J) - tail_power_oracle(d, 1.0, J, 1)
            tail_bound = _powerlog_tail_sum(d.s, d.a, max(J, _EM_MIN_INDEX))[1] / d.Z
            assert 0.0 <= excess <= 2.0 * tail_bound, J

    def test_envelope_range_named(self):
        # (1.05, -1.0) normalizes (Z = 402) and then fails the envelope
        with pytest.raises(DistributionError, match=r"s \+ a / ln\(2\^16 \+ 1/2 \+ e\) > 1"):
            build_distribution(DistributionSpec(family="zipf_log", s=1.05, a=-1.0))

    def test_normalization_partial_plus_tail(self, zipf_log21, theta_one_log, zipf2,
                                              geometric_half):
        for d in (zipf_log21, theta_one_log, zipf2, geometric_half):
            for J in (10, 100, 5000, 60000):
                total = d.probs_prefix(J).sum() + d.tail_mass(J)
                assert 1.0 - 1e-9 <= total <= 1.0 + 1e-9


class TestProb:
    def test_geometric_point(self, geometric_half):
        assert geometric_half.prob(3) == 0.125

    def test_zipf_first_cell(self, zipf2):
        assert abs(zipf2.prob(1) - 6.0 / math.pi ** 2) < 1e-14

    def test_zipf_power_ratio(self, zipf2):
        assert abs(zipf2.prob(10) - zipf2.prob(1) / 100.0) < 1e-16

    def test_invalid_index(self, zipf2):
        with pytest.raises(DistributionError):
            zipf2.prob(0)

    @given(j=st.integers(min_value=1, max_value=10 ** 9))
    @settings(max_examples=60, deadline=None)
    def test_monotone_all_families(self, zipf2, zipf_log21, theta_one_log,
                                   geometric_half, j):
        for d in (zipf2, zipf_log21, theta_one_log, geometric_half):
            assert d.prob(j + 1) <= d.prob(j)
        for d in (zipf2, zipf_log21, theta_one_log):
            assert d.prob(j) > 0.0
        # geometric positivity only within float64 range (underflows beyond)
        assert geometric_half.prob(min(j, 1000)) > 0.0

    def test_grown_prefix_bitwise(self, grown_family):
        # the prefix grows by table-sized pieces, to the bits of one
        # prob_array over all of it; the table part keeps its bits
        for spec, grown in zip(FAMILY_SPECS, grown_family):
            d = build_distribution(spec)
            table = d.probs_prefix(_TABLE_SIZE).copy()
            J = 3 * _TABLE_SIZE + 5
            want = d.prob_array(np.arange(1, J + 1, dtype=np.float64))
            assert d.probs_prefix(J).tobytes() == want.tobytes()
            assert d._prefix.size == J
            assert d._prefix[:_TABLE_SIZE].tobytes() == table.tobytes()
            assert grown.probs_prefix(GROWN).tobytes() == want[:GROWN].tobytes()


class TestCountingFunction:
    def test_geometric_example(self, geometric_half):
        assert geometric_half.counting_function(4.0) == 2

    def test_zipf_linear_scan_oracle(self, zipf2):
        assert zipf2.counting_function(1e6) == ALPHA_1E6_ZIPF2

    def test_below_first_cell(self, zipf2, geometric_half, theta_one_log):
        for d in (zipf2, geometric_half, theta_one_log):
            assert d.counting_function(0.5 / d.p1) == 0
            assert d.counting_function(0.0) == 0

    @given(x=st.floats(min_value=1.0, max_value=1e12))
    @settings(max_examples=80, deadline=None)
    def test_duality(self, zipf2, theta_one_log, geometric_half, x):
        for d in (zipf2, theta_one_log, geometric_half):
            j = d.counting_function(x)
            if j >= 1:
                assert d.prob(j) >= 1.0 / x
            assert d.prob(j + 1) < 1.0 / x

    def test_duality_at_rounding_windows(self, zipf2, zipf_log21, theta_one_log):
        # cells whose p_j the math-library form j^-s ln(j+e)^-a / Z rounds
        # differently from numpy's: prob must agree with the prob_array the
        # search uses, also at thresholds one ulp around 1/p_j there
        for d in (zipf2, zipf_log21, theta_one_log):
            cells = np.arange(1, 20_001)
            libm = [float(j) ** -d.s * math.log(j + math.e) ** -d.a / d.Z
                    for j in cells.tolist()]
            cells = cells[d.prob_array(cells) != np.array(libm)]
            assert cells.size > 100
            assert [d.prob(j) for j in cells.tolist()] == d.prob_array(cells).tolist()
            xs = edge_thresholds(d, cells.tolist())
            for x, j in zip(xs, d.counting_function(np.array(xs)).tolist()):
                assert d.prob(j) >= 1.0 / x
                assert d.prob(j + 1) < 1.0 / x

    def test_nondecreasing(self, zipf_log21):
        xs = np.logspace(0, 10, 60)
        vals = [zipf_log21.counting_function(x) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    @given(xs=st.lists(st.floats(min_value=1.0, max_value=1e12), min_size=1,
                       max_size=12))
    @settings(max_examples=25, deadline=None)
    def test_matches_scalar_bisection(self, request, grown_family, xs):
        # every family, with the table-sized and a grown prefix; thresholds
        # drawn over [1, 1e12], at the table edge p_{2^16}, at the grown
        # prefix edge, beyond _PREFIX_CAP, and x <= 0
        dists = [request.getfixturevalue(f) for f in FAMILY_FIXTURES] + grown_family
        for d in dists:
            size = d._prefix.size
            cells = (_TABLE_SIZE - 1, _TABLE_SIZE, _TABLE_SIZE + 1,
                     GROWN - 1, GROWN, GROWN + 1, _PREFIX_CAP + 5, 900)
            probe = xs + edge_thresholds(d, cells) + [0.0, -1.0, -math.inf, 1e-300]
            want = [scalar_count(d, x) for x in probe]
            assert d.counting_function(np.array(probe)).tolist() == want
            assert d.counting_function(np.array(probe[::-1])).tolist() == want[::-1]
            assert [d.counting_function(x) for x in probe[:3]] == want[:3]
            assert d._prefix.size == size  # the search never grows the prefix

    def test_warm_grid_matches_scalar(self, theta_one_log, zipf2):
        xs = np.logspace(1, 9, 25)
        for d in (theta_one_log, zipf2):
            grid = d.counting_function_many(xs)
            scalar = [d.counting_function(x) for x in xs]
            assert grid.tolist() == scalar

    def test_regular_variation_witness(self, zipf2):
        for x in np.logspace(6, 10, 9):
            ratio = zipf2.counting_function(2 * x) / zipf2.counting_function(x)
            assert abs(ratio - 2.0 ** 0.5) < 0.01 * 2.0 ** 0.5


class TestTailMass:
    def test_geometric_exact(self, geometric_half):
        assert geometric_half.tail_mass(10) == 2.0 ** -10

    def test_zipf_direct_sum_oracle(self, zipf2):
        got = zipf2.tail_mass(1000)
        lo = TAIL_1000_ZIPF2_LO
        hi = lo + TAIL_1000_ZIPF2_COMPLETION + zipf2.prob(1000)
        assert lo <= got <= hi

    def test_monotone_in_J(self, zipf2, zipf_log21, theta_one_log):
        for d in (zipf2, zipf_log21, theta_one_log):
            vals = [d.tail_mass(J) for J in (10, 100, 1000, 10000, 100000)]
            assert all(b <= a for a, b in zip(vals, vals[1:]))

    def test_invalid(self, zipf2):
        with pytest.raises(DistributionError):
            zipf2.tail_mass(0)


class TestTailPowerSum:
    # (t, J) pairs: J below _EM_MIN_INDEX (explicit block plus the sum
    # beyond it), at it, and a head length; geometric uses its closed form
    POINTS = ((1e4, 1000), (1e4, _EM_MIN_INDEX), (1e6, 5000), (3e7, 40_000))

    def test_hits_equal_misses_bitwise(self):
        for spec in FAMILY_SPECS:
            warm, cold = build_distribution(spec), build_distribution(spec)
            for t, J in self.POINTS:
                for r in range(1, 8):
                    first = [v.hex() for v in warm.tail_power_sum(t, J, r)]
                    assert [v.hex() for v in warm.tail_power_sum(t, J, r)] == first
                    cold._tail_cuts.clear()
                    assert [v.hex() for v in cold.tail_power_sum(t, J, r)] == first

    def test_cache_stays_at_cap(self):
        d = build_distribution(DistributionSpec(family="zipf", s=2.0))
        first = exact_mean(d, 1e3, 2, star=True)
        for t in np.logspace(3, 8, 100):
            exact_mean(d, float(t), 2, star=True)
            assert len(d._tail_cuts) <= _TAIL_SLOTS
        assert len(d._tail_cuts) == _TAIL_SLOTS
        # the evicted power sums at t = 1e3 are recomputed to the same bits
        assert exact_mean(d, 1e3, 2, star=True) == first


def tail_power_oracle(d, t, J, r):
    """sum_{j>J} (t p_j)^r at 40 digits, p_j = j^-s (ln(j+e))^-a / Z with
    the float Z of d: Euler-Maclaurin from N = J + 1 with five derivative
    terms (the next is below 1e-19 of the sum for r s <= 120, N > 1000)."""
    with mp.workdps(40):
        s, a = mp.mpf(d.s), mp.mpf(d.a)
        lc = mp.log(t) - mp.log(d.Z)

        def f(x):
            return mp.exp(r * (lc - s * mp.log(x) - a * mp.log(mp.log(x + mp.e))))

        N = mp.mpf(J + 1)
        if d.a == 0.0:
            integral = f(N) * N / (r * s - 1)
        elif r * d.s > 1.0:
            lam = r * s - 1
            integral = N * mp.quad(lambda u: f(N * mp.exp(u)) * mp.exp(u),
                                   [0, 1 / lam, 8 / lam, mp.inf])
        else:
            # y = ln(x + e): the integral is a closed form plus a correction
            # that decays like e^-y
            y0 = mp.log(N + mp.e)
            integral = mp.exp(lc) * (y0 ** (1 - a) / (a - 1) + mp.e * mp.quad(
                lambda y: y ** -a / (mp.exp(y) - mp.e), [y0, y0 + 1, mp.inf]))
        der = mp.taylor(f, N, 9)  # f^(n)(N) / n!
        total = integral + der[0] / 2
        for k in range(1, 6):
            total -= mp.bernoulli(2 * k) / (2 * k) * der[2 * k - 1]
        return float(total)


class TestTailPowerOracle:
    """tail_power_sum against tail_power_oracle at t p_{J+1} = 0.4, inside
    the series' cut t p_{J+1} <= 1/2."""

    @pytest.mark.parametrize("spec", [
        DistributionSpec(family="zipf", s=2.0),
        DistributionSpec(family="zipf", s=1.2),
        DistributionSpec(family="zipf_log", s=1.5, a=1.0),
        DistributionSpec(family="zipf_log", s=1.5, a=-0.5),
        DistributionSpec(family="theta_one_log"),
    ], ids=lambda spec: "-".join(str(v) for v in spec.as_mapping().values()))
    def test_within_bound(self, spec):
        d = build_distribution(spec)
        for J in (1 << 10, 37_000, 10 ** 7):
            t = 0.4 / d.prob(J + 1)
            for r in (1, 2, 5, 20, 40, 60):
                got, bound = d.tail_power_sum(t, J, r)
                want = tail_power_oracle(d, t, J, r)
                assert abs(got - want) <= bound, (J, r, got, want, bound)
                # the bound is not vacuous: it stays below the Euler-Maclaurin
                # remainder at the smallest cut, and near rounding beyond it
                assert bound <= (1e-6 if J == 1 << 10 else 1e-11) * want

    @pytest.mark.parametrize("spec", [
        DistributionSpec(family="zipf", s=1.01),
        DistributionSpec(family="zipf_log", s=1.01, a=1.0),
    ], ids=("zipf-1.01", "zipf_log-1.01-1"))
    def test_slow_decay_reaches_its_mass(self, spec):
        # at s = 1.01 the integrals decay like e^(-0.01 u): a range cut at
        # u = 700 drops e^-7 of them
        d = build_distribution(spec)
        for J in (2048, 37_000):
            got, bound = d.tail_power_sum(1e4, J, 1)
            want = tail_power_oracle(d, 1e4, J, 1)
            assert abs(got - want) <= bound, (J, got, want, bound)
            assert bound <= 1e-12 * want
        x0 = 16_384.5
        got, err = _powerlog_tail_integral(d.s, d.a, x0)
        with mp.workdps(30):
            s, a = mp.mpf(d.s), mp.mpf(d.a)
            want = x0 ** (1 - s) * mp.quad(
                lambda u: mp.exp((1 - s) * u) * (u + mp.log(x0 + mp.e * mp.exp(-u))) ** -a,
                [0, 1, 10, 100, 1000, mp.inf])
        assert abs(got - float(want)) <= err + 1e-15 * float(want)
        assert err <= 1e-12 * float(want)

    def test_orders(self, zipf2):
        for r in (0, _MAX_ORDER + 1):
            with pytest.raises(DistributionError, match="order"):
                zipf2.tail_power_sum(1e4, 5000, r)


class TestSlowlyVarying:
    def test_zipf_stabilizes(self, zipf2):
        target = (1.0 / zipf2.Z) ** 0.5
        for x in np.logspace(4, 10, 7):
            val = slowly_varying(zipf2, x)
            assert val == zipf2.counting_function(x) / math.sqrt(x)
            if x >= 1e6:  # the integer-valued count rounds ~1/count away
                assert abs(val - target) < 0.01 * target

    def test_theta_one_log_decreasing(self, theta_one_log):
        vals = [slowly_varying(theta_one_log, x) for x in np.logspace(4, 10, 7)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals == [theta_one_log.counting_function(x) / x
                        for x in np.logspace(4, 10, 7)]

    def test_geometric_theta0_is_count(self, geometric_half):
        for x in (10.0, 1e4, 1e8):
            assert slowly_varying(geometric_half, x) == geometric_half.counting_function(x)


class TestSmoothedSlowlyVarying:
    def test_within_frozen_quadrature(self, theta_one_log):
        # the quadrature over the counting function is an independent
        # oracle: the series lies within its refinement target
        for t, (val, _) in LSTAR_T1L_HEX.items():
            want = float.fromhex(val)
            assert abs(smoothed_slowly_varying(theta_one_log, t) - want) <= 1e-6 * want, t

    def test_matches_exact_series_identity(self, theta_one_log):
        # t L*(t) is the exact poissonized occupied mean, to the rounding of
        # the division by t and the product
        for t in (1e4, 31_623, 1e6, 3e7):
            series_val = exact_mean(theta_one_log, t, 1, star=True)[0]
            got = t * smoothed_slowly_varying(theta_one_log, t)
            assert abs(got - series_val) <= 2.0 * math.ulp(series_val), t

    def test_decreasing_to_zero_trend(self, theta_one_log):
        vals = [smoothed_slowly_varying(theta_one_log, t) for t in np.logspace(4, 10, 7)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 0.6 * vals[0]

    def test_series_bound_self_check(self, theta_one_log):
        # below t = 1e5 the head is cut near _EM_MIN_INDEX, where the
        # Euler-Maclaurin remainder of the r = 1 tail sum dominates the bound
        for t, rel in ((1e4, 1e-11), (31_623, 1e-11), (1e5, 1e-12), (1e7, 1e-12)):
            val = smoothed_slowly_varying(theta_one_log, t)
            assert exact_mean(theta_one_log, t, 1, star=True)[1] / t <= rel * val, t

    def test_requires_theta_one(self, zipf2, geometric_half):
        for d in (zipf2, geometric_half):
            with pytest.raises(DistributionError):
                smoothed_slowly_varying(d, 1e4)


class TestSampler:
    def test_geometric_frequency(self, geometric_half, rng):
        draws = geometric_half.draw_cells(rng, 10 ** 6)
        freq = float(np.mean(draws == 1))
        se = math.sqrt(0.5 * 0.5 / 10 ** 6)
        assert abs(freq - 0.5) < 4 * se

    @pytest.mark.parametrize("fixture", ["zipf2", "theta_one_log", "zipf_log21"])
    def test_chi_square_gof(self, fixture, request, rng):
        d = request.getfixturevalue(fixture)
        n_draws = 10 ** 6
        draws = d.draw_cells(rng, n_draws)
        edges = list(range(1, 52))
        observed = np.bincount(np.clip(draws, 1, 51), minlength=52)[1:52]
        expected = np.array([d.prob(j) for j in range(1, 51)] + [d.tail_mass(50)])
        expected = expected * n_draws
        stat = float(((observed - expected) ** 2 / expected).sum())
        pvalue = float(stats.chi2.sf(stat, df=50))
        assert pvalue > 1e-3

    def test_tail_block_law(self, theta_one_log, rng):
        # beyond-table draws must follow the conditional tail law: compare
        # dyadic block frequencies against exact tail-mass differences.
        from urnsim.distributions import _TABLE_SIZE
        n_draws = 2 * 10 ** 6
        draws = theta_one_log.draw_cells(rng, n_draws)
        tail = draws[draws > _TABLE_SIZE]
        p_tail = theta_one_log.tail_mass(_TABLE_SIZE)
        se = math.sqrt(p_tail * (1 - p_tail) / n_draws)
        assert abs(tail.size / n_draws - p_tail) < 4 * se + 1e-7
        edges = _TABLE_SIZE * 2 ** np.arange(0, 8)
        for lo, hi in zip(edges, edges[1:]):
            p_block = theta_one_log.tail_mass(int(lo)) - theta_one_log.tail_mass(int(hi))
            got = int(((draws > lo) & (draws <= hi)).sum()) / n_draws
            se = math.sqrt(p_block / n_draws)
            assert abs(got - p_block) < 5 * se + 1e-7

    def test_geometric_count_space(self, rng):
        # near q = 1 about half the mass lies beyond the table, where the
        # count-space draw continues by memorylessness
        from urnsim.distributions import _TABLE_SIZE
        q = 1.0 - 1e-5
        d = build_distribution(DistributionSpec(family="geometric", q=q))
        m = 10 ** 5
        counts, ids, n_tail = d.draw_counts(rng, m)
        beyond = d.draw_tail(rng, n_tail)
        assert counts.size == _TABLE_SIZE and ids.size == 0
        assert int(counts.sum()) + beyond.size == m
        for p, got in ((1.0 - q ** (_TABLE_SIZE // 2), counts[:_TABLE_SIZE // 2].sum() / m),
                       (q ** _TABLE_SIZE, beyond.size / m)):
            assert abs(got - p) < 4 * math.sqrt(p * (1 - p) / m)
        excess = beyond - _TABLE_SIZE
        assert excess.min() >= 1
        sd = math.sqrt(q) / (1.0 - q)
        assert abs(excess.mean() - 1.0 / (1.0 - q)) < 4 * sd / math.sqrt(excess.size)

    def test_fixed_seed_reproducible(self, zipf2):
        a = zipf2.draw_cells(np.random.default_rng(123), 10 ** 4)
        b = zipf2.draw_cells(np.random.default_rng(123), 10 ** 4)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("name", sorted(_PINNED_DRAWS))
    def test_draws_pinned(self, name):
        # draw_cells(default_rng(31), 200_000) and, for the power families,
        # _draw_tail_block(default_rng(37), 20_000), as sha256 of the int64
        # bytes: frozen before the count-space cut and the tail squeeze, which
        # leave both streams bitwise unchanged
        d = build_distribution(_SAMPLER_SPECS[name])
        cells, tail = _PINNED_DRAWS[name]
        got = d.draw_cells(np.random.default_rng(31), 200_000)
        assert hashlib.sha256(got.tobytes()).hexdigest() == cells
        if tail is not None:
            got = d._draw_tail_block(np.random.default_rng(37), 20_000)
            assert hashlib.sha256(got.tobytes()).hexdigest() == tail

    @pytest.mark.parametrize("name", ["zipf_s2", "zipf_log", "theta_one_log", "geometric"])
    def test_prefix_growth_keeps_table(self, name):
        # growing the probability prefix leaves the sampler's inversion
        # table at the first _TABLE_SIZE cells, and the draws as a fresh
        # distribution's
        fresh, grown = (build_distribution(_SAMPLER_SPECS[name]) for _ in range(2))
        grown.probs_prefix(1 << 20)
        assert grown._prefix.size == 1 << 20 and grown._cum.size == _TABLE_SIZE
        for seed, size in ((3, 200_000), (4, 3_000_000)):
            want = fresh.draw_cells(np.random.default_rng(seed), size)
            assert np.array_equal(grown.draw_cells(np.random.default_rng(seed), size), want)
            want = fresh.draw_counts(np.random.default_rng(seed), size)
            got = grown.draw_counts(np.random.default_rng(seed), size)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))

    @pytest.mark.parametrize("name", ["zipf_s2", "zipf_s1.2", "zipf_log", "theta_one_log"])
    def test_tail_squeeze_below_ratio(self, name):
        # a uniform at or below the squeeze is accepted without the ratio, so
        # the computed ratio must never fall below it beyond the table
        d = build_distribution(_SAMPLER_SPECS[name])
        _, accept_ratio, squeeze = d._tail_envelope()
        if d.a == 0.0 or d.s == 1.0:
            assert squeeze > 0.9999
        dense = np.arange(_TABLE_SIZE + 1, _TABLE_SIZE + 1 + 2_000_000)
        spread = np.minimum(np.exp(np.linspace(math.log(_TABLE_SIZE + 1), 62 * math.log(2),
                                               2_000_000)).astype(np.int64), 1 << 62)
        for j in (dense, spread):
            assert float(accept_ratio(j).min()) >= squeeze

    @pytest.mark.parametrize("name,size,reps,cut", [
        ("zipf_s2", 2_000, 500, 1 << 6),
        ("zipf_s2", 2_000_000, 1, 1 << 11),
        ("zipf_s2", 2_000_000_000, 1, _TABLE_SIZE),
        ("zipf_log", 5_000, 200, 1 << 6),
        ("zipf_log", 10_000_000, 1, 1 << 11),
        ("zipf_log", 20_000_000_000, 1, _TABLE_SIZE),
        ("theta_one_log", 100, 5_000, 1 << 6),
        ("theta_one_log", 10_000, 50, 1 << 10),
        ("theta_one_log", 10_000_000, 1, _TABLE_SIZE),
        ("geometric_near_one", 30, 10_000, 1 << 6),
        ("geometric_near_one", 1_000, 300, 1 << 11),
        ("geometric_near_one", 1_000_000, 1, _TABLE_SIZE),
        ("zipf_log_near_one", 3_000, 300, 1 << 10),
    ])
    def test_draw_counts_law(self, name, size, reps, cut, rng):
        # the three-way draw (the multinomial over cells 1..J, the table
        # cells beyond J, the number past the table) pooled over reps calls,
        # against size * p_j: cells 1..32 and J, J+1 on their own, the rest
        # in bins of growing width, past the table in one at 1 - cum_table
        d = build_distribution(_SAMPLER_SPECS[name])
        observed = np.zeros(_TABLE_SIZE + 2, dtype=np.int64)  # cells 1..table, past
        for _ in range(reps):
            counts, ids, n_tail = d.draw_counts(rng, size)
            assert counts.size == cut
            assert int(counts.sum()) + ids.size + n_tail == size
            assert ids.min(initial=cut + 1) > cut and ids.max(initial=0) <= _TABLE_SIZE
            observed[1:cut + 1] += counts
            observed += np.bincount(ids, minlength=_TABLE_SIZE + 2)
            observed[-1] += n_tail
        p = np.concatenate([[0.0], d.prob_array(np.arange(1, _TABLE_SIZE + 1)),
                            [1.0 - d._cum[_TABLE_SIZE - 1]]])
        edges = np.unique(np.concatenate([
            np.arange(1, 33), [cut, cut + 1],
            np.geomspace(33, _TABLE_SIZE + 1, 60).astype(np.int64)]))
        obs, exp = np.add.reduceat(observed, edges), np.add.reduceat(p, edges) * size * reps
        # merge bins until each expects at least 20 draws
        keep_obs, keep_exp, o_acc, e_acc = [], [], 0, 0.0
        for o, e in zip(obs, exp):
            o_acc, e_acc = o_acc + o, e_acc + e
            if e_acc >= 20.0:
                keep_obs.append(o_acc)
                keep_exp.append(e_acc)
                o_acc, e_acc = 0, 0.0
        keep_obs[-1] += o_acc
        keep_exp[-1] += e_acc
        keep_obs, keep_exp = np.array(keep_obs), np.array(keep_exp)
        stat = float(((keep_obs - keep_exp) ** 2 / keep_exp).sum())
        pvalue = float(stats.chi2.sf(stat, df=keep_obs.size - 1))
        assert pvalue > 1e-3, (stat, keep_obs.size)

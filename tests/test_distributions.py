import dataclasses
import functools
import hashlib
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special, stats

from urnsim import (
    DistributionError,
    DistributionSpec,
    build_distribution,
    slowly_varying,
    smoothed_slowly_varying,
)
from urnsim.distributions import (
    _DENSE,
    _EM_MIN_INDEX,
    _FAMILIES,
    _MAX_ORDER,
    _NORM_TOL,
    _PIECES,
    _PLACE_BITS,
    _RANGE_EDGES,
    _SLOTS,
    _TABLE_SIZE,
    _TAIL_RUN,
    CellDistribution,
    _Elements,
    _tail_sums,
    _zeta,
)
from urnsim.moments import exact_mean
from urnsim.simulate import _fold_tail

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
    # s + a / ln(x + e) < 1 up to x = 5e8 past the table, so the hat's power
    # sigma crosses 1 (Z = 402)
    "zipf_log_steep": DistributionSpec(family="zipf_log", s=1.05, a=-1.0),
}
# the power configurations of the tail sampler tests
_POWER_SAMPLERS = ["zipf_s2", "zipf_s1.2", "zipf_log", "theta_one_log", "zipf_log_near_one",
                   "zipf_log_steep"]
# sha256 of draw_cells and draw_past at fixed seeds; see
# TestSampler.test_draws_pinned.  Re-pinned when draw_cells took its table
# draws by one inversion past cell 0 (draw_past) in place of a multinomial
# over the first cells, and the tail sampler placed each candidate within
# its hat piece by a uniform of its own; and again when draw_past split the
# balls past the table by one multinomial over the hat's pieces, each
# candidate placed by one uniform in its own piece and only a binomial
# subset of them taking the acceptance ratio; and again when that
# multinomial ran over parts of the pieces, the balls of a sparse part got a
# place and a key each and the ratio a subset by geometric gaps.  Each
# changes which cells the uniforms map to, not the law
# (test_draw_counts_law, test_tail_ranges_law)
_PINNED_DRAWS = {
    "zipf_s2": ("352c43a666a6b04b5cc1171714c674ab3d5416de5b48b7e67eddf528e2c50b77",
                "5775e8fd67cde0bc02f593363d3626b1a1592e717b86ab89bdc2eef2eddc2111"),
    "zipf_s1.2": ("dca90456d3b9daf244d0281d702b19c2bba9d094505e51a4a9ab1e1d983f9270",
                  "acbf0ed859bf98a5687e39c639e2d29336908877f2d5a590e203b3ab4148c5f7"),
    "zipf_log": ("a90fb9043b95e8fc6aa00b5a30b89ef28e6d68fd21982f06d7ee262ee0d2042e",
                 "c79502b14187a7ea484b0c0d90e20e69f6ccb3c784010910e19b507c88259b9c"),
    "theta_one_log": ("f02537a52ddf825b4b94b084730d94d5f236a98133e5ca3d1fdf8dd474a8723c",
                      "d940a0bb7c8ec383749deba658a019c5c9a0a8ddccdfc9f75f1642f9dbfce7e4"),
    "geometric": ("63bec62e318f61979ddfff0d6ac1e9fed175bc05207234f3c29c918669b10f05", None),
}
# The same without numpy's AVX-512 loops, whose exp, log and pow round some
# p_j and sampler ratios differently in the last place
_PINNED_DRAWS_NO_V4 = {
    **_PINNED_DRAWS,
    "zipf_s1.2": ("b52a2e6af3ebddb9d87d4d26ed135dea69b7450776881d495da327603b7e2a1c",
                  "8bf24caab0c31633cd2c1cf31307f95c8b2fd7ab67d020a964b748712964860d"),
    "theta_one_log": ("39f4e3391b7aacb1b059d742e4a4ea7f00e41898e26d5fb57e042a2bdb7dd4ce",
                      "70aa7dcfd45a7f935b4e1256fb9f9faa54dbd815b469c7279b4204db0f8d0099"),
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
# a cell count past the table, at whose cells the counting function is probed
GROWN = 100_003
# float.hex of Z, frozen when the tail past the cut was one scipy quad and
# the loop stopped on an absolute bound; Z keeps those bits under the Gauss
# pass and the bound relative to max(1, Z), except (1.1, -0.5): it moved one
# ulp from 0x1.d73ca7e20dc96p+4 and stays within its bound of the 40-digit Z
# (TestBuild.test_near_one_negative_log_power)
Z_HEX = {
    ("zipf", 2.0, None): "0x1.a51a6625307d4p+0",
    ("zipf", 1.2, None): "0x1.65dc7c996fc33p+2",
    ("zipf_log", 2.0, 1.0): "0x1.1adebdb84c920p+0",
    ("zipf_log", 1.5, 1.0): "0x1.7824f1965a2c0p+0",
    ("zipf_log", 1.1, -0.5): "0x1.d73ca7e20dc95p+4",
    ("zipf_log", 1.01, 1.0): "0x1.3c2d449472d04p+2",
    ("zipf_log", 3.0, -2.0): "0x1.2a968edd9d369p+1",
    ("theta_one_log", None, None): "0x1.8ac32d52b2f53p+0",
}
# float.hex of tail_mass(J) at TAIL_MASS_J, frozen when a cut below
# _EM_MIN_INDEX summed its cells up to there inside tail_power_sum; one set
# where numpy's AVX-512 loops run and one where they do not.  The power
# families' values were re-pinned when tail_power_sum formed (t f(x0) / Z)^r
# by products in place of exp(r (ln t + ln p(x0))): the r = 1 sums moved by
# ten ulps or less, but the rounding term of the r = 1 bound that tail_mass
# adds fell from 3 (|ln Z| + s ln x0 + |a ln ln(x0 + e)|) + 3 ulps of the
# sum to 2 |a| + 7, so every value fell by 1e-16 to 2e-14 relative
# (TestTailPowerOracle holds the sums and bounds against a 40-digit
# oracle); zipf1.2 at J = 70000 now has the same bits on both paths
TAIL_MASS_J = (1, 10, 100, 1000, 1023, 1024, 1025, 70000)
TAIL_MASS_SPECS = {
    "zipf2": DistributionSpec(family="zipf", s=2.0),
    "zipf1.2": DistributionSpec(family="zipf", s=1.2),
    "zipf_log21": DistributionSpec(family="zipf_log", s=2.0, a=1.0),
    "zipf_log1.5-0.5": DistributionSpec(family="zipf_log", s=1.5, a=-0.5),
    "theta_one_log": DistributionSpec(family="theta_one_log"),
    "geo0.5": DistributionSpec(family="geometric", q=0.5),
    "geo0.99": DistributionSpec(family="geometric", q=0.99),
}
TAIL_MASS_HEX = {
    "zipf2": (
        "0x1.917b8eccbd550p-2", "0x1.d9f10a3dfa9cbp-5", "0x1.8c6cfa05030c8p-8",
        "0x1.3e91cf8a30d0fp-11", "0x1.3769241eba7e7p-11", "0x1.371b539094162p-11",
        "0x1.36cda9dc2281dp-11", "0x1.23683d39cc284p-17"),
    "zipf1.2": (
        "0x1.a46f0d00a8578p-1", "0x1.1e0a74d30c2dep-1", "0x1.6c2af757d6d5ap-2",
        "0x1.cbf63b0d61f28p-3", "0x1.c9e031ad97d3fp-3", "0x1.c9c94d70d7fe0p-3",
        "0x1.c9b27010476a4p-3", "0x1.8958a27e36c1cp-4"),
    "zipf_log21": (
        "0x1.3e547d78001b0p-2", "0x1.acb50a8609437p-6", "0x1.ae4ab1c85d899p-10",
        "0x1.e61782400f4c8p-14", "0x1.d9c67a81f598ep-14", "0x1.d940d4b4a476ap-14",
        "0x1.d8bb766c4ba13p-14", "0x1.1f308db90219cp-20"),
    "zipf_log1.5-0.5": (
        "0x1.647f9b47188acp-1", "0x1.59cd6a22196a7p-2", "0x1.13f415c8e2543p-3",
        "0x1.9787cb16c8ed5p-5", "0x1.9372fcc9559b8p-5", "0x1.9346529cd1079p-5",
        "0x1.9319b85db7becp-5", "0x1.db001cbdda1c9p-8"),
    "theta_one_log": (
        "0x1.3f7b5d4440819p-1", "0x1.0f8266cc2157dp-2", "0x1.1f9fca4f549d9p-3",
        "0x1.8077d8272f9ebp-4", "0x1.7f3550781f34fp-4", "0x1.7f2780e2e3267p-4",
        "0x1.7f19b5be86e24p-4", "0x1.dc2f434234dc4p-5"),
    "geo0.5": (
        "0x1.0000000000000p-1", "0x1.0000000000000p-10", "0x1.0000000000000p-100",
        "0x1.0000000000000p-1000", "0x0.8000000000000p-1022", "0x0.4000000000000p-1022",
        "0x0.2000000000000p-1022", "0x0.0p+0"),
    "geo0.99": (
        "0x1.fae147ae147afp-1", "0x1.cf0b2ad680bbfp-1", "0x1.76d12e9c2ff44p-2",
        "0x1.6a258c41be10ep-15", "0x1.1f679f15ca584p-15", "0x1.1c87dd7e88524p-15",
        "0x1.19af777077992p-15", "0x1.0566adc708a35p-1015"),
}
TAIL_MASS_HEX_NO_V4 = {
    **TAIL_MASS_HEX,
    "theta_one_log": (
        "0x1.3f7b5d444081ap-1", "0x1.0f8266cc2157dp-2", "0x1.1f9fca4f549d9p-3",
        "0x1.8077d8272f9ebp-4", "0x1.7f3550781f34fp-4", "0x1.7f2780e2e3267p-4",
        "0x1.7f19b5be86e24p-4", "0x1.dc2f434234dc4p-5"),
    "geo0.99": (
        "0x1.fae147ae147afp-1", "0x1.cf0b2ad680bbfp-1", "0x1.76d12e9c2ff45p-2",
        "0x1.6a258c41be10ep-15", "0x1.1f679f15ca584p-15", "0x1.1c87dd7e88524p-15",
        "0x1.19af777077992p-15", "0x1.0566adc708a35p-1015"),
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

    @pytest.mark.parametrize("family", list(_FAMILIES))
    def test_family_table_rule(self, family):
        # a family takes exactly its parameters in the table: each one it
        # does not take is refused, and so is each one it needs left unset;
        # both messages name the parameter
        valid = {"s": 2.0, "a": 1.0, "q": 0.5}
        takes = {name: valid[name] for name in _FAMILIES[family]}
        assert build_distribution(DistributionSpec(family=family, **takes)).family == family
        for name in set(valid) - set(takes):
            with pytest.raises(DistributionError, match=f"{family} does not take the .* {name}$"):
                DistributionSpec(family=family, **takes, **{name: valid[name]})
        for name in takes:
            rest = {other: v for other, v in takes.items() if other != name}
            with pytest.raises(DistributionError, match=f"{family} requires the .* {name}$"):
                DistributionSpec(family=family, **rest)

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

    def test_zeta_is_scipys(self):
        # zipf's Z is cephes' Hurwitz zeta at q = 1, bitwise, and so within a
        # few ulps of a 40-digit zeta: at fixed points and 200 seeded ones
        points = [1.0001, 1.001, 1.01, 1.2, 1.5, 2.0, 3.0, 10.0, 40.0, 60.0]
        points += (1.0 + 32.0 * np.random.default_rng(21).random(200)).tolist()
        for s in points:
            assert _zeta(s) == float(special.zeta(s, 1.0)), s
            with mp.workdps(40):
                want = mp.zeta(s)
                assert abs(mp.mpf(_zeta(s)) - want) <= 8 * math.ulp(float(want)), s

    @pytest.mark.parametrize("s, a", [(1.07, -0.5), (1.1, -0.5), (1.01, 1.0), (1.05, -1.0),
                                      (1.01, -1.0)],
                             ids=("1.07--0.5", "1.1--0.5", "1.01-1.0", "1.05--1.0", "1.01--1.0"))
    def test_near_one_negative_log_power(self, monkeypatch, s, a):
        # Z takes one cut, 2^14: one tail sum, whose bound is within
        # _NORM_TOL max(1, Z), and within a quarter of it but for
        # (1.01, -1.0), where the rounding-dominated bound is 0.36 of it (and
        # fell only from 3.60e-9 to 3.51e-9 over the cuts up to 2^22); for
        # (1.07, -0.5) it is above _NORM_TOL but within _NORM_TOL Z.  Z and
        # the tail masses hold within their bounds against 40-digit
        # Euler-Maclaurin sums
        cuts = []
        weight_tail = CellDistribution._weight_tail

        def spy(self, J):
            cuts.append(J)
            return weight_tail(self, J)

        monkeypatch.setattr(CellDistribution, "_weight_tail", spy)
        d = build_distribution(DistributionSpec(family="zipf_log", s=s, a=a))
        assert cuts == [1 << 14]
        bound = d._weight_tail(1 << 14)[1]
        assert bound <= _NORM_TOL * d.Z
        if (s, a) != (1.01, -1.0):
            assert bound <= _NORM_TOL / 4.0 * max(1.0, d.Z)
        if (s, a) == (1.07, -0.5):
            assert _NORM_TOL < bound <= _NORM_TOL * d.Z
        with mp.workdps(40):
            head = mp.fsum(mp.mpf(j) ** -mp.mpf(d.s) * mp.log(j + mp.e) ** -mp.mpf(d.a)
                           for j in range(1, 1001))
        want = float(head + mp.mpf(tail_power_oracle(d, d.Z, 1000, 1)))
        assert abs(d.Z - want) <= bound
        for J in (1000, _TABLE_SIZE, 10 ** 7):
            # tail_mass is the estimate plus its bound at max(J, _EM_MIN_INDEX)
            excess = d.tail_mass(J) - tail_power_oracle(d, 1.0, J, 1)
            tail_bound = d._weight_tail(max(J, _EM_MIN_INDEX))[1] / d.Z
            assert 0.0 <= excess <= 2.0 * tail_bound, J

    def test_steep_negative_log_power_builds(self):
        # (1.05, -1.0) has s + a / ln(x + e) < 1 just past the table, which
        # a global power envelope could not cover; the piecewise hat does,
        # and the law's monotonicity checks still run
        d = build_distribution(DistributionSpec(family="zipf_log", s=1.05, a=-1.0))
        assert 402.0 < d.Z < 403.0
        assert d.s + d.a / math.log(_TABLE_SIZE + 0.5 + math.e) < 1.0
        law, e, bound = d._tail_ranges
        assert e.om.max() > 0.0 > e.om.min()  # 1 - sigma of both signs
        assert abs(law.sum() - 1.0) < 1e-12 and bound < 1e-11
        with pytest.raises(DistributionError, match="not monotone"):
            build_distribution(DistributionSpec(family="zipf_log", s=1.05, a=-8.0))

    @pytest.mark.parametrize("s, a", [(1.01, -6.0), (1.005, -3.76), (1.0147, -6.0)])
    def test_not_monotone_refused_by_name(self, s, a):
        # p_j rises over the first cells, and Z's bound fails too (1e5, 2.7
        # and 5e3 for J = 2^14): the monotone check runs first, so the
        # refusal names the cause, not "normalization stalled"
        with pytest.raises(DistributionError, match="p_j not monotone nonincreasing"):
            build_distribution(DistributionSpec(family="zipf_log", s=s, a=a))

    def test_normalization_partial_plus_tail(self, zipf_log21, theta_one_log, zipf2,
                                              geometric_half):
        # zipf at s = 1.001, whose Z is 99% tail, too
        zipf_near_one = build_distribution(DistributionSpec(family="zipf", s=1.001))
        for d in (zipf_log21, theta_one_log, zipf2, geometric_half, zipf_near_one):
            for J in (10, 100, 5000, 60000):
                total = d.probs_prefix(J).sum() + d.tail_mass(J)
                assert 1.0 - 1e-9 <= total <= 1.0 + 1e-9

    def test_runs_without_scipy(self, tmp_path):
        # numpy is the only runtime dependency: in a fresh process, importing
        # the package loads no scipy module, and with every scipy import
        # refused the four families (zipf near s = 1 too) build, draw and give
        # a moment report, and the gamma constants, the median band and a
        # theorem1 run all work
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        (tmp_path / "cfg.ini").write_text("family = theta_one_log\nn_min = 1000\n"
                                          "n_max = 10000\npoints = 2\nks = 1,\nseeds = 10\n")
        code = f"""
import sys
import numpy as np
import urnsim
print([m for m in sys.modules if m.startswith("scipy")])
sys.modules["scipy"] = None
from urnsim import DistributionSpec, build_distribution, gamma_tail_partial_sum, moment_report
from urnsim.cli import main
from urnsim.studies import median_band
for spec in (dict(family="zipf", s=1.001), dict(family="zipf", s=2.0),
             dict(family="zipf_log", s=2.0, a=1.0), dict(family="theta_one_log"),
             dict(family="geometric", q=0.5)):
    d = build_distribution(DistributionSpec(**spec))
    d.draw_cells(np.random.default_rng(1), 1000)
    moment_report(d, 1e4, 2, True)
gamma_tail_partial_sum(0.5, 1e3)
median_band(build_distribution(DistributionSpec(family="theta_one_log")), 10_000, 30)
print(main(["verify", "theorem1", "--config", {str(tmp_path / "cfg.ini")!r},
            "--out", {str(tmp_path)!r}]))
"""
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, timeout=120)
        assert res.returncode == 0, res.stderr
        assert res.stdout.splitlines()[0] == "[]"
        assert res.stdout.splitlines()[-1] == "0"
        assert (tmp_path / "theorem1_theta_one_log.json").exists()


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

    def test_grown_prefix_bitwise(self):
        # a prefix past the table, made by prob_array in table-sized pieces
        # or in one call, has the same bits, and the table's prefix is its
        # head: so tests that read p_1..p_J for J past the table take it
        # from prob_array
        for spec in FAMILY_SPECS:
            d = build_distribution(spec)
            J = 3 * _TABLE_SIZE + 5
            want = d.prob_array(np.arange(1, J + 1))
            pieces = np.concatenate([d.prob_array(np.arange(lo + 1, min(lo + _TABLE_SIZE, J) + 1))
                                     for lo in range(0, J, _TABLE_SIZE)])
            assert pieces.tobytes() == want.tobytes()
            assert d.probs_prefix(_TABLE_SIZE).tobytes() == want[:_TABLE_SIZE].tobytes()


class TestCountingFunction:
    def test_geometric_example(self, geometric_half):
        assert geometric_half.counting_function(4.0) == 2

    def test_zipf_linear_scan_oracle(self, zipf2):
        assert zipf2.counting_function(1e6) == ALPHA_1E6_ZIPF2

    def test_below_first_cell(self, zipf2, geometric_half, theta_one_log):
        for d in (zipf2, geometric_half, theta_one_log):
            assert d.counting_function(0.5 / d.prob(1)) == 0
            assert d.counting_function(0.0) == 0

    @given(x=st.floats(min_value=1.0, max_value=1e12))
    @settings(max_examples=80, deadline=None)
    def test_duality(self, zipf2, theta_one_log, geometric_half, x):
        for d in (zipf2, theta_one_log, geometric_half):
            j = d.counting_function(x)
            if j >= 1:
                assert d.prob(j) >= 1.0 / x
            assert d.prob(j + 1) < 1.0 / x

    def test_duality_at_rounding_windows(self, zipf2, zipf_log21, theta_one_log, x86_v4):
        # cells whose p_j the math-library form j^-s ln(j+e)^-a / Z rounds
        # differently from numpy's (more than 100 of them where numpy's
        # AVX-512 loops run; none where they do not): prob must agree with
        # the prob_array the search uses, and the search must hold at
        # thresholds one ulp around 1/p_j of every cell
        for d in (zipf2, zipf_log21, theta_one_log):
            cells = np.arange(1, 20_001)
            libm = [float(j) ** -d.s * math.log(j + math.e) ** -d.a / d.Z
                    for j in cells.tolist()]
            differ = cells[d.prob_array(cells) != np.array(libm)]
            if x86_v4:
                assert differ.size > 100
            assert [d.prob(j) for j in differ.tolist()] == d.prob_array(differ).tolist()
            xs = np.array(edge_thresholds(d, cells.tolist()))
            j = d.counting_function(xs)
            hit = j >= 1  # below 1/p_1 no cell qualifies
            assert np.all(d.prob_array(j[hit]) >= 1.0 / xs[hit])
            assert np.all(d.prob_array(j + 1) < 1.0 / xs)

    def test_nondecreasing(self, zipf_log21):
        xs = np.logspace(0, 10, 60)
        vals = [zipf_log21.counting_function(x) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    @given(xs=st.lists(st.floats(min_value=1.0, max_value=1e12), min_size=1,
                       max_size=12))
    @settings(max_examples=25, deadline=None)
    def test_matches_scalar_bisection(self, request, xs):
        # every family; thresholds drawn over [1, 1e12], at the table edge
        # p_{2^16}, at cells GROWN and 2^23 + 5 past it, and x <= 0
        for d in (request.getfixturevalue(f) for f in FAMILY_FIXTURES):
            size = d._prefix.size
            cells = (_TABLE_SIZE - 1, _TABLE_SIZE, _TABLE_SIZE + 1,
                     GROWN - 1, GROWN, GROWN + 1, (1 << 23) + 5, 900)
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
            # one array of more than 2^15 thresholds, up to and one ulp
            # around the table edge p_{2^16}
            many = np.geomspace(1.0, 1.0 / d.prob(_TABLE_SIZE), (1 << 15) + 999).tolist()
            many += edge_thresholds(d, (_TABLE_SIZE - 1, _TABLE_SIZE, _TABLE_SIZE + 1))
            assert len(many) > 1 << 15
            scalar = [d.counting_function(x) for x in many]
            assert d.counting_function_many(np.array(many)).tolist() == scalar

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
            # 1023..1025 cross _EM_MIN_INDEX, below which the cells are summed
            vals = [d.tail_mass(J) for J in (10, 100, 1000, 1023, 1024, 1025, 10000, 100000)]
            assert all(b <= a for a, b in zip(vals, vals[1:]))

    def test_invalid(self, zipf2):
        with pytest.raises(DistributionError):
            zipf2.tail_mass(0)

    @pytest.mark.parametrize("name", sorted(TAIL_MASS_SPECS))
    def test_bits_pinned(self, name, x86_v4):
        d = build_distribution(TAIL_MASS_SPECS[name])
        want = (TAIL_MASS_HEX if x86_v4 else TAIL_MASS_HEX_NO_V4)[name]
        assert tuple(d.tail_mass(J).hex() for J in TAIL_MASS_J) == want


class TestTailPowerSum:
    # (t, J) pairs: J at _EM_MIN_INDEX, the smallest cut of a power family,
    # and head lengths; geometric uses its closed form
    POINTS = ((1e4, _EM_MIN_INDEX), (1e6, 5000), (3e7, 40_000))

    def test_hits_equal_misses_bitwise(self):
        for spec in FAMILY_SPECS:
            warm, cold = build_distribution(spec), build_distribution(spec)
            for t, J in self.POINTS:
                def bits(d):  # every order's value and bound
                    return [v.hex() for arr in d.tail_power_sum(t, J) for v in arr]

                first = bits(warm)
                assert bits(warm) == first
                cold._tail_cuts.clear()
                assert bits(cold) == first

    def test_cut_below_em_min_index(self):
        # a power family's sums start at _EM_MIN_INDEX; geometric's closed
        # form takes any cut
        for spec in FAMILY_SPECS:
            d = build_distribution(spec)
            if spec.family == "geometric":
                values, bounds = d.tail_power_sum(1e4, 1000)
                assert values[0] == 1e4 * d.prob(1001) / (1.0 - d.q)
                assert np.all(bounds >= 0.0)
            else:
                with pytest.raises(DistributionError, match="cut J must be >= 1024"):
                    d.tail_power_sum(1e4, 1000)
                assert not d._tail_cuts

    def test_cache_stays_at_cap(self):
        d = build_distribution(DistributionSpec(family="zipf", s=2.0))
        first = exact_mean(d, 1e3, 2, star=True)
        for t in np.logspace(3, 8, 100):
            exact_mean(d, float(t), 2, star=True)
            assert len(d._tail_cuts) <= _SLOTS
        assert len(d._tail_cuts) == _SLOTS
        # the evicted power sums at t = 1e3 are recomputed to the same bits
        assert exact_mean(d, 1e3, 2, star=True) == first


def tail_power_oracle(d, t, J, r):
    """sum_{j>J} (t p_j)^r at 40 digits, p_j = j^-s (ln(j+e))^-a / Z with
    the float Z of d: Euler-Maclaurin from N = J + 1 with five derivative
    terms (the next is below 1e-19 of the sum for r s <= 120, N > 1000).

    The sum is taken over (t p_N)^r = exp(lc) and multiplied back after, so
    that its size does not matter: mp.taylor chops coefficients below an
    absolute epsilon, which dropped every derivative term of a sum near
    1e-44 (zipf s = 2, J = 1024, t = 1e4, r = 20: 1.9% low)."""
    with mp.workdps(40):
        s, a = mp.mpf(d.s), mp.mpf(d.a)
        N = mp.mpf(J + 1)
        y0 = mp.log(N + mp.e)
        lc = r * (mp.log(t) - mp.log(d.Z) - s * mp.log(N) - a * mp.log(y0))

        def f(x):
            return mp.exp(-r * (s * mp.log(x / N) + a * mp.log(mp.log(x + mp.e) / y0)))

        if d.a == 0.0:
            integral = N / (r * s - 1)
        elif r * d.s > 1.0:
            lam = r * s - 1
            integral = N * mp.quad(lambda u: f(N * mp.exp(u)) * mp.exp(u),
                                   [0, 1 / lam, 8 / lam, mp.inf])
        else:
            # y = ln(x + e): the integral is a closed form plus a correction
            # that decays like e^-y
            integral = N * y0 ** a * (y0 ** (1 - a) / (a - 1) + mp.e * mp.quad(
                lambda y: y ** -a / (mp.exp(y) - mp.e), [y0, y0 + 1, mp.inf]))
        der = mp.taylor(f, N, 9)  # f^(n)(N) / n!
        total = integral + der[0] / 2
        for k in range(1, 6):
            total -= mp.bernoulli(2 * k) / (2 * k) * der[2 * k - 1]
        return float(mp.exp(lc) * total)


class TestTailPowerOracle:
    """tail_power_sum against tail_power_oracle at t p_{J+1} = 0.4, inside
    the series' cut t p_{J+1} <= 1/2, and at t = 1e4 on the smallest cut,
    where (t p_j)^r falls to 1e-134 (zipf s = 2, r = 60) and its products
    run deepest."""

    @pytest.mark.parametrize("spec", [
        DistributionSpec(family="zipf", s=2.0),
        DistributionSpec(family="zipf", s=1.2),
        DistributionSpec(family="zipf_log", s=1.5, a=1.0),
        DistributionSpec(family="zipf_log", s=1.5, a=-0.5),
        DistributionSpec(family="zipf_log", s=1.05, a=-1.0),
        DistributionSpec(family="theta_one_log"),
    ], ids=lambda spec: "-".join(str(v) for v in spec.as_mapping().values()))
    def test_within_bound(self, spec):
        d = build_distribution(spec)
        points = [(0.4 / d.prob(J + 1), J) for J in (1 << 10, 37_000, 10 ** 7)]
        for t, J in points + [(1e4, 1 << 10)]:
            values, bounds = d.tail_power_sum(t, J)
            for r in (1, 2, 5, 20, 40, 60):
                got, bound = values[r - 1], bounds[r - 1]
                want = tail_power_oracle(d, t, J, r)
                assert abs(got - want) <= bound, (J, r, got, want, bound)
                # the bound is not vacuous: it stays below the Euler-Maclaurin
                # remainder at the smallest cut, and near rounding beyond it
                assert bound <= (1e-6 if J == 1 << 10 else 1e-11) * want

    def test_direct_sum(self, zipf2):
        # a 50-digit sum of the 20,000 terms past J = 1024 at t = 1e4 (the
        # rest is below 1e-45 of it): the oracle read 4.6530e-44 at r = 20
        # while its derivative terms were chopped
        J, t = 1 << 10, 1e4
        values, bounds = zipf2.tail_power_sum(t, J)
        for r in (18, 20, 60):
            with mp.workdps(50):
                want = float((t / mp.mpf(zipf2.Z)) ** r * mp.fsum(
                    mp.mpf(j) ** (-2 * r) for j in range(J + 1, J + 20_001)))
            assert abs(tail_power_oracle(zipf2, t, J, r) - want) <= 1e-15 * want, r
            assert abs(values[r - 1] - want) <= bounds[r - 1], r

    def test_subnormal_orders(self, zipf2):
        # at t = 1 past J = 1024, (t f0 / Z)^r leaves the normal range at
        # order 51 (8.1e-318) and rounds to 0 from order 52; a 40-digit sum
        # of the 3,000 terms past J (the rest is below 1e-50 of it from
        # order 46 on) must lie within the bound, which a bound relative to
        # the value alone misses there
        J = 1 << 10
        values, bounds = zipf2.tail_power_sum(1.0, J)
        assert values[50] < 2.0 ** -1022 and values[51] == 0.0
        with mp.workdps(40):
            terms = [mp.mpf(j) ** -2 / mp.mpf(zipf2.Z) for j in range(J + 1, J + 3001)]
            for r in range(46, 60):
                want = mp.fsum(p ** r for p in terms)
                assert abs(values[r - 1] - want) <= bounds[r - 1], (r, values[r - 1], want)
        assert np.all(bounds[50:] < 1e-320)

    @pytest.mark.parametrize("spec", [
        DistributionSpec(family="zipf", s=1.01),
        DistributionSpec(family="zipf_log", s=1.01, a=1.0),
    ], ids=("zipf-1.01", "zipf_log-1.01-1"))
    def test_slow_decay_reaches_its_mass(self, spec):
        # at s = 1.01 the integrals decay like e^(-0.01 u): a range cut at
        # u = 700 drops e^-7 of them
        d = build_distribution(spec)
        for J in (2048, 37_000):
            got, bound = (v[0] for v in d.tail_power_sum(1e4, J))
            want = tail_power_oracle(d, 1e4, J, 1)
            assert abs(got - want) <= bound, (J, got, want, bound)
            assert bound <= 1e-12 * want
        # the r = 1 sum past 2^14 over f(x0): the integral from x0 on, over
        # f(x0), plus the midpoint Euler-Maclaurin term f'(x0) / (24 f(x0))
        x0 = 16_384.5
        values, errors = _tail_sums(d.s, d.a, 1 << 14)
        got, err = values[0], errors[0]
        with mp.workdps(30):
            s, a = mp.mpf(d.s), mp.mpf(d.a)
            w0 = mp.log(x0 + mp.e)
            want = x0 * mp.quad(
                lambda u: mp.exp((1 - s) * u) * ((u + mp.log(x0 + mp.e * mp.exp(-u))) / w0) ** -a,
                [0, 1, 10, 100, 1000, mp.inf]) - (s / x0 + a / ((x0 + mp.e) * w0)) / 24
        assert abs(got - float(want)) <= err + 1e-15 * float(want)
        assert err <= 1e-12 * float(want)

    def test_orders(self, zipf2):
        # entry r - 1 holds order r = 1.._MAX_ORDER, and the sums fall with r
        # (t p_j < 1 past the cut)
        values, bounds = zipf2.tail_power_sum(1e4, 5000)
        assert values.shape == bounds.shape == (_MAX_ORDER,)
        assert np.all(np.diff(values) < 0.0) and np.all(bounds >= 0.0)


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

    def test_keeps_nothing_of_its_own(self):
        # six distinct t evict the first t's head sums from the four slots;
        # L* there is the series made again, bitwise the same
        d = build_distribution(DistributionSpec(family="theta_one_log"))
        ts = (1e4, 2e4, 5e4, 1e5, 2e5, 5e5)
        first = smoothed_slowly_varying(d, ts[0])
        for t in ts[1:]:
            smoothed_slowly_varying(d, t)
        assert (ts[0], 1, True) not in d._head_sums
        again = smoothed_slowly_varying(d, ts[0])
        assert again == first == exact_mean(d, ts[0], 1, True, "poisson")[0] / ts[0]

    def test_decreasing_to_zero_trend(self, theta_one_log):
        vals = [smoothed_slowly_varying(theta_one_log, t) for t in np.logspace(4, 10, 7)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 0.6 * vals[0]

    def test_series_bound_self_check(self, theta_one_log):
        # the r = 1 tail sum carries the Euler-Maclaurin remainder of every
        # order, so the bound stays small where the head is cut near
        # _EM_MIN_INDEX (below t = 1e5) too
        for t in (1e4, 31_623, 1e5, 1e7):
            val = smoothed_slowly_varying(theta_one_log, t)
            assert exact_mean(theta_one_log, t, 1, star=True)[1] / t <= 1e-12 * val, t

    def test_requires_theta_one(self, zipf2, geometric_half):
        for d in (zipf2, geometric_half):
            with pytest.raises(DistributionError):
                smoothed_slowly_varying(d, 1e4)


def _chi2_pvalue(observed, expected) -> float:
    """Pearson chi-square p-value, bins merged in order until each expects
    at least 20 draws (the remainder joins the last bin); more than 4 bins."""
    keep_obs, keep_exp, o_acc, e_acc = [], [], 0, 0.0
    for o, e in zip(observed, expected):
        o_acc, e_acc = o_acc + o, e_acc + e
        if e_acc >= 20.0:
            keep_obs.append(o_acc)
            keep_exp.append(e_acc)
            o_acc, e_acc = 0, 0.0
    keep_obs[-1] += o_acc
    keep_exp[-1] += e_acc
    keep_obs, keep_exp = np.array(keep_obs), np.array(keep_exp)
    assert keep_obs.size > 4, keep_obs.size
    return float(stats.chi2.sf(float(((keep_obs - keep_exp) ** 2 / keep_exp).sum()),
                               df=keep_obs.size - 1))


class _Uniforms:
    """A stand-in generator: random(size) and bit_generator.random_raw(size)
    hand out the arrays ``arrays`` and ``raw`` in turn (random falls back on
    ``rng``); geometric hands out the next of the gaps ``gaps``, then gaps
    that no part reaches."""

    def __init__(self, *arrays, raw=(), gaps=(), rng=None):
        self.arrays, self.raw, self.gaps = list(arrays), list(raw), list(gaps)
        self.rng, self.bit_generator = rng, self

    def random(self, size):
        if not self.arrays:
            return self.rng.random(size)
        out = self.arrays.pop(0).copy()  # the sampler works in place
        assert out.size == size
        return out

    def random_raw(self, size):
        out = self.raw.pop(0).copy()
        assert out.size == size
        return out

    def geometric(self, p, size):
        out, self.gaps = self.gaps[:size], self.gaps[size:]
        return np.array(out + [1 << 40] * (size - len(out)), dtype=np.int64)


def _cells(e):
    """The edges of elements e: element i holds the cells edge[i] + 1..edge[i + 1]."""
    return np.append(e.first[0] - 1, e.last)


def _pieces(d, a, b):
    """The law and the elements of the hat pieces a..b-1 past the table."""
    law, e, _ = d._tail_ranges
    return law[a:b], _Elements(*(f[a:b] for f in e))


def _draw_range(d, rng, m, r):
    """m draws of the power family d in the dyadic range (2^r, 2^(r+1)]: one
    part of the range's hat pieces, every ball with its cell."""
    p, e = _pieces(d, _PIECES * (r - 16), _PIECES * (r - 15))
    (ids, _), = d._draw_part(rng, e, p, np.array([m]), False)
    return ids


def _keys(places, bits):
    """The keys of balls at ``places`` of a part with stops of ``bits``
    bits, at stop 0; and their low bits, the rest of each place, then u =
    1/2."""
    shift = _PLACE_BITS - 32 + bits
    low = (places & ((1 << shift) - 1)).astype(np.uint64) << np.uint64(64 - shift)
    return (((places >> shift) << bits).astype(np.uint32),
            low | np.uint64(1 << (63 - shift)))


@functools.cache
def _sampler(name):
    return build_distribution(_SAMPLER_SPECS[name])


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

    @pytest.mark.parametrize("name", _POWER_SAMPLERS)
    def test_tail_ranges_law(self, name, rng):
        # draw_past's draws past the table (at J = table, every ball),
        # binned by range (the dyadic ranges, then past 2^62), against the
        # masses of the hat's pieces it splits the balls past the table by,
        # summed by range; its draws in (2^16, 2^17] against p_j in 8 bins
        # of cells and over the range's four pieces; and draws in (2^40,
        # 2^41], across its hat's pieces, against the tail sums at 8 bin
        # edges equal in ln x
        d = build_distribution(_SAMPLER_SPECS[name])
        law, e, bound = d._tail_ranges
        assert law.size == _PIECES * (_RANGE_EDGES.size - 1) + 1
        ranges = np.append(law[:-1].reshape(-1, _PIECES).sum(axis=1), law[-1])
        assert ranges.size == _RANGE_EDGES.size and abs(law.sum() - 1.0) < 1e-12
        assert 0.0 < bound < 1e-11
        m = 1_000_000
        binned = np.zeros(ranges.size, dtype=np.int64)
        first = []
        runs = d.draw_past(rng, _TABLE_SIZE, [m // 2, 0, m - m // 2])
        next(runs)  # the table run, empty at J = table
        for ids, counts in runs:
            if ids is None:
                binned[-1] += counts.sum()
                continue
            assert ids.min() > _TABLE_SIZE and ids.max() <= _RANGE_EDGES[-1]
            binned += np.bincount(np.searchsorted(_RANGE_EDGES, ids) - 1, minlength=ranges.size)
            first.append(ids[ids <= 2 * _TABLE_SIZE])
        assert binned.sum() == m
        assert _chi2_pvalue(binned, ranges * m) > 1e-3
        first = np.concatenate(first)
        cells = np.arange(_TABLE_SIZE + 1, 2 * _TABLE_SIZE + 1)
        p = np.add.reduceat(d.prob_array(cells), np.arange(0, _TABLE_SIZE, _TABLE_SIZE // 8))
        binned = np.bincount((first - _TABLE_SIZE - 1) // (_TABLE_SIZE // 8), minlength=8)
        assert _chi2_pvalue(binned, p / p.sum() * first.size) > 1e-3
        edges = _cells(e)[:_PIECES + 1]
        p = np.add.reduceat(d.prob_array(cells), edges[:-1] - _TABLE_SIZE)
        binned = np.bincount(np.searchsorted(edges, first) - 1, minlength=_PIECES)
        expect = p / p.sum() * first.size
        assert stats.chi2.sf(float(((binned - expect) ** 2 / expect).sum()), _PIECES - 1) > 1e-3
        ids = _draw_range(d, rng, 200_000, 40)
        edges = ((1 << 40) * 2.0 ** (np.arange(9) / 8)).astype(np.int64)
        assert ids.min() > edges[0] and ids.max() <= edges[-1]
        tails = np.array([d._weight_tail(int(J))[0] for J in edges])
        binned = np.bincount(np.searchsorted(edges, ids) - 1, minlength=8)
        assert _chi2_pvalue(binned, -np.diff(tails) / (tails[0] - tails[-1]) * ids.size) > 1e-3

    @pytest.mark.parametrize("name", _POWER_SAMPLERS)
    def test_tail_ranges_match_oracle(self, name):
        # the law over the ranges (its pieces' masses summed) against
        # differences of the 40-digit tail sums, at the first two ranges, two
        # far ones and the synthetic one; and the law of the first two pieces
        # of range 16, the second of range 40 and the last of range 61; all
        # within the bound that _tail_ranges returns
        d = build_distribution(_SAMPLER_SPECS[name])
        law, e, bound = d._tail_ranges
        ranges = np.append(law[:-1].reshape(-1, _PIECES).sum(axis=1), law[-1])
        tail = {m: tail_power_oracle(d, 1.0, 1 << m, 1) for m in (16, 17, 18, 40, 41, 61, 62)}
        for m in (16, 17, 40, 61):
            want = (tail[m] - tail[m + 1]) / tail[16]
            assert abs(ranges[m - 16] - want) <= bound, (m, ranges[m - 16], want, bound)
        assert abs(law[-1] - tail[62] / tail[16]) <= bound
        for i in (0, 1, _PIECES * (40 - 16) + 1, _PIECES * (62 - 16) - 1):
            lo, hi = (tail_power_oracle(d, 1.0, int(c), 1) for c in _cells(e)[i:i + 2])
            assert abs(law[i] - (lo - hi) / tail[16]) <= bound, (i, law[i], (lo - hi) / tail[16])

    @pytest.mark.parametrize("name", _POWER_SAMPLERS)
    def test_cell_sums_direct(self, name):
        # the masses that the pieces and sub-pieces of the sampler take,
        # against direct sums of Z p_j over 1 to 40,000 cells past the table
        # (their own rounding, 20 ulps, added to the bound)
        d = build_distribution(_SAMPLER_SPECS[name])
        lo = np.array([_TABLE_SIZE, _TABLE_SIZE + 1, 70_000, 90_001, 100_000, 3 * _TABLE_SIZE])
        hi = lo + np.array([1, 2, 7, 100, 5_000, 40_000])
        sums, bounds = d._cell_sums(lo, hi)
        direct = np.array([d._weights(np.arange(a + 1, b + 1, dtype=np.float64)).sum()
                           for a, b in zip(lo, hi)])
        assert np.all(bounds < 1e-13 * sums), bounds / sums
        assert np.all(np.abs(sums - direct) <= bounds + 20 * 2.0 ** -52 * direct), (sums - direct) / direct

    @pytest.mark.parametrize("m", [56, 61])
    def test_far_range_low_bits(self, theta_one_log, m, rng):
        # past 2^52 the float candidates lie 2^(m-52) apart in range m, and
        # the cells drawn there must not: their low 10 bits are uniform
        ids = _draw_range(theta_one_log, rng, 20_000, m)
        assert ids.min() > _RANGE_EDGES[m - 16] and ids.max() <= _RANGE_EDGES[m - 15]
        low = np.bincount(ids & 1023, minlength=1024)
        assert _chi2_pvalue(low, np.full(1024, ids.size / 1024)) > 1e-3

    def test_whole_tail_run_proposes_adjacent_far_cells(self):
        # a candidate's place in its element is its key, then its low bits,
        # so it is resolved to 2^-53 of its element whatever the rest of
        # its part, and a part of every piece (as a small tail draws)
        # reaches every far cell: places 2^-49 of a piece apart, in the first
        # piece of (2^50, 2^51], give adjacent cells.  One uniform over the
        # whole part's hat mass would resolve them only to 2^-53 of it: 89
        # cells apart there for zipf s = 1.2
        d = build_distribution(_SAMPLER_SPECS["zipf_s1.2"])
        law, e, _ = d._tail_ranges
        k, n = _PIECES * (50 - 16), 64
        edge = d._edges(law[:-1])
        v = 0.5 + np.arange(n) * 2.0 ** -49
        places = edge[k] + (v * (edge[k + 1] - edge[k])).astype(np.int64)
        key, low = _keys(places, 1)
        at, ids = d._place(_Uniforms(raw=[low]), e, edge, key, 1)
        assert np.all(at == k)
        cells = np.unique(ids)
        assert cells.min() > 1 << 50 and cells.max() < 1 << 51
        assert cells.size > n // 4 and np.all(np.diff(cells) == 1), np.diff(cells)

    def test_rejected_candidates_redrawn_in_own_piece(self):
        # every first candidate takes the acceptance ratio (the gaps of the
        # tested ones are all 1) with a uniform of 1 - 2^-53, above the ratio
        # at the middle of a piece, so all are rejected and drawn again, each
        # at a fraction of its own piece: the ids must be those of a draw
        # whose first candidates lie there, each in its own piece and its
        # stop's place
        d = build_distribution(_SAMPLER_SPECS["theta_one_log"])
        (p, e), counts = _pieces(d, 0, 2), np.array([3, 3])
        edge = d._edges(p)
        at = np.array([0, 0, 1, 1, 1, 1])  # stop 0: two in piece 0, one in 1; stop 1: three in 1
        steps = (edge[1:] - edge[:-1])[at]
        again = (np.linspace(0.1, 0.9, 6) * steps).astype(np.int64)
        first, low = _keys(edge[at] + steps // 2, 1)
        redrawn = _Uniforms(np.full(6, 1.0 - 2.0 ** -53), (0.5 + again) / steps,
                            raw=[first.view(np.uint64), low], gaps=[1] * 6)
        ids = np.concatenate([ids for ids, _ in d._draw_part(redrawn, e, p, counts, False)])
        key, low = _keys(edge[at] + again, 1)
        want, = d._draw_part(_Uniforms(raw=[key.view(np.uint64), low]), e, p, counts, False)
        assert np.array_equal(ids, want[0])
        assert np.all(np.searchsorted(_cells(e), ids) - 1 == at)

    def test_redrawn_ball_meets_alone_ball(self):
        # in run_coupled's form (alone), three stops: ball A, first in the
        # sort, takes the ratio (one gap of 1), is rejected (a uniform of
        # 1 - 2^-53) and is drawn again at a place P three keys before ball
        # B, which lies alone among the first keys.  C lies alone; D and E
        # share a place.  B must take its cell by the redrawn key's reach, so
        # the fold of the runs must equal the fold of a draw that places
        # every ball where it ends, with the same bits, in which A and B share
        # a cell at stop 1, and D and E one at stop 2
        d = build_distribution(_SAMPLER_SPECS["theta_one_log"])
        (p, e), counts = _pieces(d, 0, 2), np.array([2, 2, 1])
        edge, shift = d._edges(p), _PLACE_BITS - 32 + 2
        steps = edge[1:] - edge[:-1]
        at = np.array([0, 1, 0, 1, 1])  # A, C at stop 0; B, D at stop 1; E at stop 2
        places = edge[at] + (np.array([0.5, 0.3, 0.8, 0.6, 0.6]) * steps[at]).astype(np.int64)
        places = ((places >> shift) << shift) + (1 << (shift - 1))  # mid-key
        again = places[2] - (3 << shift)  # P
        key, low = _keys(places, 2)
        pad = lambda key: np.append(key, np.uint32(0)).view(np.uint64)  # two keys a draw
        runs = list(d._draw_part(
            _Uniforms(np.full(1, 1.0 - 2.0 ** -53), np.array([0.5 + (again - edge[0])]) / steps[0],
                      gaps=[1], raw=[pad(key), low[[0, 3, 4]], low[[2]]]), e, p, counts, True))
        assert runs[-1][0] is None and np.array_equal(runs[-1][1], [1, 0, 0])  # C alone
        key, low = _keys(np.append(again, places[1:]), 2)
        want = d._draw_part(_Uniforms(raw=[pad(key), low[[0, 2, 1, 3, 4]]]), e, p, counts, False)
        folded = [sum(_fold_tail(ids, c, 3) for ids, c in r) for r in (runs, want)]
        assert np.array_equal(folded[0], folded[1]), folded
        assert np.array_equal(folded[1], [[2, 0, 0], [1, 1, 0], [0, 1, 0]]), folded[1]

    @given(name=st.sampled_from(["theta_one_log", "zipf_s1.2", "zipf_log_steep"]),
           where=st.sampled_from(["table", "2^52", "2^61"]),
           sizes=st.lists(st.integers(1, 4_000), min_size=1, max_size=3),
           stops=st.integers(1, 100), clusters=st.integers(1, 40),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(name="theta_one_log", where="table", sizes=[1, 3], stops=100, clusters=40, seed=0)
    @example(name="zipf_s1.2", where="2^61", sizes=[4_000], stops=70, clusters=30, seed=1)
    @example(name="zipf_log_steep", where="2^52", sizes=[30, 30], stops=1, clusters=40, seed=2)
    @settings(max_examples=80, deadline=None)
    def test_alone_rule_sound(self, name, where, sizes, stops, clusters, seed):
        # parts of one to three elements, each in one hat piece: just past
        # the table, ending at 2^52 and starting there (the far cells at
        # 2^52 - 1 and 2^52 + 1), or from 2^61 on, where a float candidate
        # spreads over 512 cells; of 1 (crowded) to 4,000 cells; up to 100
        # stops; elements of 1e-15 to 1 of the part's places, so that some
        # share a key's places; balls in clusters of 1 to 5 within 1.5
        # cells' places of a place of an element (nearly empty with one
        # cluster), a tenth of them on the key before.  The fold of every ball's cell must equal
        # the fold of the cells of the balls _near finds plus the others as
        # balls alone in their cells, for the same keys and low bits
        d = _sampler(name)
        hat = d._tail_ranges[1]
        sizes = np.array(sizes)
        start = {"table": _TABLE_SIZE, "2^52": (1 << 52) - int(sizes[0]), "2^61": 1 << 61}[where]
        cells = start + np.append(0, np.cumsum(sizes))
        piece = np.searchsorted(_cells(hat), cells[:-1], side="right") - 1
        assert np.all(_cells(hat)[piece + 1] >= cells[1:])
        rng = np.random.default_rng(seed)
        e = d._elements(cells, [f.take(piece) for f in hat[:4]])
        edge = d._edges(10.0 ** rng.uniform(-15.0, 0.0, sizes.size))
        bits = max(stops - 1, 1).bit_length()
        at = np.repeat(rng.integers(0, sizes.size, clusters), rng.integers(1, 6, clusters))
        steps = edge[1:] - edge[:-1]
        places = edge[at] + (rng.random(at.size) * steps[at]).astype(np.int64)
        after = np.flatnonzero(at[1:] == at[:-1]) + 1  # later balls of a cluster, near the first
        places[after] = places[after - 1] + (rng.uniform(-1.5, 1.5, after.size)
                                             * steps[at[after]] / sizes[at[after]]).astype(np.int64)
        places = np.clip(places, edge[at], edge[at + 1] - 1)
        key = (((places >> (_PLACE_BITS - 32 + bits)) << bits)
               | rng.integers(0, stops, at.size)).astype(np.uint32)
        tie = np.flatnonzero(rng.random(at.size - 1) < 0.1) + 1
        key[tie] = key[tie - 1]
        key.sort()
        ids = d._place(_Uniforms(raw=[rng.bit_generator.random_raw(key.size)], rng=rng), e, edge,
                       key, bits)[1]
        assert np.all((cells[0] < ids) & (ids <= cells[-1]))
        near = d._near(key, bits, e, edge)[0]
        stop = key.astype(np.int64) & ((1 << bits) - 1)

        def fold(ids, stop):
            return _fold_tail(ids[np.argsort(stop, kind="stable")],
                              np.bincount(stop, minlength=stops), 4)

        alone = np.bincount(stop, minlength=stops) - np.bincount(stop[near], minlength=stops)
        assert np.array_equal(fold(ids, stop),
                              fold(ids[near], stop[near]) + _fold_tail(None, alone, 4))

    @pytest.mark.parametrize("name, m", [("theta_one_log", 2_700), ("zipf_s1.2", 2_700),
                                         ("theta_one_log", 6_000)])
    def test_first_piece_repeats_exact(self, name, m):
        # m balls in one part, the first hat piece past the table (12,399
        # cells): the cells that hold at least 2 and at least 3 of them,
        # over 300 draws, against the exact means sum_j P(Bin(m, q_j) >= k),
        # q_j = p_j over the piece's mass.  At m = 2,700 (about 255 cells
        # with two balls) the keys find the balls alone in their cells; at
        # 6,000, above _DENSE balls per cell, each ball takes its cell
        d = _sampler(name)
        p, e = _pieces(d, 0, 1)
        assert (m >= _DENSE * (e.last[0] - e.first[0] + 1)) == (m > 3_000)
        q = d.prob_array(np.arange(e.first[0], e.last[0] + 1))
        exact = np.array([stats.binom.sf(k - 1, m, q / q.sum()).sum() for k in (2, 3)])
        rng = np.random.default_rng(m)
        got = np.array([sum(_fold_tail(ids, c, 3) for ids, c in
                            d._draw_part(rng, e, p, np.array([m]), True))[0, 1:]
                        for _ in range(300)])
        z = (got.mean(axis=0) - exact) / (got.std(axis=0, ddof=1) / math.sqrt(got.shape[0]))
        assert exact[0] > 200 and np.all(np.abs(z) <= 5.0), (exact, got.mean(axis=0), z)

    def test_split_piece_parts_within_cap(self, rng):
        # zipf s = 2's first piece past the table holds 16% of the balls
        # there, so with 10^6 of them it expects five times _TAIL_RUN and is
        # split at sub-edges into ten sub-pieces.  Every part expects at most
        # _TAIL_RUN balls, so none holds more than 6 standard deviations
        # over it; the piece's balls spread over several parts, and their law
        # in it holds: 16 bins of its cells against p_j
        d = build_distribution(_SAMPLER_SPECS["zipf_s2"])
        law, e, _ = d._tail_ranges
        m = 1_000_000
        assert law[0] * m > 4 * _TAIL_RUN
        stops = np.array([m // 3, 0, m - m // 3])
        runs = d.draw_past(rng, _TABLE_SIZE, stops)
        next(runs)
        lo, hi = _cells(e)[:2]
        got, parts, given = [], 0, np.zeros_like(stops)
        for ids, counts in runs:
            given += counts
            if ids is None:
                continue
            assert ids.size == counts.sum() <= _TAIL_RUN + 6 * math.sqrt(_TAIL_RUN)
            inside = ids[ids <= hi]
            parts += inside.size > 0
            got.append(inside)
        assert np.array_equal(given, stops)
        assert parts >= 5, parts
        got = np.concatenate(got)
        assert got.min() > lo
        edges = np.linspace(lo, hi, 17).astype(np.int64)
        p = np.add.reduceat(d.prob_array(np.arange(lo + 1, hi + 1)), edges[:-1] - lo)
        binned = np.bincount(np.searchsorted(edges, got) - 1, minlength=16)
        assert _chi2_pvalue(binned, p / p.sum() * got.size) > 1e-3

    def test_draw_cells_exchangeable(self, theta_one_log):
        # draw_cells' draws past the table come run by run of cell ranges and
        # must be shuffled into their places: the mean log2 id of the first
        # half of them against the second
        cells = theta_one_log.draw_cells(np.random.default_rng(5), 2_000_000)
        logs = np.log2(cells[cells > _TABLE_SIZE].astype(np.float64))
        first, second = np.array_split(logs, 2)
        z = (first.mean() - second.mean()) / math.sqrt(
            first.var() / first.size + second.var() / second.size)
        assert abs(z) < 4.0, (first.mean(), second.mean(), z)

    @pytest.mark.parametrize("name", ["theta_one_log", "geometric_near_one"])
    def test_draw_cells_is_count_space(self, name):
        # draw_cells is the trajectories' sampler past a cut J, at J = 0:
        # with one seed, the ids of draw_past's runs, the table's first
        # (fresh ones for the synthetic run), put in order by one permutation
        d = build_distribution(_SAMPLER_SPECS[name])
        rng = np.random.default_rng(41)
        runs = []
        for run, per_stop in d.draw_past(rng, 0, [300_000]):
            if run is None:
                run = (1 << 62) + rng.integers(0, 1 << 62, size=int(per_stop.sum()))
            runs.append((run, per_stop))
        want = rng.permutation(np.concatenate([run for run, _ in runs]))
        (ids, counts), *tail = runs
        n_tail = sum(per_stop for _, per_stop in tail)
        assert n_tail[0] > 0 and ids.size == counts[0] > 0
        assert np.array_equal(d.draw_cells(np.random.default_rng(41), 300_000), want)

    def test_geometric_count_space(self, rng):
        # near q = 1 about half the mass lies beyond the table, where the
        # count-space draw continues in ranges of equal mass
        q = 1.0 - 1e-5
        d = build_distribution(DistributionSpec(family="geometric", q=q))
        m = 10 ** 5
        (ids, counts), *ranges = d.draw_past(rng, 0, [m])
        beyond, per_stop = np.concatenate([r for r, _ in ranges]), sum(c for _, c in ranges)
        n_tail = m - counts
        assert len(ranges) > 1 and per_stop.tolist() == n_tail.tolist()
        assert d._cut(m) == _TABLE_SIZE and ids.size == counts[0]
        assert ids.size + beyond.size == m
        for p, got in ((1.0 - q ** (_TABLE_SIZE // 2), np.sum(ids <= _TABLE_SIZE // 2) / m),
                       (q ** _TABLE_SIZE, beyond.size / m)):
            assert abs(got - p) < 4 * math.sqrt(p * (1 - p) / m)
        excess = beyond - _TABLE_SIZE
        assert excess.min() >= 1
        sd = math.sqrt(q) / (1.0 - q)
        assert abs(excess.mean() - 1.0 / (1.0 - q)) < 4 * sd / math.sqrt(excess.size)

    def test_geometric_past_table_law(self):
        # q = 0.99999 sends half its balls past the table, 104,000 here,
        # which draw_past splits over seven ranges of equal mass: draw_cells'
        # ids there, in 50 bins of equal mass, against the exact law
        q = 0.99999
        d = build_distribution(DistributionSpec(family="geometric", q=q))
        ids = d.draw_cells(np.random.default_rng(8), 200_000)
        excess = ids[ids > _TABLE_SIZE] - _TABLE_SIZE
        edges = np.unique(np.floor(np.log1p(-np.arange(50) / 50) / math.log(q)))
        p = -np.diff(np.append(q ** edges, 0.0))
        binned = np.bincount(np.searchsorted(edges, excess, side="left") - 1, minlength=p.size)
        assert excess.size > 3 * _TAIL_RUN
        assert _chi2_pvalue(binned, p * excess.size) > 1e-3

    def test_geometric_runs_within_cap(self, rng):
        # 10^6 balls past the table: every range expects at most half of
        # _TAIL_RUN of them, the ranges follow one another, and the counts
        # add up to each stop's
        d = build_distribution(DistributionSpec(family="geometric", q=0.99999))
        stops = np.array([400_000, 0, 600_000])
        given, top, runs = np.zeros_like(stops), _TABLE_SIZE, 0
        for ids, counts in itertools.islice(d.draw_past(rng, _TABLE_SIZE, stops), 1, None):
            assert ids.size == counts.sum() <= _TAIL_RUN + 6 * math.sqrt(_TAIL_RUN)
            assert ids.min() > top
            given, top, runs = given + counts, ids.max(), runs + 1
        assert np.array_equal(given, stops) and runs >= 2 * stops.sum() / _TAIL_RUN

    def test_fixed_seed_reproducible(self, zipf2):
        a = zipf2.draw_cells(np.random.default_rng(123), 10 ** 4)
        b = zipf2.draw_cells(np.random.default_rng(123), 10 ** 4)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("name", sorted(_PINNED_DRAWS))
    def test_draws_pinned(self, name, x86_v4):
        # draw_cells(default_rng(31), 200_000) and, for the power families,
        # the ids of draw_past(default_rng(37), _TABLE_SIZE, [20_000])
        # concatenated run by run (the table run is empty and draws nothing,
        # the synthetic run has none), as sha256 of the int64 bytes
        d = build_distribution(_SAMPLER_SPECS[name])
        cells, tail = (_PINNED_DRAWS if x86_v4 else _PINNED_DRAWS_NO_V4)[name]
        got = d.draw_cells(np.random.default_rng(31), 200_000)
        assert hashlib.sha256(got.tobytes()).hexdigest() == cells
        if tail is not None:
            got = np.concatenate([ids for ids, _ in d.draw_past(np.random.default_rng(37),
                                                                _TABLE_SIZE, [20_000])
                                  if ids is not None])
            assert hashlib.sha256(got.tobytes()).hexdigest() == tail

    @pytest.mark.parametrize("name", ["zipf_s2", "zipf_log", "theta_one_log", "geometric"])
    def test_prefix_growth_keeps_table(self, name):
        # the probability prefix is the table's: a longer one is refused by
        # name, and the refusal leaves the sampler's table at the first
        # _TABLE_SIZE cells and the draws as a fresh distribution's
        fresh, grown = (build_distribution(_SAMPLER_SPECS[name]) for _ in range(2))
        assert grown.probs_prefix(_TABLE_SIZE).size == _TABLE_SIZE
        with pytest.raises(DistributionError, match="probs_prefix holds the table's 65536 cells"):
            grown.probs_prefix(1 << 20)
        assert grown._prefix.size == _TABLE_SIZE and grown._rest.size == _TABLE_SIZE + 1
        for seed, size in ((3, 200_000), (4, 3_000_000)):
            want = fresh.draw_cells(np.random.default_rng(seed), size)
            assert np.array_equal(grown.draw_cells(np.random.default_rng(seed), size), want)
            cut = fresh._cut(size)
            # every run's ids (None for the synthetic run) and counts
            want, got = ([part for run in dist.draw_past(np.random.default_rng(seed), cut,
                                                         [size, size // 3]) for part in run]
                         for dist in (fresh, grown))
            assert len(got) == len(want)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))

    @pytest.mark.parametrize("name", _POWER_SAMPLERS)
    def test_tail_squeeze_below_ratio(self, name):
        # a uniform at or below a piece's squeeze is accepted without the
        # ratio, so the computed ratio must never fall below it beyond the
        # table; and the hat is one, up to rounding: the ratio is at most 1
        d = build_distribution(_SAMPLER_SPECS[name])
        e = d._tail_ranges[1]
        assert e.squeeze.size == _PIECES * (_RANGE_EDGES.size - 1)
        assert e.squeeze.min() > 0.9999
        dense = np.arange(_TABLE_SIZE + 1, _TABLE_SIZE + 1 + 2_000_000)
        spread = np.minimum(np.exp(np.linspace(math.log(_TABLE_SIZE + 1), 62 * math.log(2),
                                               2_000_000)).astype(np.int64), 1 << 62)
        for j in (dense, spread):
            piece = np.searchsorted(_cells(e), j) - 1
            ratio = d._accept_ratio(j, e, piece)
            assert np.all(ratio >= e.squeeze[piece])
            assert float(ratio.max()) <= 1.0 + 1e-12

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
        # a trajectory of size balls follows the cells 1..cut one by one
        # (_cut), and draw_past draws its balls past the cut: the table
        # cells beyond it by id (its first run) and the number past the
        # table, for three stops at once, pooled over reps calls, against
        # size * p_j over the mass past the cut: cells cut+1..cut+32 on
        # their own, the rest in bins of growing width, past the table in one
        d = build_distribution(_SAMPLER_SPECS[name])
        assert d._cut(size) == cut
        stops = np.array([size // 2, 0, size - size // 2])
        observed = np.zeros(_TABLE_SIZE + 2, dtype=np.int64)  # cells 1..table, past
        for _ in range(reps):
            # the table run; the other runs' balls are counted, not drawn
            # (2e10 ids past the table would not fit in memory)
            ids, counts = next(d.draw_past(rng, cut, stops))
            n_tail = stops - counts
            assert np.all(n_tail >= 0) and ids.size == counts.sum()
            assert ids.min(initial=cut + 1) > cut and ids.max(initial=0) <= _TABLE_SIZE
            observed += np.bincount(ids, minlength=_TABLE_SIZE + 2)
            observed[-1] += n_tail.sum()
        if cut == _TABLE_SIZE:  # every ball past the cut is past the table
            assert observed[-1] == size * reps
            return
        p = np.concatenate([[0.0], d.prob_array(np.arange(1, _TABLE_SIZE + 1)),
                            [d._past_table]]) / d._mass_past(cut)
        p[:cut + 1] = 0.0
        edges = np.unique(np.concatenate([
            [0], np.arange(cut + 1, cut + 33),
            np.geomspace(cut + 33, _TABLE_SIZE + 1, 60).astype(np.int64)]))
        edges = edges[edges <= _TABLE_SIZE + 1]
        obs, exp = np.add.reduceat(observed, edges), np.add.reduceat(p, edges) * size * reps
        assert _chi2_pvalue(obs, exp) > 1e-3

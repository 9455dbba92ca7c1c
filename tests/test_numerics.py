"""Numeric kernels against mpmath as an independent oracle."""

import cmath
import math
import random
from fractions import Fraction

import mpmath
import pytest

import wittenzeta
from wittenzeta import exact, numerics, polylog
from wittenzeta.errors import ConvergenceError, DomainError, PoleError
from wittenzeta.exact import gamma_ratio_at_neg
from wittenzeta.numerics import (DEFAULT_BUDGET, PrecisionBudget,
                                 _em_corrections, hurwitz_pair, hurwitz_zeta,
                                 log_gamma, riemann_zeta, zeta_ladder)

mpmath.mp.dps = 30


def _mpc(z):
    return complex(z)


def _seeded(seed, re_lo, re_hi, im_max, n=200):
    rng = random.Random(seed)
    return [complex(rng.uniform(re_lo, re_hi), rng.uniform(-im_max, im_max))
            for _ in range(n)]


# -n +- 10^-k, n = 1 .. 40, k = 3 .. 12: the sines of both reflections are
# reduced by exact quarter turns, so the kernels keep their accuracy
# relative to the value next to the poles of Gamma and the trivial zeros
_NEAR_INTEGERS = [-n + sign * 10.0 ** -k for n in range(1, 41)
                  for k in range(3, 13) for sign in (1, -1)]


# every public entry point that reads a float s, as a function of s alone
_FLOAT_ENTRY_POINTS = {
    "riemann_zeta": riemann_zeta,
    "hurwitz_zeta": lambda s: hurwitz_zeta(s, 0.5),
    "polylog_series": lambda s: wittenzeta.polylog_series(s, 1.0),
    "polylog_continued": lambda s: wittenzeta.polylog_continued(s, 1.0),
    "polylog_via_jonquiere":
        lambda s: wittenzeta.polylog_via_jonquiere(s, 1.0),
    "witten_L_su2": lambda s: wittenzeta.witten_L_su2(s, 1.0),
    "multi_L": lambda s: wittenzeta.multi_L(s, [1.0, 2.0]),
    "haar_average_su2": wittenzeta.haar_average_su2,
    "witten_su3_continued": wittenzeta.witten_su3_continued,
    "mt_series": wittenzeta.mt_series,
    "finite_witten_L":
        lambda s: wittenzeta.finite_witten_L(wittenzeta.BUILTIN_TABLES["S3"],
                                             s, 0),
    "haar_average_finite":
        lambda s: wittenzeta.haar_average_finite(
            wittenzeta.BUILTIN_TABLES["S3"], s),
}


@pytest.mark.parametrize("name", sorted(_FLOAT_ENTRY_POINTS))
@pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf,
                               complex(1.0, math.nan), 10 ** 400],
                         ids=["nan", "inf", "-inf", "1+nan_i", "10^400"])
def test_non_finite_s_is_domain_error(name, s):
    # one reading of s: a ValueError, OverflowError or TypeError from deep
    # in a kernel would escape the CLI's exit codes
    with pytest.raises(DomainError, match="finite"):
        _FLOAT_ENTRY_POINTS[name](s)


class TestPrecisionBudget:
    def test_defaults(self):
        assert DEFAULT_BUDGET.target == 1e-10

    def test_validation(self):
        with pytest.raises(ValueError):
            PrecisionBudget(target=0.0)


class TestLogGamma:
    @pytest.mark.parametrize("z", [
        0.5, 1.0, 3.7, 12.5, -0.5, -3.3, -7.25,
        2.0 + 3.0j, -1.5 + 0.7j, 0.1 - 5.0j, 15.0 + 15.0j,
    ])
    def test_against_mpmath(self, z):
        # branch of the log may differ by 2 pi i on the reflected region,
        # so compare through the exponential
        import cmath
        got = cmath.exp(log_gamma(complex(z)))
        want = _mpc(mpmath.gamma(z))
        assert abs(got - want) <= 1e-10 * (1.0 + abs(want))

    @pytest.mark.parametrize("z", [0.5, 0.7, 1.3, 1.8, 2.43, 3.3, 12.5, 40.2,
                                   170.2])
    def test_real_to_rounding(self, z):
        # real z >= 1/2: no cancelling shift sum, so the log is exact to
        # rounding and Gamma to a few ulps
        with mpmath.workdps(40):
            want = mpmath.loggamma(mpmath.mpf(z))
        got = log_gamma(complex(z))
        assert got.imag == 0.0
        assert abs(got.real - float(want)) <= 1e-15 * max(1.0, abs(want))

    def test_recurrence(self):
        import cmath
        for z in (0.3, 4.2, 1.5 + 2.0j, -2.7 + 0.1j):
            got = cmath.exp(log_gamma(complex(z) + 1) - log_gamma(complex(z)))
            assert abs(got - z) <= 1e-10 * (1.0 + abs(z))

    def test_sine_overflow_is_domain_error(self):
        # the reflection's sin(pi z) overflows past |Im z| = 226
        with pytest.raises(DomainError):
            log_gamma(-0.4 + 400.0j)
        log_gamma(0.5 + 400.0j)  # no reflection, no sine

    @pytest.mark.parametrize("z", [0.0, -1.0, -5.0])
    def test_poles(self, z):
        with pytest.raises(PoleError):
            log_gamma(complex(z))

    def test_next_to_the_poles(self):
        # relative to the value; 2.6e-14 at worst (-31 + 1e-11)
        with mpmath.workdps(50):
            for z in _NEAR_INTEGERS:
                want = _mpc(mpmath.gamma(mpmath.mpf(z)))
                got = cmath.exp(log_gamma(z))
                assert abs(got - want) <= 1e-13 * abs(want), z

    def test_right_half_against_loggamma(self):
        # the log itself, not its exp, so that a branch slip of the shift
        # (2 pi i) fails; 1.7e-15 at worst
        with mpmath.workdps(40):
            for z in _seeded(20261020, 0.5, 30.0, 50.0):
                want = _mpc(mpmath.loggamma(z))
                got = log_gamma(z)
                assert abs(got - want) <= 1e-14 * max(1.0, abs(want)), z

    def test_left_half_through_exp(self):
        # the reflection; relative, 1.9e-14 at worst
        with mpmath.workdps(40):
            for z in _seeded(20261021, -20.0, 0.5, 20.0):
                want = _mpc(mpmath.gamma(z))
                got = cmath.exp(log_gamma(z))
                assert abs(got - want) <= 1e-13 * abs(want), z


def test_bernoulli_literals_are_the_exact_numbers():
    # numerics does not import the exact layer; it stays the table's oracle
    assert sorted(numerics._BFLOAT) == list(range(2, 102, 2))
    for k, value in numerics._BFLOAT.items():
        assert value == float(exact.bernoulli(k)), k


class TestGammaRatioAtNeg:
    def test_exact_formula(self):
        assert gamma_ratio_at_neg(1) == Fraction(1, 12)
        assert gamma_ratio_at_neg(2) == Fraction(-1, 120)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_against_mpmath_limit(self, n):
        s = mpmath.mpf(-n) + mpmath.mpf("1e-12")
        approx = mpmath.gamma(2 * s - 1) / mpmath.gamma(s)
        assert abs(float(gamma_ratio_at_neg(n)) - float(approx)) <= 1e-8


class TestRiemannZeta:
    @pytest.mark.parametrize("s", [
        2.0, 3.5, 0.5, -0.5, -3.0, -9.5,
        1.5 + 2.0j, 0.25 + 10.0j, -2.5 + 1.0j, 0.5 + 14.0j,
    ])
    def test_against_mpmath(self, s):
        got = riemann_zeta(complex(s))
        want = _mpc(mpmath.zeta(s))
        assert abs(got - want) <= 1e-9 * (1.0 + abs(want))

    @pytest.mark.parametrize("s", [1e-9, -1e-9, 1e-7, -1e-7, 1e-5, 0.05,
                                   -0.05, 2e-7 + 1e-7j])
    def test_next_to_zero(self, s):
        # Euler-Maclaurin for |s| < 0.1: the functional equation lost about
        # eps/|s| there, 5.3e-10 at s = 1e-7
        want = _mpc(mpmath.zeta(s))
        assert abs(riemann_zeta(complex(s)) - want) <= 1e-13 * abs(want)

    def test_sine_overflow_is_domain_error(self):
        # sin(pi s/2) in the functional equation overflows past |Im s| = 452
        with pytest.raises(DomainError):
            riemann_zeta(-3.0 + 1000.0j)

    def test_exact_anchors(self):
        assert riemann_zeta(0.0) == -0.5
        assert abs(riemann_zeta(-2.0)) <= 1e-12
        assert abs(riemann_zeta(2.0) - math.pi ** 2 / 6.0) <= 1e-12

    @pytest.mark.parametrize("s", [0, -0.0, 0j])
    def test_zero_is_exact_by_euler_maclaurin(self, s):
        # N - (N + 1) + 1/2, every correction a multiple of s: no branch
        for target in (1e-6, 1e-10, 1e-13, 1e-17):
            got = riemann_zeta(s, PrecisionBudget(target))
            assert repr(got) == "(-0.5+0j)"

    def test_next_to_the_integers(self):
        # relative to the value, at the trivial zeros too; 3.1e-14 at worst
        # (-31 + 1e-11), where an unreduced sin(pi s/2) gave 3.0e-8 at
        # -2 + 1e-9
        budget = PrecisionBudget(1e-13)
        with mpmath.workdps(50):
            for s in _NEAR_INTEGERS:
                want = _mpc(mpmath.zeta(mpmath.mpf(s)))
                got = riemann_zeta(s, budget)
                assert abs(got - want) <= 1e-13 * abs(want), s

    def test_trivial_zeros_are_positive_zero(self):
        # the reduced sine is exactly +-0 there; the product comes out +0
        for n in range(2, 402, 2):
            got = riemann_zeta(float(-n))
            assert got == 0, n
            assert math.copysign(1.0, got.real) == 1.0, n
            assert math.copysign(1.0, got.imag) == 1.0, n

    def test_meets_claim_against_mpmath(self):
        # 200 seeded points, Re s in [-20, 20], |Im s| <= 40, at 1e-13;
        # the worst is 0.39 of the claim
        budget = PrecisionBudget(1e-13)
        with mpmath.workdps(40):
            for s in _seeded(20261019, -20.0, 20.0, 40.0):
                want = _mpc(mpmath.zeta(s))
                got = riemann_zeta(s, budget)
                assert abs(got - want) <= 1e-13 * max(1.0, abs(want)), s

    @pytest.mark.parametrize("s", [20000.0, 1500.0 + 3.0j, 100.5, 21.0 + 7.0j])
    def test_large_real_part(self, s):
        # from Re s = 16 on the first split is max(16, |Im s| + 8), not
        # |s| + 8; 2.2e-16 at worst
        with mpmath.workdps(40):
            want = _mpc(mpmath.zeta(s))
        got = riemann_zeta(complex(s), PrecisionBudget(1e-13))
        assert abs(got - want) <= 1e-15 * abs(want)

    def test_gamma_overflow_is_domain_error(self):
        # Gamma(1 - s) in the functional equation overflows left of -169
        with pytest.raises(DomainError):
            riemann_zeta(-201.0)
        with pytest.raises(DomainError):
            riemann_zeta(-169.5 + 2.0j)
        assert riemann_zeta(-200.0) == 0  # a trivial zero stays exact

    def test_pole_at_one(self):
        with pytest.raises(PoleError):
            riemann_zeta(1.0)


class TestHurwitzZeta:
    @pytest.mark.parametrize("s,a", [
        (2.0, 0.25), (3.5, 0.5), (2.0, 1.0), (5.0, 0.1),
        (2.5 + 1.0j, 0.3), (4.0 - 2.0j, 0.75),
    ])
    def test_against_mpmath(self, s, a):
        got = hurwitz_zeta(complex(s), a)
        want = _mpc(mpmath.zeta(s, a))
        assert abs(got - want) <= 1e-9 * (1.0 + abs(want))

    def test_catalan_identity(self):
        # zeta(2, 1/4) = pi^2 + 8 G
        catalan = 0.9159655941772190151
        got = hurwitz_zeta(2.0, 0.25).real
        assert abs(got - (math.pi ** 2 + 8.0 * catalan)) <= 1e-10

    def test_domain(self):
        with pytest.raises(DomainError):
            hurwitz_zeta(2.0, 0.0)
        with pytest.raises(DomainError):
            hurwitz_zeta(2.0, 1.5)

    def test_pole_at_one(self):
        with pytest.raises(PoleError):
            hurwitz_zeta(1.0, 0.5)

    @pytest.mark.parametrize("s,a", [(2.0, 1e-201), (101.5, 1.6e-4),
                                     (2.0, 5e-324), (-141.5, 1.0)])
    def test_overflow_is_domain_error(self, s, a):
        # a^{-s} is past a double (or 0^{-s}, where a underflows), or at
        # -141.5 the integral term (N + a)^{1-s}, though the head is not
        with pytest.raises(DomainError, match="overflows"):
            hurwitz_zeta(s, a)

    @pytest.mark.parametrize("target", [1e-10, 1e-13])
    @pytest.mark.parametrize("s", [-1.5, -3.3, -5.5, -7.5 + 1j, -10.3,
                                   -20.5, -39.9])
    def test_left_of_zero_meets_claim_or_raises(self, s, target):
        # the head and the integral term cancel there, so that a value
        # past the bound on their rounding can be 6.6e46 times off its claim
        # (-39.9); the worst value returned is 0.017 of it
        budget = PrecisionBudget(target)
        with mpmath.workdps(40):
            for a in (0.1, 0.5, 1.0):
                want = _mpc(mpmath.zeta(s, a))
                try:
                    got = hurwitz_zeta(s, a, budget)
                except ConvergenceError as exc:
                    assert exc.achieved is not None
                    continue
                assert abs(got - want) <= target * max(1.0, abs(want)), a


class TestZetaLadder:
    @pytest.mark.parametrize("rho", [1.5, 2.3, 3.1 - 0.7j, 1.6 + 3j,
                                     2.0 - 10j, 4.5 + 30j, 1.5 - 50j])
    @pytest.mark.parametrize("target", [1e-6, 1e-16])
    def test_against_mpmath(self, rho, target):
        # zeta(rho + 2j), j < 24, each to the target absolutely, from one
        # split: the orders a zeta(s - k) table takes, and past them; below
        # 1e-15 the head's rounding, a few ulps of values up to 2.7, remains
        ladder = zeta_ladder(rho, PrecisionBudget(target))
        for j in range(24):
            got = next(ladder)
            want = _mpc(mpmath.zeta(rho + 2 * j))
            assert abs(got - want) <= max(target, 2e-15), j


class TestOneSplit:
    """Each Euler-Maclaurin call takes one split and adds the Bernoulli
    corrections from it: a series that turns raises ConvergenceError, with
    no larger split tried and no value returned."""

    @pytest.mark.parametrize("base,target", [
        (0.25, 1e-10),  # the second term already outgrows the first
        (17.0, 1e-300),  # still falling when the 50 coefficients run out
    ])
    def test_corrections_raise(self, base, target):
        with pytest.raises(ConvergenceError, match=f"s = 2.0 .* {base:g}$"):
            _em_corrections(2.0, base, 1.0, PrecisionBudget(target))

    @pytest.mark.parametrize("module,call", [
        (numerics, lambda b: hurwitz_zeta(2.5 + 1j, 0.3, b)),
        (numerics, lambda b: hurwitz_pair(0.5 + 2j, 0.3, b)),
        (numerics, lambda b: next(zeta_ladder(2.3, b))),
        # the pole zone's g = zeta(1 + eps) - 1/eps, the one call polylog
        # makes itself; its zeta(s - k) table stays untouched
        (polylog, lambda b: polylog._circle_part(2.0, 1, b)),
    ], ids=["hurwitz_em", "hurwitz_pair", "zeta_ladder", "pole_zone_g"])
    def test_a_turn_is_raised(self, monkeypatch, module, call):
        # the corrections taken at N + a = 1/4, where they turn at once
        def turning(s, base, scale, budget):
            return _em_corrections(s, 0.25, scale, budget)
        monkeypatch.setattr(module, "_em_corrections", turning)
        with pytest.raises(ConvergenceError, match="N \\+ a = 0.25"):
            call(PrecisionBudget(1e-10))

    @pytest.mark.parametrize("module,call,bases", [
        (numerics, lambda b: hurwitz_zeta(2.5 + 1j, 0.3, b), [11.3]),
        (numerics, lambda b: hurwitz_pair(0.5 + 2j, 0.3, b), [11.3, 11.7]),
        (numerics, lambda b: next(zeta_ladder(2.3, b)), [11.0]),
        # only the pole form's g: the table's zetas call numerics
        (polylog, lambda b: polylog._circle_part(2.0, 1, b), [11.0]),
    ], ids=["hurwitz_em", "hurwitz_pair", "zeta_ladder", "pole_zone_g"])
    def test_every_sum_takes_first_split(self, monkeypatch, module, call,
                                         bases):
        # the corrections start at N + a, N from _first_split alone: 11 is
        # below 16, so no sum may floor it
        seen = []

        def recording(s, base, scale, budget):
            seen.append(base)
            return _em_corrections(s, base, scale, budget)
        monkeypatch.setattr(module, "_first_split", lambda s: 11)
        monkeypatch.setattr(module, "_em_corrections", recording)
        call(PrecisionBudget(1e-10))
        assert seen == pytest.approx(bases)

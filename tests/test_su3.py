"""SU(3) Witten zeta: the double series, its Mellin-Barnes continuation,
and exact special values at negative integers."""

import math
from fractions import Fraction

import pytest

from wittenzeta import su3
from wittenzeta.errors import ConvergenceError, DomainError, PoleError
from wittenzeta.exact import zeta_neg_int
from wittenzeta.numerics import (DEFAULT_BUDGET, PrecisionBudget, log_gamma,
                                 riemann_zeta)
from wittenzeta.su3 import (MBParams, bernoulli_convolution_check, mt_series,
                            special_value_su3, special_value_terms,
                            witten_su3_continued)

F = Fraction

# high-precision truncation-extrapolated references for the double series
MT2 = 1.356457415970709
MT3 = 1.089207398030743

# (s, n, zeta^W_SU(3)(s)) from mpmath at 25 digits: the same Mellin-Barnes
# formula with M = 8 residues, on the line Re z = 7.5 that no strip n <= 2
# uses, by the trapezoid rule with step 1/14 out to where the integrand
# falls below 1e-22 of its peak
MPMATH_SU3 = [
    (-1.2, 1, -0.00056217231131738791649),  # contour at 3.7, not M - 1/2
    (3.3, 1, 1.0615275686113071233),
    (0.3 - 8j, 1, -0.5708405263186127187 + 1.711754641979049842j),
    (1.7 + 8.5j, 1, 0.62936202595848067271 - 0.048874376430223057j),
    (-0.7 + 9j, 2, -7.2170431433747819812 + 9.9523868710968951111j),
    (-2.2 + 8j, 2, 58.453830066199225005 - 186.22433079341531785j),  # 5.7
    (0.6 - 9j, 2, -0.21564983914071534866 - 0.78927013578176822357j),
]

# zeta^W_SU(3)(k +- 1e-7) from mpmath at 30 digits, the Mellin-Barnes
# formula with M = 6 residues on the line Re z = 5.5, trapezoid step 1/14;
# right of s = 2/3 the even line in mpmath agrees to 2e-16. Then the closed
# forms at s = 1 and 2.
NEAR_INTEGERS = [
    (-1.0 - 1e-7, -6.4053754377538560689e-10),
    (-1.0 + 1e-7, 6.4053807321695798536e-10),
    (-1e-7, 0.33333312644079122975),
    (1e-7, 0.33333354022601654899),
    (1.0 - 1e-7, 4.8082292992003027084),
    (1.0 + 1e-7, 4.8082259260776334933),
    (2.0 - 1e-7, 1.3564574724787936751),
    (2.0 + 1e-7, 1.3564573594797486954),
    (3.0 - 1e-7, 1.0892074092652333731),
    (3.0 + 1e-7, 1.0892073867962771687),
    (5.0 - 1e-7, 1.0085444870107038468),
    (5.0 + 1e-7, 1.0085444850846945416),
    (1.0, 4.0 * 1.2020569031595942854),  # 4 zeta(3)
    (2.0, 4.0 * math.pi ** 6 / 2835.0),  # 4 zeta(6)/3
]


class TestSeries:
    def test_pinned_values(self):
        assert abs(mt_series(2.0) - MT2) <= 1e-8
        assert abs(mt_series(3.0) - MT3) <= 1e-9

    def test_domain(self):
        with pytest.raises(DomainError):
            mt_series(1.0)
        with pytest.raises(DomainError):
            mt_series(0.5 + 3.0j)

    def test_upper_domain(self):
        # the Richardson ratio 2^{2 Re s} overflows a float from 512 on
        assert abs(mt_series(511.5) - 1.0) <= 1e-15
        for s in (512.0, 600.0, 600.0 + 3.0j):
            with pytest.raises(DomainError):
                mt_series(s)

    def test_complex_argument(self):
        a = mt_series(2.0 + 0.5j)
        b = witten_su3_continued(2.0 + 0.5j)
        assert abs(a - b) <= 1e-6

    @pytest.mark.parametrize("s", [2.4, 2.0 + 0.5j, 3.3 + 9.0j])
    def test_square_sum_is_the_double_sum(self, s):
        want = sum((m * n * (m + n)) ** -s
                   for m in range(1, 41) for n in range(1, 41))
        assert abs(su3._square_sum(complex(s), 40) - want) <= 1e-14 * abs(want)

    @pytest.mark.parametrize("s", [1.05, 2.4, 30.5, 2.0 + 9.0j])
    def test_square_sum_at_the_ends_of_sigma(self, s):
        # the FFT's rounding is relative to the largest power, 1: the slow
        # tail at 1.05 and the fast fall at 30.5 both stay at 1e-16
        terms = [complex((m * n * (m + n)) ** -s)
                 for m in range(1, 301) for n in range(1, 301)]
        want = complex(math.fsum(v.real for v in terms),
                       math.fsum(v.imag for v in terms))
        got = su3._square_sum(complex(s), 300)
        assert abs(got - want) <= 1e-14 * abs(want)

    @pytest.mark.parametrize("s", [1.8140293086310137 + 1.507516358503234j,
                                   1.8594636493678907 - 2.5765159565856663j])
    def test_complex_tail_order(self, s):
        # the tail falls like N^{1-2s}: Richardson ratios taken from Re s
        # alone left 6.2e-10 and 2.0e-10 here, inside the 1e-9 stop floor
        budget = PrecisionBudget(target=1e-13)
        want = witten_su3_continued(s, budget=budget)
        assert abs(mt_series(s, budget) - want) <= 1e-12 * abs(want)


class TestContinuation:
    @pytest.mark.parametrize("s", [2.0, 3.0, 1.5])
    def test_agrees_with_series(self, s):
        a = witten_su3_continued(s)
        b = mt_series(s)
        assert abs(a - b) <= 1e-6

    @pytest.mark.parametrize("s", [1.5, -0.4])
    def test_strip_independence(self, s):
        # the residue line of strip n = 2 is a different contour from the
        # even line (s = 1.5) and from the n = 1 residue line (s = -0.4)
        a = witten_su3_continued(s, MBParams(n=1))
        b = su3._mb_direct(complex(s), MBParams(n=2).M, DEFAULT_BUDGET)
        assert abs(a - b) <= 1e-6

    @pytest.mark.parametrize("s", [0.84, 0.9 + 0.5j, 1.5, 1.5 + 0.25j,
                                   2.0 + 0.5j, 3.3 + 0.125j, 0.85 - 2.0j])
    def test_even_line_against_residue_line(self, s):
        # dyadic Im s: a two-sided rule about u = 0 on a line even about
        # u = -Im s/2 would repeat its nodes at step 1/2 and stop early
        want = su3._mb_direct(complex(s), MBParams(n=2).M, DEFAULT_BUDGET)
        got = witten_su3_continued(s)
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want))

    @pytest.mark.parametrize("s", [5.3, 6.3, 10.3, 12.0, 30.5, 100.0])
    def test_even_line_against_series_at_large_s(self, s):
        # the residue line's 2^s-scaled terms cancelled here: 3.4e-6 off at
        # 10.3; the even line has no terms
        want = mt_series(s)
        assert abs(witten_su3_continued(s) - want) <= 1e-13 * abs(want)

    @pytest.mark.parametrize("s,want", NEAR_INTEGERS)
    def test_next_to_integers(self, s, want):
        got = witten_su3_continued(s)
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want))

    @pytest.mark.parametrize("k,exact", [(-1, 0.0), (0, 1.0 / 3.0)])
    def test_continuous_through_exact_integers(self, k, exact):
        assert witten_su3_continued(float(k)) == exact
        below = witten_su3_continued(k - 1e-7).real - exact
        above = witten_su3_continued(k + 1e-7).real - exact
        assert below * above < 0.0

    @pytest.mark.parametrize("s,n", [(2.0 / 3.0, 1), (0.5, 1), (-0.5, 1),
                                     (-1.5, 2)])
    def test_genuine_poles(self, s, n):
        with pytest.raises(PoleError):
            witten_su3_continued(s + 1e-9, MBParams(n=n))

    @pytest.mark.parametrize("s", [2.0, 1.0, 0.0, -1.0])
    def test_removable_integer_points_finite(self, s):
        val = witten_su3_continued(s)
        assert val.imag == 0.0
        if s <= 0:
            # the exact values: 1/3 at 0, zero at the negative integers
            assert val == float(special_value_su3(-round(s)))

    @pytest.mark.parametrize("s", [1.5, -0.4, 2.0])
    def test_real_s_gives_real_value(self, s):
        assert witten_su3_continued(s).imag == 0.0

    @pytest.mark.parametrize("s", [1.5, -0.4])
    def test_mirrored_contour(self, s, monkeypatch):
        # the even line (s = 1.5) is folded for every s, and for real s its
        # node needs one gamma and one zeta, |Gamma|^2 |zeta|^2; on the
        # residue line (s = -0.4) only real s is folded, and s + 1e-12j
        # takes the two-sided rule
        calls = {"riemann_zeta": 0, "log_gamma": 0}

        def counter(name, fn):
            def counted(*args):
                calls[name] += 1
                return fn(*args)
            return counted
        monkeypatch.setattr(su3, "riemann_zeta",
                            counter("riemann_zeta", riemann_zeta))
        monkeypatch.setattr(su3, "log_gamma", counter("log_gamma", log_gamma))
        real = witten_su3_continued(s)
        real_calls = dict(calls)
        calls.update(riemann_zeta=0, log_gamma=0)
        cplx = witten_su3_continued(s + 1e-12j)
        # Im of the complex value is 1e-12 f'(s); Re differs by O(1e-24)
        assert abs(real - cplx.real) <= 1e-12 * abs(real)
        for name, n in calls.items():
            assert real_calls[name] <= 0.55 * n, name

    def test_strip_boundary(self):
        with pytest.raises(DomainError):
            witten_su3_continued(-1.3, MBParams(n=1))
        # same point is fine one strip further left
        witten_su3_continued(-1.3, MBParams(n=2))

    def test_cost_boundary(self):
        # the even line's cost grows with Re s and |Im s|
        assert abs(witten_su3_continued(su3._MAX_RE_S) - 1.0) <= 1e-10
        for s in (su3._MAX_RE_S + 0.5, complex(3.0, su3._MAX_IM_S + 0.5)):
            with pytest.raises(DomainError):
                witten_su3_continued(s)

    def test_params_validation(self):
        with pytest.raises(DomainError):
            MBParams(n=0)

    @pytest.mark.parametrize("s,n,want", MPMATH_SU3)
    def test_against_mpmath(self, s, n, want):
        got = witten_su3_continued(s, MBParams(n=n))
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want))

    def test_trapezoid_rule(self):
        gauss = su3._trapezoid(lambda t: math.exp(-t * t), 1e-12)
        assert abs(gauss - math.sqrt(math.pi)) <= 1e-12
        folded = su3._trapezoid(lambda t: math.exp(-t * t), 1e-12, folded=True)
        assert abs(folded - math.sqrt(math.pi)) <= 1e-12
        # poles at t = +-0.001i: the step would have to fall far below the
        # last one allowed, 1/256, so the rule gives up
        with pytest.raises(ConvergenceError):
            su3._trapezoid(lambda t: math.exp(-t * t) / (t * t + 1e-6), 1e-10)

    @pytest.mark.parametrize("folded", [False, True])
    def test_mapped_trapezoid_rule(self, folded):
        # t = sinh(tau): the Gaussian and sech t, which decays only like
        # e^{-|t|}, both to the target itself, with no 1e-9 floor
        gauss = su3._trapezoid(lambda t: math.exp(-t * t), 1e-13, folded,
                               True)
        assert abs(gauss - math.sqrt(math.pi)) <= 1e-13
        sech = su3._trapezoid(lambda t: 1.0 / math.cosh(t), 1e-13, folded,
                              True)
        assert abs(sech - math.pi) <= 1e-13 * math.pi

    @pytest.mark.parametrize("s,want", NEAR_INTEGERS[:2])
    def test_next_to_minus_one_at_1e13(self, s, want):
        # the plain rule's 1e-9 stop floor left these 1.8x their claim
        got = witten_su3_continued(s, budget=PrecisionBudget(1e-13))
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want))

    @pytest.mark.parametrize("s", [1.5, -0.4, 0.3])
    def test_real_s_contour_work(self, s, monkeypatch):
        # real s takes the sinh-mapped rule on both lines: 65 integrand
        # calls here at 1e-13, where the plain rule took 209 to 225
        calls = [0]
        plain = su3._trapezoid

        def counted(f, *args, **kwargs):
            def g(t):
                calls[0] += 1
                return f(t)
            return plain(g, *args, **kwargs)
        monkeypatch.setattr(su3, "_trapezoid", counted)
        witten_su3_continued(s, budget=PrecisionBudget(1e-13))
        assert 0 < calls[0] <= 80

    def test_right_of_the_strip(self):
        # Re s > M + 1/2, where the residue line would have to move the
        # pole of zeta(s - z) at z = s - 1 as well; the even line moves none
        want = 1.0119952658929042375  # mpmath, as MPMATH_SU3
        assert abs(witten_su3_continued(4.7) - want) <= 1e-10
        assert abs(mt_series(4.7) - want) <= 1e-9


class TestSpecialValues:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_exact_zeros(self, n):
        assert special_value_su3(n) == 0

    def test_odd_n_vanishes_termwise(self):
        for n in (1, 3, 5):
            assert special_value_terms(n) == (0, 0, 0)

    def test_even_n_cancels_nontrivially(self):
        for n in (2, 4, 6):
            t1, t2, t3 = special_value_terms(n)
            assert t1 != 0 and t2 != 0 and t3 != 0
            assert t1 + t2 + t3 == 0

    def test_requires_nonnegative_n(self):
        with pytest.raises(DomainError):
            special_value_su3(-1)
        # s = 0: the gamma ratio tends to -1/2, and 1/24 + 1/4 + 1/24
        assert special_value_terms(0) == (F(1, 24), F(1, 4), F(1, 24))
        assert special_value_su3(0) == F(1, 3)

    def test_maximum_n(self):
        assert special_value_su3(su3.MAX_SPECIAL_N) == 0
        with pytest.raises(DomainError):
            special_value_su3(su3.MAX_SPECIAL_N + 1)

    @pytest.mark.parametrize("n", [37, 150, 200])
    def test_zeta_product_sum_against_pochhammer(self, n):
        # the finite sum as written, (-1)^k (-n)_k / k! zeta(k - 2n)
        # zeta(-n - k) over k <= 2n, the rising factorial in Fractions
        want, rising = F(0), F(1)
        for k in range(2 * n + 1):
            want += (-1) ** k * rising / math.factorial(k) \
                * zeta_neg_int(2 * n - k) * zeta_neg_int(n + k)
            rising *= -n + k
        assert special_value_terms(n)[1] == want / 2 ** n


class TestBernoulliConvolution:
    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
    def test_identity(self, n):
        lhs, rhs = bernoulli_convolution_check(n)
        assert lhs == rhs

    def test_n2_intermediate_value(self):
        lhs, rhs = bernoulli_convolution_check(2)
        assert lhs == F(1, 14400)
        assert rhs == F(2, math.factorial(5)) * F(1, 240)

    def test_rejects_odd(self):
        with pytest.raises(DomainError):
            bernoulli_convolution_check(3)

    def test_maximum_n(self):
        n = su3.MAX_SPECIAL_N  # even
        lhs, rhs = bernoulli_convolution_check(n)
        assert lhs == rhs
        with pytest.raises(DomainError):
            bernoulli_convolution_check(n + 2)

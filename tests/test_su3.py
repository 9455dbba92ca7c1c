"""SU(3) Witten zeta: the double series, its Mellin-Barnes continuation,
and exact special values at negative integers."""

import cmath
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import mpmath
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
    # the even line at large |Im s|: M = 8 residues cancel terms of up to
    # 1e22 here, so 60 digits and step 1/32 (step 1/40 agrees to 1e-18 at
    # 1.5 + 30i and 1.5 + 220i)
    (1.5 + 30j, 1, 1.0753618347878785374 - 0.28248567257121035994j),
    (0.9 - 30j, 1, 1.64976845792881107 + 0.30358354336148295158j),
    (1.0 + 100j, 1, 0.11157876003451856926 - 0.074872629833373820738j),
    (2.5 - 100j, 1, 0.85261986442454102088 + 0.010311627476383861691j),
    (1.5 + 220j, 1, 0.55686893788688232001 + 0.20843543986611854272j),
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

# zeta^W_SU(3)(s) next to s = 1, 2, 3, where the even line's poles at k and
# s - 1, and at -s - k and 1 - 2s, merge, at 1 + k +- 10^-j and 1 + k +
# i 10^-j (j = 1 .. 9) and at 1 + k itself, from mpmath at 45 digits as
# NEAR_INTEGERS (M = 6 residues on Re z = 5.5, trapezoid step 1/14); at
# 1 + k itself the formula's terms have poles, and the value is taken at
# 1 + k + 1e-25
MERGING_PAIRS = [
    (1 - 1e-1, 7.3698868640257828291),
    (1 + 1e-1, 3.5663625564490703795),
    (1 + 1e-1j, 4.2724968781155603028 - 1.5099342776173575109j),
    (1 - 1e-2, 4.9830031636556612317),
    (1 + 1e-2, 4.6453022900957231403),
    (1 + 1e-2j, 4.8023148058682900598 - 0.16846221257316719325j),
    (1 - 1e-3, 4.825152610259530081),
    (1 + 1e-3, 4.7914209953406815209),
    (1 + 1e-3j, 4.8081684237073950521 - 0.0168654192355757725j),
    (1 - 1e-4, 4.8099147660625727551),
    (1 + 1e-4, 4.8065416430052315833),
    (1 + 1e-4j, 4.8082270207429751885 - 0.0016865611404469223314j),
    (1 - 1e-5, 4.8083962746909810098),
    (1 + 1e-5, 4.8080589624236806831),
    (1 + 1e-5j, 4.8082276067194225128 - 0.00016865613326177087149j),
    (1 - 1e-6, 4.8082444783109129553),
    (1 + 1e-6, 4.808210747084222293),
    (1 + 1e-6j, 4.8082276125791875952 - 1.6865613345394165531e-5j),
    (1 - 1e-7, 4.8082292992003027084),
    (1 + 1e-7, 4.8082259260776334933),
    (1 + 1e-7j, 4.8082276126377852461 - 1.6865613345586336337e-6j),
    (1 - 1e-8, 4.8082277812945173639),
    (1 + 1e-8, 4.8082274439822506297),
    (1 + 1e-8j, 4.8082276126383712226 - 1.6865613345588259161e-7j),
    (1 - 1e-9, 4.8082276295039900694),
    (1 + 1e-9, 4.8082275957727624597),
    (1 + 1e-9j, 4.8082276126383770824 - 1.6865613345588279076e-8j),
    (1.0, 4.8082276126383771416),
    (2 - 1e-1, 1.4190826416835730594),
    (2 + 1e-1, 1.3051172084003314258),
    (2 + 1e-1j, 1.3508936950147982392 - 0.05602268563975258576j),
    (2 - 1e-2, 1.3621638808134572564),
    (2 + 1e-2, 1.3508630162549962401),
    (2 + 1e-2j, 1.3564013913028005099 - 0.0056494722882596950083j),
    (2 - 1e-3, 1.3570229719710057939),
    (2 + 1e-3, 1.3558929805606222878),
    (2 + 1e-3j, 1.3564568556935048479 - 0.00056499474520084842106j),
    (2 - 1e-4, 1.3565139211051266957),
    (2 + 1e-4, 1.3564009220591273889),
    (2 + 1e-4j, 1.3564574103764040131 - 5.6499522039605921734e-5j),
    (2 - 1e-5, 1.3564630659875466122),
    (2 + 1e-5, 1.3564517660830416579),
    (2 + 1e-5j, 1.3564574159232369042 - 5.6499522514801449069e-6j),
    (2 - 1e-6, 1.3564579809750509558),
    (2 + 1e-6, 1.3564568509846005303),
    (2 + 1e-6j, 1.3564574159787052335 - 5.6499522519553397176e-7j),
    (2 - 1e-7, 1.3564574724787936751),
    (2 + 1e-7, 1.3564573594797486954),
    (2 + 1e-7j, 1.3564574159792599168 - 5.6499522519600916729e-8j),
    (2 - 1e-8, 1.3564574216292177933),
    (2 + 1e-8, 1.356457410329313358),
    (2 + 1e-8j, 1.3564574159792654636 - 5.6499522519601395663e-9j),
    (2 - 1e-9, 1.3564574165442607921),
    (2 + 1e-9, 1.3564574154142702483),
    (2 + 1e-9j, 1.3564574159792655191 - 5.6499522519601402752e-10j),
    (2.0, 1.3564574159792655197),
    (3 - 1e-1, 1.1012626734709816722),
    (3 + 1e-1, 1.078711069529662862),
    (3 + 1e-1j, 1.0884318373926364634 - 0.011193333463052810281j),
    (3 - 1e-2, 1.0903386624032919396),
    (3 + 1e-2, 1.0880916843092418497),
    (3 + 1e-2j, 1.0891996230965235843 - 0.0011234065788849986242j),
    (3 - 1e-3, 1.0893198206045127074),
    (3 + 1e-3, 1.0890951309596327593),
    (3 + 1e-3j, 1.0892073202794753816 - 0.00011234473997184642406j),
    (3 - 1e-4, 1.0892186332864293306),
    (3 + 1e-4, 1.0891961643301056336),
    (3 + 1e-4j, 1.0892073972532415086 - 1.1234478079356678501e-5j),
    (3 - 1e-5, 1.0892085214863417309),
    (3 + 1e-5, 1.0892062745907175156),
    (3 + 1e-5j, 1.0892073980229793635 - 1.1234478120178408109e-6j),
    (3 - 1e-6, 1.0892075103756134664),
    (3 + 1e-6, 1.089207285686051023),
    (3 + 1e-6j, 1.0892073980306767421 - 1.1234478120586623975e-7j),
    (3 - 1e-7, 1.0892074092652333731),
    (3 + 1e-7, 1.0892073867962771687),
    (3 + 1e-7j, 1.0892073980307537159 - 1.1234478120590706147e-8j),
    (3 - 1e-8, 1.0892073991542023064),
    (3 + 1e-8, 1.0892073969073066959),
    (3 + 1e-8j, 1.0892073980307544856 - 1.1234478120590747713e-9j),
    (3 - 1e-9, 1.089207398143099284),
    (3 + 1e-9, 1.089207397918409703),
    (3 + 1e-9j, 1.0892073980307544933 - 1.1234478120590748585e-10j),
    (3.0, 1.0892073980307544934),
]


def _series_or_raise(s, target):
    """mt_series at the target, or None where it raises ConvergenceError."""
    try:
        return mt_series(s, PrecisionBudget(target))
    except ConvergenceError:
        return None


class TestSeries:
    def test_pinned_values(self):
        # at the default target, 1e-10
        assert abs(mt_series(2.0) - MT2) <= 1e-10 * MT2
        assert abs(mt_series(3.0) - MT3) <= 1e-10 * MT3

    def test_closed_forms_at_1e13(self):
        # zeta^W(2) = 4 pi^6/2835 and zeta^W(3) = 160 zeta(9) - 96 zeta(2)
        # zeta(7), where an axis and a bulk tail order coincide
        budget = PrecisionBudget(1e-13)
        with mpmath.workdps(30):
            want2 = float(4 * mpmath.pi ** 6 / 2835)
            want3 = float(160 * mpmath.zeta(9)
                          - 96 * mpmath.zeta(2) * mpmath.zeta(7))
        assert abs(mt_series(2.0, budget) - want2) <= 1e-13 * want2
        assert abs(mt_series(3.0, budget) - want3) <= 1e-13 * want3

    @pytest.mark.parametrize("s,want", [p for p in NEAR_INTEGERS
                                        if p[0].real > 1.0])
    def test_next_to_integers_at_1e13(self, s, want):
        # next to s = 1 the sums up to S(_MT_MAX_N) do not settle to 1e-13
        got = _series_or_raise(s, 1e-13)
        if got is None:
            assert s.real < 1.5
        else:
            assert abs(got - want) <= 1e-13 * max(1.0, abs(want))

    @pytest.mark.parametrize("s", [1.05, 1.2, 1.5])
    def test_next_to_the_line(self, s):
        # the bulk order N^{2-3s} leads the tail's second order here
        want = witten_su3_continued(s, budget=PrecisionBudget(1e-13))
        assert abs(mt_series(s) - want) <= 1e-10 * abs(want)

    @pytest.mark.parametrize("target", [1e-10, 1e-13])
    @pytest.mark.parametrize("s,want", [(s, w) for s, _, w in MPMATH_SU3
                                        if s.real > 1.0])
    def test_complex_against_mpmath(self, s, want, target):
        # at |Im s| >> N the sums are not yet asymptotic: the claim or a raise
        got = _series_or_raise(s, target)
        assert got is None or abs(got - want) <= target * max(1.0, abs(want))

    @pytest.mark.parametrize("s", [3.0 + 230.0j, 2.0 + 240.0j, 2.0 - 240.0j])
    def test_large_imaginary_part(self, s):
        # the even line, at 1e-13 within 2e-13 of the series here
        want = witten_su3_continued(s, budget=PrecisionBudget(1e-13))
        got = _series_or_raise(s, 1e-10)
        assert got is None or abs(got - want) <= 1e-10 * max(1.0, abs(want))

    def test_raises_in_bounded_time_next_to_1(self, monkeypatch):
        # s = 1.001 at 1e-13 runs the ladder to S(_MT_MAX_N) and raises; no
        # table is longer than 12000 powers
        counts, powers = [], su3._powers

        def counted(s, count):
            counts.append(count)
            return powers(s, count)
        monkeypatch.setattr(su3, "_powers", counted)
        start = time.perf_counter()
        with pytest.raises(ConvergenceError) as err:
            mt_series(1.001, PrecisionBudget(1e-13))
        assert time.perf_counter() - start < 1.0
        assert max(counts) == 2 * su3._MT_MAX_N <= 12000
        want = witten_su3_continued(1.001, budget=PrecisionBudget(1e-13))
        assert abs(err.value.achieved - want) <= 1e-10 * abs(want)

    def test_domain(self):
        with pytest.raises(DomainError):
            mt_series(1.0)
        with pytest.raises(DomainError):
            mt_series(0.5 + 3.0j)

    def test_upper_domain(self):
        # the domain ends at Re s = 512 (su3._MT_MAX_RE)
        assert abs(mt_series(511.5) - 1.0) <= 1e-15
        for s in (512.0, 600.0, 600.0 + 3.0j):
            with pytest.raises(DomainError):
                mt_series(s)

    def test_complex_argument(self):
        # each within its 1e-10 claim
        a = mt_series(2.0 + 0.5j)
        b = witten_su3_continued(2.0 + 0.5j)
        assert abs(a - b) <= 2e-10 * max(1.0, abs(b))

    @pytest.mark.parametrize("s", [2.4, 2.0 + 0.5j, 3.3 + 9.0j])
    def test_square_sum_is_the_double_sum(self, s):
        want = sum((m * n * (m + n)) ** -s
                   for m in range(1, 41) for n in range(1, 41))
        got = su3._square_sum(su3._powers(complex(s), 80), 40)
        assert abs(got - want) <= 1e-14 * abs(want)

    @pytest.mark.parametrize("s", [2.43, 1.9 + 0.7j, 3.2 - 1.3j])
    def test_square_sums_share_one_table(self, s):
        # mt_series slices its first sums, S(8) .. S(64), from one table of
        # n^{-s}: a sum from a longer table is bit for bit the one from a
        # table of its own length, at every N of the ladder
        pw = su3._powers(complex(s), 2 * su3._MT_MAX_N)
        n = su3._MT_FIRST_N
        while n <= su3._MT_MAX_N:
            own = su3._square_sum(su3._powers(complex(s), 2 * n), n)
            assert su3._square_sum(pw, n) == own
            n *= 2

    @pytest.mark.parametrize("s", [1.05, 2.4, 30.5, 2.0 + 9.0j])
    def test_square_sum_at_the_ends_of_sigma(self, s):
        # the FFT's rounding is relative to the largest power, 1: the slow
        # tail at 1.05 and the fast fall at 30.5 both stay at 1e-16
        terms = [complex((m * n * (m + n)) ** -s)
                 for m in range(1, 301) for n in range(1, 301)]
        want = complex(math.fsum(v.real for v in terms),
                       math.fsum(v.imag for v in terms))
        got = su3._square_sum(su3._powers(complex(s), 600), 300)
        assert abs(got - want) <= 1e-14 * abs(want)

    @pytest.mark.parametrize("s", [1.8140293086310137 + 1.507516358503234j,
                                   1.8594636493678907 - 2.5765159565856663j])
    def test_complex_tail_order(self, s):
        # the tail's orders are complex: Richardson ratios taken from Re s
        # alone left 6.2e-10 and 2.0e-10 here. Each within its 1e-13 claim
        budget = PrecisionBudget(target=1e-13)
        want = witten_su3_continued(s, budget=budget)
        assert abs(mt_series(s, budget) - want) <= 2e-13 * max(1.0, abs(want))


class TestContinuation:
    @pytest.mark.parametrize("s", [2.0, 3.0, 1.5])
    def test_agrees_with_series(self, s):
        # each within its 1e-10 claim
        a = witten_su3_continued(s)
        b = mt_series(s)
        assert abs(a - b) <= 2e-10 * max(1.0, abs(a))

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
        # u = -Im s/2 would repeat its nodes at step 1/2 and stop early.
        # The even line now subtracts the errors of its poles, whose
        # residues are the residue line's terms, so the two routes share
        # those terms: test_complex_even_line_against_mpmath checks it
        # against mpmath
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

    @pytest.mark.parametrize("s,want", [p for p in NEAR_INTEGERS
                                        if p[0] > 5.0 / 6.0])
    def test_next_to_integers_at_1e13(self, s, want):
        # the even line; next to 0 the rounding of 1 + 2s raises by design
        got = witten_su3_continued(s, budget=PrecisionBudget(1e-13))
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want))

    @pytest.mark.parametrize("s,want", MERGING_PAIRS)
    def test_merging_pairs(self, s, want):
        # the residues of a merging pair grow like 1/(s - 1 - k), and their
        # rounding with them: subtracted down to 1e-7 of 1 + k they left
        # 4e-11 at 1 + 1e-7i; left out within _MERGE_GAP = 1e-3 the worst
        # here is 0.07 of the claim
        got = witten_su3_continued(s, budget=PrecisionBudget(1e-13))
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want))
        if s in (1.0, 2.0, 3.0):  # ordinary points, real values
            assert got.imag == 0.0

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
        # on the residue line (s = -0.4) only real s is folded, and s +
        # 1e-12j takes the two-sided rule: real s make at most 0.55 of its
        # kernel calls. The even line (s = 1.5) is folded for every s, and
        # the poles it subtracts set each call's node count, so its saving
        # is per node: one gamma and one zeta for real s, |Gamma|^2
        # |zeta|^2, two of each for complex s, besides the calls that form
        # the residues before the rule starts
        calls = {"riemann_zeta": 0, "log_gamma": 0}
        nodes, before = [0], {}

        def counter(name, fn):
            def counted(*args):
                calls[name] += 1
                return fn(*args)
            return counted
        monkeypatch.setattr(su3, "riemann_zeta",
                            counter("riemann_zeta", riemann_zeta))
        monkeypatch.setattr(su3, "log_gamma", counter("log_gamma", log_gamma))
        plain = su3._trapezoid

        def trapezoid(f, *args, **kwargs):
            before.update(calls)

            def g(t):
                nodes[0] += 1
                return f(t)
            return plain(g, *args, **kwargs)
        monkeypatch.setattr(su3, "_trapezoid", trapezoid)

        def run(x):
            calls.update(riemann_zeta=0, log_gamma=0)
            nodes[0] = 0
            # log Gamma(-z) is kept from call to call: empty it, so that
            # each run counts a gamma at every one of its nodes
            su3._log_gamma_neg.cache_clear()
            value = witten_su3_continued(x)
            per_node = {name: (n - before[name]) / nodes[0]
                        for name, n in calls.items()}
            return value, dict(calls), per_node
        real, real_calls, real_node = run(s)
        cplx, cplx_calls, cplx_node = run(s + 1e-12j)
        # Im of the complex value is 1e-12 f'(s); Re differs by O(1e-24)
        assert abs(real - cplx.real) <= 1e-12 * abs(real)
        for name in calls:
            if s >= 5.0 / 6.0:
                assert (real_node[name], cplx_node[name]) == (1.0, 2.0)
            else:
                assert real_calls[name] <= 0.55 * cplx_calls[name], name

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

    def test_budget_in_place_of_params_is_type_error(self):
        budget = PrecisionBudget(1e-13)
        with pytest.raises(TypeError, match="MBParams.*budget="):
            witten_su3_continued(1.5, budget)
        # the positional (s, params, budget) and budget= both take it
        want = witten_su3_continued(1.5, MBParams(), budget)
        assert witten_su3_continued(1.5, budget=budget) == want

    @pytest.mark.parametrize("s,n,want", MPMATH_SU3)
    def test_against_mpmath(self, s, n, want):
        got = witten_su3_continued(s, MBParams(n=n))
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want))

    @pytest.mark.parametrize("s,want", [
        (s, want) for s, _, want in MPMATH_SU3
        if s.real >= 5.0 / 6.0 and abs(s.imag) >= 30.0])
    def test_complex_even_line_against_mpmath(self, s, want):
        # the even line subtracts its poles' errors with the residue terms,
        # so the residue line no longer checks it independently (see
        # test_even_line_against_residue_line); mpmath's residue line does
        got = witten_su3_continued(s, budget=PrecisionBudget(1e-13))
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want))

    def test_trapezoid_rule(self):
        gauss = su3._trapezoid(lambda t: math.exp(-t * t), 1e-12)
        assert abs(gauss - math.sqrt(math.pi)) <= 1e-12
        folded = su3._trapezoid(lambda t: math.exp(-t * t), 1e-12, folded=True)
        assert abs(folded - math.sqrt(math.pi)) <= 1e-12
        # poles at t = +-0.001i: the step would have to fall far below the
        # last one allowed, 1/256, so the rule gives up; the levels never
        # settle, and the error estimate does not accept them either
        with pytest.raises(ConvergenceError):
            su3._trapezoid(lambda t: math.exp(-t * t) / (t * t + 1e-6), 1e-10)

    # here, in test_error_estimate_waits and in test_trapezoid_subtracts_poles
    # each id keeps a last field, False, from the rule's former sinh-map
    # option, so that the cases keep their names
    @pytest.mark.parametrize("folded", [False, True],
                             ids=["False-False", "True-False"])
    @pytest.mark.parametrize("name", ["gauss", "sech"])
    def test_error_estimate_saves_calls(self, name, folded, monkeypatch):
        # exp(-(t/a)^2) and sech(t/a), integrals a sqrt(pi) and a pi, at five
        # scales and three targets. With _ESTIMATE_SHARE = 0 the estimate
        # accepts only D1 = 0, which the agreement of two levels accepts as
        # well: that is the rule without the estimate. With it every value
        # meets its target, no call takes more nodes, and the grid fewer.
        # Where the levels fall from about 1e-8 to rounding in one halving
        # (a = 1 at 1e-13) there is nothing to save, and the plain rule's
        # 1e-9 floor on the agreement leaves the estimate little at 1e-13.
        def run(f, target, share):
            calls = [0]

            def g(t):
                calls[0] += 1
                return f(t)
            monkeypatch.setattr(su3, "_ESTIMATE_SHARE", share)
            return su3._trapezoid(g, target, folded), calls[0]
        totals = [0, 0]
        for a in (0.5, 0.7, 1.0, 2.0, 3.0):
            if name == "gauss":
                f, want = (lambda t: math.exp(-(t / a) ** 2)), \
                    a * math.sqrt(math.pi)
            else:
                f, want = (lambda t: 1.0 / math.cosh(t / a)), a * math.pi
            for target in (1e-6, 1e-10, 1e-13):
                got, new = run(f, target, 0.1)
                _, old = run(f, target, 0.0)
                assert abs(got - want) <= target * max(1.0, want)
                assert new <= old
                totals[0] += new
                totals[1] += old
        assert totals[0] < totals[1]

    @pytest.mark.parametrize("folded", [False, True],
                             ids=["False-False", "True-False"])
    def test_error_estimate_waits(self, folded, monkeypatch):
        # the estimate needs three levels and shrinking differences: at the
        # first halving (D2 passed as 0) and wherever D1 >= D2 a level is
        # accepted only when it agrees with the one before
        seen = []
        settled = su3._settled

        def spy(d1, d2, tol, target, scale):
            ok = settled(d1, d2, tol, target, scale)
            seen.append((d1, d2, ok, d1 <= tol * scale))
            return ok
        monkeypatch.setattr(su3, "_settled", spy)
        for f in (lambda t: math.exp(-t * t), lambda t: 1.0 / math.cosh(t),
                  lambda t: math.exp(-t * t) / (t * t + 1e-6)):
            for target in (1e-6, 1e-10, 1e-13):
                seen.clear()
                try:
                    su3._trapezoid(f, target, folded)
                except ConvergenceError:
                    pass
                assert seen[0][1] == 0.0 and seen[0][2] == seen[0][3]
                for d1, d2, ok, agree in seen:
                    if d1 >= d2:
                        assert ok == agree
        args = (1e-9, 1e-13, 1.0)  # tol, target, scale
        # D1 = 1e-8 misses the agreement; D1^2/D2 = 1e-15 is in a tenth of
        # the target, 1e-17 is not
        assert su3._settled(1e-8, 0.1, *args)
        assert not su3._settled(1e-8, 1e-3, *args)
        for d2 in (0.0, 1e-8, 5e-9):
            assert not su3._settled(1e-8, d2, *args)

    @pytest.mark.parametrize("s,want", NEAR_INTEGERS[:2])
    def test_next_to_minus_one_at_1e13(self, s, want):
        # the plain rule's 1e-9 stop floor left these 1.8x their claim
        got = witten_su3_continued(s, budget=PrecisionBudget(1e-13))
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want))

    @staticmethod
    def _contour_calls(s, target, monkeypatch):
        calls = [0]
        plain = su3._trapezoid

        def counted(f, *args, **kwargs):
            def g(t):
                calls[0] += 1
                return f(t)
            return plain(g, *args, **kwargs)
        monkeypatch.setattr(su3, "_trapezoid", counted)
        witten_su3_continued(s, budget=PrecisionBudget(target))
        return calls[0]

    @pytest.mark.parametrize("s", [1.5, -0.4, 0.3, 0.755])
    def test_real_s_contour_work(self, s, monkeypatch):
        # real s fold the rule and subtract the poles within _EVEN_REACH
        # on both lines: 29, 27, 27 and 29 integrand calls here at 1e-13,
        # where the sinh map took 33 each and the plain rule without the
        # poles 209 to 225
        most = 70 if s >= 5.0 / 6.0 else 40
        assert 0 < self._contour_calls(s, 1e-13, monkeypatch) <= most

    @pytest.mark.parametrize("s,most", [(100.0, 90), (1000.0, 260)])
    def test_large_real_s_contour_work(self, s, most, monkeypatch):
        # from Re s = 8 on the even line has no pole in reach, and the
        # integrand is about a Gaussian of width sqrt(s/2) in u: the rule
        # stops at its first halving, which doubles the nodes at step 1, a
        # few widths out. 83 and 243 calls at 1e-10, where the sinh map
        # took 41 and 53
        assert 0 < self._contour_calls(s, 1e-10, monkeypatch) <= most

    def test_complex_s_contour_work(self, monkeypatch):
        # the plain two-sided rule: 417 calls on the agreement of two
        # levels, 209 with the error estimate, 105 with m(s) = 1 residue
        # and the poles beside the line subtracted
        assert 0 < self._contour_calls(0.69 + 9.626j, 1e-6,
                                       monkeypatch) <= 120

    @pytest.mark.parametrize("s,most", [(1.5 + 10.0j, 75),
                                        (0.9 + 30.0j, 120)])
    def test_complex_s_even_line_work(self, s, most, monkeypatch):
        # 65 and 105 integrand calls at 1e-10, where the rule without the
        # poles within _EVEN_REACH took 129 and 417
        assert 0 < self._contour_calls(s, 1e-10, monkeypatch) <= most

    @pytest.mark.parametrize("target", [1e-13, 1e-12, 1e-10])
    def test_even_line_rounding_at_large_s(self, target):
        # s log 2 - log Gamma(s) + 2 Re log Gamma(s/2 + iu) rounds in terms
        # of size s log s: up to 1.8e-12 at 1000, 0.92 eps times their
        # sizes, half the bound. Every value meets its claim or raises, and
        # none raises at 1e-10
        budget, s, raised = PrecisionBudget(target), 35.0, 0
        while s <= 1000.0:
            want = 1.0 + 2.0 * 3.0 ** -s + 2.0 * 6.0 ** -s + 8.0 ** -s
            try:
                got = witten_su3_continued(s, budget=budget)
                assert abs(got - want) <= target, s
            except ConvergenceError as err:
                assert abs(err.achieved - want) <= 1e-11, s
                raised += 1
            s += 1.77
        assert (raised > 0) == (target < 1e-10)

    @pytest.mark.parametrize("s,most", [(0.3 - 8.0j, 135),
                                        (-0.4 + 30.0j, 250)])
    def test_complex_s_residue_line_work(self, s, most, monkeypatch):
        # 121 and 225 integrand calls at 1e-10, where M = 4 residues and no
        # pole subtraction took 481 and 913
        assert 0 < self._contour_calls(s, 1e-10, monkeypatch) <= most

    @pytest.mark.parametrize("s", [0.8 + 20.0j, 0.75 + 40.0j, 0.8 + 100.0j])
    def test_residue_line_against_even_line(self, s):
        # right of Re s = 2/3 the even line, with no residue terms, is a
        # second route; with M = 4 and no pole subtraction the residue line
        # was 3.4e-9, 7.6e-8 and 1.9e-4 off it here at 1e-10, now below
        # 1e-12
        budget = PrecisionBudget(1e-10)
        want = su3._mb_direct(complex(s), 0, PrecisionBudget(1e-13))
        got = witten_su3_continued(s, budget=budget)
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want))

    def test_terms_cancelling_the_integral(self):
        # at -1.2+40i the integral is 2.8e8 and 2 pi times the value 3.3e5:
        # stopped relative to the integral, the rule left 1.2e-10 at 1e-10.
        # mpmath at 30 digits, M = 6 residues on Re z = 5.5, step 1/28
        want = -18336.845576863787 + 49751.95175509843j
        got = witten_su3_continued(-1.2 + 40.0j, budget=PrecisionBudget(1e-10))
        assert abs(got - want) <= 1e-10 * abs(want)

    # sech t/((t - p)(t - q)): simple poles at p and q beside the line, and
    # sech's own at +-i pi/2. The last pair makes F(-t) = conj F(t), so
    # Re F can be folded
    SECH_POLES = [(0.3 + 0.25j, -0.5 - 0.35j), (0.3j, -0.4j)]

    @staticmethod
    def _sech_over_poles(p, q):
        with mpmath.workdps(30):
            want = complex(mpmath.quad(
                lambda t: mpmath.sech(t) / ((t - p) * (t - q)),
                [-mpmath.inf, -1, 0, 1, mpmath.inf]))
        poles = [(p, 1.0 / (cmath.cosh(p) * (p - q))),
                 (q, 1.0 / (cmath.cosh(q) * (q - p)))]
        return (lambda t: 1.0 / (math.cosh(t) * (t - p) * (t - q))), \
            poles, want

    @pytest.mark.parametrize("p,q", SECH_POLES)
    def test_pole_error_at_one_step(self, p, q):
        # at step 1/4 the plain sum is 1.2e-2 and 5.4e-3 off; less the
        # poles' share of the error, 4e-15 and 7e-15, rounding: sech's own
        # poles at +-i pi/2 leave e^{-pi^2/h} = 7e-18
        f, poles, want = self._sech_over_poles(p, q)
        h = 0.25
        raw = h * sum(f(k * h) for k in range(-240, 241))
        assert abs(raw - want) > 1e-3
        assert abs(raw - su3._pole_error(poles, h) - want) <= 2e-14

    @pytest.mark.parametrize("pq,folded", [
        (SECH_POLES[0], False), (SECH_POLES[1], False),
        (SECH_POLES[1], True)],
        ids=["pq0-False-False", "pq2-False-False", "pq4-True-False"])
    def test_trapezoid_subtracts_poles(self, pq, folded):
        # two-sided, and folded over Re F where F(-t) = conj F(t): every
        # value meets its target, in at most a quarter of the nodes the
        # rule takes without the poles
        f, poles, want = self._sech_over_poles(*pq)
        g = (lambda t: f(t).real) if folded else f
        calls = [0]

        def counted(t):
            calls[0] += 1
            return g(t)
        for target in (1e-10, 1e-13):
            calls[0] = 0
            got = su3._trapezoid(counted, target, folded, poles)
            with_poles, calls[0] = calls[0], 0
            su3._trapezoid(counted, target, folded)
            assert abs(got - want) <= target * abs(want)
            assert with_poles <= 0.26 * calls[0]
            # a rule that sums Re F subtracts the real part of the error
            assert isinstance(got, float) == folded

    def test_unconverged_value_is_corrected(self, monkeypatch):
        # one halving allowed: the ConvergenceError carries the corrected
        # level at step 1/2, 1.3e-8 off (sech's poles), not the raw sum,
        # 0.21 off
        f, poles, want = self._sech_over_poles(*self.SECH_POLES[0])
        monkeypatch.setattr(su3, "_MAX_HALVINGS", 1)
        with pytest.raises(ConvergenceError) as err:
            su3._trapezoid(f, 1e-13, poles=poles)
        assert abs(err.value.achieved - want) <= 1e-7

    @pytest.mark.parametrize("s", [1.5 + 30.0j, 0.3 - 8.0j])
    def test_unconverged_contour_carries_the_value(self, s, monkeypatch):
        # the even line, and the residue line with m(s) = 1 residue term:
        # the ConvergenceError carries 2^s terms + integral/(2 pi), not the
        # integral, which is 2 pi and (12.0+6.0i) times the value here
        want = witten_su3_continued(s)
        monkeypatch.setattr(su3, "_MAX_HALVINGS", 1)
        with pytest.raises(ConvergenceError) as err:
            witten_su3_continued(s)
        assert abs(err.value.achieved - want) <= 1e-9 * abs(want)

    # zeta^W_SU(3)(s) next to 0 from mpmath at 45 digits, as NEAR_INTEGERS
    # (M = 6 residues on Re z = 5.5, trapezoid step 1/14)
    NEAR_ZERO = {1e-4: 0.33354029652089021619, -1e-4: 0.33312651125786093517,
                 1e-7: 0.33333354022601654899, 1e-11: 0.33333333335402259460,
                 0.0035: 0.34066182110365374659,
                 -0.0035: 0.32617772129244790527}

    @pytest.mark.parametrize("target,inside,outside", [
        (1e-13, 1e-4, 1e-5), (1e-13, -1e-4, -1e-5), (1e-10, 1e-7, 1e-8),
        (1e-6, 1e-11, 1e-12), (1e-13, 0.0035, 3.9e-5),
        (1e-13, -0.0035, -3.9e-5), (1e-13, 1e-4, 1e-17),
        (1e-10, 1e-7, -1e-17), (1e-6, 1e-11, 1e-320), (1e-13, -1e-4, 4e-14),
        (1e-10, 1e-7, 4e-14j), (1e-6, 1e-11, 5.1e-14)])
    def test_rounding_next_to_zero(self, target, inside, outside):
        # the rounding of 1 + 2s costs up to 4e-18/|s| (2.3e-18/|s| at
        # most, measured): the value is returned, and meets its claim, where
        # that is within the target, and ConvergenceError carries it where
        # it is not (1e-8 at 1e-10 was 1.9e-10 off, 1e-12 at 1e-6 1.8e-6).
        # Below |s| = 5.1e-14 zeta(1 + 2s) is in riemann_zeta's pole window,
        # and below 5.6e-17 2s - 1 rounds to Gamma's pole at -1: the error
        # there carries the exact limit 1/3, not a PoleError
        budget = PrecisionBudget(target)
        got = witten_su3_continued(inside, budget=budget)
        assert abs(got - self.NEAR_ZERO[inside]) <= target
        with pytest.raises(ConvergenceError) as err:
            witten_su3_continued(outside, budget=budget)
        assert abs(err.value.achieved - 1.0 / 3.0) <= 1e-4

    def test_right_of_the_strip(self):
        # Re s > M + 1/2, where the residue line would have to move the
        # pole of zeta(s - z) at z = s - 1 as well; the even line moves none
        want = 1.0119952658929042375  # mpmath, as MPMATH_SU3
        assert abs(witten_su3_continued(4.7) - want) <= 1e-10
        assert abs(mt_series(4.7) - want) <= 1e-10 * want


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

    def test_one_table_build(self):
        # B_{3n+2} first: the table of B_0 ... B_602 is built once, where
        # rising indices rebuilt it at B_202, B_408 and B_820
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        out = subprocess.run(
            [sys.executable, "-c",
             "from wittenzeta import exact, su3\n"
             "su3.bernoulli_convolution_check(200)\n"
             "print(len(exact._B_EVEN))\n"],
            env=env, capture_output=True, text=True, timeout=60)
        assert out.stdout.split() == ["302"]

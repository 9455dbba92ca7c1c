"""SU(2) Witten L-function: special values, the derivative at s = -2,
multi-character variants, and the Haar average."""

import itertools
import math
import random
from fractions import Fraction

import mpmath
import pytest

from wittenzeta import polylog, su2
from wittenzeta.errors import ConvergenceError, DomainError
from wittenzeta.numerics import PrecisionBudget
from wittenzeta.polylog import _circle_part
from wittenzeta.su2 import (ConjugacyClassSU2, char_ratio,
                            derivative_at_minus2, haar_average_su2, multi_L,
                            special_value_neg_even, witten_L_su2)

mpmath.mp.dps = 30

ZETA3 = 1.202056903159594285
CATALAN = 0.9159655941772190151
PI = math.pi


class TestConjugacyClass:
    def test_classification(self):
        assert ConjugacyClassSU2(0.0).is_identity
        assert ConjugacyClassSU2(PI).is_minus_identity
        assert ConjugacyClassSU2(1.0).is_regular

    def test_range(self):
        with pytest.raises(DomainError):
            ConjugacyClassSU2(-0.1)
        with pytest.raises(DomainError):
            ConjugacyClassSU2(PI + 0.1)

    def test_char_ratio(self):
        assert char_ratio(3, 0.0) == 1.0
        assert char_ratio(2, PI) == -1.0
        got = char_ratio(4, PI / 3)
        want = math.sin(4 * PI / 3) / (4 * math.sin(PI / 3))
        assert got == pytest.approx(want)


class TestEval:
    def test_identity_is_zeta(self):
        assert abs(witten_L_su2(2.0, 0.0) - PI ** 2 / 6.0) <= 1e-10

    def test_minus_identity_is_eta_twist(self):
        got = witten_L_su2(2.0, PI)
        want = (1.0 - 2.0 ** -1) * PI ** 2 / 6.0
        assert abs(got - want) <= 1e-10

    @pytest.mark.parametrize("s", [2.0, -0.5, 1.5 + 1.0j])
    @pytest.mark.parametrize("theta", [PI / 3, PI / 2, 2 * PI / 3])
    def test_regular_against_mpmath(self, s, theta):
        # direct sum of sin(n theta)/(n sin theta) n^{-s} via its polylog form
        x = mpmath.exp(1j * mpmath.mpf(theta))
        want = complex((mpmath.polylog(s + 1, x)
                        - mpmath.polylog(s + 1, 1 / x))
                       / (2j * mpmath.sin(theta)))
        got = witten_L_su2(s, theta)
        assert abs(got - want) <= 1e-8 * (1.0 + abs(want))


def _mp_witten(s, theta):
    """(Li_{s+1}(x) - Li_{s+1}(1/x)) / (2i sin theta) at 50 digits."""
    with mpmath.workdps(50):
        x = mpmath.expj(mpmath.mpf(theta))
        order = mpmath.mpc(s) + 1
        return complex((mpmath.polylog(order, x) - mpmath.polylog(order, 1 / x))
                       / (2j * mpmath.sin(mpmath.mpf(theta))))


# the classes of the benchmark's su2-grid: multiples of pi, two plain
# angles, and the central elements
BENCH_THETAS = [k * PI for k in (1 / 2, 1 / 3, 2 / 3, 1 / 4, 3 / 4, 1 / 5,
                                 2 / 5, 1 / 6, 5 / 6)] + [0.2, 1.0, 0.0, PI]


class TestHurwitzRoute:
    # next to s = -1 the two Hurwitz zetas of the sine form have a pole
    # each; their difference must be taken without subtracting the poles
    @pytest.mark.parametrize("s", [-1 + 1e-6, -1 - 1e-6, -1 + 1e-9,
                                   -1 - 1e-9, -0.999 + 2j])
    @pytest.mark.parametrize("theta", [0.2, PI / 3, PI / 2, 5 * PI / 6])
    def test_next_to_minus_one(self, s, theta):
        got = witten_L_su2(s, theta, PrecisionBudget(target=1e-13))
        want = _mp_witten(s, theta)
        assert abs(got - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("m", range(2, 41, 2))
    def test_trivial_zeros_exact(self, m):
        for theta in BENCH_THETAS:
            assert witten_L_su2(-float(m), theta) == 0

    @pytest.mark.parametrize("s", [-10 + 1e-6, -19.5, -25.3, -39.5, -40 + 10j,
                                   -30 - 7j, -15.5 + 3j, -2 + 1e-9j])
    @pytest.mark.parametrize("theta", [0.2, 2 * PI / 3])
    def test_deep_left_half_plane(self, s, theta):
        got = witten_L_su2(s, theta, PrecisionBudget(target=1e-13))
        want = _mp_witten(s, theta)
        assert abs(got - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("theta", [0.2, PI / 3, 5 * PI / 6])
    def test_limit_at_zero(self, theta):
        want = _mp_witten(0.0, theta)
        assert abs(witten_L_su2(0.0, theta) - want) <= 1e-14 * abs(want)
        for s in (1e-9, -1e-9, 1e-9j):
            assert abs(witten_L_su2(s, theta) - want) <= 1e-8 * abs(want)

    @pytest.mark.parametrize("s", [2.5, 0.3, 1.7 - 2j])
    def test_series_side(self, s):
        got = witten_L_su2(s, 1.0, PrecisionBudget(target=1e-12))
        want = _mp_witten(s, 1.0)
        assert abs(got - want) <= 1e-11 * abs(want)


class TestSpecialValues:
    @pytest.mark.parametrize("theta,want", [
        (0.0, Fraction(-1, 12)),
        (PI / 3, Fraction(1)),
        (PI / 2, Fraction(1, 2)),
        (2 * PI / 3, Fraction(1, 3)),
        (PI, Fraction(1, 4)),
    ])
    def test_at_minus_one(self, theta, want):
        got = witten_L_su2(-1.0, theta)
        assert abs(got - float(want)) <= 1e-10
        if theta not in (0.0, PI):
            half = math.sin(theta / 2.0)
            assert float(want) == pytest.approx(1.0 / (4.0 * half * half))

    @pytest.mark.parametrize("m", [2, 4])
    @pytest.mark.parametrize("theta", [0.0, PI / 5, PI / 2, PI])
    def test_even_negative_zeros(self, m, theta):
        assert special_value_neg_even(m, theta) == 0
        assert abs(witten_L_su2(float(-m), theta)) <= 1e-9

    def test_special_value_rejects_odd(self):
        with pytest.raises(DomainError):
            special_value_neg_even(3, 0.5)


class TestDerivative:
    def test_three_anchors(self):
        assert derivative_at_minus2(0.0) == pytest.approx(
            -ZETA3 / (4 * PI ** 2), abs=1e-9)
        assert derivative_at_minus2(PI) == pytest.approx(
            7 * ZETA3 / (4 * PI ** 2), abs=1e-9)
        assert derivative_at_minus2(PI / 2) == pytest.approx(
            2 * CATALAN / PI, abs=1e-9)

    def test_positive_on_open_interval(self):
        for k in range(1, 51):
            assert derivative_at_minus2(k * PI / 51.0) > 0.0

    def test_continuity_at_pi(self):
        target = derivative_at_minus2(PI)
        gaps = [abs(derivative_at_minus2(PI - h) - target)
                for h in (0.1, 0.05, 0.025)]
        assert gaps[0] > gaps[1] > gaps[2]
        # at least linear convergence: halving h at least halves the gap
        assert gaps[1] <= 0.6 * gaps[0]
        assert gaps[2] <= 0.6 * gaps[1]

    def test_central_difference_oracle_at_pi(self):
        h = 1e-5

        def eta_zeta(s):
            return float((1 - mpmath.mpf(2) ** (1 - s)) * mpmath.zeta(s))

        fd = (eta_zeta(-2 + h) - eta_zeta(-2 - h)) / (2 * h)
        assert abs(derivative_at_minus2(PI) - fd) <= 1e-6

    def test_central_difference_oracle_regular(self):
        h = 1e-5
        theta = PI / 3
        fd = (witten_L_su2(-2 + h, theta).real
              - witten_L_su2(-2 - h, theta).real) / (2 * h)
        assert abs(derivative_at_minus2(theta) - fd) <= 1e-6


class TestMultiCharacter:
    def test_pairs_vanish_at_minus_two(self):
        rng = random.Random(20260824)
        pairs = [(rng.uniform(0.1, PI - 0.1), rng.uniform(0.1, PI - 0.1))
                 for _ in range(9)]
        pairs.append((1.1, 1.1))  # degenerate equal angles
        for t1, t2 in pairs:
            assert abs(multi_L(-2.0, [t1, t2])) <= 1e-10

    def test_triple_at_half_pi(self):
        got = multi_L(-2.0, [PI / 2, PI / 2, PI / 2])
        assert abs(got - PI / 4.0) <= 1e-10

    def test_identity_arguments_drop(self):
        got = multi_L(2.0, [PI / 3, 0.0])
        want = witten_L_su2(2.0, PI / 3)
        assert abs(got - want) <= 1e-10

    def test_single_matches_eval(self):
        got = multi_L(1.5, [PI / 5])
        want = witten_L_su2(1.5, PI / 5)
        assert abs(got - want) <= 1e-10

    def test_three_classes_with_zero_combined_angle(self):
        # s + r = -1.01; one combined angle pi/2 - pi/3 - pi/6 is 0, so one
        # of the eight circle terms is the Riemann zeta
        with mpmath.workdps(50):
            exact = [mpmath.pi / 2, mpmath.pi / 3, mpmath.pi / 6]
            order = mpmath.mpf("-4.01") + 3
            acc = 0
            for eps in itertools.product((1, -1), repeat=3):
                x = mpmath.expj(sum(e * t for e, t in zip(eps, exact)))
                term = mpmath.zeta(order) if abs(x - 1) < mpmath.mpf(10) ** -40 \
                    else mpmath.polylog(order, x)
                acc += math.prod(eps) * term
            want = complex(acc / mpmath.fprod(2j * mpmath.sin(t) for t in exact))
        got = multi_L(-4.01, [PI / 2, PI / 3, PI / 6])
        assert abs(got - want) <= 1e-10 * (1.0 + abs(want))

    def test_arity_limits(self):
        with pytest.raises(DomainError):
            multi_L(2.0, [])
        with pytest.raises(DomainError):
            multi_L(2.0, [0.5] * 4)


def _count_calls(monkeypatch, calls):
    """Count the calls of each name in `calls`, wherever su2 and polylog
    look it up."""
    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper
    for module in (su2, polylog):
        for name in calls:
            if hasattr(module, name):
                monkeypatch.setattr(module, name,
                                    counted(name, getattr(module, name)))


class TestHaarAverage:
    def test_values(self):
        assert abs(haar_average_su2(-1.0) - 1.0) <= 1e-8
        assert haar_average_su2(-2.0) == 0.0
        assert abs(haar_average_su2(3.0) - 1.0) <= 1e-8

    @pytest.mark.parametrize("target", [1e-6, 1e-10, 1e-13])
    @pytest.mark.parametrize("s", [-1.0, 1.0 + 1e-6, 1.001, 1.2, 1.526, 2.0,
                                   3.0, 3.0 - 1e-7, 3.0 + 1e-7, 5.0, 12.7,
                                   20.1])
    def test_orthogonality_to_target(self, s, target):
        # the average is 1 by character orthogonality, whatever the route
        got = haar_average_su2(s, PrecisionBudget(target))
        assert abs(got - 1.0) <= target

    def test_work_bound(self, monkeypatch):
        # one zeta(s - 2j) table for every node, and no polylog route
        calls = {"riemann_zeta": 0, "witten_L_su2": 0, "polylog_series": 0}
        _count_calls(monkeypatch, calls)
        got = haar_average_su2(2.5, PrecisionBudget(1e-10))
        assert abs(got - 1.0) <= 1e-10
        assert calls["riemann_zeta"] <= 64
        assert calls["witten_L_su2"] == 0 and calls["polylog_series"] == 0

    def test_untested_domain(self):
        with pytest.raises(DomainError):
            haar_average_su2(0.5)


@pytest.mark.parametrize("s", [1.3, 1.538, 2.0, 2.3, 3.0, 3.0 + 1e-7, 3.7])
@pytest.mark.parametrize("theta", [1e-3, 0.01, 0.05, PI / 12, PI - 1e-3, PI])
def test_im_polylog_odd_against_mpmath(s, theta):
    # Im Z(s+1, e^{i theta}) from the zeta(s - 2j) expansion, including
    # the small theta where the series route misses its claim and the
    # odd integer s = 3, where the pole pair takes its limit form
    with mpmath.workdps(40):
        want = float(mpmath.polylog(mpmath.mpf(s) + 1,
                                    mpmath.expj(mpmath.mpf(theta))).imag)
    got = _circle_part(s + 1.0, 1, PrecisionBudget(1e-13))(theta)
    assert abs(got - want) <= 1e-13 * max(1.0, abs(want))


def _mp_li(order, angle):
    """Z(order, e^{i angle}) at 50 digits: DLMF 25.13.2 with x = angle / 2 pi
    (mod 1), mpmath's polylog at the integer orders where Gamma(1 - order)
    has its pole."""
    with mpmath.workdps(50):
        order = mpmath.mpc(order)
        if order.imag == 0 and order.real == int(order.real):
            return mpmath.polylog(order, mpmath.expj(angle))
        x = angle / (2 * mpmath.pi)
        x -= mpmath.floor(x)
        a = 1 - order
        phase = mpmath.expjpi(a / 2)
        return mpmath.gamma(a) / (2 * mpmath.pi) ** a \
            * (phase * mpmath.zeta(a, x) + mpmath.zeta(a, 1 - x) / phase)


def _mp_witten_hurwitz(s, theta):
    with mpmath.workdps(50):
        th = mpmath.mpf(theta)
        return complex((_mp_li(mpmath.mpc(s) + 1, th)
                        - _mp_li(mpmath.mpc(s) + 1, -th))
                       / (2j * mpmath.sin(th)))


_TWO_THIRDS_PI = 2.0 * PI / 3.0


class TestExpansionRoute:
    """Right of Re s = 0.2: the zeta(s - k) expansion of the odd part, at
    small theta, across its switch at 2 pi/3 and next to theta = pi, at and
    next to the integers where its pole pair is one form."""

    @pytest.mark.parametrize("s", [0.25, 0.7, 1.0, 1.0 + 1e-7, 1.0 - 1e-7,
                                   1.5, 2.0, 2.3, 3.0, 3.0 + 1e-9,
                                   1.0 + 0.05j, 1.2 + 3j, 0.5 - 8j,
                                   2.9 + 9.5j, 1.4 - 30j])
    @pytest.mark.parametrize("theta", [1e-3, 0.01, 0.05,
                                       _TWO_THIRDS_PI - 1e-12,
                                       _TWO_THIRDS_PI + 1e-12, 3 * PI / 4,
                                       PI - 1e-3, PI - 1e-6])
    def test_against_mpmath(self, s, theta):
        want = _mp_witten_hurwitz(s, theta)
        try:
            got = witten_L_su2(s, theta, PrecisionBudget(1e-13))
        except ConvergenceError:
            # at |Im s| = 30 the terms grow to e^{|Im s|/3} next to 2 pi/3,
            # and the rounding estimate may refuse a 1e-13 claim there
            assert abs(s.imag) >= 30 and 1.0 < theta < 3.0
            return
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want))

    @pytest.mark.parametrize("s,thetas", [
        (0.9, [2.5, 2.7]), (0.9, [0.2, 0.25]), (0.001, [1.0, 2.0]),
        (0.05 + 0.1j, [0.3, 2.9, 1.1]),
        # left of the line: order exactly 1, order 1.05 + 0.1i, and a pair
        # whose terms cancel
        (-1.0, [1.0, 2.0]), (-1.95 + 0.1j, [0.3, 2.9, 1.1]),
        (-11.212 + 5.267j, [0.3846, 0.3744])])
    def test_multi_next_to_integer_order(self, s, thetas):
        # the 2^r signed circle terms at the exact angle sums
        with mpmath.workdps(50):
            exact = [mpmath.mpf(t) for t in thetas]
            order = mpmath.mpc(s) + len(thetas)
            acc = 0
            for eps in itertools.product((1, -1), repeat=len(thetas)):
                acc += math.prod(eps) * _mp_li(
                    order, sum(e * t for e, t in zip(eps, exact)))
            want = complex(acc / mpmath.fprod(2j * mpmath.sin(t)
                                              for t in exact))
        got = multi_L(s, thetas, PrecisionBudget(1e-13))
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want))

    @pytest.mark.parametrize("s", [-1.5, -0.3, -2.5 + 1j, -7.25])
    @pytest.mark.parametrize("theta", [1.0, 2.0])
    def test_multi_central_classes_left_of_the_line(self, s, theta):
        # one regular class with the identity, or with -identity: oracles
        # that take neither the sine of 0 or pi nor the part route
        with mpmath.workdps(50):
            order = mpmath.mpc(s) + 1
            th = mpmath.mpf(theta)
            flipped = -(_mp_li(order, mpmath.pi + th)
                        - _mp_li(order, mpmath.pi - th)) / (2j * mpmath.sin(th))
            central = {(0.0, 0.0): mpmath.zeta(s), (PI, 0.0): mpmath.altzeta(s)}
        cases = [([theta, 0.0], _mp_witten_hurwitz(s, theta)),
                 ([theta, PI], complex(flipped))]
        cases += [(list(k), complex(v)) for k, v in central.items()]
        for thetas, want in cases:
            got = multi_L(s, thetas, PrecisionBudget(1e-13))
            assert abs(got - want) <= 1e-13 * max(1.0, abs(want)), thetas

    @pytest.mark.parametrize("s,thetas", [
        (-1.5, [1.0, 2.0]), (-1.1, [1.0, 2.0]), (-2.5, [0.3, 2.9, 1.1]),
        (-2.1 + 0.1j, [0.3, 2.9, 1.1]), (-3.0 + 2j, [PI / 3, PI, 0.4])])
    def test_multi_hurwitz_passes(self, monkeypatch, s, thetas):
        # left of the line the 2^r terms pair into 2^{r-1} values of one
        # part, each one Hurwitz pass: a hurwitz_pair, or a hurwitz_even
        # next to w = 0; Z itself is never taken
        calls = {"hurwitz_pair": 0, "hurwitz_even": 0, "polylog_continued": 0}
        _count_calls(monkeypatch, calls)
        multi_L(s, thetas, PrecisionBudget(1e-13))
        r = sum(1 for t in thetas if 0.0 < t < PI)
        assert calls["hurwitz_pair"] + calls["hurwitz_even"] == 2 ** (r - 1)
        assert calls["polylog_continued"] == 0

    @pytest.mark.parametrize("s", [0.7, 1.5 + 2j])
    def test_multi_one_class_next_to_pi(self, s):
        # one regular class: the odd part over the same sine as witten_L_su2
        theta = PI - 1e-6
        got = multi_L(s, [theta], PrecisionBudget(1e-13))
        want = _mp_witten_hurwitz(s, theta)
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want))

    @pytest.mark.parametrize("im", [30.0, 40.0, 50.0])
    @pytest.mark.parametrize("re", [0.25, 0.5, 1.5, 2.5])
    @pytest.mark.parametrize("theta", [0.2, 1.0, 2.0, 2.1, 2.6])
    def test_large_imaginary_part(self, re, im, theta):
        # the expansion's terms grow before they fall as |Im s| rises: a
        # returned value meets its claim, else ConvergenceError is raised
        target = 1e-13
        want = _mp_witten_hurwitz(complex(re, im), theta)
        try:
            got = witten_L_su2(complex(re, im), theta, PrecisionBudget(target))
        except ConvergenceError:
            return
        assert abs(got - want) <= target * max(1.0, abs(want))

    def test_no_series_calls(self, monkeypatch):
        calls = {"polylog_series": 0}
        _count_calls(monkeypatch, calls)
        budget = PrecisionBudget(1e-10)
        witten_L_su2(1.5, 0.05, budget)
        witten_L_su2(0.7 - 3j, 3 * PI / 4, budget)
        multi_L(0.5, [PI / 3, 1.0, 2.0], budget)
        multi_L(1.5 + 1j, [PI / 3, PI / 5], budget)
        polylog.polylog_continued(2.3, 6.2, budget)
        haar_average_su2(1.7, budget)
        assert calls["polylog_series"] == 0

    @pytest.mark.parametrize("s", [-0.5, 0.3 + 2j, 1.05])
    def test_multi_one_table(self, monkeypatch, s):
        # the 2^r terms of multi_L share one table: no more zeta calls than
        # one witten_L_su2 at the same order (s + 3 = (s + 2) + 1)
        budget = PrecisionBudget(1e-13)
        calls = {"riemann_zeta": 0}
        _count_calls(monkeypatch, calls)
        witten_L_su2(s + 2.0, 1.0, budget)
        single = calls["riemann_zeta"]
        calls["riemann_zeta"] = 0
        multi_L(s, [PI / 3, 1.0, 2.0], budget)
        assert 0 < calls["riemann_zeta"] <= single

"""SU(2) Witten L-function: special values, the derivative at s = -2,
multi-character variants, and the Haar average."""

import itertools
import math
import random
from fractions import Fraction

import mpmath
import pytest

from wittenzeta import polylog, su2
from wittenzeta.errors import ConvergenceError, DomainError, PoleError
from wittenzeta.numerics import PrecisionBudget, riemann_zeta
from wittenzeta.polylog import _circle_part
from wittenzeta.su2 import (derivative_at_minus2, haar_average_su2, multi_L,
                            special_value_neg_even, witten_L_su2)

mpmath.mp.dps = 30

ZETA3 = 1.202056903159594285
CATALAN = 0.9159655941772190151
PI = math.pi


@pytest.mark.parametrize("theta", [-0.1, PI + 0.1, math.nan])
def test_angle_outside_zero_pi_raises(theta):
    # a class is its angle in [0, pi]; every entry point checks it
    for call in (lambda: witten_L_su2(2.0, theta),
                 lambda: multi_L(-2.0, [1.0, theta]),
                 lambda: derivative_at_minus2(theta),
                 lambda: special_value_neg_even(2, theta)):
        with pytest.raises(DomainError):
            call()


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

    @pytest.mark.parametrize("k", [1, 3, 5, 9])
    @pytest.mark.parametrize("theta", [1e-3, 0.01, 0.3, 1.0, 2.0, 2.5, 3.0,
                                       PI - 1e-2])
    def test_odd_negative_closed_form(self, k, theta):
        # (Z(1-k, x) - Z(1-k, 1/x)) / (2i sin theta), where for odd k the
        # imaginary part of Z(1-k, x) is (i/2)^k Q_{k-1}(c), c = cot(theta/2)
        c = 1.0 / math.tan(theta / 2.0)
        q = sum(a * c ** j for j, a in enumerate(polylog._cot_poly(k - 1)))
        want = (0.5j) ** k * q / (1j * math.sin(min(theta, PI - theta)))
        got = witten_L_su2(-k, theta, PrecisionBudget(1e-13))
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want))

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

    @pytest.mark.parametrize("theta", [1e-6, 1e-3, 0.1, 0.7, PI / 3, 1.5,
                                       2.2, 2.8, 3.0, PI - 0.05])
    def test_against_reflection(self, theta):
        # D/(8 pi sin theta) against zeta(2, t) less the reflection's
        # pi^2/(2 sin^2(theta/2)), the other half of D, at 40 digits
        with mpmath.workdps(40):
            th = mpmath.mpf(theta)
            want = (mpmath.zeta(2, th / (2 * mpmath.pi))
                    - mpmath.pi ** 2 / (2 * mpmath.sin(th / 2) ** 2)) \
                / (4 * mpmath.pi * mpmath.sin(th))
        got = derivative_at_minus2(theta, PrecisionBudget(1e-13))
        assert abs(got - want) <= 1e-13 * abs(want)

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

    @pytest.mark.parametrize("target", [1e-10, 1e-13])
    def test_single_is_eval_by_repr(self, target):
        # one class: multi_L and witten_L_su2 take the same odd part
        rng = random.Random(33)
        budget = PrecisionBudget(target)
        for _ in range(60):
            s = complex(rng.uniform(-15.0, 3.0), rng.uniform(-10.0, 10.0))
            theta = rng.uniform(0.01, PI - 0.01)
            assert repr(multi_L(s, [theta], budget)) \
                == repr(witten_L_su2(s, theta, budget))

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

    @pytest.mark.parametrize("s", [-2.0, -1.0, 2.5])
    def test_reads_a_real_complex_s(self, s):
        want = repr(haar_average_su2(s))
        assert repr(haar_average_su2(complex(s, 0.0))) == want
        assert repr(haar_average_su2(complex(s, -0.0))) == want
        with pytest.raises(DomainError, match="requires real s"):
            haar_average_su2(complex(s, 1.0))


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


def _mp_multi(s, thetas):
    """multi_L's 2^r signed circle terms at the exact angle sums, 50 digits;
    a class at math.pi is -1, whose character (-1)^{n-1} n is a half turn
    of the exact pi and a sign."""
    with mpmath.workdps(50):
        n_pi = thetas.count(PI)
        exact = [mpmath.mpf(t) for t in thetas if t != PI]
        order = mpmath.mpc(s) + len(exact)
        acc = 0
        for eps in itertools.product((1, -1), repeat=len(exact)):
            acc += math.prod(eps) * _mp_li(order, n_pi * mpmath.pi + sum(
                e * t for e, t in zip(eps, exact)))
        return complex((-1) ** n_pi * acc
                       / mpmath.fprod(2j * mpmath.sin(t) for t in exact))


def _mp_witten_hurwitz(s, theta):
    with mpmath.workdps(50):
        th = mpmath.mpf(theta)
        return complex((_mp_li(mpmath.mpc(s) + 1, th)
                        - _mp_li(mpmath.mpc(s) + 1, -th))
                       / (2j * mpmath.sin(th)))


_TWO_THIRDS_PI = 2.0 * PI / 3.0


def _right_of_line_points():
    """48 points right of the line: 24 of a large-|Im s| grid with theta
    >= 1/2, where the zeta(s - k) table refused 1e-10 or 1e-13 claims, and
    the first 24 with Re s in (0.2, 3] of a band next to pi, theta = pi -
    10^U(-9, -1), Re s U(-2, 3), Im s U(-30, 30) (random.Random(5))."""
    grid = [(complex(re, im), theta) for re in (0.5, 2.0)
            for im in (15.0, 30.0, 60.0, 100.0) for theta in (0.5, 2.09, 3.1)]
    rng = random.Random(5)
    band = []
    while len(band) < 24:
        theta = PI - 10.0 ** rng.uniform(-9.0, -1.0)
        s = complex(rng.uniform(-2.0, 3.0), rng.uniform(-30.0, 30.0))
        if s.real > 0.2:
            band.append((s, theta))
    return grid + band


class TestExpansionRoute:
    """Right of Re s = 0.2: the odd part from the zeta(s - k) expansion
    below theta = 1/2 and from the Euler-Boole sum from 1/2 on, at small
    theta, next to 2 pi/3 and to theta = pi, at and next to the integers
    where the expansion's pole pair is one form."""

    @pytest.mark.parametrize("s", [0.25, 0.7, 1.0, 1.0 + 1e-7, 1.0 - 1e-7,
                                   1.5, 2.0, 2.3, 3.0, 3.0 + 1e-9,
                                   1.0 + 0.05j, 1.2 + 3j, 0.5 - 8j,
                                   2.9 + 9.5j, 1.4 - 30j])
    @pytest.mark.parametrize("theta", [1e-3, 0.01, 0.05,
                                       _TWO_THIRDS_PI - 1e-12,
                                       _TWO_THIRDS_PI + 1e-12, 3 * PI / 4,
                                       PI - 1e-3, PI - 1e-6,
                                       _TWO_THIRDS_PI - 1e-9,
                                       _TWO_THIRDS_PI + 1e-9])
    def test_against_mpmath(self, s, theta):
        want = _mp_witten_hurwitz(s, theta)
        got = witten_L_su2(s, theta, PrecisionBudget(1e-13))
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want))

    @pytest.mark.parametrize("s,thetas", [
        (0.9, [2.5, 2.7]), (0.9, [0.2, 0.25]), (0.001, [1.0, 2.0]),
        (0.05 + 0.1j, [0.3, 2.9, 1.1]),
        # left of the line: order exactly 1, order 1.05 + 0.1i, and a pair
        # whose terms cancel
        (-1.0, [1.0, 2.0]), (-1.95 + 0.1j, [0.3, 2.9, 1.1]),
        (-11.212 + 5.267j, [0.3846, 0.3744])])
    def test_multi_next_to_integer_order(self, s, thetas):
        want = _mp_multi(s, thetas)
        got = multi_L(s, thetas, PrecisionBudget(1e-13))
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want))

    @pytest.mark.parametrize("s,thetas", [
        (-10.8339 - 8.9234j, [3.02434, 1.46582, 1.55733]),
        (-8.5481 + 9.2393j, [0.94154, 2.28960, 3.05732]),
        (-10.74, [1.16166, 3.07525, 2.00164]),
        (-4.2, [PI, 2.9, 0.24]), (-6.7 + 2j, [PI, 2.9, 0.24]),
        (-8.1 - 3j, [PI, 1.0, 2.14159]), (-12.3, [2.0, PI, 1.14149])])
    def test_multi_combined_angle_next_to_a_turn(self, s, thetas):
        # a combined angle within about 1e-3 of 2 pi k, where P(sigma, t) ~
        # t^{sigma-1} turns an absolute error in t into a relative one: the
        # sum is exact, less k turns of 2 pi held as two doubles, rounded
        # once (a float sum is 23x its claim at the first point); a class at
        # pi adds the half turn as math.pi and its own low part
        want = _mp_multi(s, thetas)
        got = multi_L(s, thetas, PrecisionBudget(1e-13))
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want))

    @pytest.mark.parametrize("s", [-1.5, -0.3, -2.5 + 1j, -7.25,
                                   1.5, 2.7, 2.5 + 4j, 1.0 + 1e-9])
    @pytest.mark.parametrize("theta", [1.0, 2.0])
    def test_multi_central_classes_left_of_the_line(self, s, theta):
        # one regular class with the identity, or with -identity, and the
        # central classes alone, on both sides of the line: oracles that
        # take neither the sine of 0 or pi nor the part route
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
        # part, each one hurwitz_pair; Z itself is never taken
        calls = {"hurwitz_pair": 0, "polylog_continued": 0}
        _count_calls(monkeypatch, calls)
        multi_L(s, thetas, PrecisionBudget(1e-13))
        r = sum(1 for t in thetas if 0.0 < t < PI)
        assert calls["hurwitz_pair"] == 2 ** (r - 1)
        assert calls["polylog_continued"] == 0

    @pytest.mark.parametrize("s", [0.7, 1.5 + 2j])
    def test_multi_one_class_next_to_pi(self, s):
        # one regular class: the odd part over the same sine as witten_L_su2
        theta = PI - 1e-6
        got = multi_L(s, [theta], PrecisionBudget(1e-13))
        want = _mp_witten_hurwitz(s, theta)
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want))

    @pytest.mark.parametrize("classes", [[1e-15, 0.0], [0.0, 1e-15, 0.0]])
    def test_multi_one_class_next_to_identity(self, classes):
        # one regular class leaves one angle, which is not a rounded sum and
        # is not snapped to 0: zeta^W(2, 1e-15) is about zeta(2), not 0
        got = multi_L(2.0, classes)
        assert got == witten_L_su2(2.0, 1e-15)
        assert abs(got - math.pi ** 2 / 6) <= 1e-10

    @pytest.mark.parametrize("im", [30.0, 40.0, 50.0])
    @pytest.mark.parametrize("re", [0.25, 0.5, 1.5, 2.5])
    @pytest.mark.parametrize("theta", [0.2, 1.0, 2.0, 2.1, 2.6])
    def test_large_imaginary_part(self, re, im, theta):
        # the table's terms grow before they fall as |Im s| rises, at 0.2;
        # from 1/2 on the Euler-Boole sum's do not
        target = 1e-13
        want = _mp_witten_hurwitz(complex(re, im), theta)
        got = witten_L_su2(complex(re, im), theta, PrecisionBudget(target))
        assert abs(got - want) <= target * max(1.0, abs(want))

    @pytest.mark.parametrize("s,theta", _right_of_line_points())
    def test_euler_boole_against_mpmath(self, s, theta):
        # the Euler-Boole sum: no raise at 1e-10, and at 1e-13 a value that
        # meets its claim or ConvergenceError from the rounding estimate
        want = _mp_witten_hurwitz(s, theta)
        got = witten_L_su2(s, theta, PrecisionBudget(1e-10))
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want))
        try:
            got = witten_L_su2(s, theta, PrecisionBudget(1e-13))
        except ConvergenceError:
            return
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want))

    def test_table_raise_carries_the_L_value(self):
        # at 0.5+100i and theta = 0.1 the zeta(s - k) table's rounding
        # estimate refuses 1e-13; the error carries the L-value
        # P_1(1.5+100i, 0.1) / sin 0.1, not the odd part (10x smaller)
        with pytest.raises(ConvergenceError, match="loses its digits") as err:
            witten_L_su2(0.5 + 100j, 0.1, PrecisionBudget(1e-13))
        with mpmath.workdps(50):
            want = complex(mpmath.clsin(mpmath.mpc(1.5, 100), 0.1)
                           / mpmath.sin(0.1))
        assert abs(err.value.achieved - want) <= 1e-13 * abs(want)

    @pytest.mark.parametrize("s,thetas", [
        (0.5 + 100j, [0.1]), (0.5 + 60j, [3.0]), (0.5 + 100j, [3.1]),
        (0.5 + 100j, [0.1, 0.2]), (-0.5 + 100j, [0.1, 0.05]),
        (0.5 + 100j, [0.1, 0.2, 0.3]), (0.5 + 100j, [0.1, PI])])
    def test_multi_raise_carries_the_L_value(self, s, thetas):
        # each pair's achieved enters the sum: the error carries the
        # L-value, not one pair's part value (up to 24x off)
        with pytest.raises(ConvergenceError) as err:
            multi_L(s, thetas, PrecisionBudget(1e-13))
        want = _mp_multi(s, thetas)
        assert abs(err.value.achieved - want) <= 1e-12 * abs(want)

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

    def test_table_sized_to_the_angle(self, monkeypatch):
        # witten_L_su2 sizes its zeta(s - k) table to an angle below 1/2 and
        # takes none from 1/2 on (the Euler-Boole sum); the Haar average,
        # whose nodes cover [0, pi], keeps the full table
        entries = []
        ladder = polylog.zeta_ladder

        def counted(*args):
            for value in ladder(*args):
                entries.append(value)
                yield value
        monkeypatch.setattr(polylog, "zeta_ladder", counted)
        budget = PrecisionBudget(1e-10)

        def count(call):
            entries.clear()
            call()
            return len(entries)
        near = count(lambda: witten_L_su2(1.5, 0.2, budget))
        far = count(lambda: witten_L_su2(1.5, 2.0, budget))
        haar = count(lambda: haar_average_su2(1.5, budget))
        full = count(lambda: polylog._part(2.5, 1, budget))
        assert far == 0 < near < full == haar

    @pytest.mark.parametrize("s", [-0.5, 0.3 + 2j, 1.05])
    def test_multi_one_table(self, monkeypatch, s):
        # the 2^r terms of multi_L share one table: no more zeta calls than
        # one table of the same order for all of [0, pi]
        budget = PrecisionBudget(1e-13)
        calls = {"riemann_zeta": 0}
        _count_calls(monkeypatch, calls)
        polylog._part(s + 3.0, 1, budget)
        single = calls["riemann_zeta"]
        calls["riemann_zeta"] = 0
        multi_L(s, [PI / 3, 1.0, 2.0], budget)
        assert 0 < calls["riemann_zeta"] <= single


# the central classes next to the pole of zeta, where 1 - 2^{1-s} cancels,
# and a little further out; the first three are within 1e-13 of s = 1,
# where riemann_zeta raises and eta(s) is log 2 + (s - 1) eta'(1)
_AT_ONE = [1.0, 1.0 + 1e-14, 1.0 - 1e-14]
_NEAR_ONE = [1.0 + 1e-12, 1.0 - 1e-12, 1.0 + 1e-9, 1.0 - 1e-9, 1.0 + 1e-6,
             1.0 - 1e-6, 1.0 + 1e-4, 1.0 + 1e-3, 1.01, 1.0 + 1e-6j,
             1.0 + 1e-8 + 1e-8j, 0.999 + 0.01j]


class TestCentralClasses:
    """The classes 0 and pi are zeta(s) and eta(s), the same value from
    witten_L_su2 and multi_L, against mpmath at 40 digits."""

    @staticmethod
    def _mp(fn, s):
        with mpmath.workdps(40):
            return complex(fn(mpmath.mpc(s)))

    @pytest.mark.parametrize("target", [1e-6, 1e-10, 1e-13])
    @pytest.mark.parametrize("s", _AT_ONE + _NEAR_ONE)
    def test_eta_against_mpmath(self, s, target):
        want = self._mp(mpmath.altzeta, s)
        got = witten_L_su2(s, PI, PrecisionBudget(target))
        assert abs(got - want) <= target * max(1.0, abs(want))

    @pytest.mark.parametrize("s", _AT_ONE)
    def test_eta_at_one_to_rounding(self, s):
        want = self._mp(mpmath.altzeta, s)
        got = witten_L_su2(s, PI, PrecisionBudget(1e-15))
        assert abs(got - want) <= 1e-15 * abs(want)

    @pytest.mark.parametrize("target", [1e-6, 1e-10, 1e-13])
    @pytest.mark.parametrize("s", _NEAR_ONE)
    def test_zeta_against_mpmath(self, s, target):
        want = self._mp(mpmath.zeta, s)
        got = witten_L_su2(s, 0.0, PrecisionBudget(target))
        assert abs(got - want) <= target * max(1.0, abs(want))

    @pytest.mark.parametrize("s", _AT_ONE + _NEAR_ONE + [2.5, -3.5 + 2j])
    def test_one_value_per_class(self, s):
        # eval and multi give the same double; identity sets are zeta(s),
        # which raises within 1e-13 of s = 1
        budget = PrecisionBudget(1e-13)
        eta = witten_L_su2(s, PI, budget)
        for classes in ([PI], [PI, 0.0], [PI, PI, PI]):
            assert repr(multi_L(s, classes, budget)) == repr(eta)
        for classes in ([0.0], [0.0, 0.0], [PI, PI], [0.0, PI, PI]):
            if s in _AT_ONE:
                with pytest.raises(PoleError):
                    multi_L(s, classes, budget)
            else:
                want = repr(riemann_zeta(s, budget))
                assert repr(multi_L(s, classes, budget)) == want

    def test_far_from_one(self):
        # eta at a trivial zero is 0 where 2^{1-s} overflows a double, and
        # between the trivial zeros zeta itself raises; far right, where
        # 2^{1-s} underflows, eta is 1
        for classes in ([PI], [PI, 0.0]):
            assert witten_L_su2(-2000.0, PI) == multi_L(-2000.0, classes) == 0
            with pytest.raises(DomainError):
                multi_L(-2001.0, classes)
            for s in (3000.0, 3000.0 + 5j, 1e300):
                assert witten_L_su2(s, PI) == multi_L(s, classes) == 1.0

    @pytest.mark.parametrize("s", [1.0 + 1e-9, 0.5, 2.5, -3.5 + 2j])
    def test_multi_takes_no_part(self, monkeypatch, s):
        # a set with no regular class takes no polylog part; one with a
        # regular class takes one
        calls = {"_part": 0}
        _count_calls(monkeypatch, calls)
        for classes in ([PI], [0.0, PI], [PI, PI, PI], [0.0, 0.0]):
            multi_L(s, classes)
        assert calls["_part"] == 0
        multi_L(s, [1.0, PI])
        assert calls["_part"] == 1

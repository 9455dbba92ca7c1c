"""Unit-circle polylogarithm: series, continuation, functional equations,
and the exact closed forms at non-positive integer order."""

import cmath
import json
import math
import random
import sys
from fractions import Fraction

import mpmath
import pytest

from wittenzeta import cli, polylog
from wittenzeta.errors import ConvergenceError, DomainError, PoleError
from wittenzeta.exact import Polynomial, RationalFunction
from wittenzeta.numerics import PrecisionBudget, riemann_zeta
from wittenzeta.polylog import (MAX_CLOSED_M, MAX_EVAL_M, polylog_closed_form,
                                polylog_continued, polylog_eval_neg,
                                polylog_series, polylog_via_jonquiere)

mpmath.mp.dps = 30
F = Fraction


def _oracle(s, theta):
    return complex(mpmath.polylog(s, mpmath.exp(1j * mpmath.mpf(theta))))


class TestSeries:
    @pytest.mark.parametrize("s", [2.0, 1.5, 3.0 + 1.0j, 1.2])
    @pytest.mark.parametrize("theta", [math.pi / 3, math.pi / 2, math.pi,
                                       3.0 * math.pi / 2])
    def test_against_mpmath(self, s, theta):
        got = polylog_series(s, theta)
        assert abs(got - _oracle(s, theta)) <= 1e-9

    def test_x_equals_one(self):
        got = polylog_series(2.0, 0.0)
        assert abs(got - math.pi ** 2 / 6.0) <= 1e-10
        with pytest.raises(DomainError, match="Re s > 1"):
            polylog_series(0.5, 0.0)

    def test_dilog_pinned(self):
        # Li_2 at a primitive cube root of unity
        want = complex(-0.5483113556160754788, 0.6766277376064357500)
        assert abs(polylog_series(2.0, 2.0 * math.pi / 3.0) - want) <= 1e-12


class TestContinuation:
    @pytest.mark.parametrize("s", [-0.5, 0.5, -2.5, 0.0 + 1.0j,
                                   -1.5 + 0.5j, 1.0])
    @pytest.mark.parametrize("theta", [math.pi / 3, math.pi / 2, math.pi])
    def test_against_mpmath(self, s, theta):
        got = polylog_continued(s, theta)
        want = _oracle(s, theta)
        assert abs(got - want) <= 1e-8 * (1.0 + abs(want))

    # the series by summation by parts against the zeta(s - k) expansion
    # right of Re s = 1.2 and the Hurwitz formula left of it
    @pytest.mark.parametrize("s", [1.5, 2.0, 3.0, 0.4, 0.8, 1.1, 0.6 + 2j])
    @pytest.mark.parametrize("theta", [math.pi / 3, math.pi,
                                       3.0 * math.pi / 2])
    def test_overlap_with_series(self, s, theta):
        a = polylog_continued(s, theta)
        b = polylog_series(s, theta)
        assert abs(a - b) <= 1e-9

    # s next to 1, where Gamma(1 - s) has its pole, and |Im s| large with
    # theta near 0, where one Hurwitz zeta dwarfs the other
    @pytest.mark.parametrize("s", [1 + 1e-6, 1 - 1e-6, 1 - 1e-9j, 0.8,
                                   -3 - 10j, -3 + 10j, -20 + 5j, -10.3])
    @pytest.mark.parametrize("theta", [0.2, math.pi / 3,
                                       2.0 * math.pi - 0.2])
    def test_hard_points_against_mpmath(self, s, theta):
        got = polylog_continued(s, theta, PrecisionBudget(target=1e-13))
        want = _oracle(s, theta)
        assert abs(got - want) <= 1e-12 * abs(want)

    def test_pinned_values(self):
        # Z(1, i) = -log(1 - i)
        want = complex(-0.3465735902799726547, 0.7853981633974483096)
        assert abs(polylog_continued(1.0, math.pi / 2.0) - want) <= 1e-10
        # Z(1/2, -1) = -eta(1/2)
        want = -0.6048986434216303702
        assert abs(polylog_continued(0.5, math.pi) - want) <= 1e-10


def _mp_li(order, theta, dps=40):
    """Z(order, e^{i theta}) at dps digits: DLMF 25.13.2 with x = theta / 2 pi
    (mod 1), mpmath's polylog at the integer orders where Gamma(1 - order)
    has its pole."""
    with mpmath.workdps(dps):
        order = mpmath.mpc(order)
        angle = mpmath.mpf(theta)
        if order.imag == 0 and order.real == int(order.real):
            return complex(mpmath.polylog(order, mpmath.expj(angle)))
        x = angle / (2 * mpmath.pi)
        x -= mpmath.floor(x)
        a = 1 - order
        phase = mpmath.expjpi(a / 2)
        return complex(mpmath.gamma(a) / (2 * mpmath.pi) ** a
                       * (phase * mpmath.zeta(a, x)
                          + mpmath.zeta(a, 1 - x) / phase))


# the 13 classes of SU(2) the benchmark's su2-grid draws its angles from
_SU2_CLASSES = [f * math.pi for f in (1 / 2, 1 / 3, 2 / 3, 1 / 4, 3 / 4, 1 / 5,
                                      2 / 5, 1 / 6, 5 / 6)] \
    + [0.2, 1.0, 0.0, math.pi]


class TestExpansion:
    """Right of Re s = 1.2 the continuation takes the zeta(s - k) expansion
    below theta = 1/2 and the Euler-Boole sum from 1/2 on: at small theta,
    next to pi from both sides, just below 2 pi, and at and next to the
    integer orders where the expansion's pole pair is one form."""

    @pytest.mark.parametrize("s", [1.3, 1.538, 2.0, 2.0 + 1e-7, 3.0,
                                   4.0 - 0.05j, 2.5 + 3j])
    @pytest.mark.parametrize("theta", [1e-3, 0.05, math.pi - 1e-3,
                                       math.pi + 1e-3, 2.0 * math.pi - 0.08,
                                       2.0 * math.pi / 3.0 - 1e-9,
                                       2.0 * math.pi / 3.0 + 1e-9])
    def test_against_mpmath(self, s, theta):
        got = polylog_continued(s, theta, PrecisionBudget(target=1e-13))
        want = _mp_li(s, theta)
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want))

    def test_no_series_call(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("polylog_series called")
        monkeypatch.setattr(polylog, "polylog_series", forbidden)
        polylog_continued(1.3, 6.2, PrecisionBudget(target=1e-13))
        polylog_continued(2.5 + 3j, 0.05)

    @pytest.mark.parametrize("target", [1e-6, 1e-10, 1e-13])
    @pytest.mark.parametrize("sigma", [1.3, 2.0, 2.5, 3.0 + 1e-9, 3.7,
                                       12.5, 1.25 + 0.5j, 2.5 + 3j, 1.5 - 8j,
                                       3.9 + 9.5j])
    def test_table_sized_to_the_angle(self, sigma, target):
        # sized to one angle below 1/2, or to the larger of two, the table
        # drops only terms below its tolerance, target * 1e-3, there: it
        # gives the full table's value (at pi the two tables are one). One
        # angle from 1/2 on takes the Euler-Boole sum, which meets the claim
        budget = PrecisionBudget(target)
        for parity in (0, 1):
            full = polylog._part(sigma, parity, budget)
            for theta in _SU2_CLASSES:
                sets = [(theta, 0.2)] if theta < math.pi else []
                if theta < polylog._BOOLE_EDGE:
                    sets.append((theta,))
                for thetas in sets:
                    got = polylog._part(sigma, parity, budget, thetas)(theta)
                    want = full(theta)
                    scale = max(abs(want), theta if parity else 1.0)
                    assert abs(got - want) <= 1e-3 * target * scale, thetas
                if theta >= polylog._BOOLE_EDGE:
                    got = polylog._part(sigma, parity, budget, (theta,))(theta)
                    want = _mp_parts(sigma, theta)[parity]
                    assert abs(got - want) <= target * max(1.0, abs(want))

    def test_refuses_an_angle_past_its_reach(self):
        # an internal error: no caller asks a table for an angle it was
        # not sized to; past 2 pi/3 too, as the table is the one about x = 1
        part = polylog._part(2.5, 1, PrecisionBudget(1e-10), (0.2, 0.1))
        part(0.2)
        for theta in (1.0, 3.1):
            with pytest.raises(RuntimeError, match="reach"):
                part(theta)

    @pytest.mark.parametrize("parity", [0, 1])
    def test_parts_at_the_ends(self, parity):
        # P_0(0) = zeta(s), P_1(0) = 0; P_0(pi) = -eta(s), P_1(pi) = 0
        part = polylog._circle_part(2.5 + 1j, parity, PrecisionBudget(1e-13))
        with mpmath.workdps(30):
            zeta = complex(mpmath.zeta(2.5 + 1j))
            eta = complex(mpmath.altzeta(2.5 + 1j))
        assert abs(part(0.0) - (0.0 if parity else zeta)) <= 1e-13
        assert abs(part(math.pi) - (0.0 if parity else -eta)) <= 1e-13


def _mp_hurwitz_values(sigma, theta):
    """P_0, P_1 and Z of order sigma at x = e^{i theta}, 0 < theta < pi, at
    40 digits: DLMF 25.13.2 with w = 1 - sigma, the parts taken before the
    values are rounded, as the cosine and sine of pi w/2 times zeta(w, t) +-
    zeta(w, 1 - t)."""
    with mpmath.workdps(40):
        w = 1 - mpmath.mpc(sigma)
        t = mpmath.mpf(theta) / (2 * mpmath.pi)
        pref = mpmath.gamma(w) / (2 * mpmath.pi) ** w
        za, zb = mpmath.zeta(w, t), mpmath.zeta(w, 1 - t)
        phase = mpmath.expjpi(w / 2)
        return (complex(pref * mpmath.cospi(w / 2) * (za + zb)),
                complex(pref * mpmath.sinpi(w / 2) * (za - zb)),
                complex(pref * (phase * za + zb / phase)))


def _mp_parts(sigma, theta):
    """P_0 and P_1 of order sigma at x = e^{i theta}, 0 < theta <= pi, at 40
    digits: ``_mp_hurwitz_values``, or at an integer order, where its
    Gamma(w) has a pole, mpmath's Clausen functions."""
    if sigma == round(complex(sigma).real):
        with mpmath.workdps(40):
            return (complex(mpmath.clcos(sigma, theta)),
                    complex(mpmath.clsin(sigma, theta)))
    return _mp_hurwitz_values(sigma, theta)[:2]


_NEAR_ZERO_THETAS = (1e-3, 0.3, 1.0, 2.0, 2.9, 3.14)


def _near_zero_grid():
    """150 points (w, theta): |Re w| < 1/4 and Im w 0, U(+-0.24) or
    U(+-3), where the Hurwitz sum S = zeta(w, t) + zeta(w, 1 - t) vanishes
    at w = 0 and Gamma(w) ~ 1/w scales it back."""
    rng = random.Random(7)
    grid = []
    for i in range(150):
        re = rng.uniform(-0.25, 0.25)
        im = (0.0, rng.uniform(-0.24, 0.24), rng.uniform(-3.0, 3.0))[i % 3]
        grid.append((complex(re, im), _NEAR_ZERO_THETAS[i % 6]))
    return grid


class TestNearWZero:
    """Left of Re s = 1.2 every value is one hurwitz_pair pass: next to
    w = 1 - s = 0 its powers enter as 1 + expm1(-w log(n + x)), for the odd
    part as well as for the even part and Z."""

    @pytest.mark.parametrize("theta", _NEAR_ZERO_THETAS)
    def test_against_mpmath(self, theta):
        budget = PrecisionBudget(1e-13)
        for w, th in _near_zero_grid():
            if th != theta:
                continue
            sigma = 1.0 - w
            even, odd, z = _mp_hurwitz_values(sigma, theta)
            got = (polylog._part(sigma, 0, budget)(theta),
                   polylog._part(sigma, 1, budget)(theta),
                   polylog_continued(sigma, theta, budget))
            for g, want in zip(got, (even, odd, z)):
                assert abs(g - want) <= 1e-13 * max(1.0, abs(want)), w

    @pytest.mark.parametrize("s,theta", [(0.9, 1.0), (1.1 - 0.1j, -2.0),
                                         (0.8 + 0.1j, 0.3), (1.0 + 0.2j, 3.0)])
    def test_one_hurwitz_pass(self, monkeypatch, s, theta):
        # every Hurwitz kernel polylog can reach is counted
        calls = []

        def counted(name, fn):
            def wrapper(*args):
                calls.append(name)
                return fn(*args)
            return wrapper
        for name in dir(polylog):
            if name.startswith("hurwitz"):
                monkeypatch.setattr(polylog, name,
                                    counted(name, getattr(polylog, name)))
        polylog_continued(s, theta, PrecisionBudget(1e-13))
        assert calls == ["hurwitz_pair"]


# angles next to 0, which reach the Hurwitz formula and the expansion
# exactly (-1e-4 read as 2 pi - 1e-4, rounded, costs up to 120x a 1e-13
# claim there); s = 0 and 1 take x/(1-x) and -log(1-x) from their parts
_SMALL_ANGLES = [(-1.5, -1e-4), (0.5 + 3j, 1e-5), (0.9 + 10j, 1e-3),
                 (0.762 + 2.895j, 1e-3), (1.3 - 1j, -1e-6), (0.0, 1e-8),
                 (1.0, -1e-8)]


@pytest.mark.parametrize("conjugate", [False, True])
@pytest.mark.parametrize("s,theta", _SMALL_ANGLES)
def test_small_angles_against_mpmath(s, theta, conjugate):
    if conjugate:
        s, theta = complex(s).conjugate(), -theta
    got = polylog_continued(s, theta, PrecisionBudget(1e-13))
    want = _mp_li(s, theta)
    assert abs(got - want) <= 1e-13 * max(1.0, abs(want))


# angles next to a full turn: each is read less 2 * math.pi and the turn's
# low part, 2.45e-16, so that it keeps its digits (s = 0 at 2 pi - 1e-3 was
# 2.45x a 1e-13 claim without the low part)
_NEAR_TURN = [2.0 * math.pi - 1e-3, 2.0 * math.pi - 1e-4]


@pytest.mark.parametrize("theta", _NEAR_TURN + [-t for t in _NEAR_TURN])
@pytest.mark.parametrize("s", [0.0, 1.5, -1.5, 0.5 + 3j, 2.5 - 1j, -7.3])
def test_angles_next_to_a_full_turn_against_mpmath(s, theta):
    got = polylog_continued(s, theta, PrecisionBudget(1e-13))
    want = _mp_li(s, theta, dps=50)
    assert abs(got - want) <= 1e-13 * max(1.0, abs(want))


@pytest.mark.parametrize("theta", _NEAR_TURN)
@pytest.mark.parametrize("m", [0, 1, 4, 9])
def test_eval_neg_next_to_a_full_turn_against_mpmath(m, theta):
    with mpmath.workdps(50):
        want = complex(mpmath.polylog(-m, mpmath.expj(mpmath.mpf(theta))))
    got = polylog_eval_neg(m, theta)
    assert abs(got - want) <= 1e-13 * max(1.0, abs(want))


def test_angle_reads_full_turns_as_one():
    # within rounding of 2 pi k the angle is 0, x = 1, where the
    # continuation is zeta(s); in [-pi, pi] every angle is returned as it
    # is, the sign of 0 too
    for k in (1, -1, 2, 3, 7):
        assert polylog._angle(k * 2.0 * math.pi) == 0.0
    assert polylog_continued(2.0, 2.0 * math.pi) == riemann_zeta(2.0)
    with pytest.raises(DomainError):
        polylog_eval_neg(2, 2.0 * math.pi)
    rng = random.Random(3)
    for theta in [0.0, -0.0, math.pi, -math.pi, 5e-324, -1e-300] \
            + [rng.uniform(-math.pi, math.pi) for _ in range(200)]:
        got = polylog._angle(theta)
        assert got == theta and math.copysign(1.0, got) \
            == math.copysign(1.0, theta)


_X_ONE = [0.0, -0.0, 2.0 * math.pi, -2.0 * math.pi, 4.0 * math.pi]


class TestIdentityClass:
    """x = 1, in every spelling of its angle, is zeta(s) in the
    continuation and the Jonquiere action, as in mpmath."""

    @pytest.mark.parametrize("theta", _X_ONE)
    @pytest.mark.parametrize("s", [2.0, 0.5, -1.5 + 3j, 3.0 + 4j])
    @pytest.mark.parametrize("target", [1e-10, 1e-13])
    def test_is_zeta(self, s, theta, target):
        budget = PrecisionBudget(target)
        zeta = riemann_zeta(s, budget)
        routes = [polylog_continued]
        if isinstance(s, float):
            routes.append(polylog_via_jonquiere)
        with mpmath.workdps(40):
            want = complex(mpmath.polylog(s, 1))
        for route in routes:
            got = route(s, theta, budget)
            assert repr(got) == repr(zeta)
            assert abs(got - want) <= target * max(1.0, abs(want))

    @pytest.mark.parametrize("theta", _X_ONE)
    def test_pole_at_one(self, theta):
        for route in (polylog_continued, polylog_via_jonquiere):
            with pytest.raises(PoleError):
                route(1.0, theta)


class TestSeriesTail:
    """The series stops on a bound of its tail: each value meets its claim,
    or ConvergenceError is raised (at small theta and just below 2 pi the
    bound needs more terms than the budget allows)."""

    @pytest.mark.parametrize("s,theta", [(1.3, 6.2), (1.538, math.pi / 12),
                                         (1.7, 0.05),
                                         (2.3, 2.0 * math.pi - 0.08)])
    @pytest.mark.parametrize("target", [1e-6, 1e-10, 1e-13])
    def test_within_claim_or_raises(self, s, theta, target):
        want = _mp_li(s, theta)
        try:
            got = polylog_series(s, theta, PrecisionBudget(target=target))
        except ConvergenceError:
            assert target < 1e-6  # the loosest target always converges
            return
        assert abs(got - want) <= target * max(1.0, abs(want))

    def test_cli_within_claim_or_exit_4(self, capsys):
        code = cli.main(["polylog", "series", "--s", "1.3", "--theta", "6.2",
                         "--precision", "13", "--format", "json"])
        out = capsys.readouterr().out
        if code == 4:
            return
        assert code == 0
        value = json.loads(out)["value"]
        got = complex(value["re"], value["im"]) if isinstance(value, dict) \
            else complex(value)
        want = _mp_li(1.3, 6.2)
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want))


def _mp_polylog(s, theta):
    """Z(s, e^{i theta}) from mpmath's polylog at 40 digits."""
    with mpmath.workdps(40):
        return complex(mpmath.polylog(mpmath.mpf(s),
                                      mpmath.expj(mpmath.mpf(theta))))


# the grid of the agreement test, then real orders at an integer, next to
# one, and far right of Re s = 1.2
_JONQUIERE_POINTS = [(s, theta) for s in (-0.5, 0.5, 2.5)
                     for theta in (math.pi / 3, math.pi / 2, math.pi)] \
    + [(s, theta) for s in (2.0, 2.0000001, 3.5, 9.5, 20.5, 30.5)
       for theta in (0.3, 1.0, 2.5)]


class TestJonquiere:
    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    def test_integer_limit(self, m):
        got = polylog_via_jonquiere(float(-m), math.pi / 3)
        want = polylog_eval_neg(m, math.pi / 3)
        assert abs(got - want) <= 1e-9

    def test_near_integer_value(self):
        got = polylog_via_jonquiere(2.0000001, math.pi / 3,
                                    PrecisionBudget(1e-13))
        want = _mp_polylog(2.0000001, math.pi / 3)
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want))

    @pytest.mark.parametrize("target", [1e-10, 1e-13])
    @pytest.mark.parametrize("s,theta", _JONQUIERE_POINTS)
    def test_meets_claim_against_mpmath(self, s, theta, target):
        got = polylog_via_jonquiere(s, theta, PrecisionBudget(target))
        want = _mp_polylog(s, theta)
        assert abs(got - want) <= target * max(1.0, abs(want))

    @pytest.mark.parametrize("s", [-0.5, 2.5])
    def test_reads_a_real_complex_s(self, s):
        want = repr(polylog_via_jonquiere(s, 1.0))
        assert repr(polylog_via_jonquiere(complex(s, 0.0), 1.0)) == want
        assert repr(polylog_via_jonquiere(complex(s, -0.0), 1.0)) == want
        with pytest.raises(DomainError, match="requires real s"):
            polylog_via_jonquiere(complex(s, 1.0), 1.0)

    def test_residual_identity(self):
        # e^{-pi i s/2} Z(s,x) + e^{pi i s/2} Z(s,1/x)
        #   = (2 pi)^s / Gamma(s) * zeta(1 - s, theta/(2 pi))
        for s in (-0.5, 0.5, 2.5):
            for theta in (math.pi / 3, math.pi / 2, math.pi):
                zp = polylog_continued(s, theta)
                zm = polylog_continued(s, 2.0 * math.pi - theta)
                lhs = cmath.exp(-0.5j * math.pi * s) * zp \
                    + cmath.exp(0.5j * math.pi * s) * zm
                rhs = complex((2 * mpmath.pi) ** s / mpmath.gamma(s)
                              * mpmath.zeta(1 - s,
                                            theta / (2 * mpmath.pi)))
                assert abs(lhs - rhs) <= 1e-8


# the six displayed closed forms; numerator/denominator coefficients ascending
_CLOSED = {
    0: ([0, 1], [1, -1]),
    1: ([0, 1], [1, -2, 1]),
    2: ([0, -1, -1], [-1, 3, -3, 1]),
    3: ([0, 1, 4, 1], [1, -4, 6, -4, 1]),
    4: ([0, -1, -11, -11, -1], [-1, 5, -10, 10, -5, 1]),
    5: ([0, 1, 26, 66, 26, 1], [1, -6, 15, -20, 15, -6, 1]),
}


class TestClosedForms:
    @pytest.mark.parametrize("m", sorted(_CLOSED))
    def test_coefficients_exact(self, m):
        num, den = _CLOSED[m]
        rf = polylog_closed_form(m)
        # equality of rational functions is exact and normalization-free
        assert rf == RationalFunction(Polynomial(num), Polynomial(den))

    @pytest.mark.parametrize("m", [0, 1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("theta", [math.pi / 3, math.pi / 2,
                                       2.0 * math.pi / 3, math.pi])
    def test_eval_neg_matches_mpmath(self, m, theta):
        got = polylog_eval_neg(m, theta)
        want = _oracle(-m, theta)
        assert abs(got - want) <= 1e-9 * (1.0 + abs(want))

    def test_eval_neg_rejects_one(self):
        with pytest.raises(DomainError):
            polylog_eval_neg(2, 0.0)

    def test_negative_m_is_domain_error(self):
        with pytest.raises(DomainError):
            polylog_closed_form(-1)
        with pytest.raises(DomainError):
            polylog_eval_neg(-1, 1.0)

    @pytest.mark.parametrize("m,theta", [(0, 5e-324), (1, 1e-200),
                                         (30, 1e-11), (30, 1e-300)])
    def test_eval_neg_overflow_is_domain_error(self, m, theta):
        # sin(theta/2)^(m+1) underflows to 0: the value is past a double
        with pytest.raises(DomainError, match="overflows"):
            polylog_eval_neg(m, theta)


def _series_numerator(m):
    """Coefficients of (1 - x)^{m+1} sum_{n <= m+1} n^m x^n up to degree m+1:
    the numerator of Z(-m, x) over (1 - x)^{m+1}, from the power sums alone."""
    powers = [n ** m if n else 0 for n in range(m + 2)]
    one_minus = [(-1) ** k * math.comb(m + 1, k) for k in range(m + 2)]
    out = [sum(one_minus[k] * powers[d - k] for k in range(d + 1))
           for d in range(m + 2)]
    while out[-1] == 0:
        out.pop()
    return out


def _gaussian_horner(coeffs, x):
    """The polynomial with rational coefficients (ascending) at the Gaussian
    rational x = (re, im), as (re, im)."""
    re, im = F(0), F(0)
    for a in reversed(coeffs):
        re, im = re * x[0] - im * x[1] + a, re * x[1] + im * x[0]
    return re, im


def _gaussian_div(u, v):
    norm = v[0] * v[0] + v[1] * v[1]
    return ((u[0] * v[0] + u[1] * v[1]) / norm,
            (u[1] * v[0] - u[0] * v[1]) / norm)


class TestClosedFormOracle:
    """Closed forms against the power-sum series, without the Eulerian
    recurrence; the cot(theta/2) rows against the Eulerian closed form in
    Gaussian rationals; and the float evaluation against mpmath at large
    m."""

    @pytest.mark.parametrize("m", range(MAX_CLOSED_M + 1))
    def test_against_power_sums(self, m):
        rf = polylog_closed_form(m)
        # RationalFunction makes the denominator monic: (x - 1)^{m+1}
        sign = (-1) ** (m + 1)
        assert rf.den.coeffs == tuple(
            sign * (-1) ** k * math.comb(m + 1, k) for k in range(m + 2))
        assert rf.num.coeffs == tuple(sign * c for c in _series_numerator(m))

    @pytest.mark.parametrize("m", range(MAX_CLOSED_M + 1))
    def test_parts_coprime(self, m):
        # the closed form skips the gcd; running it changes no coefficient
        rf = polylog_closed_form(m)
        reduced = RationalFunction(rf.num, rf.den)
        assert (reduced.num.coeffs, reduced.den.coeffs) \
            == (rf.num.coeffs, rf.den.coeffs)

    @pytest.mark.parametrize("m", [10, 14, 20, 30, 64, 100, MAX_EVAL_M])
    @pytest.mark.parametrize("theta", [0.3, 1.0, 2.5, 3.1, 3.14,
                                       math.pi - 1e-6, math.pi - 1e-9, 1e-3,
                                       -3.14, 2.0 * math.pi - 3.1])
    def test_eval_neg_large_m_matches_mpmath(self, m, theta):
        # a value past a double raises; every other meets 1e-13
        with mpmath.workdps(80):
            want = mpmath.polylog(-m, mpmath.expj(mpmath.mpf(theta)))
        if abs(want) > sys.float_info.max:
            with pytest.raises(DomainError, match="overflows"):
                polylog_eval_neg(m, theta)
            return
        got = polylog_eval_neg(m, theta)
        want = complex(want)
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want))

    @pytest.mark.parametrize("m", range(MAX_CLOSED_M + 1))
    def test_cot_rows_against_eulerian_form(self, m):
        # x = (c + i)/(c - i) is e^{i theta} for c = cot(theta/2): the
        # Eulerian closed form there equals -[m = 0]/2 + (i/2)^{m+1} Q_m(c)
        rf = polylog_closed_form(m)
        poly = polylog._cot_poly(m)
        i_power = [(1, 0), (0, 1), (-1, 0), (0, -1)][(m + 1) % 4]
        for c in (F(0), F(1, 3), F(7, 2), F(-5, 4)):
            x = (F(c * c - 1, c * c + 1), F(2 * c, c * c + 1))
            got = _gaussian_div(_gaussian_horner(rf.num.coeffs, x),
                                _gaussian_horner(rf.den.coeffs, x))
            q = sum(a * c ** k for k, a in enumerate(poly)) / 2 ** (m + 1)
            want = (i_power[0] * q - F(int(m == 0), 2), i_power[1] * q)
            assert got == want

    def test_maximum_m(self):
        # the float route's bound is its own: the last m whose cot rows
        # fit in a double
        assert polylog_closed_form(MAX_CLOSED_M).num.coeffs
        assert polylog_eval_neg(MAX_EVAL_M, 1.0) != 0
        assert max(polylog._cot_poly(MAX_EVAL_M)) < sys.float_info.max
        with pytest.raises(OverflowError):
            float(max(polylog._cot_poly(MAX_EVAL_M + 1)))
        with pytest.raises(DomainError):
            polylog_closed_form(MAX_CLOSED_M + 1)
        with pytest.raises(DomainError):
            polylog_eval_neg(MAX_EVAL_M + 1, 1.0)


class TestParityIdentities:
    _grid = [k * math.pi / 6.0 for k in range(1, 12)]

    @pytest.mark.parametrize("theta", _grid)
    def test_z0_sum(self, theta):
        total = polylog_eval_neg(0, theta) + polylog_eval_neg(0, -theta)
        assert abs(total - (-1.0)) <= 1e-12

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("theta", _grid)
    def test_parity(self, m, theta):
        total = polylog_eval_neg(m, theta) \
            + (-1.0) ** m * polylog_eval_neg(m, -theta)
        assert abs(total) <= 1e-10

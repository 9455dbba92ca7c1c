"""Acceptance suite: one test (or test group) per shipped criterion, with
pinned tolerances. Three literal sub-criteria are recorded as strict
expected failures because they contradict values the same catalog forces
exactly; the corrected statements are asserted alongside and the analysis
lives in the project decision notes.
"""

import cmath
import math
import random
from fractions import Fraction

import pytest

from wittenzeta import (absolute_limit, bernoulli_convolution_check,
                        derivative_at_minus2, eval_at_int_s,
                        factorization_check, haar_average_finite,
                        haar_average_su2, mt_series, multi_L,
                        polylog_closed_form, polylog_eval_neg,
                        special_value_neg_even, special_value_su3,
                        su3_cong_minus1_limit, verify_zero, witten_L_su2,
                        witten_su3_continued)
from wittenzeta.errors import PoleError
from wittenzeta.exact import Polynomial, RationalFunction
from wittenzeta.polylog import polylog_via_jonquiere
from wittenzeta import su3
from wittenzeta.numerics import DEFAULT_BUDGET
from wittenzeta.su3 import MBParams
from wittenzeta.witten_core import Q8, S3, GaussianRational, \
    finite_witten_L_exact

F = Fraction
PI = math.pi
ZETA3 = 1.202056903159594285
CATALAN = 0.9159655941772190151


# -- 1. polylog closed forms -------------------------------------------------

_CLOSED = {
    0: ([0, 1], [1, -1]),
    1: ([0, 1], [1, -2, 1]),
    2: ([0, -1, -1], [-1, 3, -3, 1]),
    3: ([0, 1, 4, 1], [1, -4, 6, -4, 1]),
    4: ([0, -1, -11, -11, -1], [-1, 5, -10, 10, -5, 1]),
    5: ([0, 1, 26, 66, 26, 1], [1, -6, 15, -20, 15, -6, 1]),
}


@pytest.mark.parametrize("m", sorted(_CLOSED))
def test_criterion_01_closed_forms_exact(m):
    num, den = _CLOSED[m]
    assert polylog_closed_form(m) == \
        RationalFunction(Polynomial(num), Polynomial(den))


# -- 2. Jonquiere residual ---------------------------------------------------

@pytest.mark.parametrize("s", [-0.5, 0.5, 2.5])
@pytest.mark.parametrize("theta", [PI / 3, PI / 2, PI])
def test_criterion_02_jonquiere_residual(s, theta):
    # e^{-i pi s/2} Z(s, x) + e^{i pi s/2} Z(s, 1/x)
    #   = (2 pi)^s / Gamma(s) zeta(1 - s, theta/2pi)  (DLMF 25.13.2),
    # the right side from mpmath's Hurwitz zeta; at most 4.3e-14 off
    import mpmath
    mpmath.mp.dps = 30
    lhs = cmath.exp(-0.5j * PI * s) * polylog_via_jonquiere(s, theta) \
        + cmath.exp(0.5j * PI * s) * polylog_via_jonquiere(s, -theta)
    two_pi = 2 * mpmath.pi
    rhs = complex(two_pi ** s / mpmath.gamma(s)
                  * mpmath.zeta(1 - s, mpmath.mpf(theta) / two_pi))
    assert abs(lhs - rhs) <= 1e-10


# -- 3. Z(0) and parity identities -------------------------------------------

_THETA_GRID = [k * PI / 6.0 for k in range(1, 12)]


@pytest.mark.parametrize("theta", _THETA_GRID)
def test_criterion_03_z0_identity(theta):
    total = polylog_eval_neg(0, theta) + polylog_eval_neg(0, -theta)
    assert abs(total + 1.0) <= 1e-12


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("theta", _THETA_GRID)
def test_criterion_03_parity(m, theta):
    total = polylog_eval_neg(m, theta) \
        + (-1.0) ** m * polylog_eval_neg(m, -theta)
    assert abs(total) <= 1e-10


# -- 4. SU(2) special values -------------------------------------------------

@pytest.mark.parametrize("theta,want", [
    (0.0, -1.0 / 12.0), (PI / 3, 1.0), (PI / 2, 0.5),
    (2 * PI / 3, 1.0 / 3.0), (PI, 0.25),
])
def test_criterion_04_values_at_minus_one(theta, want):
    assert abs(witten_L_su2(-1.0, theta) - want) <= 1e-10


@pytest.mark.parametrize("m", [2, 4])
@pytest.mark.parametrize("theta", [0.0, PI / 5, PI / 2, PI])
def test_criterion_04_even_zeros(m, theta):
    assert special_value_neg_even(m, theta) == 0  # exact path
    assert abs(witten_L_su2(float(-m), theta)) <= 1e-9  # float path


# -- 5. derivative at s = -2 -------------------------------------------------

def test_criterion_05_derivative_anchors():
    assert abs(derivative_at_minus2(0.0)
               - (-ZETA3 / (4 * PI ** 2))) <= 1e-9
    assert abs(derivative_at_minus2(PI)
               - 7 * ZETA3 / (4 * PI ** 2)) <= 1e-9
    assert abs(derivative_at_minus2(PI / 2) - 2 * CATALAN / PI) <= 1e-9


def test_criterion_05_positivity_and_continuity():
    for k in range(1, 51):
        assert derivative_at_minus2(k * PI / 51.0) > 0.0
    target = derivative_at_minus2(PI)
    gaps = [abs(derivative_at_minus2(PI - h) - target)
            for h in (0.1, 0.05, 0.025)]
    assert gaps[1] <= 0.6 * gaps[0] and gaps[2] <= 0.6 * gaps[1]


# -- 6. independent oracle at theta = pi -------------------------------------

def test_criterion_06_central_difference_oracle():
    import mpmath
    mpmath.mp.dps = 30
    h = mpmath.mpf("1e-5")

    def eta_zeta(s):
        return (1 - mpmath.mpf(2) ** (1 - s)) * mpmath.zeta(s)

    fd = float((eta_zeta(-2 + h) - eta_zeta(-2 - h)) / (2 * h))
    assert abs(derivative_at_minus2(PI) - fd) <= 1e-6


# -- 7. multi-character ------------------------------------------------------

def test_criterion_07_pairs_vanish():
    rng = random.Random(20260824)
    pairs = [(rng.uniform(0.1, PI - 0.1), rng.uniform(0.1, PI - 0.1))
             for _ in range(9)] + [(1.1, 1.1)]
    for t1, t2 in pairs:
        assert abs(multi_L(-2.0, [t1, t2])) <= 1e-10


def test_criterion_07_triple():
    assert abs(multi_L(-2.0, [PI / 2] * 3) - PI / 4.0) <= 1e-10


# -- 8. Haar average ---------------------------------------------------------

def test_criterion_08_haar_average():
    assert abs(haar_average_su2(-1.0) - 1.0) <= 1e-8
    assert abs(haar_average_su2(-2.0)) <= 1e-12
    assert abs(haar_average_su2(3.0) - 1.0) <= 1e-8


# -- 9. SU(3) exact zeros and the convolution lemma --------------------------

@pytest.mark.parametrize("n", range(1, 9))
def test_criterion_09_exact_zeros(n):
    assert special_value_su3(n) == 0


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
def test_criterion_09_convolution_lemma(n):
    lhs, rhs = bernoulli_convolution_check(n)
    assert lhs == rhs
    if n == 2:
        assert lhs == F(1, 14400)


# -- 10. SU(3) continuation --------------------------------------------------

@pytest.mark.parametrize("s", [2.0, 3.0, 1.5])
def test_criterion_10_series_agreement(s):
    # each within its 1e-10 claim
    v = witten_su3_continued(s)
    assert abs(v - mt_series(s)) <= 2e-10 * max(1.0, abs(v))


@pytest.mark.parametrize("s", [1.5, -0.4])
def test_criterion_10_strip_independence(s):
    # right of Re s = 5/6 both strips take the even line, so the n = 2
    # side is its residue line, as in verify
    a = witten_su3_continued(s, MBParams(n=1))
    b = su3._mb_direct(complex(s), MBParams(n=2).M, DEFAULT_BUDGET)
    assert abs(a - b) <= 1e-6


@pytest.mark.xfail(
    strict=True,
    reason="s = 1/2 is a genuine simple pole of the continuation (residue "
           "sqrt(2) zeta(1/2) != 0, confirmed by symmetric difference "
           "probes on two contours), so no finite value exists there to "
           "compare across strips; both strip choices raise PoleError")
def test_criterion_10_strip_independence_at_half():
    a = witten_su3_continued(0.5, MBParams(n=1))
    b = witten_su3_continued(0.5, MBParams(n=2))
    assert abs(a - b) <= 1e-6


def test_criterion_10_substitute_residue_at_half():
    # corrected check at the same point: two contours, right of m(s) = 1
    # and of M = 6 residues, see the same simple pole with residue
    # sqrt(2) zeta(1/2)
    from wittenzeta.verify import su3_residue_at_half
    want = math.sqrt(2.0) * -1.4603545088095868129
    for got in su3_residue_at_half():
        assert abs(got - want) <= 1e-6
    with pytest.raises(PoleError):
        witten_su3_continued(0.5)


# -- 11. p-adic symbolic zeros -----------------------------------------------

def test_criterion_11_zeros_and_values():
    p = RationalFunction.variable("p")
    for family, m, s in (("sl2zp", 1, -1), ("sl2zp", 1, -2),
                         ("sl2cong", 1, -2), ("sl3cong", 1, -1),
                         ("sl3cong", 1, -2), ("su3cong", 1, -2),
                         ("su3cong", 1, 0)):
        is_zero, _ = verify_zero(family, m, s)
        assert is_zero, (family, m, s)
    is_zero, witness = verify_zero("su3cong", 1, -1)
    assert not is_zero
    assert witness == -2 * p ** 6 / (1 + p + p ** 2 + p ** 3 + p ** 4)
    assert eval_at_int_s("sl2zp", 0, 0) == -4 / (p - 1)
    from wittenzeta.padic import sl2zp_z0
    assert sl2zp_z0(0) == p + 4
    assert sl2zp_z0(-2) == p * (p * p - 1)


@pytest.mark.xfail(
    strict=True,
    reason="the sl2cong value at s = -1 is -p^(3m+1)/(p+1), exactly as the "
           "same catalog states elsewhere, so it is not identically zero; "
           "the zero claim at this point contradicts that closed form")
def test_criterion_11_sl2cong_zero_at_minus_one():
    is_zero, _ = verify_zero("sl2cong", 1, -1)
    assert is_zero


@pytest.mark.xfail(
    strict=True,
    reason="the su3cong witness at s = -1 is negative: -2p^(8m-2)/[5]_p "
           "from both the factored and the u-form numerator; the positive "
           "sign quoted for it is inconsistent with either derivation")
def test_criterion_11_su3cong_witness_positive_sign():
    p = RationalFunction.variable("p")
    _, witness = verify_zero("su3cong", 1, -1)
    assert witness == 2 * p ** 6 / (1 + p + p ** 2 + p ** 3 + p ** 4)


# -- 12. factorization identities --------------------------------------------

@pytest.mark.parametrize("family", ["sl3cong", "su3cong"])
def test_criterion_12_factorization(family):
    ok, diff = factorization_check(family)
    assert ok and not diff


# -- 13. absolute limits -----------------------------------------------------

def test_criterion_13_limits_exact():
    s = RationalFunction.variable("s")
    assert absolute_limit("sl2cong") == (s + 2) / (s - 1)
    assert absolute_limit("sl3cong") == \
        (s + 1) * (s + 2) / ((s - F(1, 2)) * (s - F(2, 3)))
    assert absolute_limit("su3cong") == \
        s * (s + 2) / ((s - F(1, 2)) * (s - F(2, 3)))


def test_criterion_13_su3_minus1_limit_magnitude():
    lim = su3_cong_minus1_limit()
    assert abs(lim) == F(2, 5)
    assert lim == F(-2, 5)  # sign follows the witness in criterion 11


@pytest.mark.xfail(
    strict=True,
    reason="the p -> 1 limit of -2p^(8m-2)/[5]_p is -2/5; the quoted +2/5 "
           "carries the same sign slip as the s = -1 witness")
def test_criterion_13_su3_minus1_limit_positive_sign():
    assert su3_cong_minus1_limit() == F(2, 5)


def test_criterion_13_numeric_extrapolation():
    for family in ("sl2cong", "sl3cong", "su3cong"):
        rf = absolute_limit(family)
        for s in (-1, -2):
            v1 = float(eval_at_int_s(family, 1, s, F(10001, 10000)))
            v2 = float(eval_at_int_s(family, 1, s, F(100001, 100000)))
            assert abs((10.0 * v2 - v1) / 9.0 - float(rf(F(s)))) <= 1e-6


# -- 14. finite-group oracle -------------------------------------------------

@pytest.mark.parametrize("table", [S3, Q8])
def test_criterion_14_finite_anchor(table):
    vals = [finite_witten_L_exact(table, -2, c)
            for c in range(table.n_classes)]
    assert vals[0] == GaussianRational.of(table.order)
    assert all(v.is_zero for v in vals[1:])


def test_criterion_14_finite_haar():
    rng = random.Random(20260824)
    for _ in range(10):
        s = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        for table in (S3, Q8):
            assert abs(haar_average_finite(table, s) - 1.0) <= 1e-12

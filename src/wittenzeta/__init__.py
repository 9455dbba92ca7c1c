"""Witten zeta and L-functions for SU(2), SU(3), finite groups, and
p-adic group families."""

from .errors import (ConstraintError, ConvergenceError, DegenerateLimitError,
                     DomainError, PoleError, WittenZetaError)
from .exact import Polynomial, RationalFunction, bernoulli, zeta_neg_int
from .numerics import DEFAULT_BUDGET, PrecisionBudget, riemann_zeta
from .padic import (FAMILIES, absolute_limit, eval_at_int_s,
                    factorization_check, su3_cong_minus1,
                    su3_cong_minus1_limit, verify_zero)
from .polylog import (polylog_closed_form, polylog_continued, polylog_eval_neg,
                      polylog_series, polylog_via_jonquiere)
from .su2 import (derivative_at_minus2, haar_average_su2, multi_L,
                  special_value_neg_even, witten_L_su2)
from .su3 import (MBParams, bernoulli_convolution_check, mt_series,
                  special_value_su3, witten_su3_continued)
from .witten_core import (BUILTIN_TABLES, CharacterTable, GaussianRational,
                          finite_witten_L, finite_witten_L_exact,
                          haar_average_finite, load_table, parse_table)

__version__ = "0.1.0"

__all__ = [
    "BUILTIN_TABLES", "CharacterTable", "ConstraintError",
    "ConvergenceError", "DEFAULT_BUDGET",
    "DegenerateLimitError", "DomainError", "FAMILIES", "GaussianRational",
    "MBParams", "PoleError", "Polynomial", "PrecisionBudget",
    "RationalFunction", "WittenZetaError",
    "absolute_limit", "bernoulli", "bernoulli_convolution_check",
    "derivative_at_minus2", "eval_at_int_s", "factorization_check",
    "finite_witten_L", "finite_witten_L_exact", "haar_average_finite",
    "haar_average_su2", "load_table", "mt_series", "multi_L", "parse_table",
    "polylog_closed_form", "polylog_continued", "polylog_eval_neg",
    "polylog_series", "polylog_via_jonquiere", "riemann_zeta",
    "special_value_neg_even", "special_value_su3", "su3_cong_minus1",
    "su3_cong_minus1_limit", "verify_zero", "witten_L_su2",
    "witten_su3_continued", "zeta_neg_int",
]

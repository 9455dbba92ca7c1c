"""Witten zeta and L-functions for SU(2), SU(3), finite groups, and
p-adic group families.

``import wittenzeta`` registers each library module in ``sys.modules`` and
on the package through ``importlib.util.LazyLoader``: a module's source is
compiled and run when one of its attributes is first read, so a ``zeta``
command runs only the modules it uses. The public names are served from
``_EXPORTS`` (name -> module) by the module ``__getattr__``. Before Python
3.12, LazyLoader takes no lock: two threads that first touch one module at
the same time may both run it; nothing in the package uses threads.
"""

import importlib.util
import sys
from importlib.machinery import PathFinder

__version__ = "0.1.0"

_MODULES = {
    "errors": ("ConstraintError", "ConvergenceError", "DegenerateLimitError",
               "DomainError", "PoleError", "WittenZetaError"),
    "exact": ("Polynomial", "RationalFunction", "bernoulli", "zeta_neg_int"),
    "numerics": ("DEFAULT_BUDGET", "PrecisionBudget", "riemann_zeta"),
    "padic": ("FAMILIES", "absolute_limit", "eval_at_int_s",
              "factorization_check", "su3_cong_minus1",
              "su3_cong_minus1_limit", "verify_zero"),
    "polylog": ("polylog_closed_form", "polylog_continued",
                "polylog_eval_neg", "polylog_series",
                "polylog_via_jonquiere"),
    "su2": ("derivative_at_minus2", "haar_average_su2", "multi_L",
            "special_value_neg_even", "witten_L_su2"),
    "su3": ("MBParams", "bernoulli_convolution_check", "mt_series",
            "special_value_su3", "witten_su3_continued"),
    "witten_core": ("BUILTIN_TABLES", "CharacterTable", "GaussianRational",
                    "finite_witten_L", "finite_witten_L_exact",
                    "haar_average_finite", "load_table", "parse_table"),
}
_EXPORTS = {name: module for module, names in _MODULES.items()
            for name in names}
__all__ = sorted(_EXPORTS)


def _register_lazy(name):
    spec = PathFinder.find_spec(f"{__name__}.{name}", __path__)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)  # defers: runs nothing yet
    return module


globals().update({name: _register_lazy(name) for name in _MODULES})


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(globals()[module], name)


def __dir__():
    return sorted({*globals(), *_EXPORTS})

"""Bent class functions on small finite groups.

Compute irreducible character tables, represent class functions in the
character basis, decide bentness by derivative sums (and by spectra), evaluate
the coefficient criteria for Z_n, V4 and Q8, rule bent functions out on any
group with the L1 impossibility certificate, construct certified bent
functions from CAZAC sequences, and search coefficient space with
reproducible seeds.

``criteria``, ``ledger`` and ``search`` load on first use; every name stays
importable from ``bentgroups``.
"""

import importlib.util as _util
import sys as _sys

# each eager submodule's ``__all__`` is the one list of what it exports here
from .bentness import *
from .characters import *
from .class_functions import *
from .constructions import *
from .errors import *
from .groups import *

#: Modules that run on first attribute access, since ``chars``, ``check`` and
#: ``construct`` call none of them, and the names re-exported from each.  They
#: sit in ``sys.modules`` from the start, where perfbench's tracer finds them.
_LAZY = {
    "criteria": ("CriterionOutcome", "ImpossibilityCertificate", "abelian_magnitude_necessary",
                 "cyclic_criterion", "cyclic_lag_sums", "cyclic_satisfied",
                 "impossibility_certificate", "klein_criterion", "q8_equation_residuals",
                 "solve_magnitude_system", "solve_q8_system"),
    "ledger": ("LedgerEntry", "PaperLedger", "build_ledger", "ledger_to_json"),
    "search": ("SearchConfig", "SearchResult", "Strategy", "objective", "result_to_json",
               "run_search"),
}
_LAZY_MODULE = {name: module for module, names in _LAZY.items() for name in names}


def _load_on_first_use(module: str):
    """Register the submodule unexecuted; ``from .module import name`` runs it."""
    spec = _util.find_spec(f"{__name__}.{module}")
    spec.loader = _util.LazyLoader(spec.loader)
    lazy = _util.module_from_spec(spec)
    _sys.modules[spec.name] = lazy
    spec.loader.exec_module(lazy)
    return lazy


criteria = _load_on_first_use("criteria")
ledger = _load_on_first_use("ledger")
search = _load_on_first_use("search")


def __getattr__(name: str) -> object:
    if name in _LAZY_MODULE:
        return getattr(globals()[_LAZY_MODULE[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = sorted([name for name in globals() if not name.startswith("_")] + list(_LAZY_MODULE))
__version__ = "0.1.0"

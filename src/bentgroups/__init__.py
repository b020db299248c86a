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


def _load_on_first_use(module: str):
    """Register the submodule unexecuted; ``from .module import name`` runs it."""
    spec = _util.find_spec(f"{__name__}.{module}")
    spec.loader = _util.LazyLoader(spec.loader)
    lazy = _util.module_from_spec(spec)
    _sys.modules[spec.name] = lazy
    spec.loader.exec_module(lazy)
    return lazy


#: Modules that run on first use, since ``chars``, ``check`` and ``construct``
#: call none of them.  They sit in ``sys.modules`` from the start, where
#: perfbench's tracer finds them, and each one's ``__all__`` lists its names.
criteria = _load_on_first_use("criteria")
ledger = _load_on_first_use("ledger")
search = _load_on_first_use("search")

#: the eager names, frozen before ``import bentgroups.cli`` can bind ``cli``
_EAGER = [name for name in globals() if not name.startswith("_")]


def __getattr__(name: str) -> object:
    """``__all__`` or a lazy module's name; reading one runs the modules it reads."""
    if name == "__all__":
        return sorted(_EAGER + [n for lazy in (criteria, ledger, search) for n in lazy.__all__])
    # ``from bentgroups import cli`` asks here before importing it; no lazy name starts with "_"
    if name != "cli" and not name.startswith("_"):
        for lazy in (criteria, ledger, search):
            if name in lazy.__all__:
                return getattr(lazy, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"

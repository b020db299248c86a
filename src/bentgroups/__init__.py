"""Bent class functions on small finite groups.

Compute irreducible character tables, represent class functions in the
character basis, decide bentness by derivative sums (and by spectra), evaluate
the coefficient criteria for Z_n, V4 and Q8, rule bent functions out on any
group with the L1 impossibility certificate, construct certified bent
functions from CAZAC sequences, and search coefficient space with
reproducible seeds.
"""

from .bentness import (
    BENT,
    NOT_BENT,
    NOT_UNIMODULAR,
    BentReport,
    derivative_sum,
    derivative_sums,
    is_bent,
    is_bent_spectral,
    oracle_verdicts,
    report_to_json,
    spectrum,
)
from .characters import (
    CharacterTable,
    OrthogonalityReport,
    character_table,
    table_to_csv,
    table_to_json,
    verify_orthogonality,
)
from .class_functions import (
    ClassFunction,
    class_function_from_json,
    class_function_to_json,
    from_coefficients,
    from_values,
    is_unimodular,
    load_class_function,
    save_class_function,
)
from .constructions import (
    CertifiedFunction,
    SequenceKind,
    SequenceSpec,
    character_twist,
    global_phase,
    make_bent_cyclic,
    quadratic_chirp,
    translate,
    zadoff_chu,
)
from .criteria import (
    CriterionOutcome,
    ImpossibilityCertificate,
    abelian_magnitude_necessary,
    cyclic_criterion,
    cyclic_lag_sums,
    cyclic_satisfied,
    impossibility_certificate,
    klein_criterion,
    q8_equation_residuals,
    solve_magnitude_system,
    solve_q8_system,
)
from .errors import CapabilityError, ConstructionError, NumericDegeneracyError
from .groups import (
    CATALOG,
    Group,
    element_order,
    group_from_json,
    group_from_label,
    group_to_json,
    inverse,
    make_abelian,
    make_cyclic,
    make_named,
    multiply,
)
from .ledger import LedgerEntry, PaperLedger, build_ledger, ledger_to_json
from .search import (
    SearchConfig,
    SearchResult,
    Strategy,
    objective,
    result_to_json,
    run_search,
)

__version__ = "0.1.0"

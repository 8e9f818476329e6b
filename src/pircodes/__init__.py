"""Binary PIR and batch codes: constructions, exact verifiers, and search tools."""

from .budget import Budget
from .errors import CheckpointError, FileFormatError, UsageError
from .gf2 import (
    BitMatrix,
    Code,
    LinearCode,
    Word,
    extend_even_parity,
    hamming_distance,
    min_distance,
    puncture,
    solve_unit,
)
from .recovery import (
    Encoder,
    ExplicitEncoder,
    LinearEncoder,
    Query,
    RecoveryFamily,
    ServingPlan,
    find_disjoint_family,
    is_recovery_set,
    minimal_recovery_sets,
    serve_query,
    verify_batch,
    verify_pir,
)
from .designs import (
    PackingDesign,
    exact_packing,
    greedy_packing,
    is_packing,
    packing_bound,
    packing_number_formula,
)
from .constructions import (
    ConstructedCode,
    build_packing_pir,
    build_pir3,
    extend_for_even_t,
    linear_length_table,
)
from .hamming import (
    HammingCode,
    Line,
    build_hamming,
    check_no_3pir_any_encoder,
    check_triple_geometry,
    lines_pg,
)
from .bounds import (
    A2Entry,
    BoundReport,
    check_mindist_bound,
    max_code_size,
    optimality_report_3pir,
)
from .search import (
    canonical_form,
    encoder_exists_3pir,
    is_canonical,
    open11_hunt,
    pir_hunt,
    recoverable_functions,
    search_codes,
)

__version__ = "0.1.0"

"""measpace: finite measure spaces, their ultrafilters, and all of their
extensions.

Sigma-algebras on finite ground sets are stored as atom partitions,
measures as exact extended-rational atom values.  The embeddings module
characterizes every measure space a given one embeds into via extension
kits (blow-up fibers plus a pasted null part) and cross-checks the
characterization against brute-force enumeration.
"""
from .core import (
    INFINITY,
    ONE,
    ZERO,
    ExtReal,
    GroundSet,
    MeasureSpace,
    SigmaAlgebra,
    SubsetMask,
    all_sigma_algebras,
    generate_sigma_algebra,
    mask_key,
    trace_algebra,
    transfer_mask,
)
from .embeddings import (
    DecompositionRecord,
    EmbeddingReport,
    ExtensionKit,
    OutsidePointClass,
    PointAssignment,
    auto_fibers,
    check_measurable_embedding,
    check_measure_embedding,
    classify_outside_points,
    construct_extension,
    decompose_extension,
    enumerate_extensions,
    full_dfamily,
    identity_kit,
    measure_embedding_report,
    validate_kit,
)
from .errors import (
    GroundMismatchError,
    InputFormatError,
    InvalidKitError,
    InvariantError,
    MeaspaceError,
    NotMeasurableError,
    PreconditionError,
    SizeCapError,
)
from .filters import (
    SetFamily,
    UltrafilterRecord,
    ZeroOneMeasure,
    classify_family,
    enumerate_ultrafilters,
    extend_to_ultrafilter,
    lift_to_superspace,
    measure_from_ultrafilter,
    principal_ultrafilter,
    restrict_by_trace,
    ultrafilter_from_01_measure,
)
from .products import (
    ProductSpace,
    lift_ultrafilter,
    pair_label,
    product_space,
    project_ultrafilter,
    y_section,
)

__version__ = "0.1.0"

import types as _types

__all__ = [
    name
    for name, obj in list(globals().items())
    if not name.startswith("_") and not isinstance(obj, _types.ModuleType)
]

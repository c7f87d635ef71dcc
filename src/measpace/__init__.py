"""measpace: finite measure spaces, their ultrafilters, and all of their
extensions.

Sigma-algebras on finite ground sets are stored as atom partitions,
measures as exact extended-rational atom values.  The embeddings module
characterizes every measure space a given one embeds into via extension
kits (blow-up fibers plus a pasted null part).

The names below are loaded from their submodule on first use, so
``import measpace`` (and so every CLI call) runs only the submodules a
caller touches.
"""
from importlib import import_module as _import_module

__version__ = "0.1.0"

__all__ = [
    "INFINITY", "ONE", "ZERO", "ExtReal", "GroundSet", "MeasureSpace",
    "SigmaAlgebra", "SubsetMask", "all_sigma_algebras", "generate_sigma_algebra",
    "mask_key", "trace_algebra", "transfer_mask",
    "DecompositionRecord", "EmbeddingReport", "ExtensionKit", "OutsidePointClass",
    "PointAssignment", "auto_fibers", "check_measurable_embedding",
    "check_measure_embedding", "classify_outside_points", "construct_extension",
    "decompose_extension", "enumerate_extensions", "full_dfamily", "identity_kit",
    "measure_embedding_report", "validate_kit",
    "GroundMismatchError", "InputFormatError", "InvalidKitError", "InvariantError",
    "MeaspaceError", "NotMeasurableError", "PreconditionError", "SizeCapError",
    "SetFamily", "UltrafilterRecord", "ZeroOneMeasure", "classify_family",
    "enumerate_ultrafilters", "extend_to_ultrafilter", "lift_to_superspace",
    "measure_from_ultrafilter", "principal_ultrafilter", "restrict_by_trace",
    "ultrafilter_from_01_measure",
    "ProductSpace", "lift_ultrafilter", "pair_label", "product_space",
    "project_ultrafilter", "y_section",
]

# the submodule each exported name lives in; __all__ lists these names in
# the same order, grouped by submodule
_EXPORTS = {
    "core": __all__[0:13],
    "embeddings": __all__[13:29],
    "errors": __all__[29:37],
    "filters": __all__[37:48],
    "products": __all__[48:54],
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

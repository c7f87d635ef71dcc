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

# the submodule each exported name lives in; __all__ lists these names in
# this order
_EXPORTS = {
    "core": (
        "INFINITY", "ONE", "ZERO", "ExtReal", "GroundSet", "MeasureSpace",
        "SigmaAlgebra", "SubsetMask", "all_sigma_algebras", "generate_sigma_algebra",
        "mask_key", "trace_algebra", "transfer_mask",
    ),
    "embeddings": (
        "DecompositionRecord", "EmbeddingReport", "ExtensionKit", "OutsidePointClass",
        "auto_fibers", "check_measurable_embedding", "check_measure_embedding",
        "classify_outside_points", "construct_extension", "decompose_extension",
        "enumerate_extensions", "full_dfamily", "identity_kit",
        "measure_embedding_report", "validate_kit",
    ),
    "errors": (
        "GroundMismatchError", "InputFormatError", "InvalidKitError", "InvariantError",
        "MeaspaceError", "NotMeasurableError", "PreconditionError", "SizeCapError",
    ),
    "filters": (
        "SetFamily", "UltrafilterRecord", "ZeroOneMeasure", "classify_family",
        "enumerate_ultrafilters", "extend_to_ultrafilter", "lift_to_superspace",
        "measure_from_ultrafilter", "principal_ultrafilter", "restrict_by_trace",
        "ultrafilter_from_01_measure",
    ),
    "products": (
        "ProductSpace", "lift_ultrafilter", "pair_label", "product_space",
        "project_ultrafilter", "y_section",
    ),
}
__all__ = [name for names in _EXPORTS.values() for name in names]
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

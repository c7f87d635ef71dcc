"""A CLI call loads only the modules its verb uses, and the package loads
its exports on first use.

The child processes run with ``-S`` (no site hooks, which may import
modules of their own), ``-B`` (no bytecode) and ``src`` on the path, so
``sys.modules`` shows exactly what measpace imports.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

import measpace

SRC = Path(__file__).resolve().parents[1] / "src"
FIXTURES = Path(__file__).parent / "fixtures"

# `python -m measpace.cli ARGV`, then report the exit code and every loaded module
CLI_CHILD = """
import io, json, runpy, sys
from contextlib import redirect_stdout
sys.argv = ["measpace.cli", *json.loads(sys.argv[1])]
with redirect_stdout(io.StringIO()):
    try:
        runpy.run_module("measpace.cli", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""

PINNED_ALL = [
    "INFINITY", "ONE", "ZERO", "ExtReal", "GroundSet", "MeasureSpace",
    "SigmaAlgebra", "SubsetMask", "all_sigma_algebras", "generate_sigma_algebra",
    "mask_key", "trace_algebra", "transfer_mask", "DecompositionRecord",
    "EmbeddingReport", "ExtensionKit", "OutsidePointClass", "auto_fibers", "check_measurable_embedding", "check_measure_embedding",
    "classify_outside_points", "construct_extension", "decompose_extension",
    "enumerate_extensions", "full_dfamily", "identity_kit",
    "measure_embedding_report", "validate_kit", "GroundMismatchError",
    "InputFormatError", "InvalidKitError", "InvariantError", "MeaspaceError",
    "NotMeasurableError", "PreconditionError", "SizeCapError", "SetFamily",
    "UltrafilterRecord", "ZeroOneMeasure", "classify_family",
    "enumerate_ultrafilters", "extend_to_ultrafilter", "lift_to_superspace",
    "measure_from_ultrafilter", "principal_ultrafilter", "restrict_by_trace",
    "ultrafilter_from_01_measure", "ProductSpace", "lift_ultrafilter",
    "pair_label", "product_space", "project_ultrafilter", "y_section",
]

# the CLI module itself runs as __main__
CORE_ONLY = {"measpace.core", "measpace.jsonio"}
EMBEDDINGS, FILTERS, PRODUCTS = "measpace.embeddings", "measpace.filters", "measpace.products"
PARTITIONS = "measpace.partitions"


def _child(code: str, *args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "-S", "-B", "-c", code, *args],
        env={"PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0 and not proc.stderr, proc.stderr
    return json.loads(proc.stdout)


def fx(name: str) -> str:
    return str(FIXTURES / name)


VERB_CASES = [
    (["atoms", "--space", fx("space1.json")], CORE_ONLY,
     {EMBEDDINGS, FILTERS, PRODUCTS, PARTITIONS}),
    (["measure", "--space", fx("space1.json"), "--set", '["b","c"]'], CORE_ONLY,
     {EMBEDDINGS, FILTERS, PRODUCTS, PARTITIONS}),
    (["thick", "--space", fx("big_y.json"), "--set", '["a"]'], CORE_ONLY,
     {EMBEDDINGS, FILTERS, PRODUCTS, PARTITIONS}),
    (["generate", "--space", fx("generators.json")], CORE_ONLY,
     {EMBEDDINGS, FILTERS, PRODUCTS, PARTITIONS}),
    (["check-embed", "--small", fx("small_x.json"), "--big", fx("big_y.json")], {EMBEDDINGS},
     {FILTERS, PRODUCTS}),
    (["validate-kit", "--kit", fx("kit_identity.json")], {EMBEDDINGS}, {FILTERS, PRODUCTS}),
    (["decompose", "--big", fx("big_split.json"), "--set", '["a"]'], {EMBEDDINGS},
     {FILTERS, PRODUCTS}),
    (["classify-points", "--big", fx("big_split.json"), "--set", '["a"]'], {EMBEDDINGS},
     {FILTERS, PRODUCTS}),
    (["enumerate-extensions", "--space", fx("small_x.json"), "--extra", "p,q"], {EMBEDDINGS},
     {FILTERS, PRODUCTS}),
    (["ultrafilters", "--space", fx("space1.json")], {FILTERS}, {EMBEDDINGS, PRODUCTS}),
    (["classify-family", "--space", fx("family_abc.json")], {FILTERS}, {EMBEDDINGS, PRODUCTS}),
    (["product", "--small", fx("left.json"), "--big", fx("right.json")], {PRODUCTS, FILTERS},
     {EMBEDDINGS}),
]


@pytest.mark.parametrize("argv,loaded,absent", VERB_CASES, ids=[c[0][0] for c in VERB_CASES])
def test_a_cli_call_loads_only_what_its_verb_uses(argv, loaded, absent):
    result = _child(CLI_CHILD, json.dumps(argv))
    assert result["code"] == 0
    modules = set(result["modules"])
    assert loaded <= modules
    assert not (absent | {"dataclasses", "inspect"}) & modules


def test_a_usage_error_loads_no_verb_module():
    result = _child(CLI_CHILD, json.dumps(["construct"]))
    assert result["code"] == 2
    assert not {EMBEDDINGS, FILTERS, PRODUCTS} & set(result["modules"])


def test_importing_the_package_loads_no_submodule():
    code = "import json, sys, measpace; print(json.dumps(sorted(sys.modules)))"
    modules = _child(code)
    assert [m for m in modules if m.startswith("measpace")] == ["measpace"]
    assert "dataclasses" not in modules


def test_importing_core_loads_only_errors_and_core():
    code = "import json, sys, measpace.core; print(json.dumps(sorted(sys.modules)))"
    modules = _child(code)
    assert [m for m in modules if m.startswith("measpace")] == [
        "measpace", "measpace.core", "measpace.errors",
    ]


def test_all_is_pinned_and_every_name_resolves_in_a_fresh_process():
    assert measpace.__all__ == PINNED_ALL
    code = (
        "import json, measpace; names = [n for n in measpace.__all__ if getattr(measpace, n) is None];"
        "ns = {}; exec('from measpace import *', ns);"
        "print(json.dumps([names, sorted(set(ns) - {'__builtins__'})]))"
    )
    unresolved, starred = _child(code)
    assert unresolved == []
    assert starred == sorted(PINNED_ALL)


def test_exports_are_the_submodule_objects():
    from measpace import core, embeddings, errors, filters, products

    homes = (core, embeddings, errors, filters, products)
    for name in PINNED_ALL:
        value = getattr(measpace, name)
        assert any(getattr(home, name, None) is value for home in homes), name
    assert set(PINNED_ALL) <= set(dir(measpace))


def test_an_unknown_attribute_raises_the_standard_error():
    with pytest.raises(AttributeError, match=r"^module 'measpace' has no attribute 'nope'$"):
        measpace.nope  # noqa: B018
    with pytest.raises(ImportError, match="cannot import name 'nope'"):
        from measpace import nope  # noqa: F401

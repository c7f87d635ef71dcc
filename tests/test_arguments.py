"""The argument contract: every exported function refuses an argument of
the wrong type with InputFormatError, never with an AttributeError, a
TypeError or a PreconditionError raised deep inside, and so do the mask
operators and GroundSet.mask."""
import inspect

import pytest

import measpace
from measpace import (
    ExtensionKit,
    GroundMismatchError,
    InputFormatError,
    MeasureSpace,
    SetFamily,
    SigmaAlgebra,
    ZeroOneMeasure,
    identity_kit,
    principal_ultrafilter,
    product_space,
)

from support import G, space


def _valid_calls():
    """One accepted argument tuple for each exported function."""
    g = G("a", "b")
    ms = space(g, (["a"], ["b"]), (1, 0))
    big = space(G("a", "b", "p"), (["a", "p"], ["b"]), (1, 0))
    x = big.ground.mask(["a", "b"])
    a = g.mask(["a"])
    uf = principal_ultrafilter(ms.algebra, a)
    ps = product_space(ms, space(G("y"), (["y"],), (1,)))
    h = principal_ultrafilter(ps.product.algebra, ps.product.algebra.atoms[0])
    return {
        "all_sigma_algebras": (g,),
        "generate_sigma_algebra": (g, [a]),
        "mask_key": (a,),
        "trace_algebra": (ms.algebra, a),
        "transfer_mask": (a, g),
        "auto_fibers": ({a: 1},),
        "check_measurable_embedding": (ms.algebra, big.algebra),
        "check_measure_embedding": (ms, big),
        "classify_outside_points": (big, x),
        "construct_extension": (identity_kit(ms),),
        "decompose_extension": (big, x),
        "enumerate_extensions": (ms, ["q"]),
        "full_dfamily": (ms.algebra, ms.algebra),
        "identity_kit": (ms,),
        "measure_embedding_report": (ms, big),
        "validate_kit": (identity_kit(ms),),
        "classify_family": (uf.family,),
        "enumerate_ultrafilters": (ms.algebra,),
        "extend_to_ultrafilter": (SetFamily(ms.algebra, {g.full}),),
        "lift_to_superspace": (uf, ms.algebra),
        "measure_from_ultrafilter": (uf,),
        "principal_ultrafilter": (ms.algebra, a),
        "restrict_by_trace": (uf, a),
        "ultrafilter_from_01_measure": (ZeroOneMeasure(ms),),
        "lift_ultrafilter": (ps, uf, "y"),
        "pair_label": ("a", "y"),
        "product_space": (ms, ms),
        "project_ultrafilter": (ps, h),
        "y_section": (ps, ps.product.ground.full, "y"),
    }


def _refused_calls():
    """(name, call) for every required argument of every exported function
    replaced by None in an otherwise accepted call, and for the other
    refusals the contract covers."""
    valid = _valid_calls()
    functions = [name for name in measpace.__all__ if inspect.isfunction(getattr(measpace, name))]
    assert sorted(valid) == sorted(functions)
    cases = []
    for name in functions:
        function, args = getattr(measpace, name), valid[name]
        function(*args)  # the accepted call is accepted
        for i, parameter in enumerate(inspect.signature(function).parameters.values()):
            if parameter.default is inspect.Parameter.empty:
                bad = args[:i] + (None,) + args[i + 1 :]
                cases.append((f"{name}[{parameter.name}]", lambda f=function, bad=bad: f(*bad)))
    algebra, a = valid["trace_algebra"]
    cases.append(("trace_algebra[target=5]", lambda: measpace.trace_algebra(algebra, a, 5)))
    for op in ("__or__", "__and__", "__sub__", "issubset", "__le__", "isdisjoint"):
        cases.append((f"SubsetMask.{op}", lambda op=op: getattr(a, op)(None)))
    cases.append(("GroundSet.mask('ab')", lambda: a.ground.mask("ab")))
    ms, kit = valid["identity_kit"][0], valid["validate_kit"][0]
    for name, call in (
        ("auto_fibers", lambda: measpace.auto_fibers(5)),
        ("ExtensionKit[dfamily]", lambda: ExtensionKit(ms, kit.pasted, 5, {})),
        ("ExtensionKit[fibers]", lambda: ExtensionKit(ms, kit.pasted, kit.dfamily, 5)),
        ("ExtensionKit[a pasted family]", lambda: ExtensionKit(ms, kit.pasted, {a: 5}, {})),
        ("SetFamily", lambda: SetFamily(ms.algebra, 5)),
        ("enumerate_extensions", lambda: measpace.enumerate_extensions(ms, 5)),
        ("generate_sigma_algebra", lambda: measpace.generate_sigma_algebra(a.ground, 5)),
        ("SigmaAlgebra", lambda: SigmaAlgebra(a.ground, 5)),
        ("MeasureSpace", lambda: MeasureSpace(ms.algebra, 5)),
    ):
        cases.append((f"{name}[container=5]", call))
    return cases


CASES = _refused_calls()


def test_every_required_argument_is_sampled():
    # 49 required arguments of the 29 exported functions, one target of
    # the wrong type, six mask operators, one label string and nine
    # containers that are none
    assert len(CASES) == 49 + 1 + 6 + 1 + 9


@pytest.mark.parametrize("call", [call for _, call in CASES], ids=[name for name, _ in CASES])
def test_an_argument_of_the_wrong_type_is_an_input_error(call):
    with pytest.raises(InputFormatError, match=r" must be an? [\w ]+, got (None|5|'ab')$"):
        call()


def test_mask_operators_refuse_a_mask_over_another_ground():
    a = G("a", "b").mask(["a"])
    other = G("a", "c").mask(["a"])
    for op in ("__or__", "__and__", "__sub__", "issubset", "__le__", "isdisjoint"):
        with pytest.raises(GroundMismatchError, match="^a set is over a different ground set$"):
            getattr(a, op)(other)


def test_principal_ultrafilter_refuses_an_atom_over_another_ground():
    # an atom over another ground is a ground refusal, not a PreconditionError
    algebra = SigmaAlgebra.discrete(G("a", "b"))
    with pytest.raises(GroundMismatchError, match="^an atom is over a different ground set$"):
        principal_ultrafilter(algebra, G("a", "c").mask(["a"]))

"""Product spaces, sections, ultrafilter lifting and projection."""
import pytest

from measpace import (
    ExtReal,
    GroundSet,
    INFINITY,
    MeasureSpace,
    ONE,
    PreconditionError,
    SetFamily,
    SigmaAlgebra,
    ZERO,
    all_sigma_algebras,
    classify_family,
    enumerate_ultrafilters,
    generate_sigma_algebra,
    lift_ultrafilter,
    pair_label,
    product_space,
    project_ultrafilter,
    y_section,
)

from support import (
    G,
    alg,
    is_sigma_finite,
    lift_ultrafilter_oracle,
    outcome,
    project_ultrafilter_oracle,
    space,
)


def test_pair_label_escaping():
    assert pair_label("a", "1") == "(a|1)"
    assert pair_label("a|b", "c\\d") == "(a\\|b|c\\\\d)"


def test_product_space_example():
    left = space(G("a", "b", "c"), (["a"], ["b", "c"]), (1, 2))
    right = space(G("1", "2"), (["1"], ["2"]), (3, 0))
    ps = product_space(left, right)
    assert ps.product.ground.labels == (
        "(a|1)", "(a|2)", "(b|1)", "(b|2)", "(c|1)", "(c|2)",
    )
    assert [a.labels() for a in ps.product.algebra.atoms] == [
        ("(a|1)",),
        ("(a|2)",),
        ("(b|1)", "(c|1)"),
        ("(b|2)", "(c|2)"),
    ]
    assert ps.product.atom_values == (ExtReal.of(3), ZERO, ExtReal.of(6), ZERO)


def test_product_convention_zero_times_inf():
    left = space(G("a"), (["a"],), ("inf",))
    right = space(G("1"), (["1"],), (0,))
    ps = product_space(left, right)
    assert ps.product.atom_values == (ZERO,)
    # sigma-finiteness is reported, not required
    assert not is_sigma_finite(left)
    assert is_sigma_finite(right) and is_sigma_finite(ps.product)


def test_product_with_trivial_right_is_left_copy():
    left = space(G("a", "b", "c"), (["a"], ["b", "c"]), ("1/2", "inf"))
    right = space(G("y"), (["y"],), (1,))
    ps = product_space(left, right)
    assert [len(a.labels()) for a in ps.product.algebra.atoms] == [1, 2]
    assert ps.product.atom_values == left.atom_values


def test_rectangle_generation_equals_atom_product_up_to_3():
    values = (ONE, ExtReal.of(2), INFINITY)
    for nl in range(1, 4):
        gl = GroundSet(tuple("abc"[:nl]))
        for la in all_sigma_algebras(gl):
            left = MeasureSpace(la, tuple(values[i % 3] for i in range(len(la.atoms))))
            for nr in range(1, 4):
                gr = GroundSet(tuple("123"[:nr]))
                for ra in all_sigma_algebras(gr):
                    right = MeasureSpace(
                        ra, tuple(values[i % 3] for i in range(len(ra.atoms)))
                    )
                    ps = product_space(left, right)
                    rects = [
                        ps.rectangle(b, c)
                        for b in la.sets()
                        for c in ra.sets()
                    ]
                    regenerated = generate_sigma_algebra(ps.product.ground, rects)
                    assert regenerated == ps.product.algebra
                    # measure of a rectangle = product of measures, 0*inf = 0
                    for b in la.sets():
                        for c in ra.sets():
                            assert ps.product.measure_of(
                                ps.rectangle(b, c)
                            ) == left.measure_of(b) * right.measure_of(c)


def test_y_section_examples():
    left = space(G("a", "b", "c"), (["a"], ["b"], ["c"]), (1, 1, 1))
    right = space(G("1", "2"), (["1"], ["2"]), (1, 1))
    ps = product_space(left, right)
    rect = ps.rectangle(left.ground.mask(["a"]), right.ground.full)
    assert y_section(ps, rect, "1") == left.ground.mask(["a"])
    assert y_section(ps, ps.product.ground.empty, "2") == left.ground.empty
    union = ps.rectangle(left.ground.mask(["a"]), right.ground.mask(["1"])) | ps.rectangle(
        left.ground.mask(["b", "c"]), right.ground.mask(["2"])
    )
    assert y_section(ps, union, "2") == left.ground.mask(["b", "c"])
    with pytest.raises(PreconditionError):
        y_section(ps, rect, "9")


def test_section_always_left_measurable():
    left = space(G("a", "b", "c"), (["a"], ["b", "c"]), (1, 1))
    right = space(G("1", "2"), (["1", "2"],), (1,))
    ps = product_space(left, right)
    for s in ps.product.algebra.sets():
        for y in right.ground.labels:
            assert left.algebra.member(y_section(ps, s, y))


def test_lift_examples():
    left = space(G("a", "b"), (["a"], ["b"]), (1, 1))
    right = space(G("1", "2"), (["1"], ["2"]), (1, 1))
    ps = product_space(left, right)
    f = enumerate_ultrafilters(left.algebra)[0]
    lifted = lift_ultrafilter(ps, f, "1")
    assert lifted.kernel.labels() == ("(a|1)",)
    assert lifted.has_cip

    left2 = space(G("a", "b", "c"), (["a"], ["b", "c"]), (1, 1))
    ps2 = product_space(left2, right)
    f2 = enumerate_ultrafilters(left2.algebra)[1]
    assert f2.kernel.labels() == ("b", "c")
    lifted2 = lift_ultrafilter(ps2, f2, "2")
    assert lifted2.kernel.labels() == ("(b|2)", "(c|2)")

    trivial_right = space(G("1", "2"), (["1", "2"],), (1,))
    ps3 = product_space(left, trivial_right)
    with pytest.raises(PreconditionError):
        lift_ultrafilter(ps3, f, "1")


def test_project_example_and_trivial_left():
    left = space(G("a", "b"), (["a"], ["b"]), (1, 1))
    right = space(G("1", "2"), (["1"], ["2"]), (1, 1))
    ps = product_space(left, right)
    h = enumerate_ultrafilters(ps.product.algebra)[0]
    assert h.kernel.labels() == ("(a|1)",)
    lrec, rrec = project_ultrafilter(ps, h)
    assert lrec.kernel.labels() == ("a",)
    assert rrec.kernel.labels() == ("1",)

    point = space(G("a"), (["a"],), (1,))
    ps2 = product_space(point, right)
    h2 = enumerate_ultrafilters(ps2.product.algebra)[0]
    lrec2, _ = project_ultrafilter(ps2, h2)
    assert lrec2.kernel == point.ground.full

    coarse_left = space(G("a", "b"), (["a", "b"],), (1,))
    ps3 = product_space(coarse_left, right)
    h3 = enumerate_ultrafilters(ps3.product.algebra)[0]
    with pytest.raises(PreconditionError):
        project_ultrafilter(ps3, h3)


def test_lift_project_roundtrip_and_no_free_cip_up_to_3():
    # all factors with measurable singletons and <= 3 points
    for nl in range(1, 4):
        left = MeasureSpace(
            SigmaAlgebra.discrete(GroundSet(tuple("abc"[:nl]))),
            tuple(ONE for _ in range(nl)),
        )
        for nr in range(1, 4):
            right = MeasureSpace(
                SigmaAlgebra.discrete(GroundSet(tuple("123"[:nr]))),
                tuple(ONE for _ in range(nr)),
            )
            ps = product_space(left, right)
            for h in enumerate_ultrafilters(ps.product.algebra):
                assert not (h.is_free and h.has_cip)
                lrec, rrec = project_ultrafilter(ps, h)
                assert ps.rectangle(lrec.kernel, rrec.kernel) == h.kernel
            for f in enumerate_ultrafilters(left.algebra):
                for y in right.ground.labels:
                    lifted = lift_ultrafilter(ps, f, y)
                    back_l, back_r = project_ultrafilter(ps, lifted)
                    assert back_l.kernel == f.kernel
                    assert back_r.kernel == right.ground.singleton(y)
                    assert all(
                        y_section(ps, m, y) in f.members for m in lifted.members
                    )


def _factors_up_to_3(labels):
    for n in range(1, 4):
        for algebra in all_sigma_algebras(GroundSet(tuple(labels[:n]))):
            yield MeasureSpace(algebra, tuple(ONE for _ in algebra.atoms))


def test_lift_and_project_match_oracle_up_to_3():
    # every pair of factors on up to 3 points, measurable singletons or not
    lifts = projections = 0
    for left in _factors_up_to_3("abc"):
        whole = classify_family(SetFamily(left.algebra, frozenset({left.ground.full})))
        for right in _factors_up_to_3("123"):
            ps = product_space(left, right)
            for f in enumerate_ultrafilters(left.algebra) + [whole]:
                for y in right.ground.labels + ("9",):
                    assert outcome(lift_ultrafilter, ps, f, y) == outcome(
                        lift_ultrafilter_oracle, ps, f, y
                    )
                    lifts += 1
            for h in enumerate_ultrafilters(ps.product.algebra):
                assert outcome(project_ultrafilter, ps, h) == outcome(
                    project_ultrafilter_oracle, ps, h
                )
                projections += 1
    assert (lifts, projections) == (616, 196)

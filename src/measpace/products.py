"""Product measurable spaces and the ultrafilter lifting/projection calculus.

The product algebra is generated by the measurable rectangles; for finite
factors it equals the algebra whose atoms are the pairwise products of
the factor atoms, which is how it is built (the test suite regenerates it
from the rectangles).  The product measure multiplies atom values with
the convention 0 * inf = 0.
"""
from __future__ import annotations

from .core import (
    MAX_POINTS,
    GroundSet,
    MeasureSpace,
    SigmaAlgebra,
    SubsetMask,
    _require,
    _set_bits,
    _setattr,
    _Value,
)
from .errors import GroundMismatchError, PreconditionError, SizeCapError
from .filters import UltrafilterRecord, principal_ultrafilter


def _escape(label: str, what: str) -> str:
    return _require(label, str, what).replace("\\", "\\\\").replace("|", "\\|")


def pair_label(left: str, right: str) -> str:
    """Canonical composite label "(x|y)"; "|" in inputs is escaped."""
    return f"({_escape(left, 'a left label')}|{_escape(right, 'a right label')})"


def _rectangle_bits(b: SubsetMask, c: SubsetMask) -> int:
    """B x C as raw product bits: row i of the product is C shifted by i * |right|."""
    return sum(c.bits << i * c.ground.size for i in b.indices())


class ProductSpace(_Value):
    """A left and right factor plus their product measure space.

    Pair labels are ordered lexicographically by (left index, right
    index), so the point (i, j) sits at bit i * right_size + j.
    """

    __slots__ = __match_args__ = ("left", "right", "product")

    def __init__(self, left: MeasureSpace, right: MeasureSpace, product: MeasureSpace):
        _setattr(self, "left", left)
        _setattr(self, "right", right)
        _setattr(self, "product", product)

    def pair_bit(self, i: int, j: int) -> int:
        return i * self.right.ground.size + j

    def rectangle(self, b: SubsetMask, c: SubsetMask) -> SubsetMask:
        """The product set B x C as a mask over the product ground."""
        _set_bits(b, self.left.ground, "a rectangle's left side")
        _set_bits(c, self.right.ground, "a rectangle's right side")
        return SubsetMask(self.product.ground, _rectangle_bits(b, c))


def product_space(left: MeasureSpace, right: MeasureSpace) -> ProductSpace:
    """Form the product of two measure spaces.

    Its atoms are the products of a left atom and a right atom.
    """
    _require(left, MeasureSpace, "the left factor")
    _require(right, MeasureSpace, "the right factor")
    n = left.ground.size * right.ground.size
    if n > MAX_POINTS:
        raise SizeCapError(f"product would have {n} points; the cap is {MAX_POINTS}")
    labels = tuple(
        pair_label(lx, ry) for lx in left.ground.labels for ry in right.ground.labels
    )
    ground = GroundSet(labels)
    atoms = []
    values = []
    for la, lv in zip(left.algebra.atoms, left.atom_values):
        for ra, rv in zip(right.algebra.atoms, right.atom_values):
            atoms.append(SubsetMask(ground, _rectangle_bits(la, ra)))
            values.append(lv * rv)
    # the least point of la x ra is min(la) * |right| + min(ra), so atoms come in least-point order
    product = MeasureSpace(SigmaAlgebra(ground, tuple(atoms)), tuple(values))
    return ProductSpace(left=left, right=right, product=product)


def y_section(ps: ProductSpace, product_set: SubsetMask, y: str) -> SubsetMask:
    """The section {x : (x, y) in the set}, measurable on the left factor."""
    _require(ps, ProductSpace, "a product").product.algebra.require_member(product_set)
    if _require(y, str, "y") not in ps.right.ground.labels:
        raise PreconditionError(f"{y!r} is not a point of the right factor")
    j = ps.right.ground.index(y)
    bits = 0
    for i in range(ps.left.ground.size):
        if product_set.bits >> ps.pair_bit(i, j) & 1:
            bits |= 1 << i
    return SubsetMask(ps.left.ground, bits)


def lift_ultrafilter(ps: ProductSpace, f: UltrafilterRecord, y: str) -> UltrafilterRecord:
    """Lift a left-factor ultrafilter to the product along the slice at y.

    Requires {y} to be measurable on the right.  The rectangles
    F x {y} form a filter-base whose kernel K x {y}, K the atom kernel of
    f, is an atom of the product; the lift is that atom's principal
    ultrafilter, which has c.i.p., and the y-section of each member stays
    in f.
    """
    _require(ps, ProductSpace, "a product")
    if _require(f, UltrafilterRecord, "an ultrafilter").algebra != ps.left.algebra:
        raise GroundMismatchError("the ultrafilter is not over the left factor")
    if not f.is_ultrafilter:
        raise PreconditionError("needs an ultrafilter")
    if _require(y, str, "y") not in ps.right.ground.labels:
        raise PreconditionError(f"{y!r} is not a point of the right factor")
    y_mask = ps.right.ground.singleton(y)
    if not ps.right.algebra.member(y_mask):
        raise PreconditionError(f"the singleton {{{y}}} is not measurable on the right")
    return principal_ultrafilter(ps.product.algebra, ps.rectangle(f.kernel, y_mask))


def project_ultrafilter(
    ps: ProductSpace, h: UltrafilterRecord
) -> tuple[UltrafilterRecord, UltrafilterRecord]:
    """Project a product ultrafilter to its two factors.

    Requires singletons to be measurable in both factors and h to have
    c.i.p.  The left projection extends {B : B x Y in h}; the right one
    is symmetric.  The kernel of h is then one point (i, j), that family
    is the up-set of {i}, and the projections are the principal
    ultrafilters of {i} and {j}, so the kernels reconstitute the kernel
    of h.
    """
    _require(ps, ProductSpace, "a product")
    if _require(h, UltrafilterRecord, "an ultrafilter").algebra != ps.product.algebra:
        raise GroundMismatchError("the ultrafilter is not over the product")
    if not (h.is_ultrafilter and h.has_cip):
        raise PreconditionError("needs an ultrafilter with c.i.p.")
    for side, ms in (("left", ps.left), ("right", ps.right)):
        if not ms.algebra.is_discrete:
            raise PreconditionError(f"singletons are not measurable in the {side} factor")

    i, j = divmod(h.kernel.bits.bit_length() - 1, ps.right.ground.size)
    left = principal_ultrafilter(ps.left.algebra, SubsetMask(ps.left.ground, 1 << i))
    right = principal_ultrafilter(ps.right.algebra, SubsetMask(ps.right.ground, 1 << j))
    return left, right

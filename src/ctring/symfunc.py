"""Modules over products of symmetric groups as Schur expansions (their
irreducible multiplicities), symmetric group characters, and character
arithmetic for products of symmetric groups.  The h basis is kept only as
a test oracle (tests/oracles.py).

Irreducible characters are evaluated by border-strip removal on beta sets
(first-column hook lengths); all arithmetic is exact.

The character table of S_{m_1} x ... x S_{m_r} is the Kronecker product of
the factors' tables, and it is never formed: a module's class values, and
the inner products that give tensor multiplicities, are r contractions with
the factor tables, one factor at a time (Van Loan, "The ubiquitous Kronecker
product", J. Comput. Appl. Math. 2000).  For C = prod p(m_i) classes this
costs C * sum p(m_i) instead of C^2, and it keeps only the factor tables and
C-length data per group.

A TensorSymFunc keeps its class values once they are known: given at
construction by whoever already knows them (psi.invariants_frobenius_s
takes an invariant module's values from its coset averages, and
psi.graded_decomposition each degree's from the tensor-character rule),
else formed by the first class_values() call.  A Kronecker product of two modules, or a
module's square, then costs one pointwise product and one contraction.
"""

from collections import namedtuple
from functools import lru_cache
from math import factorial, prod
from operator import mul
from types import MappingProxyType

from .errors import CheckFailed
from .partitions import check_partition, kostka_column, partitions


@lru_cache(maxsize=None)
def _beta_set(shape):
    length = len(shape)
    return tuple(shape[i] + length - 1 - i for i in range(length))


def _shape_from_beta(beta):
    # beta strictly decreasing; drop the staircase and trailing zeros
    length = len(beta)
    shape = tuple(beta[i] - (length - 1 - i) for i in range(length))
    return tuple(p for p in shape if p > 0)


@lru_cache(maxsize=None)
def irreducible_character(shape, cycle_type) -> int:
    """Character of the irreducible labeled by `shape` at class `cycle_type`.

    Recursive border-strip removal: subtracting a part t from one first-column
    hook length, when the result is fresh and nonnegative, removes a border
    strip whose height is the number of hook lengths jumped over.
    """
    shape = check_partition(shape)
    cycle_type = check_partition(cycle_type)
    if sum(shape) != sum(cycle_type):
        raise ValueError("shape and cycle type must have equal size")
    if not shape:
        return 1
    t = cycle_type[0]
    rest = cycle_type[1:]
    beta = list(_beta_set(shape))
    beta_set = set(beta)
    total = 0
    for idx, b in enumerate(beta):
        nb = b - t
        if nb < 0 or nb in beta_set:
            continue
        jumped = sum(1 for c in beta if nb < c < b)
        new_beta = sorted(beta[:idx] + [nb] + beta[idx + 1 :], reverse=True)
        total += (-1) ** jumped * irreducible_character(
            _shape_from_beta(tuple(new_beta)), rest
        )
    return total


def cycle_type_size(cycle_type, n: int) -> int:
    """Number of permutations in the conjugacy class of the given cycle type."""
    mult: dict = {}
    for part in cycle_type:
        mult[part] = mult.get(part, 0) + 1
    centralizer = 1
    for part, m in mult.items():
        centralizer *= part**m * factorial(m)
    return factorial(n) // centralizer


class TensorSymFunc:
    """A module over a product of symmetric groups: a sum of tensor products
    of Schur functions across fixed factor degrees.

    Keys are tuples of partitions, one per factor, each an irreducible's
    label.  `coeffs` is a read-only mapping, as memoised values are shared
    by every caller.  `_values` holds the module's class values once they
    are known (_from_terms, class_values), and is None before.
    """

    __slots__ = ("degrees", "basis", "coeffs", "_values")

    def __init__(self, degrees, basis, coeffs=None):
        # Only the Schur basis exists; `basis` stays, as argument and
        # attribute, for callers that name it and digests that record it.
        if basis != "s":
            raise ValueError("basis must be 's'")
        self.degrees = tuple(degrees)
        self.basis = basis
        clean = {}
        for key, c in (coeffs or {}).items():
            key = tuple(check_partition(lam) for lam in key)
            if tuple(sum(lam) for lam in key) != self.degrees:
                raise ValueError("factor degrees do not match")
            if type(c) is not int:
                raise ValueError(f"coefficients must be ints, not {c!r}")
            if c:
                clean[key] = c
        self.coeffs = MappingProxyType(clean)
        self._values = None

    @classmethod
    def _from_terms(cls, degrees, coeffs, values=None):
        """Construct from terms built out of existing ones: keys already valid,
        coefficients already ints; only zero terms are dropped.  `values`, if
        given, are the module's class values in _product_classes(degrees)
        order, a tuple the caller has formed from the same module."""
        self = object.__new__(cls)
        self.degrees = degrees
        self.basis = "s"
        self.coeffs = MappingProxyType({key: c for key, c in coeffs.items() if c})
        self._values = values
        return self

    def __eq__(self, other):
        return (
            isinstance(other, TensorSymFunc)
            and (self.degrees, self.coeffs) == (other.degrees, other.coeffs)
        )

    def __bool__(self):
        return bool(self.coeffs)

    def dimension(self):
        """The dimension of the module: in the Schur basis each factor s_lam
        of degree m has dimension f^lam = K(lam, 1^m), read off one Kostka
        column per degree."""
        return sum(
            c * prod(kostka_column((1,) * sum(lam))[lam] for lam in key)
            for key, c in self.coeffs.items()
        )

    def class_values(self) -> tuple:
        """The module's character at every class of the product group, in
        _product_classes order: the values it was built with, else formed
        factor by factor (_module_character) on the first call and kept, at
        cost C * sum p(m_i) for C classes instead of C^2."""
        if self._values is None:
            self._values = tuple(_module_character(self.degrees, self.coeffs))
        return self._values

    def character(self, class_tuple):
        """Character of the underlying module at a class of the product group,
        given as one cycle type per factor; ValueError on any other tuple."""
        column = _product_classes(self.degrees).index.get(tuple(map(tuple, class_tuple)))
        if column is None:
            raise ValueError(f"not a class of the group: {class_tuple}")
        return self.class_values()[column]


ProductClasses = namedtuple("ProductClasses", "labels index class_sizes")


@lru_cache(maxsize=None)
def _product_classes(sizes) -> ProductClasses:
    """The labels of S_{m_1} x ... x S_{m_r}, one partition per factor in
    partitions(m) order, the first factor most significant; a label names a
    conjugacy class (one cycle type per factor) and an irreducible alike.
    With them, each label's position and each class's size."""
    labels = [()]
    class_sizes = [1]
    for m in sizes:
        parts = partitions(m)
        part_sizes = [cycle_type_size(rho, m) for rho in parts]
        labels = [key + (rho,) for key in labels for rho in parts]
        class_sizes = [size * s for size in class_sizes for s in part_sizes]
    index = {label: i for i, label in enumerate(labels)}
    return ProductClasses(tuple(labels), index, tuple(class_sizes))


@lru_cache(maxsize=None)
def _factor_table(m) -> tuple:
    """The character table of S_m and its transpose: rows chi^lam(rho) by
    lam, then columns by rho, both in partitions(m) order."""
    parts = partitions(m)
    rows = tuple(tuple(irreducible_character(lam, rho) for rho in parts) for lam in parts)
    return rows, tuple(zip(*rows))


def _contract(vector, sizes, transpose) -> list:
    """The vector, indexed row-major by labels, times the Kronecker product
    of the factors' character tables (of their transposes if `transpose`).

    One factor at a time, last first: each contiguous fiber of the last
    index is multiplied by that factor's table, and the index moves to the
    front, so after all r factors the order is restored.  A factor of size
    0 or 1 has the table [[1]] and is skipped.  The cost is C * sum p(m_i)
    for C = prod p(m_i) labels, against C^2 for the product table.
    """
    for m in reversed(sizes):
        if m < 2:
            continue
        rows, columns = _factor_table(m)
        table = columns if transpose else rows
        width = len(table)
        fibers = [vector[i : i + width] for i in range(0, len(vector), width)]
        vector = [sum(map(mul, row, fiber)) for row in table for fiber in fibers]
    return vector


class SymmetricProductGroup:
    """A product of symmetric groups S_{m_1} x ... x S_{m_r}.

    Conjugacy classes and irreducible characters are labeled by tuples of
    partitions, one per factor; characters multiply across factors.
    """

    def __init__(self, sizes):
        self.sizes = tuple(sizes)
        self.order = 1
        for m in self.sizes:
            self.order *= factorial(m)

    def classes(self):
        """(class tuple, class size) pairs."""
        data = _product_classes(self.sizes)
        return list(zip(data.labels, data.class_sizes))

    def tensor_multiplicities(self, mod_a, mod_b) -> dict:
        """Irreducible multiplicities of the tensor product of two modules
        over this group, TensorSymFuncs whose degrees are the group's sizes
        (ValueError otherwise).

        The multiplicity of chi is <chi, f> = sum over classes of size * f *
        chi, over the group order, with f the product of the two modules'
        class values (class_values, formed at most once per module).  The
        inner products are taken factor by factor (_contract), at cost
        C * sum p(m_i) for C classes instead of C^2.  Raises CheckFailed
        unless every multiplicity is a nonnegative int."""
        if not mod_a.degrees == mod_b.degrees == self.sizes:
            raise ValueError("modules do not live over this group")
        product = map(mul, mod_a.class_values(), mod_b.class_values())
        return _multiplicities(self, product, "class function is not a character")


def _multiplicities(group, values, failure) -> dict:
    """{irreducible: multiplicity} of the class function over `group`, a
    SymmetricProductGroup, with the given class values: <chi, f> = sum over
    classes of size * f * chi, over the group order, the sums taken factor
    by factor (_contract).  Raises CheckFailed(failure) unless every
    multiplicity is a nonnegative int."""
    data = _product_classes(group.sizes)
    weighted = list(map(mul, data.class_sizes, values))
    out = {}
    for irrep, total in zip(data.labels, _contract(weighted, group.sizes, False)):
        mult, rest = divmod(total, group.order)
        if rest or mult < 0:
            raise CheckFailed(failure)
        if mult:
            out[irrep] = mult
    return out


def _module_character(sizes, module) -> list:
    """Class values of the module over S_{m_1} x ... x S_{m_r}, `sizes` the
    m_i, with the given irreducible multiplicities: the multiplicity vector
    contracted with the transposed factor tables."""
    index = _product_classes(sizes).index
    vector = [0] * len(index)
    for irrep, c in module.items():
        row = index.get(irrep)
        if row is None:
            raise ValueError(f"not an irreducible of this group: {irrep}")
        vector[row] += c
    return _contract(vector, sizes, True)

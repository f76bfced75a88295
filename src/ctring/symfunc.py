"""Symmetric functions in the h and s bases, symmetric group characters, and
character arithmetic for products of symmetric groups.

Irreducible characters are evaluated by border-strip removal on beta sets
(first-column hook lengths); all arithmetic is exact.
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
    """A sum of tensor products of symmetric functions across fixed factor degrees.

    Keys are tuples of partitions, one per factor; used as Frobenius images of
    modules over a product of symmetric groups.  `coeffs` is a read-only
    mapping, as memoised values are shared by every caller.
    """

    __slots__ = ("degrees", "basis", "coeffs")

    def __init__(self, degrees, basis, coeffs=None):
        if basis not in ("h", "s"):
            raise ValueError("basis must be 'h' or 's'")
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

    @classmethod
    def _from_terms(cls, degrees, basis, coeffs):
        """Construct from terms built out of existing ones: keys already valid,
        coefficients already ints; only zero terms are dropped."""
        self = object.__new__(cls)
        self.degrees = degrees
        self.basis = basis
        self.coeffs = MappingProxyType({key: c for key, c in coeffs.items() if c})
        return self

    def __eq__(self, other):
        return (
            isinstance(other, TensorSymFunc)
            and (self.degrees, self.basis, self.coeffs)
            == (other.degrees, other.basis, other.coeffs)
        )

    def __bool__(self):
        return bool(self.coeffs)

    def __add__(self, other):
        if (self.degrees, self.basis) != (other.degrees, other.basis):
            raise ValueError("mismatched tensor spaces")
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            out[key] = out.get(key, 0) + c
        return TensorSymFunc._from_terms(self.degrees, self.basis, out)

    def tensor(self, other):
        if self.basis != other.basis:
            raise ValueError("mismatched bases")
        out = {}
        for k1, c1 in self.coeffs.items():
            for k2, c2 in other.coeffs.items():
                key = k1 + k2
                out[key] = out.get(key, 0) + c1 * c2
        return TensorSymFunc._from_terms(self.degrees + other.degrees, self.basis, out)

    def to_s(self):
        """Rewrite in the Schur basis: each factor h_mu expands as the sum of
        K(lam, mu) s_lam."""
        if self.basis == "s":
            return self
        out: dict = {}
        for key, c in self.coeffs.items():
            for combo, value in _expand([kostka_column(lam) for lam in key]):
                out[combo] = out.get(combo, 0) + c * value
        return TensorSymFunc._from_terms(self.degrees, "s", out)

    def dimension(self):
        """The dimension of the module: in the Schur basis each factor s_lam
        of degree m has dimension f^lam = K(lam, 1^m), read off one Kostka
        column per degree."""
        return sum(
            c * prod(kostka_column((1,) * sum(lam))[lam] for lam in key)
            for key, c in self.to_s().coeffs.items()
        )

    def character(self, class_tuple):
        """Character of the underlying module at a class of the product group,
        given as one cycle type per factor; ValueError on any other tuple."""
        table = _character_table(self.degrees)
        column = table.columns.get(tuple(map(tuple, class_tuple)))
        if column is None:
            raise ValueError(f"not a class of the group: {class_tuple}")
        return _module_character(table, self.to_s().coeffs)[column]


def _expand(expansions):
    """Cartesian expansion of per-factor dictionaries into (key tuple, product)."""
    combos = [((), 1)]
    for expansion in expansions:
        combos = [
            (key + (lam,), value * c)
            for key, value in combos
            for lam, c in expansion.items()
        ]
    return combos


CharacterTable = namedtuple("CharacterTable", "classes columns irreducibles index matrix")


@lru_cache(maxsize=None)
def _character_table(sizes) -> CharacterTable:
    """The character table of S_{m_1} x ... x S_{m_r}: (class tuple, class
    size) pairs, each class tuple's column, irreducible labels, each label's
    row index, and one row of integer characters per irreducible, aligned
    with the classes.  The matrix is the Kronecker product of the factors'
    tables."""
    classes = [((), 1)]
    irreducibles = [()]
    matrix = [[1]]
    for m in sizes:
        parts = partitions(m)
        class_sizes = [cycle_type_size(rho, m) for rho in parts]
        classes = [
            (key + (rho,), size * rho_size)
            for key, size in classes
            for rho, rho_size in zip(parts, class_sizes)
        ]
        irreducibles = [key + (lam,) for key in irreducibles for lam in parts]
        factor = [[irreducible_character(lam, rho) for rho in parts] for lam in parts]
        matrix = [[a * b for a in row for b in frow] for row in matrix for frow in factor]
    columns = {cls: i for i, (cls, _) in enumerate(classes)}
    index = {irrep: i for i, irrep in enumerate(irreducibles)}
    return CharacterTable(tuple(classes), columns, tuple(irreducibles), index, matrix)


class SymmetricProductGroup:
    """A product of symmetric groups S_{m_1} x ... x S_{m_r}.

    Conjugacy classes and irreducibles are tuples of partitions, one per
    factor; characters multiply across factors.
    """

    def __init__(self, sizes):
        self.sizes = tuple(sizes)
        self.order = 1
        for m in self.sizes:
            self.order *= factorial(m)

    def classes(self):
        """(class tuple, class size) pairs."""
        return list(_character_table(self.sizes).classes)

    def irreducibles(self):
        return list(_character_table(self.sizes).irreducibles)

    def tensor_multiplicities(self, mod_a: dict, mod_b: dict) -> dict:
        """Irreducible multiplicities of the tensor product of two modules
        given by their own irreducible multiplicities.

        The multiplicity of chi is <chi, f> = sum over classes of size * f *
        chi, over the group order, with f the product of the two characters
        (a square evaluates its one character once); raises CheckFailed
        unless every multiplicity is a nonnegative int."""
        table = _character_table(self.sizes)
        va = _module_character(table, mod_a)
        vb = va if mod_b is mod_a else _module_character(table, mod_b)
        weighted = [size * a * b for (_, size), a, b in zip(table.classes, va, vb)]
        out = {}
        for irrep, row in zip(table.irreducibles, table.matrix):
            mult, rest = divmod(sum(map(mul, row, weighted)), self.order)
            if rest or mult < 0:
                raise CheckFailed("class function is not a character")
            if mult:
                out[irrep] = mult
        return out


def _module_character(table, module) -> list:
    """Class values of the module with the given irreducible multiplicities."""
    values = [0] * len(table.classes)
    for irrep, c in module.items():
        row = table.index.get(irrep)
        if row is None:
            raise ValueError(f"not an irreducible of this group: {irrep}")
        values = [v + c * x for v, x in zip(values, table.matrix[row])]
    return values

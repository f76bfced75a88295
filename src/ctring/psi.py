"""Graded characters of margin quotients under their row/column symmetry group.

For partitions mu and nu, the group permuting equal rows and equal columns is
a product of symmetric groups, one factor per distinct part size.  The degree
d piece of the quotient is the sum, over partitions lam of n with first part
n - d, of (invariants of the lam-irreducible under the row parabolic) tensor
(the same under the column parabolic).

The invariants of S^lam under the Young subgroup S_mu are a module for
Stab(mu), which permutes the equal blocks of mu.  By the projection formula
(Serre, Linear Representations of Finite Groups, 2.6), g in Stab(mu) has
trace |S_mu|^-1 times the sum over h in S_mu of chi^lam(g'h), where g' moves
the blocks rigidly.  The cycle types of the coset g'S_mu sit inside the
wreath products S_a wr S_m (Macdonald, Symmetric Functions and Hall
Polynomials, I.8 appendix A): an l-cycle of g on blocks of size a gives the
cycle type l * sigma, with sigma the cycle type of a uniform element of S_a,
and distinct block cycles are independent.  So each class of Stab(mu) is a
short convolution, weighted by class sizes of the S_a and divided by the
product of a!, and one pass per margin (_coset_characters) gives the
characters of every lam at once from the S_n character table.  The Schur
multiplicities are the inner products of those values with the
irreducible characters of Stab(mu), one contraction with the factor tables,
and every module here is a Schur expansion.  The older route, counting
multiset partitions on the h basis and expanding along Kostka columns, is
kept as a test oracle (tests/oracles.py).

A degree's class values follow from the same sum: at a class (c_mu, c_nu)
of the pair's group, degree d takes the value sum over lam with lam_1 = n - d
of chi_{mu,lam}(c_mu) * chi_{nu,lam}(c_nu), where chi_{mu,lam} is the
character of the lam invariants under the row group, which the memoised
invariants_frobenius_s(mu, lam) module carries.  Every degree carries its
values, so the Kronecker products of a dominance scan evaluate no degree
again.

What depends on one margin is formed once per process, in lru_caches keyed
on the checked partition: its factor data (_factor_data), its group
(_stab_group) and its coset pass (_coset_characters).  The public
functions check their input and then read these memos.
"""

from functools import lru_cache
from math import factorial
from operator import add
from types import MappingProxyType

from .errors import CheckFailed
from .partitions import check_partition, partitions
from .symfunc import (
    SymmetricProductGroup,
    TensorSymFunc,
    _factor_table,
    _multiplicities,
    cycle_type_size,
)
from .tables import margins


def stab_factor_data(mu) -> list:
    """Canonical factor decomposition of the group permuting equal parts of mu.

    Returns (part size, multiplicity, 1-based positions) per distinct part,
    ordered by multiplicity descending then part size ascending.  All tensor
    factors, class tuples, and irreducible labels follow this order.  The
    decomposition is formed once per margin (_factor_data); each call checks
    mu and returns a fresh list of it.
    """
    return list(_factor_data(check_partition(mu)))


@lru_cache(maxsize=None)
def _factor_data(mu) -> tuple:
    """stab_factor_data of the checked partition mu, as a shared tuple."""
    groups: dict = {}
    for pos, part in enumerate(mu, start=1):
        groups.setdefault(part, []).append(pos)
    items = [
        (part, len(positions), tuple(positions)) for part, positions in groups.items()
    ]
    items.sort(key=lambda t: (-t[1], t[0]))
    return tuple(items)


@lru_cache(maxsize=None)
def _stab_group(mu) -> SymmetricProductGroup:
    """stab_group of the checked partition mu, one shared group per margin."""
    return SymmetricProductGroup([m for _, m, _ in _factor_data(mu)])


def stab_group(mu) -> SymmetricProductGroup:
    return _stab_group(check_partition(mu))


def stab_permutation(mu, class_tuple) -> tuple:
    """A permutation (0-based image tuple) of the positions 1..len(mu)
    realizing the given class tuple, cycling within equal-part blocks.
    ValueError unless the tuple holds one cycle type per factor."""
    mu = check_partition(mu)
    image = list(range(len(mu)))
    for (part, m, positions), rho in zip(_factor_data(mu), class_tuple, strict=True):
        if sum(rho) != m:
            raise ValueError("cycle type does not match factor size")
        idx = 0
        for cycle_len in rho:
            cycle = positions[idx : idx + cycle_len]
            for t in range(cycle_len):
                image[cycle[t] - 1] = cycle[(t + 1) % cycle_len] - 1
            idx += cycle_len
    return tuple(image)


def _merge(weights, block) -> dict:
    """The cycle types of two independent permutations on disjoint points,
    {cycle type: weight} each: every union of one from each, weights
    multiplied."""
    out: dict = {}
    for first, w in weights.items():
        for second, c in block.items():
            key = tuple(sorted(first + second, reverse=True))
            out[key] = out.get(key, 0) + w * c
    return out


@lru_cache(maxsize=None)
def _coset_characters(mu) -> MappingProxyType:
    """{lam: class values of the invariants of S^lam under S_mu, as a module
    over Stab(mu)} for every lam of n, the values in the class order of
    stab_group(mu).

    A class of Stab(mu) takes the average of chi^lam over the coset g'S_mu,
    g' a rigid block permutation of the class.  Its cycle types, weighted by
    how many h in S_mu give each, are the convolution over the block cycles
    of g: an l-cycle on blocks of size a gives l * sigma with weight
    |class of sigma in S_a|, and a! is its share of the denominator.  The
    classes are built factor by factor, as the labels are, so a prefix of
    factors is convolved once.  Raises CheckFailed if an average is not an
    integer.
    """
    n = sum(mu)
    parts = partitions(n)
    columns = dict(zip(parts, _factor_table(n)[1]))  # rho: chi^lam(rho) by lam
    classes = [({(): 1}, 1)]  # (cycle-type weights, denominator) per label
    for size, m, _ in _factor_data(mu):
        blocks = [(sigma, cycle_type_size(sigma, size)) for sigma in partitions(size)]
        factor = []
        for rho in partitions(m):
            weights = {(): 1}
            for length in rho:
                scaled = {tuple(length * p for p in sigma): c for sigma, c in blocks}
                weights = _merge(weights, scaled)
            factor.append((weights, factorial(size) ** len(rho)))
        classes = [(_merge(w, fw), d * fd) for w, d in classes for fw, fd in factor]
    values = []
    for weights, denominator in classes:
        total = [0] * len(parts)
        for rho, w in weights.items():
            total = [t + w * chi for t, chi in zip(total, columns[rho])]
        value = [divmod(t, denominator) for t in total]
        if any(rest for _, rest in value):
            raise CheckFailed("invariant class values must be ints")
        values.append([q for q, _ in value])
    return MappingProxyType(dict(zip(parts, zip(*values))))


@lru_cache(maxsize=None)
def invariants_frobenius_s(mu, lam) -> TensorSymFunc:
    """Schur expansion of the parabolic invariants of the irreducible labeled
    lam, as a module over the group permuting equal parts of mu, carrying
    its class values (_coset_characters).  The coefficients are the inner
    products of those values with the group's irreducible characters, module
    multiplicities, hence checked to be nonnegative ints."""
    mu = check_partition(mu)
    lam = check_partition(lam)
    if sum(mu) != sum(lam):
        raise ValueError("partitions must have equal size")
    values = _coset_characters(mu)[lam]
    group = _stab_group(mu)
    coeffs = _multiplicities(group, values, "invariant multiplicities must be nonnegative ints")
    return TensorSymFunc._from_terms(group.sizes, coeffs, values)


def graded_decomposition(mu, nu) -> dict:
    """Per-degree Frobenius image of the margin quotient for partitions mu, nu,
    over the product of the row and column symmetry groups.

    Degree d collects the partitions lam with lam_1 = n - d; each contributes
    the tensor product of its row and column parabolic invariants, their
    coefficients multiplied into the degree's one dict, and the outer
    product of their class values (mu's class the more significant, the
    row-major order of pair_group's classes) added into its one list.  Each
    degree is one TensorSymFunc, built at the end, that carries those values.
    """
    mu, nu = margins(check_partition(mu), check_partition(nu))
    n = sum(mu)
    coeffs: dict = {}
    values: dict = {}
    for lam in partitions(n):
        d = n - lam[0] if lam else 0
        row, col = invariants_frobenius_s(mu, lam), invariants_frobenius_s(nu, lam)
        if not (row and col):
            continue
        degrees = row.degrees + col.degrees
        terms = coeffs.setdefault(d, {})
        for k1, c1 in row.coeffs.items():
            for k2, c2 in col.coeffs.items():
                key = k1 + k2
                terms[key] = terms.get(key, 0) + c1 * c2
        col_values = col.class_values()
        outer = [a * b for a in row.class_values() for b in col_values]
        values[d] = list(map(add, values[d], outer)) if d in values else outer
    return {
        d: TensorSymFunc._from_terms(degrees, coeffs[d], tuple(values[d]))
        for d in sorted(coeffs)
    }


def pair_group(mu, nu) -> SymmetricProductGroup:
    """The full row-and-column symmetry group of the pair (mu, nu)."""
    return SymmetricProductGroup(stab_group(mu).sizes + stab_group(nu).sizes)


def kronecker_product(dec_a: TensorSymFunc, dec_b: TensorSymFunc, group) -> TensorSymFunc:
    """Irreducible decomposition of the internal tensor product of two modules
    over `group`, the SymmetricProductGroup both live over (diagonal action;
    tensor_multiplicities raises ValueError if the modules' degrees are not
    its sizes)."""
    return TensorSymFunc._from_terms(dec_a.degrees, group.tensor_multiplicities(dec_a, dec_b))


def kronecker_dominance(dec_a: TensorSymFunc, dec_b: TensorSymFunc, group):
    """Whether every irreducible multiplicity in dec_a (x) dec_a, over `group`,
    is at least its multiplicity in dec_b, both Schur expansions.  Returns
    the sorted labels where it is not (empty means dominance holds);
    ValueError if the modules' degrees are not the group's sizes.

    Equivalent, in characteristic zero, to the existence of an equivariant
    injection of the dec_b module into the tensor square of the dec_a module.
    """
    if dec_b.degrees != group.sizes:  # dec_a's are checked with its square
        raise ValueError("modules do not live over this group")
    square = group.tensor_multiplicities(dec_a, dec_a)
    return sorted(irrep for irrep, c in dec_b.coeffs.items() if square.get(irrep, 0) < c)

"""Graded characters of margin quotients under their row/column symmetry group.

For partitions mu and nu, the group permuting equal rows and equal columns is
a product of symmetric groups, one factor per distinct part size.  The degree
d piece of the quotient is the sum, over partitions lam of n with first part
n - d, of (invariants of the lam-irreducible under the row parabolic) tensor
(the same under the column parabolic).

Taking parabolic invariants acts on Frobenius images by a combinatorial rule
on the h basis: sum over multiset partitions of {1^lam_1, 2^lam_2, ...} whose
block sizes are the parts of mu, each contributing the tensor product of the
multiplicity types of its equal-size block groups.  The partitions are
counted, not listed: the groups of equal blocks are placed largest size
first, and after each group only the remaining letter counts, sorted, are
kept, since the count depends on the content only up to permuting letters
(the h-image is an orbit count of a permutation module, as in Macdonald,
Symmetric Functions and Hall Polynomials, I.7).  The Schur expansion follows
by Young's rule, solved along each Kostka column.

A degree's class values follow from the same sum: at a class (c_mu, c_nu)
of the pair's group, degree d takes the value sum over lam with lam_1 = n - d
of chi_{mu,lam}(c_mu) * chi_{nu,lam}(c_nu), where chi_{mu,lam} is the
character of the lam invariants under the row group.  Each chi_{mu,lam} is
the class values of the memoised invariants_frobenius_s(mu, lam), formed
once per (margin, lam), and every degree carries its values, so the
Kronecker products of a dominance scan evaluate no degree again.
"""

from functools import lru_cache
from itertools import accumulate
from operator import add, le, sub
from types import MappingProxyType

from .errors import CheckFailed
from .partitions import bounded_compositions, check_partition, kostka_column, partitions
from .symfunc import SymmetricProductGroup, TensorSymFunc
from .tables import margins


def stab_factor_data(mu) -> list:
    """Canonical factor decomposition of the group permuting equal parts of mu.

    Returns (part size, multiplicity, 1-based positions) per distinct part,
    ordered by multiplicity descending then part size ascending.  All tensor
    factors, class tuples, and irreducible labels follow this order.
    """
    mu = check_partition(mu)
    groups: dict = {}
    for pos, part in enumerate(mu, start=1):
        groups.setdefault(part, []).append(pos)
    items = [
        (part, len(positions), tuple(positions)) for part, positions in groups.items()
    ]
    items.sort(key=lambda t: (-t[1], t[0]))
    return items


def stab_group(mu) -> SymmetricProductGroup:
    return SymmetricProductGroup([m for _, m, _ in stab_factor_data(mu)])


def stab_permutation(mu, class_tuple) -> tuple:
    """A permutation (0-based image tuple) of the positions 1..len(mu)
    realizing the given class tuple, cycling within equal-part blocks.
    ValueError unless the tuple holds one cycle type per factor."""
    mu = check_partition(mu)
    image = list(range(len(mu)))
    for (part, m, positions), rho in zip(stab_factor_data(mu), class_tuple, strict=True):
        if sum(rho) != m:
            raise ValueError("cycle type does not match factor size")
        idx = 0
        for cycle_len in rho:
            cycle = positions[idx : idx + cycle_len]
            for t in range(cycle_len):
                image[cycle[t] - 1] = cycle[(t + 1) % cycle_len] - 1
            idx += cycle_len
    return tuple(image)


def _multiplicity_type(blocks) -> tuple:
    counts: dict = {}
    for b in blocks:
        counts[b] = counts.get(b, 0) + 1
    return tuple(sorted(counts.values(), reverse=True))


def _group_blocks(content, size, count, room) -> dict:
    """The multisets of `count` blocks of `size` letters each, drawn from the
    letter counts `content`, as {(remaining counts sorted descending, zeros
    dropped; multiplicity type): number of multisets}.

    The blocks that fit in `content` are listed once, in decreasing content
    order, and each block is drawn at or after the previous one's place in
    that list, keeping those that fit in what is left: this lists each
    multiset once.  A block starts no later than `reach`, the last letter
    such that the letters before it fit in `room`, the size of the later
    (smaller) groups: the later blocks of this group start no earlier, so
    only those groups can hold the letters it skips.  Once one block starts
    too late, every later one does.
    """
    listed = bounded_compositions(size, content)
    out: dict = {}

    def rec(remaining, blocks, start):
        if len(blocks) == count:
            left = tuple(sorted((r for r in remaining if r), reverse=True))
            key = (left, _multiplicity_type(blocks))
            out[key] = out.get(key, 0) + 1
            return
        reach = sum(1 for held in accumulate(remaining) if held <= room)
        for i in range(start, len(listed)):
            block = listed[i]
            if not any(block[: reach + 1]):
                break
            if all(map(le, block, remaining)):
                rec(tuple(map(sub, remaining, block)), blocks + [block], i)

    rec(content, [], 0)
    return out


@lru_cache(maxsize=None)
def _h_counts(content, groups):
    """{multiplicity types, one per group: number of multiset partitions} for
    the letter counts `content`, sorted descending, split into blocks whose
    sizes are given by `groups`, (size, count) pairs, largest size first.

    The count depends on the content only up to permuting letters, so every
    choice of blocks that leaves the same sorted counts shares one state.
    """
    if not groups:
        return MappingProxyType({(): 1})
    (size, count), rest = groups[0], groups[1:]
    room = sum(content) - size * count
    out: dict = {}
    for (left, mtype), ways in _group_blocks(content, size, count, room).items():
        for types, c in _h_counts(left, rest).items():
            key = (mtype,) + types
            out[key] = out.get(key, 0) + ways * c
    return MappingProxyType(out)


def invariants_frobenius_h(mu, lam) -> TensorSymFunc:
    """Frobenius image, on the h basis, of the parabolic invariants of the
    permutation module with content lam, as a module over the group permuting
    equal parts of mu: the multiset partitions of lam counted by the
    multiplicity types of their equal-size blocks, keys in factor order."""
    mu = check_partition(mu)
    lam = check_partition(lam)
    if sum(mu) != sum(lam):
        raise ValueError("partitions must have equal size")
    factors = stab_factor_data(mu)
    walk = sorted(factors, reverse=True)  # largest size first
    order = [walk.index(factor) for factor in factors]
    counts = _h_counts(lam, tuple((size, m) for size, m, _ in walk))
    return TensorSymFunc._from_terms(
        tuple(m for _, m, _ in factors),
        "h",
        {tuple(types[i] for i in order): c for types, c in counts.items()},
    )


@lru_cache(maxsize=None)
def invariants_frobenius_s(mu, lam) -> TensorSymFunc:
    """Schur expansion of the parabolic invariants of the irreducible labeled
    lam; the coefficients are module multiplicities, hence checked to be
    nonnegative.

    Young's rule h_lam = sum of K(nu, lam) s_nu, solved for s_lam: the image
    of h_lam less K(nu, lam) times the image of each other s_nu.  Such a nu
    strictly dominates lam, so it comes earlier in partitions() order, and
    the recursion ends at the one-row shape, alone in its Kostka column.
    """
    h_image = invariants_frobenius_h(mu, lam).to_s()
    coeffs = dict(h_image.coeffs)
    for nu, k in kostka_column(lam).items():
        if nu != lam:
            for key, value in invariants_frobenius_s(mu, nu).coeffs.items():
                coeffs[key] = coeffs.get(key, 0) - k * value
    if any(value < 0 for value in coeffs.values()):
        raise CheckFailed("invariant multiplicities must be nonnegative ints")
    return TensorSymFunc._from_terms(h_image.degrees, "s", coeffs)


def graded_decomposition(mu, nu) -> dict:
    """Per-degree Frobenius image of the margin quotient for partitions mu, nu,
    over the product of the row and column symmetry groups.

    Degree d collects the partitions lam with lam_1 = n - d; each contributes
    the tensor product of its row and column parabolic invariants, and the
    outer product of their class values (mu's class the more significant,
    the row-major order of pair_group's classes).  Each degree is a fresh
    TensorSymFunc that carries the sum of those values.
    """
    mu, nu = margins(check_partition(mu), check_partition(nu))
    n = sum(mu)
    terms: dict = {}
    values: dict = {}
    for lam in partitions(n):
        d = n - lam[0] if lam else 0
        row, col = invariants_frobenius_s(mu, lam), invariants_frobenius_s(nu, lam)
        term = row.tensor(col)
        if not term:
            continue
        col_values = col.class_values()
        outer = [a * b for a in row.class_values() for b in col_values]
        if d in terms:
            terms[d] = terms[d] + term
            values[d] = list(map(add, values[d], outer))
        else:
            terms[d], values[d] = term, outer
    return {
        d: TensorSymFunc._from_terms(terms[d].degrees, "s", terms[d].coeffs, tuple(values[d]))
        for d in sorted(terms)
    }


def pair_group(mu, nu) -> SymmetricProductGroup:
    """The full row-and-column symmetry group of the pair (mu, nu)."""
    return SymmetricProductGroup(stab_group(mu).sizes + stab_group(nu).sizes)


def kronecker_product(dec_a: TensorSymFunc, dec_b: TensorSymFunc, group) -> TensorSymFunc:
    """Irreducible decomposition of the internal tensor product of two modules
    over `group`, the SymmetricProductGroup both live over (diagonal action;
    tensor_multiplicities raises ValueError if the modules' degrees are not
    its sizes)."""
    return TensorSymFunc._from_terms(
        dec_a.degrees, "s", group.tensor_multiplicities(dec_a, dec_b)
    )


def kronecker_dominance(dec_a: TensorSymFunc, dec_b: TensorSymFunc, group):
    """Whether every irreducible multiplicity in dec_a (x) dec_a, over `group`,
    is at least its multiplicity in dec_b.  Returns the list of violating
    irreducibles (empty means dominance holds); ValueError if the modules'
    degrees are not the group's sizes.

    Equivalent, in characteristic zero, to the existence of an equivariant
    injection of the dec_b module into the tensor square of the dec_a module.
    """
    if dec_b.degrees != group.sizes:  # dec_a's are checked with its square
        raise ValueError("modules do not live over this group")
    square = group.tensor_multiplicities(dec_a, dec_a)
    return sorted(
        irrep for irrep, c in dec_b.to_s().coeffs.items() if square.get(irrep, 0) < c
    )

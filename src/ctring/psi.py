"""Graded characters of margin quotients under their row/column symmetry group.

For partitions mu and nu, the group permuting equal rows and equal columns is
a product of symmetric groups, one factor per distinct part size.  The degree
d piece of the quotient is the sum, over partitions lam of n with first part
n - d, of (invariants of the lam-irreducible under the row parabolic) tensor
(the same under the column parabolic).

Taking parabolic invariants acts on Frobenius images by a combinatorial rule
on the h basis: sum over multiset partitions of {1^lam_1, 2^lam_2, ...} whose
block sizes are the parts of mu, each contributing the tensor product of the
multiplicity types of its equal-size block groups.  The Schur expansion
follows by Young's rule, solved along each Kostka column.
"""

from functools import lru_cache
from itertools import accumulate

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


def multiset_partitions(content, shape) -> list:
    """Unordered multiset partitions of the multiset with the given letter
    counts into blocks whose sizes are the parts of `shape`, each exactly once.

    Blocks of equal size are produced in weakly decreasing content order,
    which rules out duplicates.  Each partition is a tuple of blocks (content
    vectors) aligned with the parts of `shape`.  A branch ends once the smaller
    blocks cannot hold the letters before the first letter of the last block.
    """
    content = tuple(content)
    shape = check_partition(shape)
    if sum(content) != sum(shape):
        raise ValueError("content and shape sizes differ")
    smaller = [sum(part for part in shape if part < size) for size in shape]
    out = []

    def rec(i, remaining, blocks):
        if i == len(shape):
            out.append(tuple(blocks))
            return
        bound = blocks[-1] if i and shape[i] == shape[i - 1] else None
        # the block's first letter is at most `reach`; blocks come descending,
        # so once one starts later, every later one does
        reach = sum(1 for held in accumulate(remaining) if held <= smaller[i])
        for block in bounded_compositions(shape[i], remaining):
            if not any(block[: reach + 1]):
                break
            if bound is not None and block > bound:
                continue
            rec(
                i + 1,
                tuple(r - b for r, b in zip(remaining, block)),
                blocks + [block],
            )

    rec(0, content, [])
    return out


def _multiplicity_type(blocks) -> tuple:
    counts: dict = {}
    for b in blocks:
        counts[b] = counts.get(b, 0) + 1
    return tuple(sorted(counts.values(), reverse=True))


@lru_cache(maxsize=None)
def invariants_frobenius_h(mu, lam) -> TensorSymFunc:
    """Frobenius image, on the h basis, of the parabolic invariants of the
    permutation module with content lam, as a module over the group permuting
    equal parts of mu."""
    mu = check_partition(mu)
    lam = check_partition(lam)
    if sum(mu) != sum(lam):
        raise ValueError("partitions must have equal size")
    factors = stab_factor_data(mu)
    degrees = tuple(m for _, m, _ in factors)
    coeffs: dict = {}
    for blocks in multiset_partitions(lam, mu):
        by_size: dict = {}
        for size, block in zip(mu, blocks):
            by_size.setdefault(size, []).append(block)
        key = tuple(_multiplicity_type(by_size[size]) for size, _, _ in factors)
        coeffs[key] = coeffs.get(key, 0) + 1
    return TensorSymFunc(degrees, "h", coeffs)


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
    the tensor product of its row and column parabolic invariants.
    """
    mu, nu = margins(check_partition(mu), check_partition(nu))
    n = sum(mu)
    out: dict = {}
    for lam in partitions(n):
        d = n - lam[0] if lam else 0
        row_part = invariants_frobenius_s(mu, lam)
        col_part = invariants_frobenius_s(nu, lam)
        term = row_part.tensor(col_part)
        if not term:
            continue
        out[d] = out[d] + term if d in out else term
    return {d: out[d] for d in sorted(out)}


def pair_group(mu, nu) -> SymmetricProductGroup:
    """The full row-and-column symmetry group of the pair (mu, nu)."""
    return SymmetricProductGroup(stab_group(mu).sizes + stab_group(nu).sizes)


def kronecker_product(dec_a: TensorSymFunc, dec_b: TensorSymFunc, group) -> TensorSymFunc:
    """Irreducible decomposition of the internal tensor product of two modules
    over `group`, the SymmetricProductGroup both live over (diagonal action)."""
    if dec_a.degrees != dec_b.degrees:
        raise ValueError("modules live over different groups")
    mults_a = dec_a.to_s().coeffs
    mults_b = dec_b.to_s().coeffs
    if not mults_a or not mults_b:
        return TensorSymFunc(dec_a.degrees, "s")
    return TensorSymFunc(
        dec_a.degrees, "s", group.tensor_multiplicities(mults_a, mults_b)
    )


def kronecker_dominance(dec_a: TensorSymFunc, dec_b: TensorSymFunc, group):
    """Whether every irreducible multiplicity in dec_a (x) dec_a, over `group`,
    is at least its multiplicity in dec_b.  Returns the list of violating
    irreducibles (empty means dominance holds).

    Equivalent, in characteristic zero, to the existence of an equivariant
    injection of the dec_b module into the tensor square of the dec_a module.
    """
    if dec_a.degrees != dec_b.degrees:
        raise ValueError("modules live over different groups")
    mults_a = dec_a.to_s().coeffs
    mults_b = dec_b.to_s().coeffs
    if not mults_b:
        return []
    square = group.tensor_multiplicities(mults_a, mults_a)
    return sorted(
        irrep for irrep, c in mults_b.items() if square.get(irrep, 0) < c
    )

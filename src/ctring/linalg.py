"""Degree-by-degree exact linear algebra for homogeneous ideals.

An ideal is presented by variable sums and line caps.  A sum puts the sum of
the variables of its support into the ideal; a cap (support, c) puts every
monomial of degree > c on the variables of support into the ideal.  A
monomial that meets every cap is "clean"; every multiple of an unclean
monomial is unclean, so the elimination only ever sees clean monomials, which
keeps the systems small.

The degree-d slice of the ideal, modulo unclean monomials, is spanned by the
sums times the clean monomials of degree d - 1.  The term order is packed for
the degree into one integer weight per variable (order_weights), so each
monomial has one integer key, and the key is linear: key(f * x_v) = key(f) +
w[v].  The columns are the clean monomials of degree d sorted on their keys,
descending in the term order; a row's entries are found by adding w[v] to the
key of its factor and looking the sum up in one key -> position map.  Rows
are sparse dicts keyed by column position, so finding a pivot is a plain min().
Forward elimination runs over the integers on primitive rows (fraction-free,
as in Bareiss): its pivots are the degree-d part of the initial ideal, and
the remaining columns are the standard monomials.  These forward rows are the
only echelon form.  Normal forms need no back-substitution: a row holds no
entries left of its pivot, so reducing against the pivots in ascending
position order never brings back a pivot already cleared.  A normal form is
computed on integers times one common scale, divided out once at the end.

Most rows of a slice are Koszul consequences of the others, s * (s' * q) =
s' * (s * q), and are skipped before any arithmetic.  The degree-1 slice is
eliminated one sum at a time: a sum in the span of the earlier sums is
dropped from every degree, and each kept sum records its lead, the pivot it
adds.  The leads of the sums before s are the lead variables of their span,
and in degree d >= 2 the row s * factor is skipped when factor = x * q for
such a lead x.  With h in that span, led by x, s * x * q = s * q * h -
s * q * (h - x): the first term lies in the rows of the earlier sums, and
h - x holds only variables smaller than x, so in a monomial order the second
term is made of rows of s with smaller factors.  By induction over the sums
and then the factors in the order, every skipped row lies in the span of the
rows kept, which are eliminated together, as above.
"""

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from types import MappingProxyType

from .partitions import bounded_compositions
from .polys import Poly, order_weights


def bounded_exponents(nvars, degree):
    """All exponent tuples in nvars variables with the given total degree,
    lexicographically descending."""
    return bounded_compositions(degree, (degree,) * nvars)


def integer_row(row):
    """A sparse rational row scaled by the lcm of its denominators: the same
    row up to a nonzero factor, with integer entries."""
    den = lcm(*(c.denominator for c in row.values()))
    return {p: int(c * den) for p, c in row.items()}


def _primitive(vec):
    """Divide out the gcd of the entries and make the lead positive, in place."""
    g = gcd(*vec.values())
    if vec[min(vec)] < 0:
        g = -g
    if g != 1:
        for p in vec:
            vec[p] //= g
    return vec


def _eliminate(vec, p, prow):
    """Clear position p of the integer row vec with the integer row prow, in
    place: vec <- (a/g) vec - (c/g) prow, where a = prow[p], c = vec[p] and
    g = gcd(a, c).  Returns the factor a/g that vec was scaled by."""
    c = vec.pop(p)
    a = prow[p]
    if a != 1:
        g = gcd(a, c)
        a //= g
        c //= g
        if a != 1:
            for q in vec:
                vec[q] *= a
    for q, pc in prow.items():
        if q == p:
            continue
        val = vec.get(q, 0) - c * pc
        if val:
            vec[q] = val
        else:
            del vec[q]
    return a


def position_echelon(rows, done=None):
    """Row echelon form over the integers of sparse integer rows keyed by
    column position, position 0 being the leading column.

    Returns {pivot position: row}, each row primitive (entries with gcd 1)
    with a positive pivot entry and no entries left of its pivot.  Forward
    elimination only: a pivot row may still hold later pivot columns.  Given
    `done`, an echelon of this form, the rows are reduced into it: new pivot
    rows are added to `done`, which is returned, and its own rows are left
    as they are."""
    if done is None:
        done = {}
    # trailing leads first: a row whose lead is not yet a pivot column becomes
    # a pivot row without reduction.  On margin ideals this order eliminates
    # about three times faster than the order the rows are generated in.
    for vec in sorted(filter(None, rows), key=min, reverse=True):
        vec = dict(vec)
        while vec:
            lead = min(vec)
            prow = done.get(lead)
            if prow is None:
                done[lead] = _primitive(vec)
                break
            _eliminate(vec, lead, prow)
    return done


def extreme_monomials(polys, order, smallest=False):
    """The set { leading (or trailing) monomial of f : f in span(polys) - 0 }
    in the term order given by the supports `order` (None: plain lex).

    Gaussian elimination with columns sorted by the order (ascending when
    `smallest`) makes these exactly the pivot monomials.  The order is packed
    with the largest total degree present, so terms of mixed degrees compare
    exactly.
    """
    if len({p.nvars for p in polys}) > 1:
        raise ValueError("variable count mismatch")
    monomials = {m for p in polys for m in p.terms}
    if not monomials:
        return set()
    if order is not None:
        order = tuple(map(tuple, order))
    top = max(map(sum, monomials))
    weights = order_weights(order, polys[0].nvars, top)
    by_key = {sum(map(mul, weights, m)): m for m in monomials}
    columns = [by_key[k] for k in sorted(by_key, reverse=not smallest)]
    index = {m: i for i, m in enumerate(columns)}
    rows = [integer_row({index[m]: c for m, c in p.terms.items()}) for p in polys]
    return {columns[lead] for lead in position_echelon(rows)}


class DegreeBasis:
    """Echelon basis of one degree slice of a homogeneous ideal.

    `columns` lists the clean monomials of the degree in order-descending
    sequence.  `weights` is the term order packed for the degree
    (order_weights), so key(m) is one integer per monomial, and `position`
    maps the key of each column to its position.  `rows` holds the primitive
    integer rows of forward elimination keyed by pivot position, in
    ascending pivot order.  The slice is cached and shared by every caller,
    so `position` and `rows` are read-only views.
    """

    __slots__ = ("columns", "weights", "position", "rows", "standard")

    def __init__(self, columns, weights, position, rows):
        self.columns = columns
        self.weights = weights
        self.position = MappingProxyType(position)
        self.rows = MappingProxyType(dict(sorted(rows.items())))
        self.standard = tuple(m for i, m in enumerate(columns) if i not in rows)

    def key(self, exps) -> int:
        """The packed order key, injective on monomials of degree at most the
        slice degree: position.get(key(m)) is m's column, or None when m is
        not clean."""
        return sum(map(mul, self.weights, exps))


class HomogeneousIdeal:
    """An ideal presented by variable sums and line caps, sliced degree by
    degree.

    `sums` holds supports, sequences of variable indices; each puts the sum
    of its variables into the ideal.  Supports holding the same variables
    are one sum, and a sum over a single variable is that variable itself,
    which is the cap 0 on it.  `caps` holds (support, cap) pairs: every
    monomial on the variables of support of degree greater than cap lies in
    the ideal.  For the margin ideal the sums are the row and column sums and
    the caps the row and column margins.  A negative cap or a variable index
    outside range(nvars) raises ValueError.

    `order` is the term order as supports, most significant first
    (order_weights; None: plain lex).  Monomials compare by their degree on
    each support in turn, and each degree is linear, so y < x implies
    y * q < x * q: every such order is a monomial order by construction.  The
    slices need that, as they skip every row s * x * q whose factor is
    divisible by a lead variable x of the sums before s, and the skipped row
    lies in the span of the rows kept only under a monomial order.  An order
    with no singleton support on some variable is not total and raises
    ValueError.
    """

    def __init__(self, nvars, order, sums=(), caps=()):
        self.nvars = nvars
        self.order = None if order is None else tuple(map(tuple, order))
        order_weights(self.order, nvars, 0)  # raises on an order that is not total
        caps = list(caps)
        self.sums = []
        for support in sums:
            support = tuple(sorted(set(support)))
            if not all(0 <= v < nvars for v in support):
                raise ValueError(f"bad sum on support {support}")
            if len(support) == 1:
                caps.append((support, 0))
            elif support not in self.sums:
                self.sums.append(support)
        bounds = {}
        for support, cap in caps:
            support = tuple(support)
            if cap < 0 or not all(0 <= v < nvars for v in support):
                raise ValueError(f"bad cap {cap} on support {support}")
            bounds[support] = min(cap, bounds.get(support, cap))
        self.caps = tuple(bounds.items())
        # caps touching each variable, as indices into self.caps
        self._var_caps = [
            [c for c, (support, _) in enumerate(self.caps) if v in support]
            for v in range(nvars)
        ]
        self._slices = {}
        self._clean = {}
        self._kept = None  # (support, lead variable) of each sum kept, set by slice(1)

    def is_clean(self, exps) -> bool:
        """Monomial within every cap, i.e. not in the ideal's monomial part."""
        return all(sum(exps[v] for v in support) <= cap for support, cap in self.caps)

    def clean_monomials(self, degree):
        """The clean monomials of one degree, lexicographically descending,
        as a tuple, which the slices and every caller share.

        One backtracking pass over the variables that tracks each cap's room
        left; for the margin ideal these are the subtingency tables of the
        degree."""
        cached = self._clean.get(degree)
        if cached is not None:
            return cached
        nvars = self.nvars
        var_caps = self._var_caps
        room = [cap for _, cap in self.caps]
        exps = [0] * nvars
        out = []

        def rec(v, left):
            touching = var_caps[v]
            top = left
            for c in touching:
                if room[c] < top:
                    top = room[c]
            if v == nvars - 1:
                if left <= top:
                    exps[v] = left
                    out.append(tuple(exps))
                return
            for e in range(top, -1, -1):
                exps[v] = e
                for c in touching:
                    room[c] -= e
                rec(v + 1, left - e)
                for c in touching:
                    room[c] += e

        if nvars:
            rec(0, degree)
        elif degree == 0:
            out.append(())
        self._clean[degree] = out = tuple(out)
        return out

    def slice(self, degree) -> DegreeBasis:
        cached = self._slices.get(degree)
        if cached is not None:
            return cached
        weights = order_weights(self.order, self.nvars, degree)
        by_key = {sum(map(mul, weights, m)): m for m in self.clean_monomials(degree)}
        keys = sorted(by_key, reverse=True)
        columns = tuple(map(by_key.__getitem__, keys))
        position = dict(zip(keys, range(len(keys))))
        if degree == 1:
            # one sum at a time: a sum that raises the rank is kept, with its
            # own lead, the pivot it adds (the last key of done); the key of
            # x_v is w[v]
            done = {}
            self._kept = []
            for support in self.sums:
                rank = len(done)
                row = {
                    position[weights[v]]: 1 for v in support if weights[v] in position
                }
                position_echelon([row], done)
                if len(done) > rank:
                    lead = columns[next(reversed(done))].index(1)
                    self._kept.append((support, lead))
            basis = DegreeBasis(columns, weights, position, done)
        else:
            rows = []
            if degree:
                self.slice(1)  # records self._kept
                # each clean factor with its key: key(factor * x_v) = key + w[v]
                factors = [
                    (factor, sum(map(mul, weights, factor)))
                    for factor in self.clean_monomials(degree - 1)
                ]
                for support, lead in self._kept:
                    steps = [weights[v] for v in support]
                    for _, key in factors:
                        # the sum times a clean factor, restricted to clean monomials
                        row = {}
                        for step in steps:
                            pos = position.get(key + step)
                            if pos is not None:
                                row[pos] = 1
                        rows.append(row)
                    # Koszul: every later sum skips the factors this lead divides
                    factors = [pair for pair in factors if not pair[0][lead]]
            basis = DegreeBasis(columns, weights, position, position_echelon(rows))
        self._slices[degree] = basis
        return basis

    def standard_monomials(self, degree):
        return self.slice(degree).standard

    def in_initial_ideal(self, exps) -> bool:
        if len(exps) != self.nvars:
            raise ValueError("variable count mismatch")
        if not self.is_clean(exps):
            return True
        basis = self.slice(sum(exps))
        return basis.position[basis.key(exps)] in basis.rows

    def normal_form(self, poly: Poly) -> Poly:
        """Reduce modulo the ideal onto the span of standard monomials.

        The result is the unique representative of poly supported on standard
        monomials; the map is linear and fixes standard monomials.  The input
        is scaled to integers by the lcm of its denominators, and each
        coefficient is divided by the accumulated scale once; it stays an int
        when the division is exact.
        """
        if poly.nvars != self.nvars:
            raise ValueError("variable count mismatch")
        den = lcm(*(c.denominator for c in poly.terms.values()))
        out = {}
        for degree, part in poly.homogeneous_parts().items():
            basis = self.slice(degree)
            # the slice's columns are exactly the clean monomials of the degree
            vec = {}
            for m, c in part.terms.items():
                pos = basis.position.get(basis.key(m))
                if pos is not None:
                    vec[pos] = int(c * den)
            scale = den  # times the factor of each elimination, smallest pivot first
            for p, prow in basis.rows.items():
                if p in vec:
                    scale *= _eliminate(vec, p, prow)
            for p, c in vec.items():
                q, r = divmod(c, scale)
                out[basis.columns[p]] = Fraction(c, scale) if r else q
        return Poly(poly.nvars, out)


def linear_form(nvars, support) -> Poly:
    """The sum of the variables whose indices are in support."""
    return Poly(
        nvars,
        {tuple(1 if v == u else 0 for v in range(nvars)): 1 for u in support},
    )


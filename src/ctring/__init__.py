"""Exact-arithmetic invariants of contingency-table quotient rings: matrix-ball
RSK, zigzag statistics, standard monomial bases, Hilbert series, graded
characters, and the associated conjecture experiments.

The package re-exports nothing; import the submodules, for example
`from ctring.quotient import QuotientModel`."""

__version__ = "0.1.0"

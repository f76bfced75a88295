from fractions import Fraction
from math import factorial

import pytest

from ctring.partitions import partitions
from ctring.symfunc import (
    SymmetricProductGroup,
    TensorSymFunc,
    cycle_type_size,
    h_to_s_expansion,
    inverse_kostka_matrix,
    irreducible_character,
    kostka_matrix,
    permutation_module_dimension,
    s_to_h_expansion,
)


def test_character_trivial_and_sign():
    for n in range(1, 7):
        for rho in partitions(n):
            assert irreducible_character((n,), rho) == 1
            assert irreducible_character((1,) * n, rho) == (-1) ** (n - len(rho))


def test_character_size_mismatch():
    with pytest.raises(ValueError):
        irreducible_character((2, 1), (2, 2))


def test_character_degree_is_tableau_count():
    from ctring.partitions import standard_tableau_count

    for n in range(1, 8):
        for lam in partitions(n):
            assert irreducible_character(lam, (1,) * n) == standard_tableau_count(lam)


def test_character_column_orthogonality():
    for n in range(1, 9):
        parts = partitions(n)
        sizes = {rho: cycle_type_size(rho, n) for rho in parts}
        assert sum(sizes.values()) == factorial(n)
        for rho in parts:
            for sigma in parts:
                total = sum(
                    irreducible_character(lam, rho) * irreducible_character(lam, sigma)
                    for lam in parts
                )
                expected = factorial(n) // sizes[rho] if rho == sigma else 0
                assert total == expected


def test_h_to_s_goldens():
    assert h_to_s_expansion((3,)) == {(3,): 1}
    assert h_to_s_expansion((2, 1)) == {(2, 1): 1, (3,): 1}


def test_s_to_h_golden():
    # two-row Jacobi-Trudi: s_{2,1} = h_{2,1} - h_{3}
    assert s_to_h_expansion((2, 1)) == {(2, 1): 1, (3,): -1}


def test_transform_roundtrip():
    for n in range(0, 9):
        for lam in partitions(n):
            f = TensorSymFunc((n,), "s", {(lam,): 1})
            assert f.to_h().to_s() == f
            g = TensorSymFunc((n,), "h", {(lam,): 1})
            assert g.to_s().to_h() == g


def test_kostka_matrices_inverse():
    for n in range(1, 8):
        K = kostka_matrix(n)
        K_inv = inverse_kostka_matrix(n)
        parts = partitions(n)
        for lam in parts:
            for mu in parts:
                total = sum(
                    K.get((lam, rho), 0) * K_inv.get((rho, mu), 0) for rho in parts
                )
                assert total == (1 if lam == mu else 0)
        # unitriangular against lexicographic order
        for (lam, mu), value in K.items():
            assert lam >= mu
            if lam == mu:
                assert value == 1


def test_symfunc_dimensions():
    f = TensorSymFunc((3,), "h", {((2, 1),): 1})
    assert f.dimension() == permutation_module_dimension((2, 1)) == 3
    assert f.to_s().dimension() == 3
    assert type(f.to_s().dimension()) is int


def test_symfunc_coefficients_are_ints():
    f = TensorSymFunc((3,), "s", {((2, 1),): 2, ((3,),): -1}).to_h()
    assert all(type(c) is int for c in f.coeffs.values())
    for bad in (Fraction(1, 2), Fraction(2), 1.0):
        with pytest.raises(ValueError):
            TensorSymFunc((3,), "h", {((2, 1),): bad})


def test_tensor_basics():
    t = TensorSymFunc((2, 1), "h", {((2,), (1,)): 1, ((1, 1), (1,)): 2})
    assert t.dimension() == 1 * 1 + 2 * 2
    s = t.to_s()
    assert s.to_h() == t
    product = t.tensor(TensorSymFunc((1,), "h", {((1,),): 1}))
    assert product.degrees == (2, 1, 1)


def test_tensor_character():
    # regular-representation style check: character of h-sum over partitions
    t = TensorSymFunc((3,), "s", {((3,),): 1, ((2, 1),): 2, ((1, 1, 1),): 1})
    # this is the regular representation of S_3
    assert t.character(((1, 1, 1),)) == 6
    assert t.character(((2, 1),)) == 0
    assert t.character(((3,),)) == 0


def test_product_group_classes():
    g = SymmetricProductGroup((2, 3))
    assert g.order == 2 * 6
    classes = g.classes()
    assert sum(size for _, size in classes) == g.order
    assert len(classes) == 2 * 3
    assert len(g.irreducibles()) == 6


def test_product_group_multiplicity_roundtrip():
    g = SymmetricProductGroup((2, 2))
    module = {((2,), (1, 1)): 2, ((1, 1), (2,)): 1}
    values = {
        cls: sum(c * g.character(irrep, cls) for irrep, c in module.items())
        for cls, _ in g.classes()
    }
    assert g.irreducible_multiplicities(values) == module


def test_product_group_tensor():
    g = SymmetricProductGroup((2,))
    sign = {((1, 1),): 1}
    assert g.tensor_multiplicities(sign, sign) == {((2,),): 1}
    triv = {((2,),): 1}
    assert g.tensor_multiplicities(sign, triv) == {((1, 1),): 1}


def test_product_group_rejects_non_characters():
    g = SymmetricProductGroup((3,))
    # the class indicator of the identity: multiplicities dim / 6, not integral
    identity = {cls: (1 if cls == ((1, 1, 1),) else 0) for cls, _ in g.classes()}
    with pytest.raises(ArithmeticError):
        g.irreducible_multiplicities(identity)
    # trivial minus sign: integral, but one multiplicity is negative
    difference = {
        cls: g.character(((3,),), cls) - g.character(((1, 1, 1),), cls)
        for cls, _ in g.classes()
    }
    with pytest.raises(ArithmeticError):
        g.irreducible_multiplicities(difference)
    assert g.tensor_multiplicities({((2, 1),): 1}, {((2, 1),): 1}) == {
        ((3,),): 1,
        ((2, 1),): 1,
        ((1, 1, 1),): 1,
    }

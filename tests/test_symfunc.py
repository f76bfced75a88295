import random
from fractions import Fraction
from itertools import product
from math import factorial, prod

import pytest

from oracles import classwise_tensor_multiplicities, h_to_s, s_to_h_expansion, strip_kostka
from ctring.errors import CheckFailed
from ctring.partitions import kostka_column, partitions
from ctring.symfunc import (
    SymmetricProductGroup,
    TensorSymFunc,
    cycle_type_size,
    irreducible_character,
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
    for n in range(1, 8):
        for lam in partitions(n):
            assert irreducible_character(lam, (1,) * n) == strip_kostka(lam, (1,) * n)


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
    # the Schur expansion of h_mu is the Kostka column of mu
    assert kostka_column((3,)) == {(3,): 1}
    assert kostka_column((2, 1)) == {(2, 1): 1, (3,): 1}


def test_s_to_h_golden():
    # two-row Jacobi-Trudi: s_{2,1} = h_{2,1} - h_{3}
    assert s_to_h_expansion((2, 1)) == {(2, 1): 1, (3,): -1}


def test_transform_roundtrip():
    # s_lam to h by s_to_h_expansion and back by h_to_s; h_lam to s by h_to_s
    # and back by s_to_h_expansion
    for n in range(0, 9):
        for lam in partitions(n):
            h_terms = {(mu,): c for mu, c in s_to_h_expansion(lam).items()}
            assert h_to_s(h_terms) == {(lam,): 1}
            back = {}
            for (nu,), c in h_to_s({(lam,): 1}).items():
                for mu, d in s_to_h_expansion(nu).items():
                    back[mu] = back.get(mu, 0) + c * d
            assert {mu: c for mu, c in back.items() if c} == {lam: 1}


def test_kostka_matrices_inverse():
    # K(lam, rho) = kostka_column(rho)[lam] and K^-1(rho, mu) =
    # s_to_h_expansion(mu)[rho]: their product is the identity
    for n in range(1, 8):
        parts = partitions(n)
        for lam in parts:
            for mu in parts:
                inverse = s_to_h_expansion(mu)
                total = sum(
                    kostka_column(rho).get(lam, 0) * inverse.get(rho, 0)
                    for rho in parts
                )
                assert total == (1 if lam == mu else 0)
        # both unitriangular against lexicographic order: every other shape
        # of a Kostka column precedes its content in partitions() order,
        # which is what the back substitution of the inverse table relies on
        for mu in parts:
            for expansion in (kostka_column(mu), s_to_h_expansion(mu)):
                assert all(lam >= mu for lam in expansion)
                assert expansion[mu] == 1


def test_symfunc_dimensions():
    # h_21 = s_3 + s_21, of dimension 1 + 2
    f = TensorSymFunc((3,), "s", h_to_s({((2, 1),): 1}))
    assert f.dimension() == 3
    assert type(f.dimension()) is int


def test_h_basis_dimension_is_a_multinomial():
    # h_mu is the permutation module of S_m on the cosets of S_mu, and its
    # Schur expansion is the Kostka column of mu: sum over lam of
    # K(lam, mu) * f^lam = m! / prod mu_i!
    for m in range(9):
        for mu in partitions(m):
            f = TensorSymFunc((m,), "s", {(lam,): k for lam, k in kostka_column(mu).items()})
            assert f.dimension() == factorial(m) // prod(map(factorial, mu))


def test_s_basis_dimension_is_a_tableau_count():
    # s_lam is the irreducible of dimension f^lam, the standard tableau count
    for m in range(9):
        for lam in partitions(m):
            f = TensorSymFunc((m,), "s", {(lam,): 1})
            assert f.dimension() == strip_kostka(lam, (1,) * m)


def test_tensor_dimension_is_the_product():
    # a module over S_a x S_b whose terms are the products of two modules'
    # terms, on the s basis or on the h basis expanded by h_to_s
    for a in range(5):
        for b in range(5):
            for to_s in (dict, h_to_s):
                terms = [
                    {(lam,): i + 1 for i, lam in enumerate(partitions(m))} for m in (a, b)
                ]
                outer = {
                    k1 + k2: c1 * c2
                    for k1, c1 in terms[0].items()
                    for k2, c2 in terms[1].items()
                }
                f, g = (TensorSymFunc((m,), "s", to_s(t)) for m, t in zip((a, b), terms))
                product_module = TensorSymFunc((a, b), "s", to_s(outer))
                assert product_module.dimension() == f.dimension() * g.dimension()


def test_symfunc_coefficients_are_ints():
    f = TensorSymFunc((3,), "s", h_to_s({((2, 1),): 2, ((1, 1, 1),): -1}))
    assert all(type(c) is int for c in f.coeffs.values())
    for lam in partitions(6):
        assert all(type(c) is int for c in s_to_h_expansion(lam).values())
    for bad in (Fraction(1, 2), Fraction(2), 1.0):
        with pytest.raises(ValueError):
            TensorSymFunc((3,), "s", {((2, 1),): bad})


def test_schur_is_the_only_basis():
    # the h basis lives only in the test oracles; the constructor keeps its
    # basis argument, and refuses every basis but "s"
    for basis in ("h", "e", "p", "m", "S", None, ""):
        with pytest.raises(ValueError):
            TensorSymFunc((3,), basis, {((2, 1),): 1})
        with pytest.raises(ValueError):
            TensorSymFunc((2, 1), basis)
    f = TensorSymFunc((3,), "s", {((2, 1),): 1})
    assert f.basis == "s"


def test_tensor_basics():
    # h_2 = s_2 and h_11 = s_2 + s_11, factor by factor
    s = h_to_s({((2,), (1,)): 1, ((1, 1), (1,)): 2})
    assert s == {((2,), (1,)): 3, ((1, 1), (1,)): 2}
    assert TensorSymFunc((2, 1), "s", s).dimension() == 1 * 1 + 2 * 2


def test_tensor_character():
    # regular-representation style check: character of h-sum over partitions
    t = TensorSymFunc((3,), "s", {((3,),): 1, ((2, 1),): 2, ((1, 1, 1),): 1})
    # this is the regular representation of S_3
    assert t.character(((1, 1, 1),)) == 6
    assert t.character(((2, 1),)) == 0
    assert t.character(((3,),)) == 0
    # a class tuple holds one cycle type per factor
    u = TensorSymFunc((2, 1), "s", {((2,), (1,)): 1, ((1, 1), (1,)): 2})
    assert u.character(((1, 1), (1,))) == 3
    assert u.character(((2,), (1,))) == -1
    for bad in (((1, 1),), ((1, 1), (1,), (5,)), ((1, 1), (2,)), ((1, 1), (1, 0))):
        with pytest.raises(ValueError):
            u.character(bad)


def test_product_group_classes():
    g = SymmetricProductGroup((2, 3))
    assert g.order == 2 * 6
    classes = g.classes()
    assert sum(size for _, size in classes) == g.order
    assert len(classes) == 2 * 3
    assert [cls for cls, _ in classes] == list(product(partitions(2), partitions(3)))


def test_factor_order_matches_class_by_class_products():
    # three or more factors of unequal sizes, some of size 1: a factor
    # contracted out of turn, or a table in place of its transpose, puts a
    # value under the wrong label
    rng = random.Random(35)
    for sizes in [(3, 1, 2), (2, 1, 3, 1), (1, 4, 2), (2, 3, 4, 1)]:
        group = SymmetricProductGroup(sizes)
        labels = [cls for cls, _ in group.classes()]
        assert labels == list(product(*[partitions(m) for m in sizes]))
        assert sum(size for _, size in group.classes()) == group.order
        modules = [
            {label: rng.randint(1, 3) for label in rng.sample(labels, k)}
            for k in (1, 3, len(labels))
        ]
        for a in modules:
            module = TensorSymFunc(sizes, "s", a)
            for cls in labels:
                expected = sum(
                    c * prod(map(irreducible_character, irrep, cls)) for irrep, c in a.items()
                )
                assert module.character(cls) == expected, (sizes, cls)
            for b in modules:
                expected = classwise_tensor_multiplicities(sizes, a, b)
                module_b = TensorSymFunc(sizes, "s", b)
                assert group.tensor_multiplicities(module, module_b) == expected, sizes


def test_product_group_multiplicity_roundtrip():
    # the trivial module is the unit of the tensor product
    g = SymmetricProductGroup((2, 2))
    mults = {((2,), (1, 1)): 2, ((1, 1), (2,)): 1}
    module = TensorSymFunc((2, 2), "s", mults)
    trivial = TensorSymFunc((2, 2), "s", {((2,), (2,)): 1})
    assert g.tensor_multiplicities(module, trivial) == mults
    assert g.tensor_multiplicities(trivial, module) == mults


def test_product_group_tensor():
    g = SymmetricProductGroup((2,))
    sign = TensorSymFunc((2,), "s", {((1, 1),): 1})
    assert g.tensor_multiplicities(sign, sign) == {((2,),): 1}
    triv = TensorSymFunc((2,), "s", {((2,),): 1})
    assert g.tensor_multiplicities(sign, triv) == {((1, 1),): 1}


def test_product_group_rejects_non_characters():
    g = SymmetricProductGroup((3,))
    # the virtual module trivial - sign, tensored with the trivial module:
    # integral, but one multiplicity is negative.  The non-integral case is
    # tests/test_cli.py::test_non_character_is_a_failed_check
    difference = TensorSymFunc((3,), "s", {((3,),): 1, ((1, 1, 1),): -1})
    with pytest.raises(CheckFailed):
        g.tensor_multiplicities(difference, TensorSymFunc((3,), "s", {((3,),): 1}))
    standard = TensorSymFunc((3,), "s", {((2, 1),): 1})
    assert g.tensor_multiplicities(standard, standard) == {
        ((3,),): 1,
        ((2, 1),): 1,
        ((1, 1, 1),): 1,
    }


def test_a_module_forms_its_class_values_once(monkeypatch):
    # a module keeps the class values it forms: a second product with it,
    # and the second factor of its square, form none
    import ctring.symfunc

    module_character = ctring.symfunc._module_character
    calls = []

    def counted(sizes, module):
        calls.append(sizes)
        return module_character(sizes, module)

    monkeypatch.setattr(ctring.symfunc, "_module_character", counted)
    g = SymmetricProductGroup((3, 2))
    module = TensorSymFunc((3, 2), "s", {((2, 1), (2,)): 1, ((3,), (1, 1)): 2})
    square = g.tensor_multiplicities(module, module)
    assert g.tensor_multiplicities(module, module) == square
    assert calls == [(3, 2)]

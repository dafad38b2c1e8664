"""Heisenberg groups: group law, Schroedinger actions, full census."""

from __future__ import annotations

import itertools
import time

import pytest

from thetacalc.exactnum import ConsistencyError, CycNum, HypothesisError
from thetacalc.heisenberg import (
    HeisenbergElement,
    SchrodingerRep,
    _class_count,
    _conjugacy_classes,
    all_elements,
    check_character_supported_on_center,
    check_schrodinger_irreducible,
    irrep_census,
    schrodinger_rep,
)


def _mat_mul(a, b, m):
    # Dense oracle: the plain matrix product of two dense views.
    size = len(a)
    zero = CycNum.from_rational(m, 0)
    out = []
    for i in range(size):
        row = []
        for j in range(size):
            acc = zero
            for l in range(size):
                acc = acc + a[i][l] * b[l][j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


class TestGroupLaw:
    def test_identity_and_inverses(self):
        e = HeisenbergElement.identity(3, 1)
        for h in all_elements(3, 1):
            assert h * e == h
            assert e * h == h
            assert h * h.inverse() == e
            assert h.inverse() * h == e

    def test_associativity_exhaustive(self):
        els = list(all_elements(3, 1))
        for a, b, c in itertools.product(els, repeat=3):
            assert (a * b) * c == a * (b * c)

    def test_commutators_are_central(self):
        els = list(all_elements(3, 1))
        for a, b in itertools.product(els, repeat=2):
            comm = a * b * a.inverse() * b.inverse()
            assert comm.is_central()
            expected = (
                sum(p * q for p, q in zip(a.x, b.y))
                - sum(p * q for p, q in zip(a.y, b.x))
            ) % 3
            assert comm.t == expected

    def test_validation(self):
        with pytest.raises(HypothesisError, match="residues"):
            HeisenbergElement(3, 3, (0,), (0,))
        with pytest.raises(HypothesisError, match="length"):
            HeisenbergElement(3, 0, (0, 0), (0,))
        with pytest.raises(HypothesisError, match="different"):
            HeisenbergElement(3, 0, (0,), (0,)) * HeisenbergElement(5, 0, (0,), (0,))

    def test_reduction_is_a_homomorphism(self):
        els = list(all_elements(9, 1))[:120]
        for a, b in zip(els, reversed(els)):
            assert (a * b).reduce(3) == a.reduce(3) * b.reduce(3)


class TestSchrodingerRep:
    def test_dimensions(self):
        assert schrodinger_rep(3, 1, 1).dim == 3
        assert schrodinger_rep(5, 2, 1).dim == 5
        assert schrodinger_rep(3, 1, 2).dim == 9
        assert schrodinger_rep(1, 0, 1).dim == 1

    def test_center_acts_by_weighted_scalar(self):
        for m, n in [(3, 1), (5, 2), (5, 3)]:
            rep = schrodinger_rep(m, n, 1)
            for t in range(m):
                mat = rep.matrix(HeisenbergElement(m, t, (0,), (0,)))
                for i in range(m):
                    for j in range(m):
                        want = CycNum.zeta(m, n * t) if i == j else CycNum.from_rational(m, 0)
                        assert mat[i][j] == want

    def test_homomorphism_exhaustive_smallest_case(self):
        rep = schrodinger_rep(3, 1, 1)
        els = list(all_elements(3, 1))
        mats = {h: rep.matrix(h) for h in els}
        for a, b in itertools.product(els, repeat=2):
            assert _mat_mul(mats[a], mats[b], 3) == mats[a * b]

    @pytest.mark.parametrize("m,n,g", [(3, 1, 1), (5, 2, 1), (3, 1, 2)])
    def test_character_is_trace_of_dense_view(self, m, n, g):
        rep = schrodinger_rep(m, n, g)
        for h in all_elements(m, g):
            mat = rep.matrix(h)
            trace = sum((mat[i][i] for i in range(rep.dim)), CycNum.from_rational(m, 0))
            assert rep.character(h) == trace

    @pytest.mark.parametrize("m,g", [(3, 1), (3, 2), (5, 1)])
    def test_action_matches_a_freshly_built_basis(self, m, g):
        # The basis and its index are built once per (m, g); every action
        # equals the one worked out on a basis built here, by the docstring's
        # rule e_w -> zeta^{n (t + <y, w - x>)} e_{w - x}.
        basis = list(itertools.product(range(m), repeat=g))
        index = {w: i for i, w in enumerate(basis)}
        for n in range(1, m):
            rep = schrodinger_rep(m, n, g)
            for h in all_elements(m, g):
                images = [tuple((a - b) % m for a, b in zip(w, h.x)) for w in basis]
                phases = [n * (h.t + sum(b * c for b, c in zip(h.y, v))) % m for v in images]
                assert rep.action(h) == ([index[v] for v in images], phases)

    def test_wrong_phase_breaks_the_group_law(self, monkeypatch):
        action = SchrodingerRep.action
        x_generator = HeisenbergElement(5, 0, (1,), (0,))

        def wrong_phase(rep, h):
            targets, phases = action(rep, h)
            if h == x_generator:
                phases[0] = (phases[0] + 1) % rep.m
            return targets, phases

        monkeypatch.setattr(SchrodingerRep, "action", wrong_phase)
        with pytest.raises(ConsistencyError, match="not a homomorphism"):
            schrodinger_rep(5, 1, 1)

    def test_group_law_check_stays_cheap(self):
        # A group-law check by dense CycNum products takes about 1.5 s here.
        start = time.perf_counter()
        assert schrodinger_rep(5, 1, 2).dim == 25
        assert time.perf_counter() - start < 0.5

    def test_rejects_bad_parameters(self):
        with pytest.raises(HypothesisError, match="odd"):
            schrodinger_rep(4, 1, 1)
        with pytest.raises(HypothesisError, match="full-order"):
            schrodinger_rep(9, 3, 1)
        with pytest.raises(HypothesisError, match="genus"):
            schrodinger_rep(3, 1, 0)

    def test_negative_weight_normalizes(self):
        rep = schrodinger_rep(5, -2, 1)
        assert rep.n == 3


class TestIrreducibility:
    @pytest.mark.parametrize("m,n,g", [(1, 0, 1), (3, 1, 1), (3, 2, 1), (5, 2, 1), (5, 3, 1), (3, 1, 2)])
    def test_character_norm_is_one(self, m, n, g):
        assert check_schrodinger_irreducible(schrodinger_rep(m, n, g))

    @pytest.mark.parametrize("m,n", [(3, 1), (5, 2)])
    def test_character_lives_on_center(self, m, n):
        assert check_character_supported_on_center(schrodinger_rep(m, n, 1))

    def test_budget_guard(self):
        with pytest.raises(HypothesisError, match="budget"):
            check_schrodinger_irreducible(SchrodingerRep(7, 1, 3))

    def test_walk_prices_the_basis_vectors_behind_each_value(self):
        # |G| = 5^7 alone is under the budget, but each character value reads
        # 5^3 basis vectors: 9 765 625 units, refused before the first element.
        rep = schrodinger_rep(5, 1, 3)
        for check in (check_schrodinger_irreducible, check_character_supported_on_center):
            start = time.perf_counter()
            with pytest.raises(HypothesisError, match="9765625 work units"):
                check(rep)
            assert time.perf_counter() - start < 1.0


def _classes_by_full_conjugation(m, g):
    # Oracle: conjugate each new representative by every group element.
    elements = list(all_elements(m, g))
    seen = set()
    classes = []
    for h in elements:
        if h in seen:
            continue
        orbit = {c * h * c.inverse() for c in elements}
        seen |= orbit
        classes.append((h, len(orbit)))
    return classes


class TestConjugacyClasses:
    @pytest.mark.parametrize("m,g", [(1, 1), (3, 1), (5, 1), (7, 1), (9, 1), (3, 2), (1, 3)])
    def test_orbit_closure_matches_full_conjugation(self, m, g):
        classes = _conjugacy_classes(m, g)
        assert classes == _classes_by_full_conjugation(m, g)
        assert sum(size for _, size in classes) == m ** (2 * g + 1)
        assert len(classes) == _class_count(m, g)


class TestCensus:
    def test_trivial_group(self):
        assert irrep_census(1, 1) == [(1, 0, 1)]

    def test_order_27(self):
        # Nine linear characters plus one 3-dimensional irreducible for
        # each unit central weight: 9 * 1 + 2 * 9 = 27.
        assert irrep_census(3, 1) == [(1, 0, 9), (3, 1, 1), (3, 2, 1)]

    def test_order_125(self):
        assert irrep_census(5, 1) == [
            (1, 0, 25),
            (5, 1, 1),
            (5, 2, 1),
            (5, 3, 1),
            (5, 4, 1),
        ]

    def test_genus_two(self):
        assert irrep_census(3, 2) == [(1, 0, 81), (9, 1, 1), (9, 2, 1)]

    def test_composite_modulus(self):
        # f = 3 contributes nine 3-dimensional irreducibles per unit
        # weight of Z/3, lifted to weights 3 and 6 mod 9.
        assert irrep_census(9, 1) == [
            (1, 0, 81),
            (3, 3, 9),
            (3, 6, 9),
            (9, 1, 1),
            (9, 2, 1),
            (9, 4, 1),
            (9, 5, 1),
            (9, 7, 1),
            (9, 8, 1),
        ]

    def test_rejects_even_and_oversized(self):
        with pytest.raises(HypothesisError, match="odd"):
            irrep_census(4, 1)
        for m, g in [(15, 2), (7, 2)]:
            with pytest.raises(HypothesisError, match="budget"):
                irrep_census(m, g)


_CENSUS = {
    (3, 1): [(1, 0, 9), (3, 1, 1), (3, 2, 1)],
    (3, 2): [(1, 0, 81), (9, 1, 1), (9, 2, 1)],
}


class TestGroupedNormsStillFail:
    """The norms group values by distinct value; a wrong value must still show."""

    @pytest.mark.parametrize("m,g", sorted(_CENSUS))
    def test_doubled_character_has_non_unit_norm(self, monkeypatch, m, g):
        assert irrep_census(m, g) == _CENSUS[m, g]
        character = SchrodingerRep.character
        central_generator = HeisenbergElement(m, 1, (0,) * g, (0,) * g)

        def doubled(rep, h):
            # Doubled everywhere but at the central generator, which fixes
            # the weight, so the candidate reaches the norm check.
            chi = character(rep, h)
            return chi if rep.m != m or h == central_generator else chi * 2

        monkeypatch.setattr(SchrodingerRep, "character", doubled)
        with pytest.raises(ConsistencyError, match="non-unit norm"):
            irrep_census(m, g)

    @pytest.mark.parametrize("m,g", sorted(_CENSUS))
    def test_one_value_off_by_a_root_of_unity_has_non_unit_norm(self, monkeypatch, m, g):
        assert irrep_census(m, g) == _CENSUS[m, g]
        character = SchrodingerRep.character
        # A class representative off the center, where the character is 0.
        target = HeisenbergElement(m, 0, (0,) * g, (1,) + (0,) * (g - 1))

        def shifted(rep, h):
            chi = character(rep, h)
            return chi + CycNum.zeta(m, 1) if rep.m == m and h == target else chi

        monkeypatch.setattr(SchrodingerRep, "character", shifted)
        with pytest.raises(ConsistencyError, match="non-unit norm"):
            irrep_census(m, g)

    @pytest.mark.parametrize("m,n,g", [(3, 1, 1), (5, 2, 1), (3, 1, 2)])
    def test_doubled_schrodinger_character_is_not_irreducible(self, monkeypatch, m, n, g):
        rep = schrodinger_rep(m, n, g)
        assert check_schrodinger_irreducible(rep)
        character = SchrodingerRep.character
        monkeypatch.setattr(SchrodingerRep, "character", lambda r, h: character(r, h) * 2)
        assert not check_schrodinger_irreducible(rep)


class TestCrossModuleBookkeeping:
    def test_rep_dimension_matches_bundle_rank(self):
        from thetacalc.chern import w_class

        for m, n, g in [(3, 1, 1), (5, 2, 2), (7, 3, 2)]:
            assert SchrodingerRep(m, n, g).dim == w_class(g, m, n).rank

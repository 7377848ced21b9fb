"""Bracket closure, structure constants and dimensional invariants."""

import glob
import json
import os
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liealg_reference import (_invert_rational_matrix, _solve_in_basis,
                              check_jacobi_dense, nilpotency_step_dense)
from poly_reference import assert_canonical
from rockland.fields import DilationFamily, PolyVectorField, commutator
from rockland.liealg import (StructureConstants, _check_jacobi, _flatten, _RationalSpan,
                             generate_lie_algebra, hormander_rank, nilpotency_step)
from rockland.lifting import invert_graded_map
from rockland.model import load_model, parse_model
from rockland.poly import Poly


def test_grushin_algebra(grushin):
    basis, sc = grushin["basis"], grushin["sc"]
    assert basis.N == 3
    assert basis.degrees == (1, 1, 2)
    assert basis.generator_indices == (0, 1)
    # only nonzero bracket: [W1, W2] = W3
    assert sc.table == ((0, 1, 2, Fraction(1)),)
    assert nilpotency_step(sc, basis.degrees) == 2


def test_chain_r5_algebra(chain_r5):
    basis, sc = chain_r5["basis"], chain_r5["sc"]
    assert basis.N == 6
    assert basis.N - 5 == 1
    assert nilpotency_step(sc, basis.degrees) == 5
    assert chain_r5["delta"].q == 15


def test_single_field_algebra():
    delta = DilationFamily((1,))
    X = PolyVectorField(1, (Poly.const(1, 1),))
    basis, sc = generate_lie_algebra([X], delta)
    assert basis.N == 1
    assert sc.table == ()
    assert nilpotency_step(sc, basis.degrees) == 1


def test_dependent_generators_rejected():
    delta = DilationFamily((1, 2))
    X = PolyVectorField(2, (Poly.const(2, 1), Poly.zero(2)))
    X2 = PolyVectorField(2, (Poly.const(2, 2), Poly.zero(2)))
    with pytest.raises(ValueError, match="dependent"):
        generate_lie_algebra([X, X2], delta)


def test_hormander_rank(grushin):
    basis = grushin["basis"]
    assert hormander_rank(basis, [0, 0]) == 2
    # generators alone do not span at the origin
    gens_only = type(basis)(tuple(basis.W[i] for i in basis.generator_indices),
                            (1, 1), (0, 1))
    assert hormander_rank(gens_only, [0, 0]) == 1
    # rank is dilation-invariant
    rng = random.Random(11)
    for _ in range(10):
        pt = [Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-5, 5))]
        scaled = [v * l ** s for v, s, l in zip(pt, (1, 2), (Fraction(3), Fraction(9)))]
        assert hormander_rank(basis, pt) == 2
        assert hormander_rank(basis, scaled) == 2


def test_structure_constants_reexpand(grushin, three_var_step5):
    """Brackets of basis fields match their structure-constant expansion."""
    for model in (grushin, three_var_step5):
        basis, sc = model["basis"], model["sc"]
        emap = sc.entry_map()
        for i in range(basis.N):
            for j in range(i + 1, basis.N):
                Z = commutator(basis.W[i], basis.W[j])
                expansion = PolyVectorField.zero(basis.nvars)
                for k, c in emap.get((i, j), {}).items():
                    expansion = expansion.add(basis.W[k].scale(c))
                assert Z.sub(expansion).is_zero()


def test_grading_of_structure_constants(three_var_step5):
    basis, sc = three_var_step5["basis"], three_var_step5["sc"]
    for i, j, k, c in sc.table:
        assert c != 0
        assert basis.degrees[k] == basis.degrees[i] + basis.degrees[j]


def test_step5_algebra_shape(three_var_step5):
    basis, sc = three_var_step5["basis"], three_var_step5["sc"]
    assert basis.N == 6
    assert basis.degrees == (1, 1, 2, 3, 4, 5)
    assert nilpotency_step(sc, basis.degrees) == 5
    assert hormander_rank(basis, [0, 0, 0]) == 3


def test_json_serialization(grushin):
    rows = json.loads(grushin["sc"].to_json())
    assert rows == [{"i": 1, "j": 2, "k": 3, "c": "1"}]


# -- the sparse Jacobi check and step against the dense reference ----------------

MODELS = os.path.join(os.path.dirname(__file__), os.pardir, "models")
PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


def _catalogue_texts(seed, passes):
    """Model texts of seeded passes over the symbolic benchmark catalogue."""
    sys.path.insert(0, PERFBENCH)
    try:
        from workloads import CATALOGUE, catalogue_model
    finally:
        sys.path.remove(PERFBENCH)
    rng = random.Random(seed)
    return [catalogue_model(rng, family, param)[0]
            for _ in range(passes) for family, param in CATALOGUE]


def _algebras():
    models = [load_model(p) for p in sorted(glob.glob(os.path.join(MODELS, "*.model")))]
    models += [parse_model(t) for t in _catalogue_texts(3, 3)]
    return [generate_lie_algebra(list(m.fields), m.delta) for m in models]


def test_closure_brackets_each_pair_once(monkeypatch):
    """generate_lie_algebra brackets each unordered pair of fields at most
    once, the structure constants included, on every bundled model."""
    import rockland.liealg as liealg
    pairs = []
    real = liealg.commutator

    def counted(X, Y):
        pairs.append(frozenset((X, Y)))
        return real(X, Y)
    monkeypatch.setattr(liealg, "commutator", counted)
    for path in sorted(glob.glob(os.path.join(MODELS, "*.model"))):
        pairs.clear()
        m = load_model(path)
        basis, _ = generate_lie_algebra(list(m.fields), m.delta)
        assert len(pairs) == len(set(pairs)) <= basis.N * (basis.N - 1) // 2, path


def test_nilpotency_step_matches_dense_reference():
    """On every bundled model and three seeded catalogue passes the step
    read from the entry map is the dense one, and the dense Jacobi check
    accepts every table that generate_lie_algebra returned."""
    algebras = _algebras()
    assert len(algebras) == 7 + 36
    for basis, sc in algebras:
        assert nilpotency_step(sc, basis.degrees) == \
            nilpotency_step_dense(sc, basis.degrees)
        check_jacobi_dense(sc)


def _doubled(sc):
    """sc with each one of its structure constants doubled in turn."""
    for idx, (i, j, k, c) in enumerate(sc.table):
        table = list(sc.table)
        table[idx] = (i, j, k, 2 * c)
        yield StructureConstants(sc.N, tuple(table))


def _jacobi_fails(check, sc):
    try:
        check(sc)
    except ValueError as exc:
        assert "Jacobi identity fails" in str(exc)
        return True
    return False


def test_corrupted_structure_constant_fails_jacobi(three_var_step5):
    """Doubling one structure constant breaks the Jacobi identity for four
    of the five entries of the step-5 table, and the sparse check raises
    exactly where the dense one does."""
    bad = list(_doubled(three_var_step5["sc"]))
    assert [_jacobi_fails(_check_jacobi, sc) for sc in bad] == \
        [_jacobi_fails(check_jacobi_dense, sc) for sc in bad] == \
        [True, True, False, True, True]


def test_generate_lie_algebra_runs_the_jacobi_check(monkeypatch):
    """generate_lie_algebra hands the table it returns to _check_jacobi, so
    a table that breaks the identity cannot leave it."""
    from rockland import liealg
    seen = []
    real = liealg._check_jacobi

    def counting(sc):
        seen.append(sc)
        real(sc)

    monkeypatch.setattr(liealg, "_check_jacobi", counting)
    m = load_model(os.path.join(MODELS, "three_var_step5.model"))
    _, sc = generate_lie_algebra(list(m.fields), m.delta)
    assert seen == [sc]


def _free_rank2_step4(mix):
    """Structure constants of the free nilpotent Lie algebra of rank 2 and
    step 4 (dimensions 2, 1, 2, 3 by degree), in the basis Y = mix @ X for
    a graded change of basis mix, so that brackets have several terms."""
    # [X1,X2]=X3, [X1,X3]=X4, [X2,X3]=X5, [X1,X4]=X6, [X2,X4]=[X1,X5]=X7,
    # [X2,X5]=X8
    base = StructureConstants(8, tuple(
        (i, j, k, Fraction(1)) for i, j, k in
        ((0, 1, 2), (0, 2, 3), (1, 2, 4), (0, 3, 5), (1, 3, 6), (0, 4, 6),
         (1, 4, 7))))
    inv = _invert_rational_matrix([[Fraction(v) for v in row] for row in mix])
    table = []
    for i in range(8):
        for j in range(i + 1, 8):
            x = base.bracket([Fraction(v) for v in mix[i]],
                             [Fraction(v) for v in mix[j]])
            for k in range(8):
                c = sum(x[m] * inv[m][k] for m in range(8))
                if c:
                    table.append((i, j, k, c))
    return StructureConstants(8, tuple(table))


def test_sparse_checks_on_brackets_with_several_terms():
    """With brackets of several terms, [W_a, v] adds several constants into
    one coordinate; the step and the Jacobi check still match the dense
    reference, also under every single doubled constant."""
    degrees = (1, 1, 2, 3, 3, 4, 4, 4)
    mix = [[1, 2, 0, 0, 0, 0, 0, 0], [1, -1, 0, 0, 0, 0, 0, 0],
           [0, 0, 3, 0, 0, 0, 0, 0], [0, 0, 0, 1, 1, 0, 0, 0],
           [0, 0, 0, 1, -1, 0, 0, 0], [0, 0, 0, 0, 0, 1, 1, 0],
           [0, 0, 0, 0, 0, 0, 1, 1], [0, 0, 0, 0, 0, 1, 0, 1]]
    sc = _free_rank2_step4(mix)
    assert max(sum(1 for e in sc.table if e[:2] == ij) for ij in
               {e[:2] for e in sc.table}) >= 2
    assert not _jacobi_fails(_check_jacobi, sc)
    assert not _jacobi_fails(check_jacobi_dense, sc)
    assert nilpotency_step(sc, degrees) == nilpotency_step_dense(sc, degrees) == 4
    bad = list(_doubled(sc))
    fails = [_jacobi_fails(_check_jacobi, b) for b in bad]
    assert fails == [_jacobi_fails(check_jacobi_dense, b) for b in bad]
    assert any(fails)
    for b in bad:
        assert nilpotency_step(b, degrees) == nilpotency_step_dense(b, degrees)


# -- the span's coordinates and inverse against the dense eliminations ------------

_ENTRY = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def _rational_matrix(draw, rows, cols):
    """A rows x cols matrix of small Fractions, at times with a zero column
    and with rows replaced by combinations of earlier rows (rank-deficient)."""
    A = [[draw(_ENTRY) for _ in range(cols)] for _ in range(rows)]
    if draw(st.integers(0, 3)) == 0:
        k = draw(st.integers(0, cols - 1))
        for row in A:
            row[k] = Fraction(0)
    for i in range(1, rows):
        if draw(st.integers(0, 3)) == 0:
            a, b = draw(_ENTRY), draw(_ENTRY)
            j = draw(st.integers(0, i - 1))
            A[i] = [a * x + b * y for x, y in zip(A[j], A[i - 1])]
    return A


def _sparse(row):
    return {k: v for k, v in enumerate(row) if v}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data(), st.integers(1, 5), st.integers(0, 6))
def test_span_coords_match_dense_solve(data, dim, count):
    """insert accepts exactly the vectors outside the dense span, and coords
    returns the dense solve's exact coordinates (Fractions), or None, both
    for a combination of the basis and for a free vector."""
    vecs = [_sparse(r) for r in data.draw(_rational_matrix(count, dim))]
    span, basis = _RationalSpan(), []
    for v in vecs:
        assert span.insert(v) == (_solve_in_basis(basis, v) is None)
        if len(basis) < span.rank:
            basis.append(v)
    assert span.rank == len(basis)
    weights = [data.draw(_ENTRY) for _ in basis]
    inside = _sparse([sum((w * b.get(k, 0) for w, b in zip(weights, basis)), Fraction(0))
                      for k in range(dim)])
    free = _sparse(data.draw(_rational_matrix(1, dim))[0])
    for target in (inside, free):
        want = _solve_in_basis(basis, target)
        got = span.coords(target)
        assert got == want
        assert got is None or all(type(c) is Fraction for c in got)
    assert span.coords(inside) == weights


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data(), st.integers(1, 5))
def test_span_inverse_matches_dense_inverse(data, N):
    """The linear map z -> A z inverts to the dense A^-1 exactly, and a
    singular A is refused where the dense elimination finds no inverse."""
    A = data.draw(_rational_matrix(N, N))
    z = Poly.variables(N)

    def linear(M):
        return [sum((z[k] * a for k, a in enumerate(row) if a), start=Poly.zero(N))
                for row in M]
    want = _invert_rational_matrix(A)
    if want is None:
        with pytest.raises(ValueError, match="singular linear part"):
            invert_graded_map(linear(A), (1,) * N, (1,) * N)
        return
    got = invert_graded_map(linear(A), (1,) * N, (1,) * N)
    assert got == linear(want)
    for p in got:
        assert_canonical(p)


def test_structure_constants_match_dense_solve():
    """On every bundled model and three seeded catalogue passes, the table
    read from the bracketing span is the dense solve's, entry for entry and
    in the same (i, j, k) order."""
    for basis, sc in _algebras():
        vecs = [_flatten(X) for X in basis.W]
        table = []
        for i in range(basis.N):
            for j in range(i + 1, basis.N):
                coords = _solve_in_basis(vecs, _flatten(commutator(basis.W[i], basis.W[j])))
                table += [(i, j, k, c) for k, c in enumerate(coords) if c != 0]
        assert sc.table == tuple(table)
        assert all(type(c) is Fraction for *_, c in sc.table)

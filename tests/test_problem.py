"""Data model, validation, and scaling."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest

from sdpmix.ddouble import DOUBLE_DOUBLE, norm2, to_float_array
from sdpmix.errors import ValidationError
from sdpmix.problem import SdpProblem, as_kind, row_norms, row_norms_sq, scale, validate

from helpers import build_problem, dense_row, dense_row_norms_sq, problem_equals, random_problem, words_equal


def minimal_problem():
    # 1 block n=2, C=I, one equality trace(X)=1
    identity = [(0, 0, 1.0), (1, 1, 1.0)]
    return build_problem((2,), [identity], [{0: identity}], [1.0], ineq_start=2)


def test_validate_accepts_minimal():
    validate(minimal_problem())


def test_validate_ineq_start_out_of_range():
    bad = replace(minimal_problem(), ineq_start=5)
    with pytest.raises(ValidationError, match="ineq_start out of range"):
        validate(bad)


def test_validate_duplicate_entry():
    p = build_problem((2,), [[(0, 1, 1.0), (0, 1, 2.0)]], [{0: [(0, 0, 1.0)]}], [1.0], 2)
    with pytest.raises(ValidationError, match="duplicate"):
        validate(p)


def test_validate_nonfinite_and_empty_constraint():
    p = build_problem((2,), [[(0, 0, math.nan)]], [{0: [(0, 0, 1.0)]}], [1.0], 2)
    with pytest.raises(ValidationError, match="nonfinite"):
        validate(p)
    q = build_problem((2,), [[]], [{}], [1.0], 2)
    with pytest.raises(ValidationError, match="touches no block"):
        validate(q)


def test_validate_accepts_random_problems():
    for seed in range(20):
        validate(random_problem(seed, block_sizes=(3, 2), m_eq=4, m_ineq=3))


# 40 constraints over 3 blocks; every constraint, and the cost (constraint
# 40), has a diagonal and an off-diagonal entry in every block. Constraint
# index 6 holds (2, 2, 7.0) and (0, 3, 0.5) in block 1, the cost holds
# (0, 0, 41.0) and (0, 3, 0.5) there.
SIZES = (3, 4, 2)
M = 40


def many_constraint_lines():
    return [(j, b, j % n, j % n, 1.0 + j) for j in range(M + 1) for b, n in enumerate(SIZES)] + [
        (j, b, 0, n - 1, 0.5) for j in range(M + 1) for b, n in enumerate(SIZES)
    ]


def many_constraint_problem(lines):
    return SdpProblem.from_entries(SIZES, np.ones(M), 21, *zip(*lines))


def set_value(lines, line, value):
    return [(j, b, r, c, value) if (j, b, r, c) == line else (j, b, r, c, v) for j, b, r, c, v in lines]


FAULTS = {
    "duplicate": (lambda ls: ls + [(6, 1, 2, 2, 3.0)], "constraint 7, block 2: duplicate entry"),
    "mirrored_duplicate": (lambda ls: ls + [(6, 1, 3, 0, 0.5)], "constraint 7, block 2: duplicate entry"),
    "nonfinite": (lambda ls: set_value(ls, (6, 1, 2, 2), math.inf), "constraint 7, block 2: nonfinite value"),
    "outside_order": (lambda ls: ls + [(6, 1, 1, 4, 1.0)], "constraint 7, block 2: entry outside the block's order 4"),
    "block_index": (lambda ls: ls + [(6, 3, 0, 0, 1.0)], "constraint 7, block 4: block index out of range 1..3"),
    "no_entry": (lambda ls: [line for line in ls if line[0] != 6], "constraint 7: touches no block"),
    "cost_duplicate": (lambda ls: ls + [(M, 1, 3, 0, 2.0)], "cost block 2: duplicate entry"),
    "cost_nonfinite": (lambda ls: set_value(ls, (M, 1, 0, 0), math.nan), "cost block 2: nonfinite value"),
}


def set_entry(p, t, **values):
    """p with the named columns of table entry t set to the given values."""
    columns = {name: getattr(p.entries, name).copy() for name in values}
    for name, value in values.items():
        columns[name][t] = value
    return replace(p, entries=p.entries._replace(**columns))


def three_block_problem():
    return many_constraint_problem(many_constraint_lines())


@pytest.mark.parametrize("build, mutate, message", [
    (minimal_problem, lambda p: replace(p, block_sizes=()), "problem needs at least one block"),
    (minimal_problem, lambda p: replace(p, block_sizes=(0,)), "block 1: size must be positive, got 0"),
    (minimal_problem, lambda p: replace(p, block_sizes=(-2,)), "block 1: size must be positive, got -2"),
    (minimal_problem, lambda p: set_entry(p, 0, block=1), "constraint 1, block 2: block index out of range 1..1"),
    (minimal_problem, lambda p: set_entry(replace(p, block_sizes=(2, 2)), 0, block=1),
     "constraint 1, block 1: entry out of table order at (2,2)"),
    (minimal_problem, lambda p: replace(p, rhs=np.array([math.inf])), "nonfinite value in rhs"),
    (minimal_problem, lambda p: replace(p, entries=p.entries._replace(con=p.entries.con + 2)),
     "block 1: constraint index out of range 0..1"),
    (three_block_problem, lambda p: set_entry(p, -1, col=0), "cost block 3: duplicate entry at (1,1)"),
    (three_block_problem, lambda p: set_entry(p, -1, con=M - 1), "constraint 40, block 3: entry out of table order"),
], ids=["no_blocks", "zero_size", "negative_size", "block_index", "block_order", "nonfinite_rhs",
        "constraint_index", "block3_duplicate", "block3_order"])
def test_validate_rejects_malformed_problems(build, mutate, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        validate(mutate(build()))


def test_many_constraint_problem_is_valid():
    validate(many_constraint_problem(many_constraint_lines()))


@pytest.mark.parametrize("fault", FAULTS)
def test_validate_names_the_faulty_row(fault):
    mutate, message = FAULTS[fault]
    with pytest.raises(ValidationError, match=re.escape(message)):
        validate(many_constraint_problem(mutate(many_constraint_lines())))


@pytest.mark.parametrize("kind", ["double", "dd"])
def test_row_norms_match_dense_oracle(kind):
    for p in (many_constraint_problem(many_constraint_lines()), random_problem(3, (3, 4), m_eq=4, m_ineq=3)):
        if kind == "dd":
            p = as_kind(p, DOUBLE_DOUBLE)
        got, want = row_norms_sq(p), dense_row_norms_sq(p)
        bound = (1e-30 if kind == "dd" else 1e-15) * (1.0 + np.abs(to_float_array(want)))
        assert np.all(np.abs(to_float_array(got - want)) <= bound)
        _, rec = scale(p)
        norms = np.append(rec.constraint_norms, rec.cost_norm)
        assert np.all(np.abs(to_float_array(norms * norms - want)) <= 4 * bound)


def test_from_entries_mirrors_lower_triangle_and_sorts():
    p = build_problem((3,), [[(2, 0, 5.0), (1, 1, 2.0)]], [], [], 1)
    _, con, row, col, val = p.entries
    assert row.tolist() == [0, 1] and col.tolist() == [2, 1] and val.tolist() == [5.0, 2.0]
    D = dense_row(p, p.m, 0)
    assert D[0, 2] == 5.0 and D[2, 0] == 5.0 and D[1, 1] == 2.0


def test_row_norms_count_offdiagonal_twice():
    p = build_problem((2,), [[(0, 1, 3.0)]], [], [], 1)
    assert row_norms_sq(p)[-1] == pytest.approx(18.0)


def test_scale_identity_cost():
    # C = 2*I2 has Frobenius norm 2*sqrt(2); scaled cost is I2/sqrt(2)
    p = build_problem((2,), [[(0, 0, 2.0), (1, 1, 2.0)]], [{0: [(0, 0, 1.0)]}], [1.0], 2)
    scaled, _ = scale(p)
    _, con, _, _, val = scaled.entries
    np.testing.assert_allclose(val[con == p.m], [1 / math.sqrt(2)] * 2, rtol=1e-15)


def test_scale_single_equality_example():
    # A1 = I3, a1 = 3: matrix scaled by 1/sqrt(3), rhs ends up exactly 1
    p = build_problem((3,), [[(0, 1, 1.0)]], [{0: [(i, i, 1.0) for i in range(3)]}], [3.0], 2)
    scaled, rec = scale(p)
    _, con, _, _, val = scaled.entries
    np.testing.assert_allclose(val[con == 0], [1 / math.sqrt(3)] * 3, rtol=1e-15)
    assert rec.constraint_norms[0] == pytest.approx(math.sqrt(3), rel=1e-15)
    assert rec.primal_scale == pytest.approx(math.sqrt(3), rel=1e-15)
    assert scaled.rhs[0] == pytest.approx(1.0, rel=1e-15)


def test_scale_fixed_point_on_normalized_problem():
    # 0.6^2 + 0.8^2 == 1 exactly in binary64, so this data is exactly unit-norm
    p = build_problem((2,), [[(0, 0, 0.6), (1, 1, 0.8)]], [{0: [(0, 0, 0.8), (1, 1, 0.6)]}], [1.0], 2)
    scaled, rec = scale(p)
    assert problem_equals(scaled, p)
    assert rec.cost_norm == 1.0 and rec.primal_scale == 1.0


@pytest.mark.parametrize("seed", range(8))
def test_scale_unit_norms_and_idempotence(seed):
    p = random_problem(seed, block_sizes=(3, 4), m_eq=4, m_ineq=3)
    scaled, rec = scale(p)
    norms_sq = dense_row_norms_sq(scaled)
    for j in range(scaled.m):
        assert float(norms_sq[j]) == pytest.approx(1.0, rel=1e-15)
    assert float(norms_sq[-1]) == pytest.approx(1.0, rel=1e-14)
    # equality sub-vector is unit norm; the recorded norms map the rhs back
    assert float(norm2(scaled.rhs[: p.m_eq])) == pytest.approx(1.0, rel=1e-14)
    rbar = p.rhs / rec.constraint_norms
    assert float(norm2(rbar[: p.m_eq] / rec.primal_scale)) == pytest.approx(1.0, rel=1e-14)
    np.testing.assert_allclose((rbar / rec.primal_scale).astype(float), scaled.rhs.astype(float), rtol=1e-15)
    again, rec2 = scale(scaled)
    assert float(rec2.cost_norm) == pytest.approx(1.0, rel=1e-14)
    np.testing.assert_allclose(rec2.constraint_norms.astype(float), 1.0, rtol=1e-14)
    np.testing.assert_allclose(again.rhs.astype(float), scaled.rhs.astype(float), rtol=1e-14)
    np.testing.assert_allclose(again.entries.val.astype(float), scaled.entries.val.astype(float), rtol=1e-15)


def test_scale_ineq_only_normalizes_b():
    p = random_problem(11, block_sizes=(4,), m_eq=0, m_ineq=5)
    scaled, rec = scale(p)
    assert float(norm2(scaled.rhs[p.m_eq :])) == pytest.approx(1.0, rel=1e-14)
    assert float(rec.primal_scale) == pytest.approx(float(norm2(p.rhs / rec.constraint_norms)), rel=1e-15)


def test_scale_rejects_zero_norm_constraint():
    p = build_problem((2,), [[(0, 0, 1.0)]], [{0: [(0, 0, 0.0)]}], [1.0], 2)
    with pytest.raises(ValidationError, match="zero-norm"):
        scale(p)


@pytest.mark.parametrize("kind", ["double", "dd"])
def test_row_norms_keep_the_bits_of_rows_in_range(kind):
    # scaling a row by a power of two is exact, so the norms equal the
    # square roots of row_norms_sq word for word
    for seed in range(4):
        p = random_problem(seed, (3, 4), m_eq=4, m_ineq=3)
        p = as_kind(p, DOUBLE_DOUBLE) if kind == "dd" else p
        assert words_equal(row_norms(p), np.sqrt(row_norms_sq(p)))


@pytest.mark.parametrize("kind", ["double", "dd"])
@pytest.mark.parametrize("coef", [1e-170, 1e160])
def test_row_norms_of_entries_whose_squares_leave_the_range(kind, coef):
    # coef^2 underflows to 0 or overflows to inf in binary64
    p = build_problem((2,), [[(0, 1, coef)]], [{0: [(0, 0, coef), (1, 1, coef)]}], [coef], 2)
    p = as_kind(p, DOUBLE_DOUBLE) if kind == "dd" else p
    np.testing.assert_allclose(to_float_array(row_norms(p)), [coef * math.sqrt(2)] * 2, rtol=1e-15)
    scaled, rec = scale(p)
    np.testing.assert_allclose(to_float_array(scaled.entries.val), [1 / math.sqrt(2)] * 3, rtol=1e-15)
    assert float(rec.constraint_norms[0]) == pytest.approx(coef * math.sqrt(2), rel=1e-15)


def test_scale_rhs_whose_square_overflows():
    p = build_problem((1,), [[(0, 0, 1.0)]], [{0: [(0, 0, 1.0)]}, {0: [(0, 0, 1.0)]}], [3e200, 4e200], 3)
    scaled, rec = scale(p)
    assert float(rec.primal_scale) == pytest.approx(5e200, rel=1e-15)
    np.testing.assert_allclose(scaled.rhs, [0.6, 0.8], rtol=1e-15)


def test_scale_zero_rhs_subvector_records_one():
    p = build_problem((2,), [[(0, 0, 1.0)]], [{0: [(0, 0, 1.0), (1, 1, 1.0)]}], [0.0], 2)
    scaled, rec = scale(p)
    assert float(rec.primal_scale) == 1.0
    assert float(scaled.rhs[0]) == 0.0


def test_as_kind_round_trip_exact():
    p = random_problem(5, block_sizes=(3,), m_eq=2, m_ineq=1)
    pdd = as_kind(p, DOUBLE_DOUBLE)
    assert pdd.kind is DOUBLE_DOUBLE
    assert all(np.array_equal(a, b) for a, b in zip(p.entries[:4], pdd.entries[:4]))
    assert np.array_equal(p.entries.val, np.array([float(v) for v in pdd.entries.val]))
    back = [float(v) for v in pdd.rhs]
    assert np.array_equal(np.asarray(p.rhs, dtype=float), back)


"""Data model, validation, and scaling."""

import math

import numpy as np
import pytest

from sdpmix.ddouble import DOUBLE_DOUBLE, norm2
from sdpmix.errors import ValidationError
from sdpmix.problem import ScalingRecord, SdpProblem, SymMatrix, as_kind, scale, validate

from helpers import problem_equals, random_problem, to_dense


def minimal_problem():
    # 1 block n=2, C=I, one equality trace(X)=1
    C = SymMatrix.from_entries(2, [(0, 0, 1.0), (1, 1, 1.0)])
    A = SymMatrix.from_entries(2, [(0, 0, 1.0), (1, 1, 1.0)])
    return SdpProblem.build((2,), [C], [{0: A}], [1.0], ineq_start=2)


def test_validate_accepts_minimal():
    validate(minimal_problem())


def test_validate_ineq_start_out_of_range():
    p = minimal_problem()
    bad = SdpProblem.build(p.block_sizes, p.costs, p.constraints, p.rhs, ineq_start=5)
    with pytest.raises(ValidationError, match="ineq_start out of range"):
        validate(bad)


def test_validate_dimension_mismatch():
    C = SymMatrix.from_entries(2, [(0, 0, 1.0)])
    A = SymMatrix.from_entries(3, [(0, 0, 1.0)])
    p = SdpProblem.build((2,), [C], [{0: A}], [1.0], ineq_start=2)
    with pytest.raises(ValidationError, match="dimension mismatch"):
        validate(p)


def test_validate_duplicate_entry():
    C = SymMatrix(2, np.array([0, 0]), np.array([1, 1]), np.array([1.0, 2.0]))
    p = SdpProblem.build((2,), [C], [{0: SymMatrix.from_entries(2, [(0, 0, 1.0)])}], [1.0], 2)
    with pytest.raises(ValidationError, match="duplicate"):
        validate(p)


def test_validate_nonfinite_and_empty_constraint():
    C = SymMatrix.from_entries(2, [(0, 0, math.nan)])
    p = SdpProblem.build((2,), [C], [{0: SymMatrix.from_entries(2, [(0, 0, 1.0)])}], [1.0], 2)
    with pytest.raises(ValidationError, match="nonfinite"):
        validate(p)
    q = SdpProblem.build((2,), [SymMatrix.from_entries(2, [])], [{}], [1.0], 2)
    with pytest.raises(ValidationError, match="touches no block"):
        validate(q)


def test_validate_accepts_random_problems():
    for seed in range(20):
        validate(random_problem(seed, block_sizes=(3, 2), m_eq=4, m_ineq=3))


def test_symmatrix_mirrors_lower_triangle_and_sorts():
    m = SymMatrix.from_entries(3, [(2, 0, 5.0), (1, 1, 2.0)])
    assert m.rows.tolist() == [0, 1] and m.cols.tolist() == [2, 1]
    D = to_dense(m)
    assert D[0, 2] == 5.0 and D[2, 0] == 5.0 and D[1, 1] == 2.0


def test_symmatrix_frobenius_counts_offdiagonal_twice():
    m = SymMatrix.from_entries(2, [(0, 1, 3.0)])
    assert m.frob_sq() == pytest.approx(18.0)


def test_scale_identity_cost():
    # C = 2*I2 has Frobenius norm 2*sqrt(2); scaled cost is I2/sqrt(2)
    C = SymMatrix.from_entries(2, [(0, 0, 2.0), (1, 1, 2.0)])
    A = SymMatrix.from_entries(2, [(0, 0, 1.0)])
    p = SdpProblem.build((2,), [C], [{0: A}], [1.0], 2)
    scaled, _ = scale(p)
    np.testing.assert_allclose(scaled.costs[0].vals, [1 / math.sqrt(2)] * 2, rtol=1e-15)


def test_scale_single_equality_example():
    # A1 = I3, a1 = 3: matrix scaled by 1/sqrt(3), rhs ends up exactly 1
    C = SymMatrix.from_entries(3, [(0, 1, 1.0)])
    A = SymMatrix.from_entries(3, [(i, i, 1.0) for i in range(3)])
    p = SdpProblem.build((3,), [C], [{0: A}], [3.0], 2)
    scaled, rec = scale(p)
    np.testing.assert_allclose(scaled.constraints[0][0][1].vals, [1 / math.sqrt(3)] * 3, rtol=1e-15)
    assert rec.constraint_norms[0] == pytest.approx(math.sqrt(3), rel=1e-15)
    assert rec.rhs_eq_norm == pytest.approx(math.sqrt(3), rel=1e-15)
    assert scaled.rhs[0] == pytest.approx(1.0, rel=1e-15)


def test_scale_fixed_point_on_normalized_problem():
    # 0.6^2 + 0.8^2 == 1 exactly in binary64, so this data is exactly unit-norm
    C = SymMatrix.from_entries(2, [(0, 0, 0.6), (1, 1, 0.8)])
    A = SymMatrix.from_entries(2, [(0, 0, 0.8), (1, 1, 0.6)])
    p = SdpProblem.build((2,), [C], [{0: A}], [1.0], 2)
    scaled, rec = scale(p)
    assert problem_equals(scaled, p)
    assert rec.cost_norm == 1.0 and rec.rhs_eq_norm == 1.0 and rec.primal_scale == 1.0


@pytest.mark.parametrize("seed", range(8))
def test_scale_unit_norms_and_idempotence(seed):
    p = random_problem(seed, block_sizes=(3, 4), m_eq=4, m_ineq=3)
    scaled, rec = scale(p)
    for j in range(scaled.m):
        assert float(scaled.constraint_frob_sq(j)) == pytest.approx(1.0, rel=1e-15)
    total = sum(float(c.frob_sq()) for c in scaled.costs)
    assert total == pytest.approx(1.0, rel=1e-14)
    # equality sub-vector is unit norm; recorded norms normalize each sub-vector
    assert float(norm2(scaled.rhs_eq)) == pytest.approx(1.0, rel=1e-14)
    rbar = p.rhs / rec.constraint_norms
    assert float(norm2(rbar[: p.m_eq] / rec.rhs_eq_norm)) == pytest.approx(1.0, rel=1e-14)
    assert float(norm2(rbar[p.m_eq :] / rec.rhs_ineq_norm)) == pytest.approx(1.0, rel=1e-14)
    again, rec2 = scale(scaled)
    assert float(rec2.cost_norm) == pytest.approx(1.0, rel=1e-14)
    np.testing.assert_allclose(rec2.constraint_norms.astype(float), 1.0, rtol=1e-14)
    np.testing.assert_allclose(again.rhs.astype(float), scaled.rhs.astype(float), rtol=1e-14)
    for j in range(p.m):
        for (b1, m1), (b2, m2) in zip(again.constraints[j], scaled.constraints[j]):
            np.testing.assert_allclose(m1.vals.astype(float), m2.vals.astype(float), rtol=1e-15)


def test_scale_ineq_only_normalizes_b():
    p = random_problem(11, block_sizes=(4,), m_eq=0, m_ineq=5)
    scaled, rec = scale(p)
    assert float(norm2(scaled.rhs_ineq)) == pytest.approx(1.0, rel=1e-14)
    assert float(rec.primal_scale) == pytest.approx(float(rec.rhs_ineq_norm))


def test_scale_rejects_zero_norm_constraint():
    C = SymMatrix.from_entries(2, [(0, 0, 1.0)])
    Z = SymMatrix(2, np.array([0]), np.array([0]), np.array([0.0]))
    p = SdpProblem.build((2,), [C], [{0: Z}], [1.0], 2)
    with pytest.raises(ValidationError, match="zero-norm"):
        scale(p)


def test_scale_zero_rhs_subvector_records_one():
    C = SymMatrix.from_entries(2, [(0, 0, 1.0)])
    A = SymMatrix.from_entries(2, [(0, 0, 1.0), (1, 1, 1.0)])
    p = SdpProblem.build((2,), [C], [{0: A}], [0.0], 2)
    scaled, rec = scale(p)
    assert float(rec.rhs_eq_norm) == 1.0 and float(rec.primal_scale) == 1.0
    assert float(scaled.rhs[0]) == 0.0


def test_as_kind_round_trip_exact():
    p = random_problem(5, block_sizes=(3,), m_eq=2, m_ineq=1)
    pdd = as_kind(p, DOUBLE_DOUBLE)
    assert pdd.kind is DOUBLE_DOUBLE
    for c64, cdd in zip(p.costs, pdd.costs):
        assert np.array_equal(c64.vals, np.array([float(v) for v in cdd.vals]))
    back = [float(v) for v in pdd.rhs]
    assert np.array_equal(np.asarray(p.rhs, dtype=float), back)


def test_identity_record_shape():
    p = random_problem(1, m_eq=2, m_ineq=1)
    rec = ScalingRecord.identity(p)
    assert len(rec.constraint_norms) == p.m and float(rec.primal_scale) == 1.0

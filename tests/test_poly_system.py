import io
from math import nan

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnls import (DeskScaleError, DimensionMismatchError, InputError,
                  MixedSystem, ParseError, PolynomialSystem, SparseMatrix,
                  be_from_sparse, canonicalize, euler_check, evaluate,
                  gradient_md, homogenize_odd, jacobian, mixed_evaluate,
                  mixed_jacobian, tensor_power)
from qnls.poly_system import (DESK_SCALE_CAP, _norm_above, _swap_factor,
                              canonicalize_mixed, evaluate_monomials,
                              monomials_to_matrix, system_parts)
from qnls.problem_io import parse_problem
from qnls.problems import (GpeParams, LvParams, gpe_discretize, lv_discretize,
                           random_system)

from conftest import (fd_gradient, merged_m_d, spy_dense_blocks,
                      swap_matrices)


# ---------------------------------------------------------------------------
# SparseMatrix and the factor swaps Q_j
# ---------------------------------------------------------------------------

def test_sparse_rejects_duplicates_and_out_of_range():
    with pytest.raises(InputError):
        SparseMatrix.from_entries(2, 2, [(0, 0, 1.0), (0, 0, 2.0)])
    with pytest.raises(InputError):
        SparseMatrix.from_entries(2, 2, [(2, 0, 1.0)])
    # a duplicate that is not adjacent in input order
    with pytest.raises(InputError) as exc:
        SparseMatrix.from_entries(2, 2, [(1, 0, 1.0), (0, 1, 1.0), (1, 0, 2.0)])
    assert str(exc.value) == "duplicate (row, col) entry"


@pytest.mark.parametrize("shape", [(7, 7), (5, 9), (12, 4)])
def test_spectral_norm_is_the_dense_norm(shape):
    # rectangular, with empty rows and columns the nonzero block leaves out
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    for _ in range(20):
        m = rng.uniform(-1, 1, shape) * (rng.random(shape) < 0.3)
        m[rng.integers(shape[0])] = 0.0
        m[:, rng.integers(shape[1])] = 0.0
        dense = np.linalg.norm(m, 2)
        a = SparseMatrix.from_dense(m)
        assert abs(_norm_above(a, nan) - dense) <= 1e-12 * dense
        # a bound answers None at or above the norm, and the norm below it
        assert _norm_above(a, 1.001 * dense) is None
        assert _norm_above(a, 0.999 * dense) == _norm_above(a, nan)
    empty = SparseMatrix(*shape, [], [], [])
    assert _norm_above(empty, nan) == 0.0 and _norm_above(empty, 0.0) is None


def test_spectral_norm_caps_the_nonzero_block_not_the_shape():
    cols = np.arange(DESK_SCALE_CAP + 1)
    row = SparseMatrix(1, cols.size, np.zeros_like(cols), cols, np.ones(cols.size))
    with pytest.raises(DeskScaleError, match="too large for dense spectral norm"):
        _norm_above(row, nan)
    big = 10 ** 6
    corner = SparseMatrix(big, big, [0, big - 1], [big - 1, 0], [3.0, -4.0])
    assert _norm_above(corner, nan) == 4.0


def _nonzero_block(m):
    """m's nonzero-row by nonzero-column block, dense."""
    return m[np.ix_(m.any(axis=1), m.any(axis=0))]


def _sparse_norm_cases():
    rng = np.random.default_rng(38)
    half = rng.uniform(-1, 1, (9, 9)) * (rng.random((9, 9)) < 0.3)
    symmetric = np.pad(half + half.T, ((0, 3), (0, 3)))
    # ||.||_2 = 4 = ||.||_1, row sums 1: read as row sums twice, the
    # sqrt(||.||_1 ||.||_inf) bound would certify 1
    column = np.zeros((16, 16))
    column[:, 3] = 1.0
    wide = rng.uniform(-1, 1, (5, 11)) * (rng.random((5, 11)) < 0.4)
    wide[2] = 0.0
    # norm 1 = ||.||_F = sqrt(||.||_1 ||.||_inf): at a bound of 1 no cheap
    # bound certifies, and the SVD decides
    threshold = np.full((2, 2), 0.5)
    big = np.array([[1e160, 1.0], [1.0, 0.5]])
    return [symmetric, column, wide, threshold, big]


@pytest.mark.parametrize("m", _sparse_norm_cases(),
                         ids=["symmetric", "column", "wide", "threshold",
                              "1e160"])
def test_a_sparse_matrix_gets_the_verdict_of_its_dense_block(m):
    # the bounds read from the entries settle, bind or defer to the SVD
    # exactly where the dense nonzero block's answer says
    a, block = SparseMatrix.from_dense(m), _nonzero_block(m)
    nrm = np.linalg.norm(block, 2)
    for bound in (nan, 0.5 * nrm, nrm, nrm * (1 + 1e-9), 1.5 * nrm, 4 * nrm):
        assert _norm_above(a, bound) == _norm_above(block, bound)
    assert _norm_above(a, nan) == nrm and _norm_above(a, 0.5 * nrm) == nrm
    assert _norm_above(a, nrm * (1 + 1e-9)) is None


@pytest.mark.parametrize("shape, count, seed", [
    ((9, 6), 40, 0), ((9, 6), 40, 1), ((12, 3), 8, 2), ((4, 4), 0, 3)])
def test_summed_and_matvec_add_as_add_at_does(shape, count, seed):
    # both scatters add in index order, so they equal np.add.at bit for
    # bit; the last 3 rows stay empty, and matvec still has all of them
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, shape[0] - 3, count)
    cols = rng.integers(0, shape[1], count)
    vals = rng.uniform(-1, 1, count) * 10.0 ** rng.integers(-8, 9, count)
    uniq, inv = np.unique(rows * shape[1] + cols, return_inverse=True)
    acc = np.zeros(uniq.size)
    np.add.at(acc, inv, vals)
    want = SparseMatrix(*shape, uniq // shape[1], uniq % shape[1], acc)
    a = SparseMatrix.summed(*shape, rows, cols, vals)
    for got, ref in ((a.rows, want.rows), (a.cols, want.cols),
                     (a.vals, want.vals)):
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
    x = rng.uniform(-1, 1, shape[1])
    out = np.zeros(shape[0])
    np.add.at(out, a.rows, a.vals * x[a.cols])
    got = a.matvec(x)
    assert got.dtype == out.dtype and got.tobytes() == out.tobytes()


def test_sparse_drops_a_zero_duplicate_before_the_duplicate_check():
    a = SparseMatrix.from_entries(2, 2, [(1, 0, 1.0), (0, 1, 1.0), (1, 0, 0.0)])
    assert list(a.entries()) == [(0, 1, 1.0), (1, 0, 1.0)]


def test_sparse_symmetrize_and_norm():
    a = SparseMatrix.from_entries(2, 2, [(0, 1, 2.0)])
    sym = a.symmetrized()
    assert np.allclose(sym.to_dense(), [[0, 1], [1, 0]])
    assert _norm_above(sym, nan) == pytest.approx(1.0)


@pytest.mark.parametrize("shape, density, seed", [
    ((6, 6), 0.4, 0), ((6, 6), 0.8, 1), ((3, 8), 0.5, 2), ((8, 3), 0.5, 3),
    ((1, 5), 1.0, 4), ((5, 1), 1.0, 5), ((4, 4), 0.0, 6), ((2, 7), 0.0, 7)])
def test_sparsity_is_the_most_nonzeros_in_a_row_or_column(shape, density,
                                                          seed):
    rng = np.random.default_rng(seed)
    dense = rng.uniform(-1.0, 1.0, shape) * (rng.uniform(size=shape) < density)
    nonzero = dense != 0.0
    want = max(nonzero.sum(axis=1).max(), nonzero.sum(axis=0).max())
    assert SparseMatrix.from_dense(dense).sparsity() == want


def test_declared_sparsity_errors_keep_their_types_and_messages():
    a = SparseMatrix.from_entries(2, 2, [(0, 0, 0.5), (0, 1, 0.5)])
    with pytest.raises(InputError) as exc:
        be_from_sparse(a, 1)
    assert (exc.type, str(exc.value)) == (
        InputError, "per-row/column nonzero count exceeds declared sparsity")
    with pytest.raises(InputError) as exc:
        PolynomialSystem(2, 1, 1, (a, a))
    assert (exc.type, str(exc.value)) == (
        InputError, "declared sparsity exceeded after symmetrization")
    for kind in ("homogeneous", "mixed"):
        text = (f"version 1\nkind {kind}\nn 2\np 1\ns 1\nequation 0\n"
                "a 0 0 0.5\na 0 1 0.5\nend\nequation 1\na 1 1 1\nend\n")
        with pytest.raises(ParseError) as exc:
            parse_problem(io.StringIO(text))
        assert str(exc.value) == ("malformed problem file: declared sparsity "
                                  "exceeded after symmetrization")


@given(st.integers(2, 4), st.integers(1, 3), st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_factor_permutation_involution(n, p, seed):
    rng = np.random.default_rng(seed)
    j = int(rng.integers(1, p + 1))
    idx = rng.integers(0, n ** p, size=32)
    moved = _swap_factor(idx, n, p, j)
    assert np.array_equal(_swap_factor(moved, n, p, j), idx)
    # the swap preserves the base-n digit multiset of each index
    for i, m in zip(map(int, idx[:8]), map(int, moved[:8])):
        assert (sorted(np.base_repr(i, n).zfill(p))
                == sorted(np.base_repr(m, n).zfill(p)))


def _m_block(system, i):
    """Block i of the system's merged M, dense."""
    d = system.n ** system.p
    return system.m_blockdiag.to_dense()[i * d:(i + 1) * d, i * d:(i + 1) * d]


@pytest.mark.parametrize("n, p", [(2, 1), (3, 2), (2, 3), (3, 3)])
def test_m_d_is_the_sum_of_factor_swap_conjugations(n, p):
    # block i of M is M_D^i = sum_j Q_j A_i Q_j, each Q_j the permutation
    # matrix of the swap, and M has nothing off its diagonal blocks
    system = random_system(n, p, 2, seed=10 * n + p)
    d = n ** p
    qs = swap_matrices(n, p)
    assert np.array_equal(qs[-1], np.eye(d))
    expected = np.zeros((n * d, n * d))
    for i, a in enumerate(system.equations):
        dense = a.to_dense()
        block = sum(q @ dense @ q for q in qs)
        assert np.max(np.abs(_m_block(system, i) - block)) <= 1e-15
        expected[i * d:(i + 1) * d, i * d:(i + 1) * d] = block
    assert np.max(np.abs(system.m_blockdiag.to_dense() - expected)) <= 1e-15


def test_m_d_is_merged_once_per_system(monkeypatch):
    system = random_system(3, 2, 2, seed=4)
    merges = []
    real = SparseMatrix.summed
    monkeypatch.setattr(SparseMatrix, "summed", classmethod(
        lambda cls, *args: merges.append(1) or real(*args)))
    x = np.array([0.3, -0.2, 0.5])
    jacobian(system, x)
    jacobian(system, x)
    assert len(merges) == 1
    assert system.m_blockdiag is system.m_blockdiag


def test_canonicalized_system_merges_its_own_m_d():
    base = random_system(3, 2, 2, seed=4)
    system = PolynomialSystem(3, 2, base.sparsity,
                              tuple(a.scaled(4.0) for a in base.equations))
    parent = system.m_blockdiag
    canon, factor = canonicalize(system)
    assert factor < 1.0
    assert canon.m_blockdiag is not parent
    fresh = PolynomialSystem(3, 2, canon.sparsity, canon.equations).m_blockdiag
    assert np.array_equal(canon.m_blockdiag.to_dense(), fresh.to_dense())
    assert np.allclose(canon.m_blockdiag.to_dense(), factor * parent.to_dense(),
                       rtol=1e-15, atol=0)
    for i in range(3):
        assert np.allclose(_m_block(canon, i), factor * _m_block(system, i),
                           rtol=1e-15, atol=0)


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def test_evaluate_diag_squares():
    a1 = SparseMatrix.from_dense(np.diag([2.0, 0.0]))
    a2 = SparseMatrix.from_dense(np.diag([0.0, 2.0]))
    system = PolynomialSystem(2, 1, 2, (a1, a2))
    assert np.allclose(evaluate(system, np.array([1.0, 1.0])), [1.0, 1.0])


def test_evaluate_zero_at_origin():
    system = random_system(3, 2, 2, seed=1)
    assert np.allclose(evaluate(system, np.zeros(3)), 0.0)


def test_evaluate_quartic_identity_coefficients():
    eye = SparseMatrix.identity(4)
    system = PolynomialSystem(2, 2, 1, (eye, eye))
    x = np.array([1.0, 1.0])
    # oracle: dense tensor contraction
    xp = tensor_power(x, 2)
    expected = 0.5 * xp @ np.eye(4) @ xp
    assert evaluate(system, x)[0] == pytest.approx(expected)
    assert expected == pytest.approx(2.0)


def test_evaluate_dimension_mismatch():
    system = random_system(2, 1, 1, seed=0)
    with pytest.raises(DimensionMismatchError):
        evaluate(system, np.zeros(3))


# ---------------------------------------------------------------------------
# gradient_md / jacobian / euler
# ---------------------------------------------------------------------------

def test_gradient_p1_symmetric():
    a = SparseMatrix.from_dense(np.diag([2.0, 2.0]))
    system = PolynomialSystem(2, 1, 1, (a, a))
    assert np.allclose(gradient_md(system, 0, np.array([1.0, 2.0])), [2.0, 4.0])


def test_gradient_p2_norm_quartic():
    eye = SparseMatrix.identity(4)
    system = PolynomialSystem(2, 2, 1, (eye, eye))
    assert np.allclose(gradient_md(system, 0, np.array([1.0, 0.0])), [2.0, 0.0])


def test_gradient_matches_finite_differences():
    system = random_system(3, 2, 2, seed=7)
    rng = np.random.default_rng(2)
    x = rng.uniform(-1.0, 1.0, 3)
    for i in range(3):
        fd = fd_gradient(system, i, x)
        grad = gradient_md(system, i, x)
        assert np.linalg.norm(grad - fd) <= 1e-6 * max(1.0, np.linalg.norm(fd))


def test_jacobian_rows_and_zero_point(diag_system):
    x = np.array([1.0, 1.0])
    assert np.allclose(jacobian(diag_system, x), np.diag([1.0, 1.0]))
    assert np.allclose(jacobian(diag_system, np.zeros(2)), 0.0)
    rows = [gradient_md(diag_system, i, x) for i in range(2)]
    assert np.allclose(jacobian(diag_system, x), np.vstack(rows))


def _stacked_gradient_rows(system, x):
    """The Jacobian as n scatters, each over its own M_D^i, stacked."""
    n, p = system.n, system.p
    w, xp = tensor_power(x, p - 1), tensor_power(x, p)
    rows = []
    for i in range(n):
        md = merged_m_d(system, i)
        grad = np.zeros(n)
        np.add.at(grad, md.rows % n, md.vals * (w[md.rows // n] * xp[md.cols]))
        rows.append(grad)
    return np.vstack(rows)


def test_jacobian_is_the_stacked_gradient_rows_bit_for_bit():
    # the one scatter over M adds each slot's terms in the per-equation
    # scatter's order, so the Jacobian is the stacked rows bit for bit
    lv = lv_discretize(LvParams(1.0, 1.0, 1.0, 1.0, 0.1, 8, 1.2, 0.9))
    gpe = gpe_discretize(GpeParams(4, 0.5, 1.0, np.full(4, 0.2), 0.05, 0.5,
                                   np.array([0.3, 0.2 - 0.1j, 0.1j, -0.2])))
    systems = [canonicalize_mixed(ms)[0].nonlinear for ms in (lv, gpe)]
    systems += [random_system(3, p, 2, seed=7 + p) for p in (1, 2, 3, 4)]
    rng = np.random.default_rng(3)
    for system in systems:
        for _ in range(3):
            x = rng.uniform(-1.0, 1.0, system.n)
            rows = _stacked_gradient_rows(system, x)
            assert np.array_equal(jacobian(system, x), rows)
            assert all(np.array_equal(gradient_md(system, i, x), rows[i])
                       for i in range(system.n))


def test_euler_identity_diag_and_random(diag_system):
    assert euler_check(diag_system, np.array([1.0, 1.0])) == pytest.approx(0.0)
    assert euler_check(diag_system, np.zeros(2)) == pytest.approx(0.0)
    system = random_system(3, 3, 2, seed=5)
    rng = np.random.default_rng(8)
    x = rng.uniform(-1, 1, 3)
    f = np.linalg.norm(evaluate(system, x))
    assert euler_check(system, x) <= 1e-10 * max(1.0, f)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=25, deadline=None)
def test_scaling_law_property(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 4))
    p = int(rng.integers(1, 3))
    system = random_system(n, p, 2, seed=seed)
    x = rng.uniform(-1, 1, n)
    lam = float(rng.uniform(0.2, 2.0))
    lhs_f = evaluate(system, lam * x)
    rhs_f = lam ** (2 * p) * evaluate(system, x)
    assert np.allclose(lhs_f, rhs_f, rtol=1e-10, atol=1e-12)
    lhs_j = jacobian(system, lam * x)
    rhs_j = lam ** (2 * p - 1) * jacobian(system, x)
    assert np.allclose(lhs_j, rhs_j, rtol=1e-10, atol=1e-12)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=25, deadline=None)
def test_euler_identity_property(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 4))
    p = int(rng.integers(1, 3))
    system = random_system(n, p, 2, seed=seed + 13)
    x = rng.uniform(-1, 1, n)
    f = np.linalg.norm(evaluate(system, x))
    assert euler_check(system, x) <= 1e-10 * max(1.0, f)


def test_appendix_b_value_bound():
    rng = np.random.default_rng(4)
    for seed in range(10):
        system = random_system(3, 2, 2, seed=seed)
        x = rng.normal(size=3)
        x *= rng.uniform(0.1, 1.0) / np.linalg.norm(x)
        bound = (np.sqrt(3) * np.linalg.norm(x) ** (2 * system.p)
                 * system.max_norm())
        assert np.linalg.norm(evaluate(system, x)) <= bound + 1e-12


def test_canonicalize_rescales_norm_and_entries():
    a = SparseMatrix.from_dense(np.diag([2.0, 0.0]))
    b = SparseMatrix.from_dense(np.diag([0.0, 2.0]))
    system = PolynomialSystem(2, 1, 1, (a, b))
    canon, factor = canonicalize(system)
    assert factor < 1.0
    assert canon.p * canon.max_norm() <= np.sqrt(2) + 1e-12
    assert max(a.max_abs_entry() for a in canon.equations) <= 1.0 + 1e-12
    # roots are preserved: F_canon = factor * F
    x = np.array([0.3, -0.4])
    assert np.allclose(evaluate(canon, x), factor * evaluate(system, x))


def _ratio_factor(n, p, mats):
    """min(1, sqrt(n) / (p max ||A_i||_2), 1 / max |a|) over mats, every
    norm by SVD, a zero norm or entry imposing nothing."""
    c, norm = 1.0, max(_norm_above(a, nan) for a in mats)
    ent = max(a.max_abs_entry() for a in mats)
    if norm > 0:
        c = min(c, np.sqrt(n) / (p * norm))
    if ent > 0:
        c = min(c, 1.0 / ent)
    return c


def _dense_system(rng, n, p, scale):
    """n equations of seeded dense-ish coefficients uniform in +-scale."""
    d = n ** p
    mats = rng.uniform(-scale, scale, (n, d, d)) * (rng.random((n, d, d)) < 0.6)
    return PolynomialSystem(n, p, d, tuple(map(SparseMatrix.from_dense, mats)))


@pytest.mark.parametrize("n, p, scale, regimes", [
    (2, 1, 0.2, {"settled"}), (3, 2, 0.05, {"settled"}),
    (2, 2, 0.5, {"settled", "norm", "ulp"}), (2, 2, 3.0, {"norm", "ulp"}),
    (3, 1, 5.0, {"entry"}), (2, 3, 0.5, {"norm", "ulp"})],
    ids=["settled-p1", "settled-p2", "both-p2", "norm-p2", "entry", "norm-p3"])
def test_canonical_factors_are_the_ratio_of_the_svd_norms(n, p, scale,
                                                          regimes):
    # a norm the cheap bounds settle under sqrt(n) / p (less 1e-12) gets no
    # SVD; the factor is still the ratio's whether nothing binds, the norm
    # or the entry does, and for a canonical system canonicalized again,
    # whose norm sits at sqrt(n) / p and whose factor can be an ulp under 1;
    # the mixed factors are each equation's own ratio
    rng = np.random.default_rng(100 * n + 10 * p + int(scale))
    seen = set()
    for _ in range(6):
        system = _dense_system(rng, n, p, scale)
        canon, c = canonicalize(system)
        assert c == _ratio_factor(n, p, system.equations)
        again, c2 = canonicalize(canon)
        assert c2 == _ratio_factor(n, p, canon.equations)
        if c == 1.0:
            seen.add("settled")
        elif c == np.sqrt(n) / (p * system.max_norm()):
            seen.add("norm")
            assert abs(p * canon.max_norm() / np.sqrt(n) - 1.0) < 1e-12
        else:
            seen.add("entry")
        if c2 < 1.0:
            seen.add("ulp")
        for ps in (system, canon):
            ms = MixedSystem(n, np.ones(n), SparseMatrix.identity(n), ps)
            _, factors = canonicalize_mixed(ms)
            assert factors.tolist() == [_ratio_factor(n, p, [a])
                                        for a in ps.equations]
    assert seen == regimes


def test_a_norm_rounding_to_sqrt_n_over_p_goes_through_the_ratio():
    # at n = 13, p = 3 the norm b = sqrt(13) / 3 gives 3 b above sqrt(13) in
    # floats, so the ratio picks a factor an ulp under 1, which the bound's
    # 1e-12 margin keeps.  The block (b / 2) [[1, 1], [1, 1]] has 2-norm b
    # by SVD and entries 0.6, which impose nothing
    n, p = 13, 3
    b = np.sqrt(n) / p
    eqs = [SparseMatrix(n ** p, n ** p, [0, 0, 1, 1], [0, 1, 0, 1],
                        np.full(4, b / 2))] + [
        SparseMatrix(n ** p, n ** p, [], [], [])] * (n - 1)
    system = PolynomialSystem(n, p, 2, tuple(eqs))
    want = _ratio_factor(n, p, eqs)
    assert want < 1.0
    assert canonicalize(system)[1] == want
    ms = MixedSystem(n, np.zeros(n), SparseMatrix.identity(n), system)
    assert canonicalize_mixed(ms)[1].tolist() == [want] + [1.0] * (n - 1)


def test_a_coefficient_past_the_frobenius_overflow_keeps_its_svd_norm():
    # a 1e160 entry overflows ||A||_F (a sum of squares) though every entry
    # is finite; the norm still comes from the SVD, so both factors are the
    # ratio's, tiny but not 0, and the rescaled systems keep every entry
    n, p = 2, 1
    big = np.array([[1e160, 1.0], [1.0, 0.5]])
    with np.errstate(over="ignore"):
        assert np.isinf(np.linalg.norm(big))
    assert _norm_above(big, 1.0) == np.linalg.norm(big, 2) == 1e160
    eqs = (SparseMatrix.from_dense(big),
           SparseMatrix.from_dense(np.diag([0.25, -2.0])))
    assert _norm_above(eqs[0], nan) == _norm_above(eqs[0], 1.0) == 1e160
    system = PolynomialSystem(n, p, 2, eqs)
    assert system.max_norm() == 1e160
    canon, c = canonicalize(system)
    assert c == _ratio_factor(n, p, eqs) and 0.0 < c < 1e-159
    assert [a.nnz for a in canon.equations] == [a.nnz for a in eqs]
    ms = MixedSystem(n, np.zeros(n), SparseMatrix.identity(n), system)
    scaled, factors = canonicalize_mixed(ms)
    assert factors.tolist() == [_ratio_factor(n, p, [a]) for a in eqs]
    assert 0.0 < factors[0] < 1e-159
    assert [a.nnz for a in scaled.nonlinear.equations] == [a.nnz for a in eqs]


def test_canonicalizing_a_settled_system_runs_no_dense_norm(monkeypatch):
    # p ||A_i||_2 <= sqrt(n) by the cheap bounds: random_system(16, 2, 2)
    # has row sums under 2 = sqrt(16) / 2, so generating it and
    # canonicalizing it, homogeneous or as a mixed part, takes no SVD and
    # builds no dense block: the bounds come from the entries
    dense_blocks = spy_dense_blocks(monkeypatch)
    system = random_system(16, 2, 2, seed=0)
    canon, c = canonicalize(system)
    ms = MixedSystem(16, np.zeros(16), SparseMatrix.identity(16), system)
    assert canonicalize_mixed(ms)[0] is ms
    assert dense_blocks == []
    assert canon is system and c == 1.0
    monkeypatch.undo()
    assert 2 * system.max_norm() <= 4.0


# ---------------------------------------------------------------------------
# homogenize_odd
# ---------------------------------------------------------------------------

PAPER_CUBIC = [
    [(2.0, (2, 1, 0)), (1.0, (1, 1, 1)), (1.0, (0, 0, 3))],
    [(1.0, (1, 2, 0)), (1.0, (3, 0, 0)), (1.0, (0, 3, 0))],
    [(1.0, (2, 0, 1)), (1.0, (0, 2, 1)), (1.0, (1, 0, 2))],
]


def test_homogenize_paper_cubic_structure():
    hom = homogenize_odd(PAPER_CUBIC)
    assert hom.n == 4 and hom.p == 2
    rng = np.random.default_rng(3)
    for _ in range(10):
        xyz = rng.uniform(-1, 1, 3)
        m = xyz[0]
        vals = evaluate(hom, np.concatenate([xyz, [m]]))
        assert np.allclose(vals[:3], m * evaluate_monomials(PAPER_CUBIC, xyz),
                           atol=1e-12)
        assert abs(vals[3]) < 1e-12     # auxiliary equation vanishes at m = x1


def test_homogenize_single_equation():
    hom = homogenize_odd([[(1.0, (3,))]])
    assert hom.n == 2 and hom.p == 2
    x = np.array([0.4, 0.4])            # m = x
    vals = evaluate(hom, x)
    assert vals[0] == pytest.approx(0.4 ** 4)     # x^3 * m
    assert vals[1] == pytest.approx(0.0)          # (x^2 - m^2)(x^2 + m^2)
    # root set {x = 0} preserved for m = +-x
    assert np.allclose(evaluate(hom, np.zeros(2)), 0.0)


def test_homogenize_rejects_even_or_mixed_degree():
    with pytest.raises(InputError):
        homogenize_odd([[(1.0, (2,))]])
    with pytest.raises(InputError):
        homogenize_odd([[(1.0, (3, 0)), (1.0, (1, 0))],
                        [(1.0, (0, 3))]])


def test_monomials_to_matrix_roundtrip():
    rng = np.random.default_rng(9)
    monos = [(0.7, (2, 1, 1, 0)), (-0.3, (0, 2, 0, 2)), (1.1, (1, 1, 1, 1))]
    a = monomials_to_matrix(4, 2, monos).symmetrized()
    system = PolynomialSystem(4, 2, a.sparsity(), (a,) * 4)
    for _ in range(5):
        x = rng.uniform(-1, 1, 4)
        assert evaluate(system, x)[0] == pytest.approx(
            evaluate_monomials([monos], x)[0])


def test_monomials_to_matrix_rejects_a_negative_exponent():
    # degree 3 - 1 = 2p at p = 1, once stored as the entry 2 x_0^2
    with pytest.raises(InputError, match="nonnegative exponents"):
        monomials_to_matrix(2, 1, [(1.0, (3, -1))])


# ---------------------------------------------------------------------------
# mixed systems
# ---------------------------------------------------------------------------

def test_mixed_identity_linear():
    ms = MixedSystem(2, np.zeros(2), SparseMatrix.identity(2))
    x = np.array([1.0, 2.0])
    assert np.allclose(mixed_evaluate(ms, x), x)
    assert np.allclose(mixed_jacobian(ms, x), np.eye(2))


def test_mixed_paper_linear_jacobian():
    # g_i = a_i x + b_i y + c_i z: the Jacobian is the coefficient matrix
    coeffs = np.array([[1.0, 2.0, 3.0],
                       [4.0, 5.0, 6.0],
                       [7.0, 8.0, 10.0]])
    ms = MixedSystem(3, np.zeros(3), SparseMatrix.from_dense(coeffs))
    x = np.array([0.3, -0.2, 0.5])
    assert np.allclose(mixed_jacobian(ms, x), coeffs)
    assert np.allclose(mixed_evaluate(ms, x), coeffs @ x)


def test_mixed_combines_linear_and_nonlinear(diag_system):
    ms = MixedSystem(2, np.array([0.1, -0.2]), SparseMatrix.identity(2),
                     diag_system)
    x = np.array([0.5, 0.5])
    expected = ms.constants + x + evaluate(diag_system, x)
    assert np.allclose(mixed_evaluate(ms, x), expected)
    assert np.allclose(mixed_jacobian(ms, x),
                       np.eye(2) + jacobian(diag_system, x))


def test_system_parts_of_each_kind(diag_system):
    assert system_parts(diag_system) == (diag_system, None, None)
    ms = MixedSystem(2, np.array([0.1, 0.0]), SparseMatrix.identity(2),
                     diag_system)
    poly, lin, const = system_parts(ms)
    assert poly is diag_system and lin is ms.linear and const is ms.constants
    # zero parts are absent, and an all-zero nonlinear part is stored as None
    empty = PolynomialSystem(2, 1, 1, (SparseMatrix(2, 2, [], [], []),) * 2)
    bare = MixedSystem(2, np.zeros(2), SparseMatrix(2, 2, [], [], []), empty)
    assert system_parts(bare) == (None, None, None)
    with pytest.raises(InputError,
                       match="^unsupported system type SparseMatrix$"):
        system_parts(SparseMatrix.identity(2))

import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qnls import (AmplificationOverflowError, BlockEncoding,
                  CompositionError, CostLedger, DimensionMismatchError,
                  InputError, InvariantViolationError, QnlsError,
                  RescaleRequiredError, SparseMatrix, be_amplify,
                  be_from_sparse, be_from_vector, be_of_matrix,
                  be_outer, be_product, be_rescale, be_sum, be_tensor,
                  be_transpose, min_eigenvalue)
from qnls.block_encoding import _UNITARITY_TOL, _mk
from qnls.poly_system import _norm_above

from conftest import count_two_norms


def random_contraction(rng, d, scale=0.4):
    return be_of_matrix(rng.uniform(-scale, scale, (d, d)) / np.sqrt(d))


# ---------------------------------------------------------------------------
# CostLedger
# ---------------------------------------------------------------------------

def test_ledger_charges_and_rejects_negative():
    led = CostLedger()
    led.charge("a", oracle=2, primitive=3, amplification=1)
    assert (led.oracle_queries, led.primitive_ops, led.amplification_cost) == (2, 3, 1)
    assert led.notes["a"] == 6
    with pytest.raises(InputError):
        led.charge("bad", oracle=-1)


def test_ledger_monotone_through_operations():
    led = CostLedger()
    snapshots = [led.copy()]
    rng = np.random.default_rng(0)
    a = be_from_sparse(SparseMatrix.identity(2), 1, led)
    snapshots.append(led.copy())
    be_product(a, a, led)
    snapshots.append(led.copy())
    be_sum([a, a], ledger=led)
    snapshots.append(led.copy())
    be_amplify(random_contraction(rng, 2), 1.5, led)
    snapshots.append(led.copy())
    for prev, cur in zip(snapshots, snapshots[1:]):
        assert cur.oracle_queries >= prev.oracle_queries
        assert cur.primitive_ops >= prev.primitive_ops
        assert cur.amplification_cost >= prev.amplification_cost


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def test_from_sparse_identity_and_flip():
    be = be_from_sparse(SparseMatrix.identity(2), 1)
    assert be.alpha == 1.0
    assert np.allclose(be.extract(), np.eye(2))
    be.verify()
    flip = SparseMatrix.from_entries(2, 2, [(0, 1, 1.0), (1, 0, 1.0)])
    be = be_from_sparse(flip, 1)
    assert np.allclose(be.extract(), [[0, 1], [1, 0]])


def test_from_sparse_random_recovers_matrix():
    rng = np.random.default_rng(1)
    m = np.zeros((4, 4))
    for r in range(4):
        cols = rng.choice(4, size=2, replace=False)
        m[r, cols] = rng.uniform(-1, 1, 2)
    s = max(2, int(np.bincount(np.nonzero(m)[1], minlength=4).max()))
    be = be_from_sparse(SparseMatrix.from_dense(m), s)
    assert np.linalg.norm(s * be.block - m, 2) <= 1e-10
    assert be.alpha == s


def test_from_sparse_rejects_large_entries_and_nonsquare():
    with pytest.raises(RescaleRequiredError):
        be_from_sparse(SparseMatrix.from_dense(np.array([[1.5]])), 1)
    with pytest.raises(InputError):
        be_from_sparse(SparseMatrix.from_entries(2, 3, [(0, 0, 1.0)]), 1)


def test_from_vector_basis_and_uniform():
    be = be_from_vector(np.array([1.0, 0.0]))
    assert np.allclose(be.extract(), np.diag([1.0, 0.0]))
    v = np.full(2, 1 / np.sqrt(2))
    be = be_from_vector(v)
    assert np.allclose(be.extract(), np.full((2, 2), 0.5))
    be.verify()


def test_from_vector_subunit_embedding():
    rng = np.random.default_rng(2)
    x = rng.normal(size=3)
    x *= 0.6 / np.linalg.norm(x)
    be = be_from_vector(x)
    assert np.allclose(be.extract(), np.outer(x, x), atol=1e-12)
    be.verify()
    with pytest.raises(InputError):
        be_from_vector(1.2 * x / 0.6)
    with pytest.raises(InputError):
        be_from_vector(np.array([np.nan, 0.1]))


def test_outer_encoding():
    u = np.array([2.0, -1.0])
    v = np.array([0.5, 0.25])
    be = be_outer(u, v)
    assert np.allclose(be.extract(), np.outer(u, v), atol=1e-12)
    be.verify()


# ---------------------------------------------------------------------------
# calculus operations
# ---------------------------------------------------------------------------

def test_product_identity_and_scalar_blocks():
    be_i = be_of_matrix(np.eye(2))
    assert np.allclose(be_product(be_i, be_i).extract(), np.eye(2))
    half = be_of_matrix(0.5 * np.eye(2))
    sq = be_product(half, half)
    assert np.allclose(sq.extract(), 0.25 * np.eye(2))


def test_product_random_pair_and_dim_mismatch():
    rng = np.random.default_rng(3)
    a, b = random_contraction(rng, 4), random_contraction(rng, 4)
    prod = be_product(a, b)
    assert np.linalg.norm(prod.extract()
                          - a.extract() @ b.extract(), 2) <= 1e-10
    assert prod.alpha == a.alpha * b.alpha
    with pytest.raises(DimensionMismatchError):
        be_product(a, random_contraction(rng, 2))


def test_tensor_single_identity_and_triple():
    rng = np.random.default_rng(4)
    a = random_contraction(rng, 2)
    assert be_tensor([a]) is a
    x = np.array([0.6, 0.8])
    be_x = be_from_vector(x)
    bi = be_of_matrix(np.eye(2))
    t = be_tensor([bi, be_x])
    assert np.allclose(t.extract(), np.kron(np.eye(2), np.outer(x, x)),
                       atol=1e-11)
    factors = [random_contraction(rng, 2) for _ in range(3)]
    t3 = be_tensor(factors)
    expected = factors[0].extract()
    for f in factors[1:]:
        expected = np.kron(expected, f.extract())
    assert np.linalg.norm(t3.extract() - expected, 2) <= 1e-10


def test_sum_single_cancellation_and_signs():
    rng = np.random.default_rng(5)
    a = random_contraction(rng, 3)
    single = be_sum([a])
    assert np.allclose(single.extract(), a.extract(), atol=1e-11)
    cancel = be_sum([a, a], [1, -1])
    assert np.linalg.norm(cancel.extract(), 2) <= 1e-11
    terms = [random_contraction(rng, 3) for _ in range(4)]
    signs = [1, -1, 1, -1]
    s = be_sum(terms, signs)
    expected = sum(sg * t.extract() for t, sg in zip(terms, signs))
    assert np.linalg.norm(s.extract() - expected, 2) <= 1e-10
    assert s.alpha == pytest.approx(4 * max(t.alpha for t in terms))


def test_amplify_content_invariance_and_overflow():
    be = be_of_matrix(np.diag([0.1, 0.1]))
    amped = be_amplify(be, 5.0)
    assert np.allclose(amped.extract(), np.diag([0.1, 0.1]), atol=1e-12)
    assert amped.alpha == pytest.approx(0.2)
    assert be_amplify(be, 1.0) is be
    with pytest.raises(AmplificationOverflowError):
        be_amplify(be, 11.0)
    with pytest.raises(InputError):
        be_amplify(be, 0.5)
    # the check runs on the amplified block, so a tiny block whose
    # squares underflow is not certified below the bound by accident
    with pytest.raises(AmplificationOverflowError):
        be_amplify(be_of_matrix(1e-170 * np.eye(2)), 1e171)
    for factor in (np.inf, np.nan):
        with pytest.raises(InputError):
            be_amplify(be, factor)


@pytest.mark.parametrize("d", [4, 9, 16])
def test_amplify_runs_one_dense_norm(monkeypatch, d):
    # the overflow check's 2-norm is the only one: the block it passes
    # is a contraction, which needs no second certificate
    monkeypatch.delenv("QNLS_DEBUG", raising=False)
    be = random_contraction(np.random.default_rng(d), d)
    factor = (1.0 - 1e-6) / np.linalg.norm(be.block, 2)
    two_norms = count_two_norms(monkeypatch)
    amped = be_amplify(be, factor)
    assert two_norms == [(d, d)]
    assert np.array_equal(amped.block, factor * be.block)


def test_amplify_with_headroom_runs_no_dense_norm(monkeypatch):
    # the overflow check asks _norm_above, whose Frobenius bound already
    # places the amplified block 0.2 I_4 (Frobenius norm 0.4) below
    # 1 - 1e-6, so no SVD runs
    monkeypatch.delenv("QNLS_DEBUG", raising=False)
    be = be_of_matrix(0.1 * np.eye(4))
    two_norms = count_two_norms(monkeypatch)
    amped = be_amplify(be, 2.0)
    assert two_norms == []
    assert np.array_equal(amped.block, 0.2 * np.eye(4))
    assert amped.alpha == 0.5


def test_transpose_involution_and_content():
    rng = np.random.default_rng(6)
    a = random_contraction(rng, 3)
    t = be_transpose(a)
    assert np.allclose(t.extract(), a.extract().T)
    assert np.allclose(be_transpose(t).extract(), a.extract())
    t.verify()


def test_rescale_both_signs():
    rng = np.random.default_rng(7)
    a = random_contraction(rng, 2)
    up = be_rescale(a, 3.0)
    assert np.allclose(up.extract(), 3 * a.extract(), atol=1e-12)
    down = be_rescale(a, -0.5)
    assert np.allclose(down.extract(), -0.5 * a.extract(), atol=1e-11)


def test_composition_soundness_randomized():
    """Random op chains keep extract() consistent with dense arithmetic."""
    rng = np.random.default_rng(8)
    for trial in range(30):
        d = int(rng.choice([2, 3, 4]))
        be = random_contraction(rng, d)
        dense = be.extract()
        for _ in range(4):
            op = rng.integers(0, 5)
            if op == 0:
                other = random_contraction(rng, d)
                be = be_product(be, other)
                dense = dense @ other.extract()
            elif op == 1:
                other = random_contraction(rng, d)
                be = be_sum([be, other], [1, -1])
                dense = dense - other.extract()
            elif op == 2:
                be = be_transpose(be)
                dense = dense.T
            elif op == 3:
                nrm = np.linalg.norm(be.block, 2)
                factor = min(2.0, (1 - 1e-6) / max(nrm, 1e-12))
                if factor > 1:
                    be = be_amplify(be, factor)
            else:
                be = be_rescale(be, 0.5)
                dense = 0.5 * dense
        assert np.linalg.norm(be.extract() - dense, 2) <= 1e-9
        u = be.unitary
        assert np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0]), 2) <= 1e-10


def test_invariants_unitarity_and_intended():
    be = be_of_matrix(np.diag([0.3, -0.2]))
    be.verify()
    # deliberately corrupt the intended matrix; with QNLS_DEBUG=1 the
    # constructor itself raises, otherwise the explicit verify does
    import dataclasses
    with pytest.raises(InvariantViolationError):
        bad = dataclasses.replace(be, intended=np.diag([0.5, 0.5]))
        bad.verify()


def test_nan_eps_is_rejected_and_never_certified():
    nan = float("nan")
    with pytest.raises(InputError, match="eps must be non-negative"):
        BlockEncoding(0.5 * np.eye(2), 1.0, nan, 5 * np.eye(2))
    with pytest.raises(InputError, match="eps must be non-negative"):
        be_of_matrix(0.5 * np.eye(2), eps=nan)
    # a NaN bound certifies no matrix, not even zero
    assert _norm_above(np.zeros((2, 2)), nan) == 0.0
    assert _norm_above(0.5 * np.eye(3), nan) == pytest.approx(0.5)
    # so verify rejects an intended matrix against a NaN budget
    be = be_of_matrix(0.5 * np.eye(2))
    object.__setattr__(be, "eps", nan)
    object.__setattr__(be, "intended", 5 * np.eye(2))
    with pytest.raises(InvariantViolationError, match="budget nan"):
        be.verify()


def test_non_finite_blocks_raise_a_typed_error_before_any_svd(monkeypatch):
    # a Frobenius norm that is not finite answers inf at once, so no
    # constructor or composition of a non-finite block reaches the SVD
    monkeypatch.delenv("QNLS_DEBUG", raising=False)
    nan_block = np.array([[np.nan, 0.0], [0.0, 0.1]])
    two_norms = count_two_norms(monkeypatch)
    assert _norm_above(nan_block, 1.0) == np.inf
    with pytest.raises(CompositionError, match="block norm inf"):
        be_outer(np.array([np.nan, 0.1]), np.array([0.3, 0.4]))
    with pytest.raises(CompositionError, match="block norm inf"):
        be_of_matrix(np.array([[np.inf, 0.0], [0.0, 0.1]]))
    bad, good = BlockEncoding(nan_block, 1.0), be_of_matrix(0.5 * np.eye(2))
    for compose in (lambda: be_product(good, bad), lambda: be_sum([good, bad]),
                    lambda: be_tensor([good, bad]), lambda: be_amplify(bad, 2.0),
                    lambda: be_rescale(bad, -1.0)):
        with pytest.raises(CompositionError):
            compose()
    assert two_norms == []


def test_desk_scale_cap(monkeypatch):
    from qnls import DeskScaleError
    from qnls.poly_system import capped_dim
    monkeypatch.delenv("QNLS_DEBUG", raising=False)    # verify reads no block
    # a broadcast zero holds one float however large its square view
    side = lambda d: np.broadcast_to(0.0, (d, d))
    with pytest.raises(DeskScaleError,
                       match="^5000 exceeds desk-scale cap 4096$"):
        BlockEncoding(side(5000), 1.0)
    # the boundary: a side of 4096 is admitted, 4097 refused
    assert capped_dim(4096, 1) == 4096
    assert BlockEncoding(side(4096), 1.0).logical_dim == 4096
    for refused in (lambda: capped_dim(4097, 1),
                    lambda: BlockEncoding(side(4097), 1.0)):
        with pytest.raises(DeskScaleError,
                           match="^4097 exceeds desk-scale cap 4096$"):
            refused()


# ---------------------------------------------------------------------------
# the norm guard of _mk
# ---------------------------------------------------------------------------

def _mk_svd_always(block, alpha, eps, intended, cost):
    """Reference: _mk with the dense spectral norm computed on every block."""
    nrm = np.linalg.norm(block, 2)
    if nrm > 1.0 + 1e-9:
        raise CompositionError(f"block norm {nrm:.6f} exceeds 1; cannot dilate")
    if nrm > 1.0:
        block = block / nrm
    return BlockEncoding(block, alpha, eps, intended, cost)


def _block_with_norm(kind, d, seed, target):
    """A d x d block of the given structure, scaled to spectral norm ~target."""
    rng = np.random.default_rng(seed)
    if kind == "dense":
        a = rng.standard_normal((d, d))
    elif kind == "diagonal":
        a = np.diag(rng.uniform(-1.0, 1.0, d))
    elif kind == "orthogonal":
        a = np.linalg.qr(rng.standard_normal((d, d)))[0]
    else:
        a = np.outer(rng.standard_normal(d), rng.standard_normal(d))
    nrm = np.linalg.norm(a, 2)
    return a * (target / nrm) if nrm > 0 else a


@given(st.sampled_from(["dense", "diagonal", "orthogonal", "rank_one"]),
       st.integers(1, 6), st.integers(0, 2 ** 32 - 1),
       st.one_of(st.floats(0.0, 1.0 - 1e-8), st.floats(1.0 - 1e-8, 1.0),
                 st.just(1.0), st.floats(1.0, 1.0 + 1e-9),
                 st.floats(1.0 + 1e-9, 1.0 + 1e-6), st.floats(1.0 + 1e-6, 3.0)))
@settings(max_examples=300, deadline=None)
def test_mk_matches_svd_on_every_block(kind, d, seed, target):
    """Same block bytes, or the same error, as the SVD-only guard.

    The error is a CompositionError, or under QNLS_DEBUG=1 the verify's
    InvariantViolationError.
    """
    block = _block_with_norm(kind, d, seed, target)
    try:
        want = _mk_svd_always(block.copy(), 2.0, 0.125, None, 3.0)
    except QnlsError as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            _mk(block.copy(), 2.0, 0.125, None, 3.0)
        return
    got = _mk(block.copy(), 2.0, 0.125, None, 3.0)
    assert got.block.tobytes() == want.block.tobytes()
    assert (got.alpha, got.eps, got.cost) == (want.alpha, want.eps, want.cost)


def _verify_svd_always(be):
    """Reference: verify with the dense spectral norm computed on every check."""
    u = be.unitary
    defect = np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0]), 2)
    if defect > _UNITARITY_TOL:
        raise InvariantViolationError(f"unitarity defect {defect:.3e}")
    if be.intended is not None:
        err = np.linalg.norm(be.extract() - be.intended, 2)
        if err > be.eps + 1e-9:
            raise InvariantViolationError(
                f"encoded block off intended by {err:.3e} (budget {be.eps:.3e})")


def _direction(d, seed, spread):
    """A d x d matrix of spectral norm 1: rank one, or with a flat spectrum."""
    rng = np.random.default_rng(seed)
    if spread:
        m = np.linalg.qr(rng.standard_normal((d, d)))[0]
    else:
        m = np.outer(rng.standard_normal(d), rng.standard_normal(d))
    return m / np.linalg.norm(m, 2)


def _message_value(message):
    """A verify message split into its text and its first number."""
    value = re.search(r"\d\.\d+e[+-]\d+", message).group()
    return message.replace(value, "#", 1), float(value)


@given(st.sampled_from(["dense", "diagonal", "orthogonal", "rank_one"]),
       st.integers(1, 6), st.integers(0, 2 ** 32 - 1),
       st.one_of(st.floats(0.0, 1.0 - 1e-8), st.floats(1.0 - 1e-8, 1.0),
                 st.just(1.0), st.floats(1.0, 1.0 + 1e-9)),
       st.sampled_from(["block", "intended", "defect"]),
       st.one_of(st.floats(0.0, 0.49), st.floats(0.49, 0.51),
                 st.floats(1.0 - 1e-6, 1.0), st.just(1.0),
                 st.floats(1.0, 1.0 + 1e-6), st.floats(1.0 + 1e-6, 3.0)),
       st.sampled_from([0.0, 1e-9, 0.125]), st.booleans())
@settings(max_examples=300, deadline=None)
def test_verify_matches_svd_on_every_check(kind, d, seed, target, case,
                                           factor, eps, spread):
    """Same verdict and exception type as the dilation-based SVD verify.

    "block" checks a block at or near norm 1; "intended" perturbs the
    intended matrix by factor * (eps + 1e-9) in 2-norm; "defect" scales
    the block to norm sqrt(1 + factor * _UNITARITY_TOL), so its dilation
    has that defect.  Within 1e-4 of factor 1 the reference's own roundoff
    decides, so "defect" leaves that band out.  An intended-matrix message
    is the same; a unitarity defect, computed from the dilation by the
    reference and from the block by verify, agrees to 1e-3 relative.
    """
    assume(case != "defect" or abs(factor - 1.0) >= 1e-4)
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("QNLS_DEBUG", raising=False)
        if case == "defect":
            target = np.sqrt(1.0 + factor * _UNITARITY_TOL)
        block = _block_with_norm(kind, d, seed, target)
        intended = None
        if case == "intended":
            direction = _direction(d, seed + 1, spread)
            intended = 2.0 * block - factor * (eps + 1e-9) * direction
        be = BlockEncoding(block, 2.0, eps, intended, 1.0)
        try:
            _verify_svd_always(be)
        except QnlsError as exc:
            with pytest.raises(type(exc)) as got:
                be.verify()
            want_text, want = _message_value(str(exc))
            got_text, value = _message_value(str(got.value))
            assert got_text == want_text
            if want_text.startswith("unitarity defect"):
                assert value == pytest.approx(want, rel=1e-3)
            else:
                assert value == want
            return
        be.verify()


@pytest.mark.parametrize("factor", [0.0, 0.4, 0.99, 1.0, 1.01, 3.0])
def test_hermitian_check_matches_svd(factor):
    # the eigenvalue estimates reject a block whose skew part exceeds 1e-9
    rng = np.random.default_rng(5)
    a = rng.standard_normal((6, 6))
    skew = a - a.T
    skew *= factor * 1e-9 / np.linalg.norm(skew, 2)
    block = 0.05 * np.eye(6) + skew
    be = BlockEncoding(block, 1.0)
    if np.linalg.norm(block - block.T, 2) > 1e-9:
        with pytest.raises(InputError, match="not Hermitian"):
            min_eigenvalue(be, 1e-3)
    else:
        assert min_eigenvalue(be, 1e-3) == pytest.approx(0.05)


def test_mk_renormalizes_roundoff_excess(monkeypatch):
    monkeypatch.delenv("QNLS_DEBUG", raising=False)
    block = np.diag([1.0 + 5e-10, 0.25])
    nrm = np.linalg.norm(block, 2)
    assert nrm > 1.0
    out = _mk(block, 1.0, 0.0, None, 1.0)
    assert out.block.tobytes() == (block / nrm).tobytes()
    assert np.linalg.norm(out.block, 2) <= 1.0


def test_mk_rejects_norm_above_tolerance(monkeypatch):
    monkeypatch.delenv("QNLS_DEBUG", raising=False)
    with pytest.raises(CompositionError, match="exceeds 1; cannot dilate"):
        _mk(np.diag([1.0 + 2e-9, 0.0]), 1.0, 0.0, None, 1.0)


@pytest.mark.parametrize("d, target", [(2, 1.0), (4, 1.0), (4, 1.0 + 5e-10),
                                       (16, 1.0)])
def test_debug_accepts_contractions_at_norm_one(monkeypatch, d, target):
    # QNLS_DEBUG verifies each new encoding's dilation; at norm 1 it must
    # stay unitary within the unchanged _UNITARITY_TOL
    monkeypatch.setenv("QNLS_DEBUG", "1")
    for seed in range(5):
        block = _block_with_norm("dense", d, seed, target)
        be = _mk(block, 1.0, 0.0, None, 1.0)
        u = be.unitary
        assert np.linalg.norm(u.T @ u - np.eye(2 * d), 2) <= 1e-13


def test_intended_witness_only_under_debug(monkeypatch):
    # leaf encodings form no intended matrix unless QNLS_DEBUG=1 asks for it
    a = SparseMatrix.from_dense(np.diag([0.5, -0.25]))
    monkeypatch.delenv("QNLS_DEBUG", raising=False)
    assert be_from_sparse(a, 1).intended is None
    monkeypatch.setenv("QNLS_DEBUG", "1")
    assert np.array_equal(be_from_sparse(a, 1).intended, a.to_dense())

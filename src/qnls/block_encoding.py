"""Block-encoding calculus on explicit contraction blocks.

A block encoding is its top-left block B, a contraction, and the
subnormalization ``alpha``: the encoded matrix is ``alpha * B``.  Every
composition computes the exact target block, so the calculus identities
hold to float precision while alpha and eps follow the closed-form
bookkeeping.  A contraction is exactly a matrix with a unitary dilation,
so ``verify`` checks ||B||_2 <= 1 on the block itself; ``unitary`` builds
the dilation only when a caller reads it, and neither the solver path nor
``verify`` does.

Products, tensor products and sums of contractions are contractions, so
each new block is checked against norm 1 only as a guard against roundoff.
That guard, ``verify``'s two checks, the overflow check of amplification
and the Hermitian check of eigenvalue estimation all ask ``poly_system``'s
``_norm_above``, the package's one spectral norm: two cheap upper bounds
(Frobenius, then sqrt(||B||_1 ||B||_inf)) first, and the dense
spectral-norm SVD only for a matrix they cannot place below the bound.

Only under QNLS_DEBUG=1 do the leaf constructors attach the intended
matrix; every operation carries it through and re-checks the encoding.
"""

from __future__ import annotations

import math
import os
from collections import namedtuple
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import (AmplificationOverflowError, CompositionError,
                     DimensionMismatchError, InputError,
                     InvariantViolationError, RescaleRequiredError)
from .poly_system import SparseMatrix, _norm_above, capped_dim

_EPS_FLOOR = 1e-16
_UNITARITY_TOL = 1e-10


def debug_enabled() -> bool:
    return os.environ.get("QNLS_DEBUG", "") == "1"


def _log2(x: float) -> float:
    return float(np.log2(max(x, 1.0 + 1e-12)))


def _eps_units(eps: float) -> float:
    """Error argument for symbolic cost formulas, floored away from zero."""
    return max(float(eps), _EPS_FLOOR)


@dataclass
class CostLedger:
    """Symbolic tally of oracle queries and encoding-primitive invocations.

    Counters only grow.  ``notes`` keeps labeled cost terms
    (estimation-error charges are deliberately kept under separate labels
    rather than summed into the encoding-error terms).
    """

    oracle_queries: float = 0.0
    primitive_ops: float = 0.0
    amplification_cost: float = 0.0
    notes: dict[str, float] = field(default_factory=dict)

    def charge(self, label: str, *, oracle: float = 0.0, primitive: float = 0.0,
               amplification: float = 0.0, note: float | None = None) -> None:
        if min(oracle, primitive, amplification) < 0:
            raise InputError("ledger charges must be non-negative")
        self.oracle_queries += oracle
        self.primitive_ops += primitive
        self.amplification_cost += amplification
        amount = note if note is not None else oracle + primitive + amplification
        if amount:
            self.notes[label] = self.notes.get(label, 0.0) + amount

    def copy(self) -> "CostLedger":
        return CostLedger(self.oracle_queries, self.primitive_ops,
                          self.amplification_cost, dict(self.notes))


def _dilate(block: np.ndarray) -> np.ndarray:
    """Unitary completion [[B, (I-BB*)^1/2], [(I-B*B)^1/2, -B*]] of a contraction.

    With B = U S V*, the roots are U C U* and V C V* for C = (I-S^2)^1/2, so
    a singular value at 1 adds no roundoff-size square root to the defect.
    """
    d = block.shape[0]
    u_b, sv, vh = np.linalg.svd(block)
    c = np.sqrt(np.clip(1.0 - sv * sv, 0.0, None))
    u = np.zeros((2 * d, 2 * d), dtype=np.result_type(block, float))
    u[:d, :d] = block
    u[:d, d:] = (u_b * c) @ u_b.conj().T
    u[d:, :d] = (vh.conj().T * c) @ vh
    u[d:, d:] = -block.conj().T
    return u


@dataclass(frozen=True, eq=False)
class BlockEncoding:
    """Contraction block with a subnormalization: extract() = alpha * block."""

    block: np.ndarray
    alpha: float
    eps: float = 0.0
    intended: np.ndarray | None = None
    cost: float = 1.0

    def __post_init__(self):
        b = self.block
        if b.ndim != 2 or b.shape[0] != b.shape[1] or b.shape[0] == 0:
            raise InputError("block must be a non-empty square matrix")
        capped_dim(b.shape[0], 1)
        if not self.alpha > 0:
            raise InputError("alpha must be positive")
        if not self.eps >= 0:
            raise InputError("eps must be non-negative")
        if debug_enabled():
            self.verify()

    @property
    def logical_dim(self) -> int:
        return self.block.shape[0]

    @cached_property
    def unitary(self) -> np.ndarray:
        """Unitary dilation of the block (see _dilate), built on first read."""
        return _dilate(self.block)

    def extract(self) -> np.ndarray:
        return self.alpha * self.block

    def verify(self) -> None:
        # B has a unitary dilation iff ||B||_2 <= 1, and _dilate's defect
        # ||U*U - I||_2 is max(||B||_2^2 - 1, 0)
        nrm = _norm_above(self.block, np.sqrt(1.0 + _UNITARITY_TOL))
        if nrm is not None:
            raise InvariantViolationError(f"unitarity defect {nrm * nrm - 1.0:.3e}")
        if self.intended is not None:
            err = _norm_above(self.extract() - self.intended, self.eps + 1e-9)
            if err is not None:
                raise InvariantViolationError(
                    f"encoded block off intended by {err:.3e} (budget {self.eps:.3e})")


def _mk(block: np.ndarray, alpha: float, eps: float, intended,
        cost: float) -> BlockEncoding:
    """Encoding of a contraction block; a roundoff excess over norm 1 is divided out.

    A spectral norm above 1 + 1e-9 raises CompositionError, and one in
    (1, 1 + 1e-9] is divided out; ``_norm_above`` runs the dense SVD only
    on a block its cheap bounds cannot place at ||B||_2 <= 1 - margin, at
    most 9.6e-10 for a k x k block, so skipping it changes no block,
    alpha, eps or exception.
    """
    if (nrm := _norm_above(block, 1.0)) is not None:
        if nrm > 1.0 + 1e-9:
            raise CompositionError(f"block norm {nrm:.6f} exceeds 1; cannot dilate")
        block = block / nrm
    return BlockEncoding(block, alpha, eps, intended, cost)


def be_of_matrix(m: np.ndarray, *, eps: float = 0.0) -> BlockEncoding:
    """Encode an explicit contraction m directly (artifact plumbing)."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InputError("need a square matrix")
    return _mk(m.copy(), 1.0, eps, m.copy(), 1.0)


_Budget = namedtuple("_Budget", "alpha eps cost")    # an encoding minus its block


def _sparse_budget(a: SparseMatrix, s: int, ledger: CostLedger | None) -> _Budget:
    """Budget of the sparse-access encoding of a/s; checks a and s, charges it."""
    if a.dim_rows != a.dim_cols:
        raise InputError("sparse encoding needs a square matrix")
    if a.max_abs_entry() > 1.0 + 1e-12:
        raise RescaleRequiredError(
            f"entry magnitude {a.max_abs_entry():.6f} exceeds 1; rescale first")
    if a.sparsity() > s:
        raise InputError("per-row/column nonzero count exceeds declared sparsity")
    if s <= 0:
        raise InputError("sparsity must be positive")
    cost = _log2(a.dim_rows) + _log2(1.0 / _eps_units(0.0)) ** 2.5
    if ledger is not None:
        ledger.charge("sparse_encode", oracle=cost)
    return _Budget(float(s), 0.0, cost)


def _from_entries(a: SparseMatrix, b: _Budget) -> BlockEncoding:
    """Encoding of a / b.alpha: a's entries are divided, then densified once."""
    return _mk(replace(a, vals=a.vals / b.alpha).to_dense(), b.alpha, b.eps,
               a.to_dense() if debug_enabled() else None, b.cost)


def be_from_sparse(a: SparseMatrix, s: int,
                   ledger: CostLedger | None = None) -> BlockEncoding:
    """Encoding of A/s from sparse-entry access; alpha = s, exact at desk scale."""
    return _from_entries(a, _sparse_budget(a, s, ledger))


def be_from_vector(x: np.ndarray,
                   ledger: CostLedger | None = None) -> BlockEncoding:
    """Exact encoding of the outer product x x^T for ||x|| <= 1.

    A unit vector's block is the projector x x^T / ||x||^2, which divides
    out the roundoff in its norm; a strictly subunit x x^T is already a
    contraction.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise InputError("x must be a vector")
    if not np.all(np.isfinite(x)):
        raise InputError("x must be finite")
    with np.errstate(over="ignore"):     # a norm past the float range is inf
        nrm = float(np.linalg.norm(x))
    if nrm > 1.0 + 1e-12:
        raise InputError(f"||x|| = {nrm:.6f} exceeds 1")
    block = np.outer(x, x)
    if nrm >= 1.0 - 1e-12:
        block = block / (nrm * nrm)
    cost = _log2(x.size) + 1.0
    if ledger is not None:
        ledger.charge("state_encode", primitive=cost)
    return BlockEncoding(block, 1.0, 0.0,
                         np.outer(x, x) if debug_enabled() else None, cost)


def be_outer(u: np.ndarray, v: np.ndarray,
             ledger: CostLedger | None = None) -> BlockEncoding:
    """Encoding of the rank-one matrix u v^T with alpha >= ||u|| ||v||."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape or u.ndim != 1:
        raise InputError("u and v must be equal-length vectors")
    alpha = max(1.0, float(np.linalg.norm(u) * np.linalg.norm(v)) / (1.0 - 1e-9))
    m = np.outer(u, v)
    cost = _log2(u.size) + 1.0
    if ledger is not None:
        ledger.charge("state_encode", primitive=cost)
    return _mk(m / alpha, alpha, 0.0, m if debug_enabled() else None, cost)


def _product_budget(left, right, ledger: CostLedger | None) -> _Budget:
    """Budget of the product of two encodings (or budgets); charges it."""
    if ledger is not None:
        ledger.charge("product", primitive=1.0)
    return _Budget(left.alpha * right.alpha,
                   left.alpha * right.eps + right.alpha * left.eps,
                   left.cost + right.cost + 1.0)


def _tensor_budget(factors, ledger: CostLedger | None) -> _Budget:
    """Budget of the Kronecker product of two or more factors; charges it."""
    alphas = [f.alpha for f in factors]
    eps = sum(math.prod(alphas[:i] + alphas[i + 1:]) * f.eps
              for i, f in enumerate(factors))
    if ledger is not None:
        ledger.charge("tensor", primitive=1.0)
    return _Budget(math.prod(alphas), eps, sum(f.cost for f in factors) + 1.0)


def _sum_budget(terms, ledger: CostLedger | None) -> _Budget:
    """Budget of the uniform sum of the terms at their largest alpha; charges it."""
    m = len(terms)
    if ledger is not None:
        ledger.charge("sum", primitive=float(m))
    return _Budget(m * max(t.alpha for t in terms), sum(t.eps for t in terms),
                   sum(t.cost for t in terms) + m)


def be_product(left: BlockEncoding, right: BlockEncoding,
               ledger: CostLedger | None = None) -> BlockEncoding:
    """Encoding of the product: blocks multiply, alphas multiply."""
    if left.logical_dim != right.logical_dim:
        raise DimensionMismatchError("product operands must share logical_dim")
    intended = None
    if left.intended is not None and right.intended is not None:
        intended = left.intended @ right.intended
    b = _product_budget(left, right, ledger)
    return _mk(left.block @ right.block, b.alpha, b.eps, intended, b.cost)


def be_tensor(factors: list[BlockEncoding],
              ledger: CostLedger | None = None) -> BlockEncoding:
    """Encoding of the Kronecker product of the factors (first = leftmost)."""
    if not factors:
        raise InputError("need at least one factor")
    if len(factors) == 1:
        return factors[0]
    block = factors[0].block
    intended = factors[0].intended
    for f in factors[1:]:
        block = np.kron(block, f.block)
        intended = (np.kron(intended, f.intended)
                    if intended is not None and f.intended is not None else None)
    b = _tensor_budget(factors, ledger)
    return _mk(block, b.alpha, b.eps, intended, b.cost)


def be_sum(terms: list[BlockEncoding], signs: list[int] | None = None,
           ledger: CostLedger | None = None) -> BlockEncoding:
    """Encoding of the signed sum: extract(out) = sum_i sign_i extract(term_i).

    Terms are first renormalized to the largest alpha; the uniform-coefficient
    combination then gives alpha_out = m * alpha_common.
    """
    if not terms:
        raise InputError("need at least one term")
    m = len(terms)
    if signs is None:
        signs = [1] * m
    if len(signs) != m or any(s not in (-1, 1) for s in signs):
        raise InputError("signs must be +-1, one per term")
    d = terms[0].logical_dim
    if any(t.logical_dim != d for t in terms):
        raise DimensionMismatchError("sum terms must share logical_dim")
    alpha_c = max(t.alpha for t in terms)
    if not np.isfinite(alpha_c) or alpha_c <= 0:
        raise CompositionError("cannot renormalize terms to a common alpha")
    block = np.zeros((d, d))
    for t, s in zip(terms, signs):
        block = block + s * (t.alpha / alpha_c) * t.block
    block /= m
    intended = None
    if all(t.intended is not None for t in terms):
        intended = sum(s * t.intended for t, s in zip(terms, signs))
    b = _sum_budget(terms, ledger)
    return _mk(block, b.alpha, b.eps, intended, b.cost)


def be_amplify(be: BlockEncoding, factor: float,
               ledger: CostLedger | None = None) -> BlockEncoding:
    """Uniform singular-value amplification: block *= factor, alpha /= factor.

    The represented matrix extract() is unchanged; only the subnormalization
    headroom is consumed.  Requires factor * ||block|| <= 1 - 1e-6.
    """
    if not 1.0 <= factor < np.inf:
        raise InputError("amplification factor must be finite and >= 1")
    if factor == 1.0:
        return be
    amped = factor * be.block  # a contraction once the check passes: no _mk guard
    if (nrm := _norm_above(amped, 1.0 - 1e-6 + 1e-9)) is not None:
        raise AmplificationOverflowError(
            f"factor {factor:.4g} * block norm {nrm / factor:.4g} exceeds 1 - 1e-6")
    charge = factor * _log2(factor / _eps_units(be.eps))
    if ledger is not None:
        ledger.charge("amplify", amplification=charge)
    return BlockEncoding(amped, be.alpha / factor, be.eps,
                         be.intended, be.cost * max(charge, 1.0))


def be_transpose(be: BlockEncoding) -> BlockEncoding:
    """Encoding of the transposed block (same alpha, eps)."""
    intended = be.intended.T if be.intended is not None else None
    return BlockEncoding(be.block.T.copy(), be.alpha, be.eps, intended, be.cost)


def be_rescale(be: BlockEncoding, c: float) -> BlockEncoding:
    """Reinterpret the encoding as standing for c * extract() (alpha *= |c|).

    Pure bookkeeping for c > 0: dividing out a known scalar (e.g. an
    estimated |x|^2) or damping a term before a sum costs no circuit work
    at desk scale.  A negative c folds the sign into the block.
    """
    if c == 0 or not np.isfinite(c):
        raise InputError("rescale factor must be finite and nonzero")
    intended = c * be.intended if be.intended is not None else None
    if c > 0:
        return replace(be, alpha=be.alpha * c, eps=be.eps * c,
                       intended=intended)
    return _mk(-be.block, be.alpha * (-c), be.eps * (-c), intended, be.cost)

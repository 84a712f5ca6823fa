"""Block-encoding calculus on explicit contraction blocks.

A block encoding is its top-left block B, a contraction, and the
subnormalization ``alpha``: the encoded matrix is ``alpha * B``.  Every
composition computes the exact target block, so the calculus identities
hold to float precision while alpha and eps follow the closed-form
bookkeeping.  The unitary around the block is only a witness that B is a
contraction; ``unitary`` builds it by a contraction dilation on first read
(``verify``, ``dump_text``), so the solver path never forms it.

Products, tensor products and sums of contractions are contractions, so
each new block is checked against norm 1 only as a guard against roundoff.
The guard first tries cheap upper bounds on the spectral norm (Frobenius,
sqrt(||B||_1 ||B||_inf), then the Gram row-sum bound) and runs the dense
spectral-norm SVD only for a block they cannot certify; see ``_mk``.

Only under QNLS_DEBUG=1 do the leaf constructors attach the intended
matrix; every operation carries it through and re-checks the encoding.
"""

from __future__ import annotations

import io
import os
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from .errors import (AmplificationOverflowError, CompositionError,
                     DeskScaleError, DimensionMismatchError, InputError,
                     InvariantViolationError, RescaleRequiredError)
from .poly_system import DESK_SCALE_CAP, SparseMatrix

_EPS_FLOOR = 1e-16
_UNITARITY_TOL = 1e-10
# a block whose cheap norm bounds stay this far below 1 skips the SVD in _mk
_CERTIFY_MARGIN = 1e-9


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

    Counters only grow; ``merge`` is associative and commutative.  ``notes``
    keeps labeled cost terms (estimation-error charges are deliberately kept
    under separate labels rather than summed into the encoding-error terms).
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

    def merge(self, other: "CostLedger") -> "CostLedger":
        notes = dict(self.notes)
        for k, v in other.notes.items():
            notes[k] = notes.get(k, 0.0) + v
        return CostLedger(self.oracle_queries + other.oracle_queries,
                          self.primitive_ops + other.primitive_ops,
                          self.amplification_cost + other.amplification_cost,
                          notes)

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
        if b.shape[0] > DESK_SCALE_CAP:
            raise DeskScaleError(
                f"logical_dim {b.shape[0]} exceeds cap {DESK_SCALE_CAP}")
        if not self.alpha > 0:
            raise InputError("alpha must be positive")
        if self.eps < 0:
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

    def verify(self, unitarity_tol: float = _UNITARITY_TOL) -> None:
        u = self.unitary
        defect = np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0]), 2)
        if defect > unitarity_tol:
            raise InvariantViolationError(f"unitarity defect {defect:.3e}")
        if self.intended is not None:
            err = np.linalg.norm(self.extract() - self.intended, 2)
            if err > self.eps + 1e-9:
                raise InvariantViolationError(
                    f"encoded block off intended by {err:.3e} (budget {self.eps:.3e})")

    def dump_text(self, stream=None) -> str:
        """Row-major scientific dump of the unitary, 17 significant digits."""
        buf = io.StringIO()
        for row in self.unitary:
            buf.write(" ".join(f"{v:.16e}" for v in np.real_if_close(row)))
            buf.write("\n")
        text = buf.getvalue()
        if stream is not None:
            stream.write(text)
        return text


def _share_block(be: BlockEncoding, **changes) -> BlockEncoding:
    """``dataclasses.replace(be, **changes)`` for fields other than the block.

    The copy holds be's block array, so be's dilation is its dilation too:
    when be has built it, the copy takes it over before ``__post_init__``,
    and a QNLS_DEBUG ``verify`` of the copy does not build it again.
    """
    out = object.__new__(BlockEncoding)
    if "unitary" in be.__dict__:        # cached_property's slot
        out.__dict__["unitary"] = be.unitary
    kwargs = {f.name: getattr(be, f.name) for f in fields(be) if f.name != "block"}
    out.__init__(be.block, **(kwargs | changes))
    return out


def _certified_contraction(block: np.ndarray) -> bool:
    """True when a cheap upper bound proves ||block||_2 <= 1 - _CERTIFY_MARGIN.

    Tries min(||B||_F, sqrt(||B||_1 ||B||_inf)), which costs O(d^2), and
    then sqrt(||B^* B||_inf), which costs one matrix product.  A NaN or inf
    bound fails every comparison, so such a block is never certified.
    """
    bound = 1.0 - _CERTIFY_MARGIN
    if np.linalg.norm(block) <= bound:
        return True
    a = np.abs(block)
    if np.sqrt(a.sum(axis=0).max() * a.sum(axis=1).max()) <= bound:
        return True
    gram = block.conj().T @ block
    return np.sqrt(np.abs(gram, out=gram).sum(axis=1).max()) <= bound


def _mk(block: np.ndarray, alpha: float, eps: float, intended,
        cost: float) -> BlockEncoding:
    """Encoding of a contraction block; a roundoff excess over norm 1 is divided out.

    The dense spectral norm runs only on a block that
    ``_certified_contraction`` cannot place at ||B||_2 <= 1 - _CERTIFY_MARGIN;
    there a norm above 1 + 1e-9 raises CompositionError and a norm in
    (1, 1 + 1e-9] is divided out.  A certified block is one whose computed
    spectral norm would be <= 1.0, so skipping the SVD changes no block,
    alpha, eps or exception.  With u = 2^-53 and d <= 4096 (the desk-scale
    cap), the Frobenius norm sums d^2 squares and is within (d^2/2) u ~
    9.3e-10 of the true value; the 1- and inf-norm sums are within d u ~
    4.5e-13; and the Gram bound is within (d^2/2) u too, since the rounding
    of B^* B is at most d u ||B||_1 ||B||_inf <= d^2 u ||B||_2^2.  A
    certified block thus has ||B||_2 <= (1 - 1e-9)(1 + 9.4e-10) < 1 - 6e-11,
    a margin far above the SVD's own error, a small multiple of d u ||B||_2.
    """
    if not _certified_contraction(block):
        nrm = np.linalg.norm(block, 2)
        if nrm > 1.0 + 1e-9:
            raise CompositionError(f"block norm {nrm:.6f} exceeds 1; cannot dilate")
        if nrm > 1.0:
            block = block / nrm
    return BlockEncoding(block, alpha, eps, intended, cost)


def be_identity(d: int) -> BlockEncoding:
    """Exact encoding of the d-dimensional identity."""
    return BlockEncoding(np.eye(d), 1.0, 0.0,
                         np.eye(d) if debug_enabled() else None, 1.0)


def be_of_matrix(m: np.ndarray, *, alpha: float = 1.0, eps: float = 0.0,
                 cost: float = 1.0) -> BlockEncoding:
    """Encode an explicit contraction m/alpha directly (artifact plumbing)."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InputError("need a square matrix")
    return _mk(m / alpha, alpha, eps, m.copy(), cost)


def be_from_sparse(a: SparseMatrix, s: int,
                   ledger: CostLedger | None = None) -> BlockEncoding:
    """Encoding of A/s from sparse-entry access; alpha = s, exact at desk scale."""
    if a.dim_rows != a.dim_cols:
        raise InputError("sparse encoding needs a square matrix")
    if a.max_abs_entry() > 1.0 + 1e-12:
        raise RescaleRequiredError(
            f"entry magnitude {a.max_abs_entry():.6f} exceeds 1; rescale first")
    if max(a.row_nnz_max(), a.col_nnz_max()) > s:
        raise InputError("per-row/column nonzero count exceeds declared sparsity")
    if s <= 0:
        raise InputError("sparsity must be positive")
    d = a.dim_rows
    cost = _log2(d) + _log2(1.0 / _eps_units(0.0)) ** 2.5
    if ledger is not None:
        ledger.charge("sparse_encode", oracle=cost)
    dense = a.to_dense()
    return _mk(dense / s, float(s), 0.0, dense if debug_enabled() else None,
               cost)


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


def be_product(left: BlockEncoding, right: BlockEncoding,
               ledger: CostLedger | None = None) -> BlockEncoding:
    """Encoding of the product: blocks multiply, alphas multiply."""
    if left.logical_dim != right.logical_dim:
        raise DimensionMismatchError("product operands must share logical_dim")
    block = left.block @ right.block
    alpha = left.alpha * right.alpha
    eps = left.alpha * right.eps + right.alpha * left.eps
    intended = None
    if left.intended is not None and right.intended is not None:
        intended = left.intended @ right.intended
    if ledger is not None:
        ledger.charge("product", primitive=1.0)
    return _mk(block, alpha, eps, intended, left.cost + right.cost + 1.0)


def be_tensor(factors: list[BlockEncoding],
              ledger: CostLedger | None = None) -> BlockEncoding:
    """Encoding of the Kronecker product of the factors (first = leftmost)."""
    if not factors:
        raise InputError("need at least one factor")
    if len(factors) == 1:
        return factors[0]
    block = factors[0].block
    intended = factors[0].intended
    alpha = factors[0].alpha
    for f in factors[1:]:
        block = np.kron(block, f.block)
        alpha *= f.alpha
        intended = (np.kron(intended, f.intended)
                    if intended is not None and f.intended is not None else None)
    eps = 0.0
    for i, f in enumerate(factors):
        scale = 1.0
        for j, g in enumerate(factors):
            if j != i:
                scale *= g.alpha
        eps += scale * f.eps
    if ledger is not None:
        ledger.charge("tensor", primitive=1.0)
    return _mk(block, alpha, eps, intended, sum(f.cost for f in factors) + 1.0)


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
    if ledger is not None:
        ledger.charge("sum", primitive=float(m))
    return _mk(block, m * alpha_c, sum(t.eps for t in terms), intended,
               sum(t.cost for t in terms) + m)


def be_amplify(be: BlockEncoding, factor: float,
               ledger: CostLedger | None = None) -> BlockEncoding:
    """Uniform singular-value amplification: block *= factor, alpha /= factor.

    The represented matrix extract() is unchanged; only the subnormalization
    headroom is consumed.  Requires factor * ||block|| <= 1 - 1e-6.
    """
    if factor < 1.0:
        raise InputError("amplification factor must be >= 1")
    if factor == 1.0:
        return be
    nrm = float(np.linalg.norm(be.block, 2))
    if factor * nrm > 1.0 - 1e-6 + 1e-9:
        raise AmplificationOverflowError(
            f"factor {factor:.4g} * block norm {nrm:.4g} exceeds 1 - 1e-6")
    charge = factor * _log2(factor / _eps_units(be.eps))
    if ledger is not None:
        ledger.charge("amplify", amplification=charge)
    return _mk(factor * be.block, be.alpha / factor, be.eps, be.intended,
               be.cost * max(charge, 1.0))


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
        return _share_block(be, alpha=be.alpha * c, eps=be.eps * c,
                            intended=intended)
    return _mk(-be.block, be.alpha * (-c), be.eps * (-c), intended, be.cost)

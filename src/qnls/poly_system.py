"""Polynomial systems on tensor-power coefficient matrices.

A system of n equations f_i(x) = (1/2) (x^{op})^T A_i x^{op} with even
degree 2p is stored through its sparse n^p-by-n^p coefficient matrices.
This module evaluates such systems, computes their gradients through the
block-diagonal M of the permutation-sum operators M_D^i = sum_j Q_j A_i Q_j,
homogenizes odd-degree systems, represents the constant + linear +
homogeneous decomposition used by the PDE discretizations, and answers for
both system kinds, homogeneous and mixed, what they are made of and how
they evaluate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DeskScaleError, DimensionMismatchError, InputError

DESK_SCALE_CAP = 4096

# Monomial: (coefficient, per-variable exponents).
Monomial = tuple[float, tuple[int, ...]]


def capped_dim(n: int, p: int) -> int:
    """n^p, the p-fold tensor dimension; DeskScaleError above DESK_SCALE_CAP.
    The package's one desk-scale guard: of a homogeneous part's n^p, a
    solve's n^{p+1}, and (with p = 1) a block's side or an SVD block's."""
    if n <= 0 or p <= 0:
        raise InputError("n and p must be positive")
    d = n ** min(p, DESK_SCALE_CAP.bit_length())     # n >= 2: n^13 is above the cap
    if d <= DESK_SCALE_CAP:
        return d
    shown = (f"{n}^{p}" if p * math.log10(n) >= 4000      # too many digits to print
             else f"{n}^{p} = {n ** p}" if p > 1 else str(n))
    raise DeskScaleError(f"{shown} exceeds desk-scale cap {DESK_SCALE_CAP}")


def tensor_power(x: np.ndarray, k: int) -> np.ndarray:
    """k-fold Kronecker power of a vector (k = 0 gives the scalar 1)."""
    out = np.ones(1)
    for _ in range(k):
        out = np.kron(out, x)
    return out


@np.errstate(over="ignore")
def _norm_above(m: np.ndarray | SparseMatrix, bound: float) -> float | None:
    """||m||_2 when it exceeds bound, else None.

    A cheap upper bound that proves ||m||_2 <= bound (1 - margin) answers None
    at once: ||m||_F, then sqrt(||m||_1 ||m||_inf).  Only when neither
    certifies does the dense SVD run and decide.  A NaN bound, or a cheap
    bound that overflows, certifies nothing; a non-finite entry answers inf
    at once.  A SparseMatrix gives both bounds from its entries in O(nnz);
    only the SVD builds its nonzero-row by nonzero-column block (the rest
    adds only zero singular values), raising DeskScaleError above the cap.

    A certified m is one whose dense norm would also come out <= bound, so
    skipping the SVD changes no verdict.  With u = 2^-53 and k the larger side
    of m (of its nonzero block if sparse), the Frobenius norm sums at most k^2
    squares (nnz <= k^2) and is within (k^2/2) u of the true value, and the
    1- and inf-norm sums, k terms each, are within k u.  Underflow in the
    squares adds under 1e-300, far below the smallest squared bound here
    (1e-20).  The SVD's own error is a small multiple of k u ||m||_2, so
    margin = (k^2/2 + 64 k) u suffices: a certified m has ||m||_2 <=
    (1 - margin) (1 + (k^2/2) u) bound < (1 - 64 k u) bound.  The margin is
    3.5e-11 at k = 729 and 9.6e-10 at the cap k = 4096.
    """
    if sparse := isinstance(m, SparseMatrix):
        if not m.nnz:
            return None if bound >= 0.0 else 0.0
        (rows, r), (cols, c) = (np.unique(ix, return_inverse=True)
                                for ix in (m.rows, m.cols))
        k, vals = max(rows.size, cols.size), m.vals
    else:
        k, vals = max(m.shape), m
    certified = bound * (1.0 - (k * k / 2 + 64 * k) * 2.0 ** -53)
    if (fro := np.linalg.norm(vals)) <= certified:
        return None
    if not np.isfinite(fro) and not np.isfinite(vals).all():
        return math.inf
    a = np.abs(vals)
    sums = (np.bincount(c, a), np.bincount(r, a)) if sparse else (a.sum(0), a.sum(1))
    if np.sqrt(sums[0].max() * sums[1].max()) <= certified:
        return None
    if sparse:
        capped_dim(k, 1)
        m = np.zeros((rows.size, cols.size))
        m[r, c] = vals
    nrm = np.linalg.norm(m, 2)
    return None if nrm <= bound else nrm


@dataclass(frozen=True, eq=False)
class SparseMatrix:
    """COO matrix with unique, in-range, nonzero entries."""

    dim_rows: int
    dim_cols: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.int64).ravel()
        cols = np.asarray(self.cols, dtype=np.int64).ravel()
        vals = np.asarray(self.vals, dtype=np.float64).ravel()
        if not (rows.shape == cols.shape == vals.shape):
            raise InputError("rows, cols and vals must have equal length")
        if not np.all(np.isfinite(vals)):
            raise InputError("matrix entries must be finite")
        if self.dim_rows <= 0 or self.dim_cols <= 0:
            raise InputError("matrix dimensions must be positive")
        keep = vals != 0.0
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
        if rows.size:
            if rows.min() < 0 or rows.max() >= self.dim_rows:
                raise InputError("row index out of range")
            if cols.min() < 0 or cols.max() >= self.dim_cols:
                raise InputError("column index out of range")
            keys = rows * self.dim_cols + cols
            order = np.argsort(keys, kind="stable")
            rows, cols, vals = rows[order], cols[order], vals[order]
            if np.any(np.diff(keys[order]) == 0):
                raise InputError("duplicate (row, col) entry")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "vals", vals)

    # -- constructors -------------------------------------------------

    @classmethod
    def from_entries(cls, dim_rows: int, dim_cols: int,
                     entries: Iterable[tuple[int, int, float]]) -> "SparseMatrix":
        ent = list(entries)
        rows = np.array([e[0] for e in ent], dtype=np.int64)
        cols = np.array([e[1] for e in ent], dtype=np.int64)
        vals = np.array([e[2] for e in ent], dtype=np.float64)
        return cls(dim_rows, dim_cols, rows, cols, vals)

    @classmethod
    def summed(cls, dim_rows: int, dim_cols: int, rows: np.ndarray,
               cols: np.ndarray, vals: np.ndarray) -> "SparseMatrix":
        """Matrix whose entry at each position is the sum of the given values there."""
        uniq, inv = np.unique(rows * dim_cols + cols, return_inverse=True)
        return cls(dim_rows, dim_cols, uniq // dim_cols, uniq % dim_cols,
                   np.bincount(inv, vals))

    @classmethod
    def from_dense(cls, m: np.ndarray) -> "SparseMatrix":
        m = np.asarray(m, dtype=np.float64)
        rows, cols = np.nonzero(np.abs(m) > 0.0)
        return cls(m.shape[0], m.shape[1], rows, cols, m[rows, cols])

    @classmethod
    def identity(cls, d: int) -> "SparseMatrix":
        idx = np.arange(d)
        return cls(d, d, idx, idx, np.ones(d))

    # -- basic queries -------------------------------------------------

    @property
    def nnz(self) -> int:
        return int(self.vals.size)

    def entries(self) -> Iterator[tuple[int, int, float]]:
        """Entries in deterministic (row, col) order."""
        for r, c, v in zip(self.rows, self.cols, self.vals):
            yield int(r), int(c), float(v)

    def to_dense(self) -> np.ndarray:
        m = np.zeros((self.dim_rows, self.dim_cols))
        m[self.rows, self.cols] = self.vals
        return m

    def max_abs_entry(self) -> float:
        return float(np.max(np.abs(self.vals))) if self.nnz else 0.0

    def sparsity(self) -> int:
        """s, the most nonzeros in one row or one column (0 when empty)."""
        if not self.nnz:
            return 0
        return int(max(np.bincount(self.rows).max(),
                       np.bincount(self.cols).max()))

    # -- algebra -------------------------------------------------------

    def scaled(self, c: float) -> "SparseMatrix":
        return SparseMatrix(self.dim_rows, self.dim_cols,
                            self.rows, self.cols, self.vals * c)

    def transpose(self) -> "SparseMatrix":
        return SparseMatrix(self.dim_cols, self.dim_rows,
                            self.cols, self.rows, self.vals)

    def symmetrized(self) -> "SparseMatrix":
        """(A + A^T) / 2 with merged entry pattern; A itself when symmetric.

        Halving a subnormal entry and adding the halves back can change it.
        """
        if self.dim_rows != self.dim_cols:
            raise InputError("symmetrization needs a square matrix")
        t = self.transpose()
        if (np.array_equal(t.rows, self.rows) and np.array_equal(t.cols, self.cols)
                and np.array_equal(t.vals, self.vals)):
            return self
        return SparseMatrix.summed(self.dim_rows, self.dim_cols,
                                   np.concatenate([self.rows, self.cols]),
                                   np.concatenate([self.cols, self.rows]),
                                   np.concatenate([self.vals, self.vals]) * 0.5)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        # bincount over no entries gives integer zeros, whatever its weights
        return np.bincount(self.rows, self.vals * x[self.cols],
                           minlength=self.dim_rows).astype(np.float64)


def _swap_factor(idx: np.ndarray, n: int, p: int, j: int) -> np.ndarray:
    """Q_j on flat indices over n^p: swap tensor factor j (1-based) with
    factor p, reading an index as base-n digits, factor 1 most significant.
    Q_j is an involution, and Q_p the identity."""
    wj = n ** (p - j)          # place value of digit j
    dj = (idx // wj) % n
    dp = idx % n               # digit p
    return idx + (dp - dj) * wj + (dj - dp)


@dataclass(frozen=True, eq=False)
class PolynomialSystem:
    """n homogeneous equations of degree 2p, each (1/2) x^{op T} A_i x^{op}.

    Coefficient matrices are symmetrized on construction; the declared
    sparsity bounds the per-row/column nonzero count of the symmetrized
    matrices.
    """

    n: int
    p: int
    sparsity: int
    equations: tuple[SparseMatrix, ...]

    def __post_init__(self):
        d = capped_dim(self.n, self.p)
        if len(self.equations) != self.n:
            raise InputError("need exactly n coefficient matrices")
        sym = []
        for a in self.equations:
            if a.dim_rows != d or a.dim_cols != d:
                raise DimensionMismatchError("each A_i must be n^p x n^p")
            sym.append(a.symmetrized())
        for a in sym:
            if a.sparsity() > self.sparsity:
                raise InputError("declared sparsity exceeded after symmetrization")
        object.__setattr__(self, "equations", tuple(sym))

    @cached_property
    def a_blockdiag(self) -> SparseMatrix:
        """blockdiag(A_1 .. A_n), equation i at offset i n^p.  It and M are
        built once and kept in the instance dict, dying with the system."""
        d = self.equations[0].dim_rows
        parts = [(a.rows + i * d, a.cols + i * d, a.vals)
                 for i, a in enumerate(self.equations)]
        return SparseMatrix(self.n * d, self.n * d, *map(np.concatenate, zip(*parts)))

    @cached_property
    def m_blockdiag(self) -> SparseMatrix:
        """M = blockdiag(M_D^1 .. M_D^n), M_D^i = sum_{j=1}^p Q_j A_i Q_j."""
        return _merged_m(self.n, self.p, self.a_blockdiag)

    def max_norm(self) -> float:
        return self._max_norm

    @cached_property
    def _max_norm(self) -> float:
        """max_i ||A_i||_2, one dense SVD per equation, on the first read."""
        return max(_norm_above(a, math.nan) for a in self.equations)


def _merged_m(n: int, p: int, a: SparseMatrix) -> SparseMatrix:
    """sum_{j=1}^p Q_j a Q_j in one merge.  Q_j reads only the p low base-n
    digits of an index, so on a block-diagonal index it acts as I x Q_j."""
    swapped = lambda ix: np.concatenate(
        [_swap_factor(ix, n, p, j) for j in range(1, p + 1)])
    return SparseMatrix.summed(a.dim_rows, a.dim_cols, swapped(a.rows),
                               swapped(a.cols), np.tile(a.vals, p))


def contract_blocks(blocks: SparseMatrix, left: np.ndarray,
                    right: np.ndarray) -> np.ndarray:
    """Each diagonal block B_i contracted with left on its rows and right on
    its columns, the rows' trailing k = d / left.size left open (d =
    right.size, the blocks' side).  Entry ((i, H, t), (i, C)) adds v (left[H]
    right[C]) to out[i, t] in stored order; k = 1 gives left^T B_i right."""
    d = right.size
    k = d // left.size
    r = blocks.rows % d
    terms = blocks.vals * (left[r // k] * right[blocks.cols % d])
    return np.bincount(blocks.rows // d * k + r % k, terms,
                       minlength=blocks.dim_rows // d * k    # int zeros if empty
                       ).astype(np.float64).reshape(-1, k)


def _canonical_factor(n: int, p: int, a: SparseMatrix) -> float:
    """min(1, sqrt(n) / (p ||a||_2), 1 / max |a_ij|), a zero norm or entry
    imposing nothing; the norm is asked only above sqrt(n)/p less 1e-12
    relative, under which the float ratio is > 1 however it rounds."""
    c = 1.0
    if (norm := _norm_above(a, np.sqrt(n) / p * (1.0 - 1e-12))) is not None:
        c = min(c, np.sqrt(n) / (p * norm))
    if (ent := a.max_abs_entry()) > 0:
        c = min(c, 1.0 / ent)
    return c


def canonicalize(system: PolynomialSystem) -> tuple[PolynomialSystem, float]:
    """Rescale all A_i by one common factor c <= 1 so that
    p * max_i ||A_i||_2 <= sqrt(n) and max |entry| <= 1.

    The factor, returned, is the least per-equation factor: the ratios fall
    monotonically in norm and entry.  A common rescale keeps the roots.
    """
    c = min(_canonical_factor(system.n, system.p, a) for a in system.equations)
    if c >= 1.0:
        return system, 1.0
    eqs = tuple(a.scaled(c) for a in system.equations)
    return PolynomialSystem(system.n, system.p, system.sparsity, eqs), c


def evaluate(system: PolynomialSystem, x: np.ndarray) -> np.ndarray:
    """F(x) with components f_i = (1/2) (x^{op})^T A_i x^{op}."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (system.n,):
        raise DimensionMismatchError(f"x must have length {system.n}")
    xp = tensor_power(x, system.p)
    return 0.5 * contract_blocks(system.a_blockdiag, xp, xp)[:, 0]


def gradient_md(system: PolynomialSystem, i: int, x: np.ndarray) -> np.ndarray:
    """grad f_i(x), row i of the Jacobian, read off M_D^i alone; equation
    index i is 0-based."""
    if not (0 <= i < system.n):
        raise InputError("equation index out of range")
    m_d = _merged_m(system.n, system.p, system.equations[i])
    return _gradients(system, m_d, x)[0]


def jacobian(system: PolynomialSystem, x: np.ndarray) -> np.ndarray:
    """Dense Jacobian; row i is grad f_i(x) = D_i(x) x.

    D_i(x) is the contraction of M_D^i against (x x^T)^{(p-1)} on the
    leading p-1 tensor factors, read off the merged M in one scatter.
    """
    return _gradients(system, system.m_blockdiag, x)


def _gradients(system: PolynomialSystem, m: SparseMatrix,
               x: np.ndarray) -> np.ndarray:
    """The gradient rows of the equations whose M_D^i are m's blocks."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (system.n,):
        raise DimensionMismatchError(f"x must have length {system.n}")
    if not np.all(np.isfinite(x)):
        raise InputError("x must be finite")
    return contract_blocks(m, tensor_power(x, system.p - 1),
                           tensor_power(x, system.p))


def euler_check(system: PolynomialSystem, x: np.ndarray) -> float:
    """Defect of the degree-2p Euler identity, ||J(x) x - 2p F(x)||."""
    x = np.asarray(x, dtype=np.float64)
    return float(np.linalg.norm(jacobian(system, x) @ x
                                - 2 * system.p * evaluate(system, x)))


# ---------------------------------------------------------------------------
# Mixed systems: b + L x + F_nl(x)
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class MixedSystem:
    """Equation i evaluates as b_i + (L x)_i + f_i(x); Jacobian L + J_nl.

    A nonlinear part with no entries is stored as None, as files store it.
    """

    n: int
    constants: np.ndarray
    linear: SparseMatrix
    nonlinear: PolynomialSystem | None = None

    def __post_init__(self):
        b = np.asarray(self.constants, dtype=np.float64)
        if b.shape != (self.n,):
            raise DimensionMismatchError("constants must have length n")
        if not np.all(np.isfinite(b)):
            raise InputError("constants must be finite")
        if self.linear.dim_rows != self.n or self.linear.dim_cols != self.n:
            raise DimensionMismatchError("linear part must be n x n")
        if self.nonlinear is not None and self.nonlinear.n != self.n:
            raise DimensionMismatchError("nonlinear part must share n")
        if self.nonlinear is not None and not any(
                a.nnz for a in self.nonlinear.equations):
            object.__setattr__(self, "nonlinear", None)
        object.__setattr__(self, "constants", b)


def mixed_evaluate(ms: MixedSystem, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (ms.n,):
        raise DimensionMismatchError(f"x must have length {ms.n}")
    out = ms.constants + ms.linear.matvec(x)
    if ms.nonlinear is not None:
        out = out + evaluate(ms.nonlinear, x)
    return out


def mixed_jacobian(ms: MixedSystem, x: np.ndarray) -> np.ndarray:
    out = ms.linear.to_dense()
    if ms.nonlinear is not None:
        out = out + jacobian(ms.nonlinear, x)
    return out


def system_parts(system) -> tuple[PolynomialSystem | None,
                                  SparseMatrix | None, np.ndarray | None]:
    """(homogeneous part, linear part, constants) of a homogeneous or mixed
    system, each None when absent; InputError for any other system type."""
    if isinstance(system, PolynomialSystem):
        return system, None, None
    if isinstance(system, MixedSystem):
        lin = system.linear if system.linear.nnz else None
        const = system.constants if np.any(system.constants) else None
        return system.nonlinear, lin, const
    raise InputError(f"unsupported system type {type(system).__name__}")


def system_evaluators(system):
    """(F, J) callables of a homogeneous or mixed system; InputError for any
    other system type."""
    if isinstance(system, PolynomialSystem):
        return (lambda x: evaluate(system, x),
                lambda x: jacobian(system, x))
    if isinstance(system, MixedSystem):
        return (lambda x: mixed_evaluate(system, x),
                lambda x: mixed_jacobian(system, x))
    raise InputError(f"unsupported system type {type(system).__name__}")


def canonicalize_mixed(ms: MixedSystem) -> tuple[MixedSystem, np.ndarray]:
    """Per-row rescaling so the nonlinear part meets the encoding bounds.

    Scaling a whole equation preserves roots; the common-factor trick of the
    homogeneous case would not, since it changes the nonlinear/linear balance.
    Returns the scaled system and the per-row factors.
    """
    if ms.nonlinear is None:
        return ms, np.ones(ms.n)
    nl = ms.nonlinear
    factors = np.array([_canonical_factor(nl.n, nl.p, a) for a in nl.equations])
    if np.all(factors >= 1.0):
        return ms, np.ones(ms.n)
    eqs = tuple(a.scaled(f) for a, f in zip(nl.equations, factors))
    new_nl = PolynomialSystem(nl.n, nl.p, nl.sparsity, eqs)
    lin = SparseMatrix(ms.n, ms.n, ms.linear.rows, ms.linear.cols,
                       ms.linear.vals * factors[ms.linear.rows])
    return MixedSystem(ms.n, ms.constants * factors, lin, new_nl), factors


# ---------------------------------------------------------------------------
# Odd-degree homogenization
# ---------------------------------------------------------------------------

def _monomial_key(powers: Sequence[int]) -> tuple[int, ...]:
    return tuple(int(e) for e in powers)


def _poly_mul(a: dict[tuple[int, ...], float],
              b: dict[tuple[int, ...], float]) -> dict[tuple[int, ...], float]:
    out: dict[tuple[int, ...], float] = {}
    for pa, ca in a.items():
        for pb, cb in b.items():
            key = tuple(ea + eb for ea, eb in zip(pa, pb))
            out[key] = out.get(key, 0.0) + ca * cb
    return out


def monomials_to_matrix(nvars: int, p: int,
                        monomials: Iterable[Monomial]) -> SparseMatrix:
    """Coefficient matrix A with (1/2) x^{op T} A x^{op} = sum of monomials.

    Each degree-2p monomial is placed at one canonical (row, col) pair of
    sorted digit blocks; system construction symmetrizes afterwards, which
    leaves the represented polynomial unchanged.
    """
    d = capped_dim(nvars, p)
    keys: list[tuple[int, int]] = []
    vals: list[float] = []
    for coef, powers in monomials:
        if coef == 0.0:
            continue
        e = np.asarray(powers)
        if e.shape != (nvars,) or e.sum() != 2 * p or np.any(e < 0):
            raise InputError("monomial needs nvars nonnegative exponents of degree 2p")
        digits = np.repeat(np.arange(nvars), e)
        row = col = 0
        for dgt in digits[:p]:
            row = row * nvars + dgt
        for dgt in digits[p:]:
            col = col * nvars + dgt
        keys.append((row, col))
        vals.append(2.0 * coef)
    idx = np.array(keys, dtype=np.int64).reshape(-1, 2)
    return SparseMatrix.summed(d, d, idx[:, 0], idx[:, 1],
                               np.array(vals, dtype=np.float64))


def symmetrized_system(n: int, p: int,
                       mats: Sequence[SparseMatrix]) -> PolynomialSystem:
    """System of the symmetrized matrices; s is their measured sparsity, at least 1."""
    sym = tuple(a.symmetrized() for a in mats)
    s = max(a.sparsity() for a in sym) or 1
    return PolynomialSystem(n, p, s, sym)


def evaluate_monomials(equations: Sequence[Sequence[Monomial]],
                       x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros(len(equations))
    for i, eq in enumerate(equations):
        for coef, powers in eq:
            out[i] += coef * float(np.prod(x ** np.asarray(powers)))
    return out


def homogenize_odd(equations: Sequence[Sequence[Monomial]]) -> PolynomialSystem:
    """Lift a uniform odd-degree-d system over n variables to even degree d+1.

    Every equation is multiplied by a new variable m (appended last); one
    extra equation (x_1^2 - m^2) * (sum_i x_i^2 + m^2)^{(d-1)/2} pins
    m = +-x_1.  Nonzero roots x of the input with m = +-x_1 solve the output.
    """
    if not equations or not equations[0]:
        raise InputError("empty system")
    nvars = len(equations[0][0][1])
    if len(equations) != nvars:
        raise InputError("system must be square (n equations over n variables)")
    degree = None
    for eq in equations:
        for coef, powers in eq:
            if len(powers) != nvars:
                raise InputError("inconsistent variable count")
            d = sum(powers)
            if degree is None:
                degree = d
            elif d != degree:
                raise InputError("equations must have uniform degree")
    if degree is None or degree % 2 == 0:
        raise InputError("input degree must be odd")
    n_out = nvars + 1
    p_out = (degree + 1) // 2
    mats = []
    for eq in equations:
        lifted = [(coef, _monomial_key(tuple(powers) + (1,))) for coef, powers in eq]
        mats.append(monomials_to_matrix(n_out, p_out, lifted))
    # auxiliary equation: (x_1^2 - m^2) * (|x|^2 + m^2)^{(d-1)/2}
    e1_sq = {_monomial_key((2,) + (0,) * (nvars - 1) + (0,)): 1.0,
             _monomial_key((0,) * nvars + (2,)): -1.0}
    norm_sq = {}
    for var in range(n_out):
        powers = [0] * n_out
        powers[var] = 2
        norm_sq[_monomial_key(powers)] = 1.0
    aux = e1_sq
    for _ in range((degree - 1) // 2):
        aux = _poly_mul(aux, norm_sq)
    mats.append(monomials_to_matrix(n_out, p_out, [(c, k) for k, c in aux.items()]))
    return symmetrized_system(n_out, p_out, mats)

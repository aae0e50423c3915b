"""Sparse lower-triangular Cholesky factors of precision matrices.

The Gaussian variational family is parameterized through the precision
matrix Omega = T T^t with T lower triangular.  For two-tier hierarchical
models (local blocks b_1..b_n followed by a global tail) the conditional
independence structure makes T block banded: diagonal blocks, sub-diagonal
blocks up to the Markov order, and dense global rows.  T = [[T_LL, 0],
[T_GL, T_GG]] is therefore stored as T_LL in LAPACK lower-band form plus
the dense global rows, and a solve is one banded solve (dtbtrs) plus one
dense triangular solve on the tail (dtrtrs).  This module owns the pattern,
that storage, the solves and the log-diagonal reparameterization that keeps
T_ii positive during stochastic optimization.

Patterns and factors are immutable value types; solves never mutate them.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import lapack

# exp(STAR_DIAG_FLOOR) is the smallest diagonal we allow; anything lower is
# clamped so the factor never underflows to an exactly singular matrix.  A
# factor clamped at the floor is therefore solvable by construction.
STAR_DIAG_FLOOR = -700.0
SINGULAR_TOL = float(np.exp(STAR_DIAG_FLOOR))


class SingularFactorError(ValueError):
    """Raised when a triangular solve meets a factor with underflowed diagonal."""


@dataclass(frozen=True, eq=False)
class SparsityPattern:
    """Lower-triangular nonzero positions of a block-banded factor.

    Nonzeros are stored column-major within the lower triangle (sorted by
    column, then row) and this ordering is fixed for the lifetime of the
    pattern so optimizer state vectors stay aligned across iterations.
    """

    kind: str  # "blocks" or "dense"
    n_blocks: int
    block_dims: tuple[int, ...]
    global_dim: int
    markov_order: int
    dim: int
    rows: np.ndarray
    cols: np.ndarray

    @property
    def nnz(self) -> int:
        return self.rows.size

    @cached_property
    def diag_slots(self) -> np.ndarray:
        """Slots (indices into the nonzero vector) holding diagonal entries."""
        return np.flatnonzero(self.rows == self.cols)

    @cached_property
    def band_layout(self) -> tuple[int, int, np.ndarray]:
        """(n_local, kd, pos): slot k of a factor lives at buf[pos[k]].

        buf is the LAPACK lower band ab (kd + 1, n_local) of T_LL, then the global
        rows [T_GL, T_GG], both in Fortran order.  The tail holds at least the last
        row; when the band would cover the whole local part, n_local is 0.
        """
        r, c = self.rows, self.cols
        n_local = self.dim - max(self.global_dim, 1)
        kd = int(np.max((r - c)[r < n_local], initial=0))
        if kd >= n_local - 1:
            n_local, kd = 0, 0
        band = (kd + 1) * n_local
        pos = np.where(r < n_local, r - c + c * (kd + 1),
                       band + r - n_local + c * (self.dim - n_local))
        return n_local, kd, pos

    def descriptor(self) -> dict:
        return {
            "kind": self.kind,
            "n_blocks": self.n_blocks,
            "block_dims": list(self.block_dims),
            "global_dim": self.global_dim,
            "markov_order": self.markov_order,
            "dim": self.dim,
        }

    @classmethod
    def from_descriptor(cls, desc: dict) -> "SparsityPattern":
        if desc["kind"] == "dense":
            return build_dense_pattern(desc["dim"])
        return build_pattern(
            desc["n_blocks"],
            list(desc["block_dims"]),
            desc["global_dim"],
            desc["markov_order"],
        )


def _envelope(first: np.ndarray):
    """Slots of a lower triangle whose row r spans columns first[r]..r, column-major."""
    counts = np.arange(first.size) - first + 1
    rows = np.repeat(np.arange(first.size), counts)
    cols = np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts - first, counts)
    order = np.lexsort((rows, cols))  # column-major within the lower triangle
    return rows[order], cols[order]


def build_pattern(n_blocks: int, block_dims, global_dim: int, markov_order: int) -> SparsityPattern:
    """Block-banded lower-triangular pattern for n local blocks plus a global tail.

    Positions are exactly: lower triangles of the diagonal blocks T_ii, full
    sub-diagonal blocks T_ij for 1 <= i-j <= markov_order, the global rows
    T_Gj and the lower triangle of T_GG.
    """
    block_dims = tuple(int(b) for b in block_dims)
    if n_blocks != len(block_dims):
        raise ValueError(f"n_blocks={n_blocks} but {len(block_dims)} block dims given")
    if n_blocks < 1 or any(b < 1 for b in block_dims):
        raise ValueError("need at least one local block and all block dims >= 1")
    if global_dim < 0:
        raise ValueError("global_dim must be >= 0")
    if markov_order < 0:
        raise ValueError("markov_order must be >= 0")
    if markov_order >= n_blocks:
        raise ValueError(f"markov_order={markov_order} must be < n_blocks={n_blocks}")

    # rows are contiguous: block i's rows start at block i - markov_order, global rows at 0
    offsets = np.concatenate([[0], np.cumsum(block_dims)]).astype(np.int64)
    dim = int(offsets[-1]) + int(global_dim)
    block_of_row = np.repeat(np.arange(n_blocks), block_dims)
    r, c = _envelope(np.concatenate([offsets[np.maximum(block_of_row - markov_order, 0)],
                                     np.zeros(global_dim, dtype=np.int64)]))
    return SparsityPattern(
        kind="blocks",
        n_blocks=n_blocks,
        block_dims=block_dims,
        global_dim=int(global_dim),
        markov_order=int(markov_order),
        dim=dim,
        rows=r,
        cols=c,
    )


def build_dense_pattern(dim: int) -> SparsityPattern:
    """Full lower triangle; fallback when the precision has no sparse structure."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    r, c = _envelope(np.zeros(dim, dtype=np.int64))
    return SparsityPattern(
        kind="dense",
        n_blocks=1,
        block_dims=(dim,),
        global_dim=0,
        markov_order=0,
        dim=dim,
        rows=r,
        cols=c,
    )


def vech_gather(mat: np.ndarray, pattern: SparsityPattern):
    """Collect pattern positions of a (dim, dim) matrix into a slot vector.

    Returns (vec, n_dropped) where n_dropped counts nonzero entries of `mat`
    lying outside the pattern (they are silently dropped from the vector).
    """
    mat = np.asarray(mat, dtype=float)
    if mat.shape != (pattern.dim, pattern.dim):
        raise ValueError(f"matrix shape {mat.shape} does not match pattern dim {pattern.dim}")
    vec = mat[pattern.rows, pattern.cols].copy()
    return vec, int(np.count_nonzero(mat) - np.count_nonzero(vec))


def vech_scatter(vec: np.ndarray, pattern: SparsityPattern) -> np.ndarray:
    """Inverse of gather: zero matrix with `vec` written at pattern positions."""
    vec = np.asarray(vec, dtype=float)
    if vec.shape != (pattern.nnz,):
        raise ValueError(f"vector length {vec.shape} does not match pattern nnz {pattern.nnz}")
    mat = np.zeros((pattern.dim, pattern.dim))
    mat[pattern.rows, pattern.cols] = vec
    return mat


class CholFactor:
    """Lower-triangular factor T with values aligned to a SparsityPattern.

    `values` hold the entries of T; `star_values` hold the same layout for
    T* where diagonal entries store log(T_ii).  Both views are kept in sync
    at construction; factors are treated as immutable afterwards.
    """

    __slots__ = ("pattern", "values", "star_values", "_parts", "_singular")

    def __init__(self, pattern: SparsityPattern, values: np.ndarray, star_values: np.ndarray):
        self.pattern = pattern
        self.values = values
        self.star_values = star_values
        self._parts = None
        # LAPACK would return inf without complaint; checked once per factor
        self._singular = bool(np.any(values[pattern.diag_slots] < SINGULAR_TOL))

    @classmethod
    def from_values(cls, pattern: SparsityPattern, values) -> "CholFactor":
        values = np.asarray(values, dtype=float).copy()
        if values.shape != (pattern.nnz,):
            raise ValueError(f"values length {values.size} != pattern nnz {pattern.nnz}")
        diag = values[pattern.diag_slots]
        if np.any(diag <= 0):
            raise ValueError("factor diagonal must be strictly positive")
        star = values.copy()
        star[pattern.diag_slots] = np.log(diag)
        return cls(pattern, values, star)

    @classmethod
    def from_star(cls, pattern: SparsityPattern, star_values) -> "CholFactor":
        star = np.asarray(star_values, dtype=float).copy()
        if star.shape != (pattern.nnz,):
            raise ValueError(f"star values length {star.size} != pattern nnz {pattern.nnz}")
        star[pattern.diag_slots] = np.maximum(star[pattern.diag_slots], STAR_DIAG_FLOOR)
        values = star.copy()
        values[pattern.diag_slots] = np.exp(star[pattern.diag_slots])
        return cls(pattern, values, star)

    @classmethod
    def identity(cls, pattern: SparsityPattern, scale: float = 1.0) -> "CholFactor":
        values = np.zeros(pattern.nnz)
        values[pattern.diag_slots] = scale
        return cls.from_values(pattern, values)

    @property
    def dim(self) -> int:
        return self.pattern.dim

    @property
    def diag(self) -> np.ndarray:
        return self.values[self.pattern.diag_slots]

    @property
    def log_det(self) -> float:
        """log det T = sum of log diagonal (= star diagonal)."""
        return float(np.sum(self.star_values[self.pattern.diag_slots]))

    def as_dense(self) -> np.ndarray:
        """Dense (dim, dim) T (diagnostic and test use only)."""
        return vech_scatter(self.values, self.pattern)

    def _split(self):
        """(ab, T_G): `values` scattered by the pattern's band_layout, once."""
        if self._parts is None:
            n_local, kd, pos = self.pattern.band_layout
            band = (kd + 1) * n_local
            buf = np.zeros(band + (self.dim - n_local) * self.dim)
            buf[pos] = self.values
            self._parts = (buf[:band].reshape((kd + 1, n_local), order="F"),
                           buf[band:].reshape((self.dim - n_local, self.dim), order="F"))
        return self._parts

    def _check_diag(self):
        if self._singular:
            raise SingularFactorError(
                f"factor diagonal below {SINGULAR_TOL:.3g}; solve would overflow")

    def solve_lower(self, b: np.ndarray) -> np.ndarray:
        """x with T x = b (forward substitution; b may be a matrix of columns)."""
        self._check_diag()
        b = np.asarray(b, dtype=float)
        ab, t_g = self._split()
        nl = ab.shape[1]
        if nl == 0:
            return _solved(lapack.dtrtrs(t_g, b, lower=1))
        x_l = _solved(lapack.dtbtrs(ab, b[:nl], uplo="L"))
        x_g = _solved(lapack.dtrtrs(t_g[:, nl:], b[nl:] - t_g[:, :nl] @ x_l, lower=1,
                                    overwrite_b=1))
        return np.concatenate([x_l, x_g])

    def solve_upper_transpose(self, b: np.ndarray) -> np.ndarray:
        """x with T^t x = b (back substitution; b may be a matrix of columns)."""
        self._check_diag()
        b = np.asarray(b, dtype=float)
        ab, t_g = self._split()
        nl = ab.shape[1]
        if nl == 0:
            return _solved(lapack.dtrtrs(t_g, b, lower=1, trans=1))
        x_g = _solved(lapack.dtrtrs(t_g[:, nl:], b[nl:], lower=1, trans=1))
        x_l = _solved(lapack.dtbtrs(ab, b[:nl] - t_g[:, :nl].T @ x_g, uplo="L", trans="T",
                                    overwrite_b=1))
        return np.concatenate([x_l, x_g])

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """T @ x (x may be a matrix of columns)."""
        x = np.asarray(x, dtype=float)
        ab, t_g = self._split()
        nl = ab.shape[1]
        xt = x[:nl].T  # band diagonals broadcast along the last axis
        y = ab[0] * xt
        for k in range(1, ab.shape[0]):
            y[..., k:] += ab[k, :nl - k] * xt[..., :nl - k]
        return np.concatenate([y.T, t_g @ x])

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        """T^t @ x (x may be a matrix of columns)."""
        x = np.asarray(x, dtype=float)
        ab, t_g = self._split()
        nl = ab.shape[1]
        z = t_g.T @ x[nl:]
        xt, zt = x[:nl].T, z[:nl].T  # zt writes through to z
        for k in range(ab.shape[0]):
            zt[..., :nl - k] += ab[k, :nl - k] * xt[..., k:]
        return z

    def precision(self) -> np.ndarray:
        """Dense Omega = T T^t (diagnostic use only)."""
        t = self.as_dense()
        return t @ t.T


def _solved(x_info):
    x, info = x_info
    if info != 0:
        raise np.linalg.LinAlgError(f"triangular solve failed, LAPACK info={info}")
    return x


@dataclass(frozen=True)
class DiagScaler:
    """Chain-rule scaler between vech(T) and vech(T*) gradients.

    d_diag holds T_ii at diagonal slots and 1 elsewhere, so that
    grad_{T*} f = DiagScaler.apply(grad_T f).
    """

    d_diag: np.ndarray

    @classmethod
    def from_factor(cls, factor: CholFactor) -> "DiagScaler":
        d = np.ones(factor.pattern.nnz)
        d[factor.pattern.diag_slots] = factor.diag
        return cls(d)

    def apply(self, grad: np.ndarray) -> np.ndarray:
        return grad * self.d_diag

"""Dense numerical kernel: skew-Hermitian matrix tools, PSD pseudo-inverses,
nullspaces, and Gram-based symmetric orthonormalization.

All routines are pure functions on numpy arrays.  Rank decisions use a
relative threshold (``SYMFLOW_TOL`` environment variable, default 1e-10
times the largest eigenvalue or singular value) above an absolute noise
floor, ``ZERO_MATRIX_FLOOR`` (squared for Gram eigenvalues).
"""
from __future__ import annotations

import os

import numpy as np

DEFAULT_RANK_TOL = 1e-10
HERM_TOL = 1e-12
ZERO_MATRIX_FLOOR = 1e-12  # inputs here are O(1)-normalized; below this is noise


class ContractViolation(ValueError):
    """Raised when an input breaks a documented algebraic precondition."""


def rank_tol() -> float:
    """Global relative rank tolerance, overridable via ``SYMFLOW_TOL``,
    which must be a finite number in (0, 1)."""
    value = os.environ.get("SYMFLOW_TOL")
    if not value:
        return DEFAULT_RANK_TOL
    try:
        tol = float(value)
    except ValueError:
        tol = float("nan")
    if not 0.0 < tol < 1.0:
        raise ValueError(f"SYMFLOW_TOL={value!r} must be a finite number in (0, 1)")
    return tol


def _resolve_tol(rel_tol: float | None) -> float:
    return rank_tol() if rel_tol is None else float(rel_tol)


def _as_square(x, name: str = "matrix") -> np.ndarray:
    x = np.asarray(x, dtype=complex)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ValueError(f"{name} must be square, got shape {x.shape}")
    return x


def is_hermitian(x, tol: float = HERM_TOL) -> bool:
    x = _as_square(x)
    return bool(np.max(np.abs(x - x.conj().T)) <= tol)


def is_skew_hermitian(x, tol: float = HERM_TOL) -> bool:
    x = _as_square(x)
    return bool(np.max(np.abs(x + x.conj().T)) <= tol)


def require_skew_hermitian(x, tol: float = HERM_TOL, name: str = "matrix") -> np.ndarray:
    x = _as_square(x, name)
    defect = float(np.max(np.abs(x + x.conj().T)))
    if defect > tol:
        raise ContractViolation(f"{name} is not skew-Hermitian (defect {defect:.3e})")
    return x


def trace_inner(x, y) -> float:
    """Normalized real trace inner product Re[tr(x^dag y)] / d."""
    x = _as_square(x, "x")
    y = _as_square(y, "y")
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
    d = x.shape[0]
    return float(np.real(np.sum(x.conj() * y))) / d


def expm_skew(x, scale: float = 1.0) -> np.ndarray:
    """exp(scale * x) for skew-Hermitian x, via eigendecomposition of i*x.

    Exactly unitary up to roundoff, which matters more here than speed.
    """
    x = require_skew_hermitian(x)
    evals, vecs = np.linalg.eigh(1j * x)
    phases = np.exp(-1j * scale * evals)
    return (vecs * phases) @ vecs.conj().T


def _psd_eig(g, rel_tol: float | None):
    g = np.asarray(g, dtype=float) if np.isrealobj(g) else np.asarray(g)
    if np.iscomplexobj(g):
        if np.max(np.abs(g.imag)) > 1e-10:
            raise ContractViolation("Gram matrix has a complex part")
        g = g.real
    g = np.asarray(g, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise ValueError(f"Gram matrix must be square, got {g.shape}")
    if g.size and np.max(np.abs(g - g.T)) > 1e-10:
        raise ContractViolation("Gram matrix is not symmetric")
    evals, vecs = np.linalg.eigh((g + g.T) / 2.0) if g.size else (np.zeros(0), np.zeros((0, 0)))
    # an eigenvalue below the floor squared is a direction of norm below the floor: noise
    cut = max(_resolve_tol(rel_tol) * (np.max(evals) if evals.size else 0.0),
              ZERO_MATRIX_FLOOR**2)
    return evals, vecs, cut


def pinv_psd(g, rel_tol: float | None = None) -> np.ndarray:
    """Moore-Penrose pseudo-inverse of a symmetric PSD matrix."""
    evals, vecs, cut = _psd_eig(g, rel_tol)
    inv = np.where(evals > cut, 1.0 / np.where(evals > cut, evals, 1.0), 0.0)
    return (vecs * inv) @ vecs.T


def nullspace_real(m, rel_tol: float | None = None) -> np.ndarray:
    """Orthonormal basis of the right nullspace of a real matrix, as rows."""
    m = np.atleast_2d(np.asarray(m, dtype=float))
    n = m.shape[1]
    if m.shape[0] == 0 or not np.any(np.abs(m) > ZERO_MATRIX_FLOOR):
        return np.eye(n)
    # a tall matrix's thin SVD already returns the full V
    _, svals, vh = np.linalg.svd(m, full_matrices=m.shape[0] < m.shape[1])
    cut = max(_resolve_tol(rel_tol) * svals[0], ZERO_MATRIX_FLOOR)
    rank = int(np.sum(svals > cut))
    return vh[rank:]


def orthonormal_rows(m, rel_tol: float | None = None) -> np.ndarray:
    """Orthonormal basis of the row space of a real matrix, as rows."""
    m = np.atleast_2d(np.asarray(m, dtype=float))
    if m.shape[0] == 0 or not np.any(np.abs(m) > ZERO_MATRIX_FLOOR):
        return np.zeros((0, m.shape[1]))
    _, svals, vh = np.linalg.svd(m, full_matrices=False)  # the rank is at most min(m.shape)
    cut = max(_resolve_tol(rel_tol) * svals[0], ZERO_MATRIX_FLOOR)
    rank = int(np.sum(svals > cut))
    return vh[:rank]


def sym_orthonormalize(vectors, gram, rel_tol: float | None = None) -> np.ndarray:
    """Orthonormalize a redundant family via the square-rooted pseudo-inverse
    of its Gram matrix.

    Works in the eigenbasis of ``gram``: each kept output row is
    lambda_a^{-1/2} * sum_b W[b, a] * vectors[b] for an eigenpair
    (lambda_a, W[:, a]) above the rank cut, in descending eigenvalue order;
    null directions are dropped, so the row count equals the numerical rank
    of ``gram``.  All rows come from one matrix product.
    """
    evals, vecs, cut = _psd_eig(gram, rel_tol)
    if len(vectors) != evals.size:
        raise ValueError(
            f"Gram matrix of size {evals.size} does not match {len(vectors)} vectors"
        )
    if not len(vectors):
        return np.zeros((0, 0))
    keep = np.flatnonzero(evals > cut)[::-1]  # descending eigenvalue order
    stack = np.stack([np.asarray(v) for v in vectors])
    return np.tensordot((vecs[:, keep] / np.sqrt(evals[keep])).T, stack, axes=1)

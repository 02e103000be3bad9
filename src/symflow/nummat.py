"""Dense numerical kernel: skew-Hermitian matrix tools, the real embedding
of state tangents, the PSD pseudo-inverse, nullspaces, row spaces (also
with the coefficients that produce them), intersections, orthogonal parts
and the one four-way split of two spans (for u(d) and for state tangents),
Gram-Schmidt orthonormalization, and the one rule each for what counts as
a number and as an integer (``is_finite_real``, ``is_integer``).

Every numerical-rank decision of the library is made here, by one rule
(``_kept``): a singular value, a Gram-Schmidt residual or an eigenvalue of
a matrix given to ``pinv_psd`` counts when it exceeds ``rank_tol()``
(``SYMFLOW_TOL``, default 1e-10) times its scale and the noise floor
``ZERO_MATRIX_FLOOR`` (squared for the eigenvalues).  The scale is the
largest singular value or eigenvalue, or the norm of the vector before
orthogonalization.
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


def _kept(values, scale: float, tol: float, floor: float = ZERO_MATRIX_FLOOR):
    """The rank rule: which values exceed ``tol * scale`` and the floor."""
    return values > max(tol * scale, floor)


def _as_square(x, name: str = "matrix") -> np.ndarray:
    x = np.asarray(x, dtype=complex)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ValueError(f"{name} must be square, got shape {x.shape}")
    return x


def is_integer(x) -> bool:
    """The one integer rule: a Python or numpy integer that is not a bool."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def is_finite_real(x) -> bool:
    """The one number rule: a finite real int or float (numpy ones included)
    that is not a bool; an int beyond the float range is not finite."""
    try:
        return (isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool)
                and bool(np.isfinite(float(x))))
    except OverflowError:
        return False


def require_finite(x, name: str = "matrix", dtype=complex) -> np.ndarray:
    """x as an array of ``dtype``; ValueError if an entry is NaN or infinite."""
    x = np.asarray(x, dtype=dtype)
    if not np.isfinite(x).all():
        raise ValueError(f"non-finite entry in {name}")
    return x


def require_skew_hermitian(x, name: str = "matrix") -> np.ndarray:
    x = require_finite(_as_square(x, name), name)
    defect = float(np.max(np.abs(x + x.conj().T)))
    if defect > HERM_TOL:
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


def embed_real(v) -> np.ndarray:
    """A complex vector, or each row of a stack, as the real vector
    (Re v, Im v), so that Re<a|b> is the dot product of the embeddings."""
    v = np.asarray(v, dtype=complex)
    return np.concatenate([v.real, v.imag], axis=-1)


def unembed(r) -> np.ndarray:
    """Inverse of :func:`embed_real`, on a vector or each row of a stack."""
    r = np.asarray(r, dtype=float)
    half = r.shape[-1] // 2
    return r[..., :half] + 1j * r[..., half:]


def expm_skew(x, scale: float = 1.0) -> np.ndarray:
    """exp(scale * x) for skew-Hermitian x, via eigendecomposition of i*x.

    Exactly unitary up to roundoff, which matters more here than speed.
    """
    x = require_skew_hermitian(x)
    evals, vecs = np.linalg.eigh(1j * x)
    return (vecs * np.exp(-1j * (scale * evals))) @ vecs.conj().T


def pinv_psd(g) -> np.ndarray:
    """Moore-Penrose pseudo-inverse of a symmetric PSD matrix."""
    g = np.asarray(g)
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
    keep = _kept(evals, np.max(evals, initial=0.0), rank_tol(), ZERO_MATRIX_FLOOR**2)
    inv = np.where(keep, 1.0 / np.where(keep, evals, 1.0), 0.0)
    return (vecs * inv) @ vecs.T


def _svd_rows(m, null: bool) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """Numerical rank and SVD factors U, s, V^T of a real matrix: all of V
    for a nullspace, the thin V otherwise; rank 0, no singular pairs and
    V = I below the floor."""
    m = np.atleast_2d(require_finite(m, "matrix", float))
    if m.shape[0] == 0 or not np.any(np.abs(m) > ZERO_MATRIX_FLOOR):
        return 0, np.zeros((m.shape[0], 0)), np.zeros(0), np.eye(m.shape[1])
    # a tall matrix's thin SVD already returns the full V
    u, svals, vh = np.linalg.svd(m, full_matrices=null and m.shape[0] < m.shape[1])
    return int(np.sum(_kept(svals, svals[0], rank_tol()))), u, svals, vh


def nullspace_real(m) -> np.ndarray:
    """Orthonormal basis of the right nullspace of a real matrix, as rows."""
    rank, _, _, vh = _svd_rows(m, null=True)
    return vh[rank:]


def orthonormal_rows(m) -> np.ndarray:
    """Orthonormal basis of the row space of a real matrix, as rows."""
    rank, _, _, vh = _svd_rows(m, null=False)
    return vh[:rank]


def orthonormal_frame(m) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal rows V_r^T spanning the row space of a real (k, n)
    matrix, and the coefficients C = S_r^{-1} U_r^T with C @ m = V_r^T,
    from one thin SVD m = U S V^T cut by the rank rule.  C^T C is the
    pseudo-inverse of the Gram matrix m m^T under the same cut."""
    rank, u, svals, vh = _svd_rows(m, null=False)
    return vh[:rank], (u[:, :rank] / svals[:rank]).T


def intersect_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Orthonormal rows of span(a) ∩ span(b), both given by orthonormal
    rows: the combinations of a's rows whose residuals off b cancel."""
    return nullspace_real((a - (a @ b.T) @ b).T) @ a


def orthogonal_part(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Orthonormal rows of the part of span(a) orthogonal to every row of b."""
    return nullspace_real(b @ a.T) @ a


def four_way_split(a: np.ndarray, b: np.ndarray, outside=()) -> tuple[np.ndarray, ...]:
    """Mutually orthogonal parts of two spans of orthonormal rows: the
    complement of outside + a + b (solved on the stack outside, b, a),
    b ∩ a^perp, a ∩ b, and the rest of a."""
    both = intersect_rows(a, b)
    return (nullspace_real(np.vstack([*outside, b, a])), orthogonal_part(b, a), both,
            orthogonal_part(a, both))


class GramSchmidt:
    """Orthonormal rows grown in the order vectors are offered: classical
    Gram-Schmidt against all rows, applied twice, keeping a residual that
    passes the rank rule.  The tolerance is read once, at creation."""

    def __init__(self, width: int):
        self.rows = np.zeros((0, width))
        self._tol = rank_tol()

    def extend(self, vecs) -> np.ndarray:
        """Offer a (k, width) stack in order; returns the rows it added."""
        start = len(self.rows)
        for vec in np.asarray(vecs, dtype=float):
            norm = np.linalg.norm(vec)
            for _ in range(2):
                vec = vec - (self.rows @ vec) @ self.rows
            res = np.linalg.norm(vec)
            if _kept(res, norm, self._tol):
                self.rows = np.vstack([self.rows, vec / res])
        return self.rows[start:]

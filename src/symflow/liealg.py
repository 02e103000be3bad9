"""Real Lie-subspace machinery on the skew-Hermitian matrices u(d):
closures, commutants, centers, orthogonal complements, twirling as
projection, and the four-way equivariant/vertical decomposition.

All linear algebra runs on real coordinate vectors with respect to the
fixed orthonormal skew-Hermitian basis i*P of u(d), P running over the
Pauli words in ``pauli.all_words`` order; these coordinates are the trace
inner products with that basis.  A Subspace is the (dim, d*d) matrix of
the orthonormal coordinate rows of its basis, so every projection is a
matrix product.  Coordinates exist for d = 2**n only: ``coords``,
``from_coords`` and ``skew_basis`` raise ValueError for any other d.  They
go through the tensorized Pauli transform, O(n d^2) per matrix, and build
no basis array.  The commutant is solved on the blocks of one generic
element's eigenbasis, with the exact Pauli words that commute first.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import pauli
from .nummat import (
    HERM_TOL,
    ContractViolation,
    GramSchmidt,
    embed_real,
    four_way_split,
    intersect_rows,
    nullspace_real,
    orthogonal_part,
    orthonormal_rows,
    require_finite,
    require_skew_hermitian,
    trace_inner,  # noqa: F401  (part of this module's public surface)
)

SUBALGEBRA_TOL = 1e-10
ORTHONORMAL_TOL = 1e-10
CLUSTER_GAP = 1e-3  # relative eigenvalue gap that starts a commutant block (generous)
BRACKET_CHUNK = 1 << 12  # complex entries (64 KiB) of the bracket stack built at once


class AlgebraFailure(RuntimeError):
    """Raised when an algebra computation ends in an inconsistent result,
    typically because the rank tolerance cuts through a spectrum."""


class Subspace:
    """Real subspace of u(d), stored as the orthonormal coordinate rows of
    its basis, shape (dim, d*d)."""

    def __init__(self, dim_ambient: int, rows):
        rows = np.asarray(rows, dtype=float).reshape(-1, dim_ambient * dim_ambient)
        rows.setflags(write=False)  # the reshape is a new view: the caller's array stays writable
        self.dim_ambient = dim_ambient
        self.rows = rows

    @property
    def dim(self) -> int:
        return self.rows.shape[0]

    @cached_property
    def basis(self) -> np.ndarray:
        """The basis matrices, a read-only (dim, d, d) view built on first use."""
        mats = from_coords(self.rows, self.dim_ambient)
        mats.setflags(write=False)
        return mats

    def contains(self, x) -> bool:
        norm = np.linalg.norm(x) / np.sqrt(self.dim_ambient)
        return residual_norm(x, self) <= SUBALGEBRA_TOL * max(1.0, norm)


def subspace(d: int, mats) -> Subspace:
    """Build a Subspace from matrices, checking skewness and orthonormality.

    The matrices themselves, not their round trip through coordinates,
    become the ``basis`` view."""
    basis = require_finite(np.array(mats, dtype=complex), "basis")
    if basis.size == 0:
        basis = np.zeros((0, d, d), dtype=complex)
    if basis.ndim != 3 or basis.shape[1:] != (d, d):
        raise ValueError(f"basis elements of shape {basis.shape[1:]} in u({d})")
    rows = coords(basis, d)
    if len(basis):
        defects = np.max(np.abs(basis + basis.conj().transpose(0, 2, 1)), axis=(1, 2))
        if np.max(defects) > HERM_TOL:
            raise ContractViolation(
                f"basis element {int(np.argmax(defects))} is not skew-Hermitian "
                f"(defect {np.max(defects):.3e})"
            )
        gram = rows @ rows.T
        a, b = np.unravel_index(np.argmax(np.abs(gram - np.eye(len(rows)))), gram.shape)
        if abs(gram[a, b] - (a == b)) > ORTHONORMAL_TOL:
            raise ContractViolation(f"basis not orthonormal: <{a},{b}> = {gram[a, b]:.3e}")
    sub = Subspace(d, rows)
    basis.setflags(write=False)
    sub.__dict__["basis"] = basis  # seeds the cached view with the validated matrices
    return sub


@lru_cache(maxsize=8)
def skew_basis(d: int) -> np.ndarray:
    """Fixed orthonormal skew-Hermitian basis i*P of u(d), d = 2**n,
    shape (d*d, d, d)."""
    stack = from_coords(np.eye(d * d), d)
    stack.setflags(write=False)
    return stack


def coords(x, d: int | None = None) -> np.ndarray:
    """Real coordinates of a matrix, or of a stack of them, in the fixed
    basis: shape (..., d, d) -> (..., d*d).  Entry a is the trace inner
    product with basis element a, for any complex matrix."""
    x = np.asarray(x, dtype=complex)
    if d is not None and x.shape[-2:] != (d, d):
        raise ValueError(f"matrix of shape {x.shape} in u({d})")
    # trace_inner(i*P, x) = Re tr(-i P x)/d = Im tr(P x)/d
    return pauli.pauli_transform(x).imag


def from_coords(vec, d: int) -> np.ndarray:
    """Inverse of :func:`coords` on u(d): shape (..., d*d) -> (..., d, d)."""
    vec = np.asarray(vec, dtype=float)
    if vec.shape[-1:] != (d * d,):
        raise ValueError(f"coordinate vector of shape {vec.shape} for u({d})")
    return 1j * pauli.inverse_pauli_transform(vec)


def _fix_signs(rows: np.ndarray) -> np.ndarray:
    """Flip each row whose first entry above the noise level is negative."""
    scale = np.maximum(1.0, np.max(np.abs(rows), axis=1, initial=0.0))
    big = np.abs(rows) > 1e-8 * scale[:, None]
    lead = rows[np.arange(len(rows)), np.argmax(big, axis=1)]
    return np.where((np.any(big, axis=1) & (lead < 0))[:, None], -rows, rows)


def subspace_from_rows(rows, d: int) -> Subspace:
    """Subspace from orthonormal coordinate rows, with canonical signs."""
    return Subspace(d, _fix_signs(np.asarray(rows, dtype=float).reshape(-1, d * d)))


def full_space(d: int) -> Subspace:
    return Subspace(d, np.eye(d * d))


def project_onto(x, sub: Subspace) -> np.ndarray:
    """Orthogonal projection of x onto the subspace, sum_b <b, x> b."""
    x = np.asarray(x, dtype=complex)
    return from_coords((sub.rows @ coords(x, sub.dim_ambient)) @ sub.rows, sub.dim_ambient)


def residual_norm(x, sub: Subspace) -> float:
    """Trace-norm of x minus its projection onto the subspace."""
    r = np.asarray(x, dtype=complex) - project_onto(x, sub)
    return float(np.linalg.norm(r) / np.sqrt(sub.dim_ambient))


def lie_closure(generators) -> Subspace:
    """Smallest bracket-closed real span containing the generators.

    Brackets the basis with the elements the last round added until a
    round adds none, which happens within d*d rounds.  Every candidate goes
    through one order-preserving Gram-Schmidt in coordinates.
    """
    gens = [require_skew_hermitian(np.asarray(g, dtype=complex)) for g in generators]
    if not gens:
        raise ValueError("lie_closure needs at least one generator")
    d = gens[0].shape[0]
    for g in gens:
        if g.shape != (d, d):
            raise ValueError("generators live in different dimensions")
    basis = GramSchmidt(d * d)
    mats = frontier = from_coords(basis.extend(coords(np.stack(gens), d)), d)
    while len(frontier):
        fresh = [basis.extend(coords(a @ frontier - frontier @ a, d)) for a in mats]
        frontier = from_coords(np.concatenate(fresh), d)
        mats = np.concatenate([mats, frontier])
    return subspace_from_rows(basis.rows, d)


def _block_brackets(ys: np.ndarray, p, q, a) -> np.ndarray:
    """Real rows of the upper triangles of [y, E_c], one column per c, for each
    y of the (k, d, d) stack and E_c = a_c e_pq + b_c e_qp, b_c = -conj(a_c)."""
    c, d, b = np.arange(len(p)), ys.shape[-1], -a.conj()
    out = np.zeros((len(p), len(ys), d, d), dtype=complex)
    out[c, :, :, q] += a * ys[:, :, p].transpose(2, 0, 1)  # y e_pq: column p of y moved to q
    out[c, :, :, p] += b * ys[:, :, q].transpose(2, 0, 1)
    out[c, :, p, :] -= a * ys[:, q, :].transpose(1, 0, 2)  # e_pq y: row q of y moved to p
    out[c, :, q, :] -= b * ys[:, p, :].transpose(1, 0, 2)
    upper = np.triu_indices(d)
    return embed_real(out[..., upper[0], upper[1]]).reshape(len(p), -1).T


def commutant(sub: Subspace) -> Subspace:
    """All of u(d) commuting with every basis element Y_k of the subspace:
    first the Pauli words commuting with every word of its support, as unit
    rows, then orthonormal rows for the rest of the solved span.  A commuting
    B is block-diagonal in the eigenbasis V of H = i sum_k r_k Y_k with
    r_k = 2 + cos(k + 1), one block per eigenvalue cluster (split at gaps
    above ``CLUSTER_GAP`` of the largest |eigenvalue|); the rank rule solves
    [V^dag Y_k V, B] = 0 on an orthonormal basis E_c of the blocks.  With
    one generator that system is zero and the blocks are the answer."""
    d = sub.dim_ambient
    letters = np.arange(d * d)[:, None] >> 2 * np.arange(pauli.qubit_count(d)) & 3  # IXYZ: 0-3
    xs, zs = 1 * (letters % 3 > 0), 1 * (letters > 1)
    support = np.any(np.abs(sub.rows) > pauli.COEFF_PRUNE_TOL, axis=0)
    is_word = ~np.any((xs @ zs[support].T + zs @ xs[support].T) % 2, axis=1)  # symplectic test
    evals, v = np.linalg.eigh(1j * np.tensordot(2 + np.cos(np.arange(sub.dim) + 1), sub.basis, 1))
    gaps = np.diff(evals, prepend=evals[:1]) > CLUSTER_GAP * np.max(np.abs(evals), initial=0.0)
    p, q = np.nonzero(np.equal.outer(*[np.cumsum(gaps)] * 2))
    # E_c = (e_pq - e_qp) / sqrt(2) for p < q, i (e_pq + e_qp) / |e_pq + e_qp| for p >= q
    a = (np.where(p < q, 1.0, 1j) * np.where(p == q, 0.5, np.sqrt(0.5)))[:, None, None]
    null = nullspace_real(_block_brackets(v.conj().T @ sub.basis @ v, p, q, a))
    rows = np.flatnonzero(is_word)[:, None] == np.arange(d * d)
    if len(null) > len(rows):  # a solved span no larger than the words is the words
        mats = a * v.T[p, :, None] * v.T[q, None, :].conj()  # a_c V e_pq V^dag
        mats = mats - mats.conj().transpose(0, 2, 1)  # V E_c V^dag
        mats = mats if len(null) == len(p) else np.tensordot(null, mats, 1)
        rows = np.vstack([rows, orthonormal_rows(np.where(is_word, 0.0, coords(mats, d)))])
    return subspace_from_rows(rows, d)


def is_subalgebra(sub: Subspace) -> bool:
    """Whether every pairwise bracket of basis elements stays in the span,
    to ``SUBALGEBRA_TOL`` relative to its size.  A few basis elements at a
    time are bracketed against the stacked basis (about BRACKET_CHUNK
    complex entries), so the full dim**2 x d**2 array never exists."""
    d, mats = sub.dim_ambient, sub.basis
    step = max(1, BRACKET_CHUNK // max(1, sub.dim * d * d))
    for start in range(0, sub.dim, step):
        y = mats[start:start + step, None]
        comm = coords(y @ mats - mats @ y, d)
        scale = np.maximum(1.0, np.linalg.norm(comm, axis=-1))
        residual = comm - (comm @ sub.rows.T) @ sub.rows
        if np.any(np.linalg.norm(residual, axis=-1) > SUBALGEBRA_TOL * scale):
            return False
    return True


def center(sub: Subspace) -> Subspace:
    """Elements of the subspace commuting with all of the subspace: its
    intersection with its commutant, for any subspace."""
    return subspace_from_rows(intersect_rows(sub.rows, commutant(sub).rows), sub.dim_ambient)


def complement_within(sub: Subspace, inner: Subspace) -> Subspace:
    """Orthogonal complement of ``inner`` inside ``sub``."""
    return subspace_from_rows(orthogonal_part(sub.rows, inner.rows), sub.dim_ambient)


@dataclass(frozen=True, eq=False)
class FourDecomposition:
    """u(d) = r + ut_centerless + center_t + t_centerless (orthogonal)."""

    r: Subspace
    ut_centerless: Subspace
    center_t: Subspace
    t_centerless: Subspace

    @property
    def dims(self) -> tuple[int, int, int, int]:
        return (self.r.dim, self.ut_centerless.dim, self.center_t.dim, self.t_centerless.dim)


def four_decomposition(t: Subspace) -> FourDecomposition:
    """Split u(d) into the remainder, the centerless commutant, the center
    of the symmetry algebra, and the centerless symmetry algebra."""
    d = t.dim_ambient
    if not is_subalgebra(t):
        raise ContractViolation("symmetry subspace is not closed under the bracket")
    # for a closed t, [t, t] is orthogonal to u_t: the residuals of t's rows
    # off u_t have singular values 0 (along the center) or 1, so the cut
    # cannot fall between them, and u_t minus the center is u_t ∩ t^perp
    parts = [subspace_from_rows(rows, d) for rows in four_way_split(t.rows, commutant(t).rows)]
    total = sum(part.dim for part in parts)
    if total != d * d:
        raise AlgebraFailure(f"decomposition dimensions sum to {total}, expected {d * d}")
    return FourDecomposition(*parts)


def twirl_project(x, commutant_basis: Subspace) -> np.ndarray:
    """Orthogonal projection onto the commutant; the exact twirl over the
    corresponding compact connected group."""
    x = np.asarray(x, dtype=complex)
    if x.shape != (commutant_basis.dim_ambient,) * 2:
        raise ValueError(
            f"operator shape {x.shape} does not match u({commutant_basis.dim_ambient})"
        )
    return project_onto(x, commutant_basis)


def span_distance(a: Subspace, b: Subspace) -> float:
    """Max-norm distance between the projectors of two subspaces."""
    pa, pb = a.rows.T @ a.rows, b.rows.T @ b.rows
    return float(np.max(np.abs(pa - pb))) if pa.size else float(a.dim != b.dim)


def subspace_report(sub: Subspace, label: str = "subspace") -> list[str]:
    """Human-readable report: dimension header plus one Pauli-sum line per
    basis element, its coefficients i*r_P read straight from the rows."""
    n = pauli.qubit_count(sub.dim_ambient)
    words = pauli.all_words(n)
    lines = [f"{label}: dim {sub.dim}"]
    for row in sub.rows:
        kept = np.flatnonzero(np.abs(row) > pauli.COEFF_PRUNE_TOL)
        terms = tuple((words[a], complex(0.0, row[a])) for a in kept)
        lines.append("  " + pauli.format_pauli_sum(pauli.PauliSum(n, terms)))
    return lines

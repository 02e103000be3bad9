"""Real Lie-subspace machinery on the skew-Hermitian matrices u(d):
closures, commutants, centers, orthogonal complements, twirling as
projection, and the four-way equivariant/vertical decomposition.

Subspaces carry an orthonormal basis under the normalized trace inner
product; all linear algebra runs on real coordinate vectors with respect
to the fixed orthonormal skew-Hermitian basis i*P of u(d), P running over
the Pauli words in ``pauli.all_words`` order.  Coordinates exist for
d = 2**n only: ``coords``, ``from_coords`` and ``skew_basis`` raise
ValueError for any other d.  They go through the tensorized Pauli
transform, O(n d^2) per matrix, and build no basis array.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import pauli
from .nummat import (
    ContractViolation,
    nullspace_real,
    orthonormal_rows,
    rank_tol,
    require_skew_hermitian,
    trace_inner,
)

SUBALGEBRA_TOL = 1e-10
ORTHONORMAL_TOL = 1e-10


class AlgebraFailure(RuntimeError):
    """Raised when an algebra computation ends in an inconsistent result,
    typically because the rank tolerance cuts through a spectrum."""


@dataclass(frozen=True, eq=False)
class Subspace:
    """Ordered orthonormal basis of a real subspace of u(d)."""

    dim_ambient: int
    basis: tuple[np.ndarray, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, x, tol: float = 1e-10) -> bool:
        return residual_norm(x, self) <= tol * max(1.0, np.sqrt(abs(trace_inner(x, x))))


def subspace(d: int, mats, validate: bool = True) -> Subspace:
    """Build a Subspace from matrices, checking skewness and orthonormality."""
    basis = tuple(np.asarray(m, dtype=complex) for m in mats)
    if validate:
        for m in basis:
            require_skew_hermitian(m, name="basis element")
            if m.shape != (d, d):
                raise ValueError(f"basis element of shape {m.shape} in u({d})")
        for a in range(len(basis)):
            for b in range(a, len(basis)):
                want = 1.0 if a == b else 0.0
                got = trace_inner(basis[a], basis[b])
                if abs(got - want) > ORTHONORMAL_TOL:
                    raise ContractViolation(
                        f"basis not orthonormal: <{a},{b}> = {got:.3e}"
                    )
    return Subspace(d, basis)


@lru_cache(maxsize=8)
def skew_basis(d: int) -> np.ndarray:
    """Fixed orthonormal skew-Hermitian basis i*P of u(d), d = 2**n,
    shape (d*d, d, d)."""
    stack = from_coords(np.eye(d * d), d)
    stack.setflags(write=False)
    return stack


def coords(x, d: int | None = None) -> np.ndarray:
    """Real coordinates of a skew-Hermitian matrix, or of a stack of them,
    in the fixed basis: shape (..., d, d) -> (..., d*d)."""
    x = np.asarray(x, dtype=complex)
    if d is not None and x.shape[-2:] != (d, d):
        raise ValueError(f"matrix of shape {x.shape} in u({d})")
    # trace_inner(i*P, x) = Re tr(-i P x)/d = Im tr(P x)/d
    return pauli.pauli_transform(x).imag


def from_coords(vec, d: int) -> np.ndarray:
    """Inverse of :func:`coords`: shape (..., d*d) -> (..., d, d)."""
    vec = np.asarray(vec, dtype=float)
    if vec.shape[-1:] != (d * d,):
        raise ValueError(f"coordinate vector of shape {vec.shape} for u({d})")
    return 1j * pauli.inverse_pauli_transform(vec)


def coords_rows(sub: Subspace) -> np.ndarray:
    """Coordinate row matrix of a subspace basis, shape (dim, d*d)."""
    d = sub.dim_ambient
    if sub.dim == 0:
        return np.zeros((0, d * d))
    return coords(np.stack(sub.basis), d)


def _fix_sign(row: np.ndarray) -> np.ndarray:
    nz = np.nonzero(np.abs(row) > 1e-8 * max(1.0, np.max(np.abs(row))))[0]
    if nz.size and row[nz[0]] < 0:
        return -row
    return row


def subspace_from_rows(rows, d: int) -> Subspace:
    """Subspace from orthonormal coordinate rows, with canonical signs."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    if rows.size == 0 or rows.shape[0] == 0:
        return Subspace(d, ())
    mats = from_coords(np.stack([_fix_sign(r) for r in rows]), d)
    return Subspace(d, tuple(mats))


def full_space(d: int) -> Subspace:
    return Subspace(d, tuple(skew_basis(d)))


def residual_norm(x, sub: Subspace) -> float:
    """Trace-norm of the component of x orthogonal to the subspace."""
    x = np.asarray(x, dtype=complex)
    r = x.copy()
    for b in sub.basis:
        r -= trace_inner(b, x) * b
    return float(np.sqrt(abs(trace_inner(r, r))))


def project_onto(x, sub: Subspace) -> np.ndarray:
    out = np.zeros_like(np.asarray(x, dtype=complex))
    for b in sub.basis:
        out += trace_inner(b, x) * b
    return out


def lie_closure(generators) -> Subspace:
    """Smallest bracket-closed real span containing the generators.

    Iterates pairwise commutators against the current basis until the
    numerical rank stabilizes; capped at 10*d*d rounds.
    """
    gens = [require_skew_hermitian(np.asarray(g, dtype=complex)) for g in generators]
    if not gens:
        return Subspace(0, ())
    d = gens[0].shape[0]
    for g in gens:
        if g.shape != (d, d):
            raise ValueError("generators live in different dimensions")

    basis_rows: list[np.ndarray] = []
    basis_mats: list[np.ndarray] = []

    def try_append(mat: np.ndarray) -> bool:
        vec = coords(mat, d)
        norm = np.linalg.norm(vec)
        if norm <= 1e-13:
            return False
        for row in basis_rows:
            vec = vec - np.dot(row, vec) * row
        res = np.linalg.norm(vec)
        if res <= rank_tol() * norm or res <= 1e-12:
            return False
        row = _fix_sign(vec / res)
        basis_rows.append(row)
        basis_mats.append(from_coords(row, d))
        return True

    for g in gens:
        try_append(g)

    frontier = list(basis_mats)
    rounds = 0
    while frontier:
        rounds += 1
        if rounds > 10 * d * d:
            raise AlgebraFailure("Lie closure did not stabilize within the round cap")
        fresh: list[np.ndarray] = []
        snapshot = list(basis_mats)
        for a in snapshot:
            for b in frontier:
                if try_append(a @ b - b @ a):
                    fresh.append(basis_mats[-1])
        frontier = fresh
    return Subspace(d, tuple(basis_mats))


def _ad_matrix(y: np.ndarray, d: int) -> np.ndarray:
    """Real matrix of x -> [y, x] in fixed coordinates, shape (d*d, d*d).

    Built d columns at a time: a stack of all d*d basis commutators would
    hold d**4 complex entries next to the result.
    """
    cols = []
    for unit_rows in np.eye(d * d).reshape(d, d, d * d):
        e = from_coords(unit_rows, d)
        cols.append(coords(y @ e - e @ y, d))
    return np.concatenate(cols).T


def commutant(sub: Subspace, d: int | None = None) -> Subspace:
    """All of u(d) commuting with every basis element of the subspace."""
    d = sub.dim_ambient if d is None else d
    if sub.dim == 0:
        return full_space(d)
    blocks = [_ad_matrix(y, d) for y in sub.basis]
    rows = nullspace_real(np.vstack(blocks))
    return subspace_from_rows(rows, d)


def center(sub: Subspace) -> Subspace:
    """Elements of the subspace commuting with all of the subspace."""
    if sub.dim == 0:
        return Subspace(sub.dim_ambient, ())
    if not is_subalgebra(sub):
        warnings.warn("center() called on a subspace that is not bracket-closed")
    d = sub.dim_ambient
    mats = np.stack(sub.basis)
    blocks = [coords(y @ mats - mats @ y, d).T for y in sub.basis]
    coeff_rows = nullspace_real(np.vstack(blocks))
    return subspace_from_rows(coeff_rows @ coords_rows(sub), d)


def complement_within(sub: Subspace, inner: Subspace) -> Subspace:
    """Orthogonal complement of ``inner`` inside ``sub``."""
    d = sub.dim_ambient
    rows = coords_rows(sub)
    inner_rows = coords_rows(inner)
    for r in inner_rows:
        rows = rows - np.outer(rows @ r, r)
    return subspace_from_rows(orthonormal_rows(rows), d)


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


def four_decomposition(t: Subspace, d: int | None = None) -> FourDecomposition:
    """Split u(d) into the remainder, the centerless commutant, the center
    of the symmetry algebra, and the centerless symmetry algebra."""
    d = t.dim_ambient if d is None else d
    if not is_subalgebra(t):
        raise ContractViolation("symmetry subspace is not closed under the bracket")
    u_t = commutant(t, d)
    z = center(t)
    ut_centerless = complement_within(u_t, z)
    t_centerless = complement_within(t, z)
    span_rows = np.vstack([coords_rows(u_t), coords_rows(t)])
    r = subspace_from_rows(nullspace_real(span_rows), d)
    total = r.dim + ut_centerless.dim + z.dim + t_centerless.dim
    if total != d * d:
        raise AlgebraFailure(f"decomposition dimensions sum to {total}, expected {d * d}")
    return FourDecomposition(r, ut_centerless, z, t_centerless)


def twirl_project(x, commutant_basis: Subspace) -> np.ndarray:
    """Orthogonal projection onto the commutant; the exact twirl over the
    corresponding compact connected group."""
    x = np.asarray(x, dtype=complex)
    if x.shape != (commutant_basis.dim_ambient,) * 2:
        raise ValueError(
            f"operator shape {x.shape} does not match u({commutant_basis.dim_ambient})"
        )
    return project_onto(x, commutant_basis)


def is_subalgebra(sub: Subspace, tol: float = SUBALGEBRA_TOL) -> bool:
    """Whether every pairwise bracket of basis elements stays in the span."""
    for a in range(sub.dim):
        for b in range(a + 1, sub.dim):
            x, y = sub.basis[a], sub.basis[b]
            comm = x @ y - y @ x
            scale = max(1.0, np.sqrt(abs(trace_inner(comm, comm))))
            if residual_norm(comm, sub) > tol * scale:
                return False
    return True


def span_projector(sub: Subspace) -> np.ndarray:
    """Coordinate-space orthogonal projector onto the subspace."""
    rows = coords_rows(sub)
    return rows.T @ rows


def span_distance(a: Subspace, b: Subspace) -> float:
    """Max-norm distance between the projectors of two subspaces."""
    pa, pb = span_projector(a), span_projector(b)
    return float(np.max(np.abs(pa - pb))) if pa.size else float(a.dim != b.dim)


def subspace_report(sub: Subspace, label: str = "subspace") -> list[str]:
    """Human-readable report: dimension header plus one Pauli-sum line per
    basis element."""
    lines = [f"{label}: dim {sub.dim}"]
    for m in sub.basis:
        lines.append("  " + pauli.format_pauli_sum(pauli.pauli_decompose(m)))
    return lines

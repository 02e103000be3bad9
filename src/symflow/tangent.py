"""State-space tangent machinery: vertical and equivariant tangent frames
under the two symmetry actions, the orthogonal four-way decomposition of
the unitary tangent space at a state, and the split of u(d) induced by
pulling the horizontal subspace back through the action.

The two actions insert the symmetry generator at different gate positions
(``circuit.action_point``): ``theta`` at the initial state, ``left`` at
the output state.  Tangent vectors live in the real vector space spanned
by x|psi> for skew-Hermitian x, with inner product Re<a|b>; internally
they are embedded into R^{2d} (``nummat.embed_real``).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import circuit, liealg
from .nummat import (ContractViolation, complement_rows, embed_real, nullspace_real,
                     orthonormal_rows, unembed)


@dataclass(frozen=True, eq=False)
class SymmetrySpec:
    """A represented symmetry algebra plus the action it generates."""

    generators: liealg.Subspace
    action: str  # "left" or "theta"

    def __post_init__(self):
        circuit.action_point(circuit.CircuitSpec(0), self.action)  # rejects an unknown action
        if not liealg.is_subalgebra(self.generators):
            raise ContractViolation("symmetry generators are not bracket-closed")

    @cached_property
    def commutant(self) -> liealg.Subspace:
        """The commutant of the generators, solved on first use and held."""
        return liealg.commutant(self.generators)


@dataclass(frozen=True, eq=False)
class StateFourDecomposition:
    """Mutually orthogonal tangent lists: purely covariant, covariant and
    equivariant, purely equivariant (vertical), and the remaining vertical
    directions; ``residual_dim`` counts the tangent directions in none."""

    cov: tuple[np.ndarray, ...]
    both: tuple[np.ndarray, ...]
    equi: tuple[np.ndarray, ...]
    vert: tuple[np.ndarray, ...]
    residual_dim: int


def z_basis(sym: SymmetrySpec, basis_kind: str) -> tuple[np.ndarray, ...]:
    """The symmetry generators (``vertical``) or their commutant
    (``equivariant``)."""
    if basis_kind == "vertical":
        return sym.generators.basis
    if basis_kind == "equivariant":
        return sym.commutant.basis
    raise ValueError(f"basis_kind must be 'vertical' or 'equivariant', got {basis_kind!r}")


def evaluate(sym: SymmetrySpec, c: circuit.CircuitSpec, theta, psi0,
             basis_kind: str = "vertical") -> circuit.Evaluation:
    """One sweep at (c, theta, psi0) whose frame holds the action tangents
    of ``z_basis(sym, basis_kind)``."""
    return circuit.evaluate(c, theta, psi0, z_basis(sym, basis_kind), sym.action)


def _action_tangents(sym: SymmetrySpec, c: circuit.CircuitSpec, theta, psi0, *stacks):
    """The state phi at the action point, psi and, for each stack of algebra
    elements x, the action tangents of x as rows, from one batched pass:
    the rows x phi join phi at the action point, and every later gate acts
    on the whole batch."""
    point = circuit.action_point(c, sym.action)
    phi = circuit.apply_gates(c, theta, psi0, 0, point)
    rows = circuit.apply_gates(c, theta, np.vstack([phi, *(x @ phi for x in stacks)]), point)
    return phi, rows[0], *np.split(rows[1:], np.cumsum([len(x) for x in stacks])[:-1])


def state_tangent_rows(psi) -> np.ndarray:
    """Orthonormal rows spanning the unitary tangent space at a state,
    embedded in R^{2d}; this is the real orthocomplement of psi itself."""
    return nullspace_real(embed_real(psi)[None, :])


def _orthogonal_part(rows: np.ndarray, other: np.ndarray) -> np.ndarray:
    """Orthonormal rows of span(rows) intersected with the orthocomplement
    of span(other), both given by orthonormal rows."""
    return nullspace_real(other @ rows.T) @ rows


def state_four_decomposition(sym: SymmetrySpec, c: circuit.CircuitSpec, theta,
                             psi0) -> StateFourDecomposition:
    """Orthogonal four-way split of the unitary tangent space at the state.

    Each part is a nullspace of a small row product of the vertical and
    equivariant spans, whose tangents come from one pass."""
    _, psi, vertical, equivariant = _action_tangents(sym, c, theta, psi0, sym.generators.basis,
                                                     sym.commutant.basis)
    t_rows = state_tangent_rows(psi)
    v_rows, e_rows = (orthonormal_rows(embed_real(x)) for x in (vertical, equivariant))
    h_rows = complement_rows(t_rows, v_rows)

    # the equivariant tangents lie in the tangent space, split as v + h
    equi_rows = _orthogonal_part(e_rows, h_rows)
    both_rows = _orthogonal_part(e_rows, v_rows)
    cov_rows = _orthogonal_part(h_rows, e_rows)
    vert_rows = _orthogonal_part(v_rows, equi_rows)

    parts = [tuple(unembed(rows)) for rows in (cov_rows, both_rows, equi_rows, vert_rows)]
    residual = t_rows.shape[0] - sum(map(len, parts))
    return StateFourDecomposition(*parts, residual_dim=residual)


def induced_algebra_split(sym: SymmetrySpec, c: circuit.CircuitSpec, theta,
                          psi0) -> tuple[liealg.Subspace, liealg.Subspace]:
    """Split u(d) by pulling the vertical/horizontal decomposition of the
    state tangent space back through the action.

    The induced vertical space u_perp collects the symmetry and commutant
    directions whose action tangents are vertical at the current state,
    minus the symmetry directions that act trivially there; u_par is its
    orthogonal complement under the trace inner product.  Zero-tangent
    directions outside the symmetry algebra therefore count as vertical
    when they are shadowed by a genuine symmetry tangent, while trivially
    acting symmetry generators never do.  One pass gives the action
    tangents of an orthonormal basis of t + u_t; the tangents of the
    symmetry basis are read from them, since t lies in t + u_t.
    """
    t_rows = sym.generators.rows
    span_rows = orthonormal_rows(np.vstack([t_rows, sym.commutant.rows]))
    phi, _, tangents = _action_tangents(sym, c, theta, psi0, liealg.from_coords(span_rows, c.dim))
    v_emb = embed_real((t_rows @ span_rows.T) @ tangents)
    v_rows = orthonormal_rows(v_emb)
    p_v = v_rows.T @ v_rows

    # symmetry directions acting nontrivially: t minus its stabilizer part
    # (an empty nullspace has shape (0, k), so these products stay well shaped)
    t0_rows = nullspace_real(v_emb.T) @ t_rows
    active_t = t_rows - (t_rows @ t0_rows.T) @ t0_rows

    # symmetry-plus-commutant directions with vertical tangents ...
    cols = embed_real(tangents).T
    inter_rows = nullspace_real(cols - p_v @ cols) @ span_rows  # horizontal component

    # ... restricted to the part orthogonal to the action kernel u(phi^perp),
    # {x : x phi = 0}, whose orthogonal projection is x -> Q x Q
    q = np.eye(c.dim) - np.outer(phi, phi.conj()) / np.vdot(phi, phi).real
    kernel_part = liealg.coords(q @ liealg.from_coords(inter_rows, c.dim) @ q, c.dim)
    inter_rows = nullspace_real(kernel_part.T) @ inter_rows

    perp_rows = orthonormal_rows(np.vstack([active_t, inter_rows]))
    u_perp = liealg.subspace_from_rows(perp_rows, c.dim)
    u_par = liealg.subspace_from_rows(nullspace_real(perp_rows), c.dim)
    return u_par, u_perp

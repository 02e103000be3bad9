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
from .nummat import (ContractViolation, embed_real, four_way_split, nullspace_real,
                     orthogonal_part, orthonormal_rows, unembed)


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


def state_tangent_rows(psi) -> np.ndarray:
    """Orthonormal rows spanning the unitary tangent space at a state,
    embedded in R^{2d}; this is the real orthocomplement of psi itself."""
    return nullspace_real(embed_real(psi)[None, :])


def state_four_decomposition(sym: SymmetrySpec, c: circuit.CircuitSpec, theta,
                             psi0) -> StateFourDecomposition:
    """Orthogonal four-way split of the unitary tangent space at the state,
    psi's real orthocomplement, so its part in neither the vertical span V
    nor the equivariant span E is the complement of psi + V + E.  One batched
    pass carries psi and the action tangents x phi from the action point."""
    point = circuit.action_point(c, sym.action)
    phi = circuit.apply_gates(c, theta, psi0, 0, point)
    gens, comm = sym.generators.basis, sym.commutant.basis
    rows = circuit.apply_gates(c, theta, np.vstack([phi, gens @ phi, comm @ phi]), point)
    v_rows, e_rows = (orthonormal_rows(embed_real(x)) for x in np.split(rows[1:], [len(gens)]))
    psi_row = embed_real(rows[0])[None]
    parts = [tuple(unembed(part)) for part in four_way_split(v_rows, e_rows, outside=psi_row)]
    return StateFourDecomposition(*parts, residual_dim=2 * c.dim - 1 - sum(map(len, parts)))


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
    acting symmetry generators never do.  Everything below is built from the
    state phi at the action point and real inner products of the tangents
    x phi, which the later gates preserve, so no tangent goes through the
    circuit; the tangents of t are read from those of t + u_t, which holds t.
    """
    t_rows = sym.generators.rows
    span_rows = orthonormal_rows(np.vstack([t_rows, sym.commutant.rows]))
    phi = circuit.apply_gates(c, theta, psi0, 0, circuit.action_point(c, sym.action))
    tangents = liealg.from_coords(span_rows, c.dim) @ phi
    v_emb = embed_real((t_rows @ span_rows.T) @ tangents)
    v_rows = orthonormal_rows(v_emb)
    p_v = v_rows.T @ v_rows

    # symmetry directions acting nontrivially: t minus its stabilizer part
    active_t = orthogonal_part(t_rows, nullspace_real(v_emb.T) @ t_rows)

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

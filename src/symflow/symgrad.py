"""Projected derivatives of unitaries, states, and cost functions.

The covariant derivative removes the component of a derivative along the
symmetry (vertical) directions; the equivariant derivative keeps only the
component along the commutant directions.  For cost functions both reduce
to contractions of three measurable ingredients: the symmetry derivative
m_a, the tangent overlaps omega_{bj}, and the Gram matrix of the symmetry
tangents, combining into the vector potential A = G^+ omega; G^+ comes
from the tangent frame's SVD (``TangentFrame.gram_pinv``).
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import circuit, liealg, pauli, tangent
from .tangent import SymmetrySpec


@dataclass(frozen=True, eq=False)
class SymGradReport:
    """All ingredients of one projected cost derivative evaluation.

    ``vector_potential`` holds A[a, j] = (G^+ omega)[a, j]; ``projected``
    is D_j C for the covariant case and E_j C for the equivariant case.
    """

    m: np.ndarray
    omega: np.ndarray
    gram: np.ndarray
    vector_potential: np.ndarray
    partial: np.ndarray
    projected: np.ndarray

    def to_json(self) -> str:
        payload = {
            "m": self.m.tolist(),
            "omega": self.omega.tolist(),
            "gram": self.gram.tolist(),
            "vector_potential": self.vector_potential.tolist(),
            "partial": self.partial.tolist(),
            "projected": self.projected.tolist(),
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def equivariant_derivative_unitary(c: circuit.CircuitSpec, theta, j: int,
                                   sym: SymmetrySpec) -> np.ndarray:
    """E_j U = U * twirl(Omega_j): keep only the commutant component."""
    u = circuit.build_unitary(c, theta)
    omega = circuit.effective_generator(c, theta, j, "right")
    return u @ liealg.twirl_project(omega, sym.commutant)


def covariant_derivative_unitary(c: circuit.CircuitSpec, theta, j: int,
                                 sym: SymmetrySpec) -> np.ndarray:
    """D_j U = U * (Omega_j - proj_t Omega_j): remove symmetry directions."""
    u = circuit.build_unitary(c, theta)
    omega = circuit.effective_generator(c, theta, j, "right")
    return u @ (omega - liealg.project_onto(omega, sym.generators))


def _frame_component(onb: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Orthogonal projection of a state tangent onto the span of onb rows."""
    return np.real(onb.conj() @ v) @ onb


def equivariant_derivative_state(sym: SymmetrySpec, c: circuit.CircuitSpec, theta,
                                 j: int, psi0) -> np.ndarray:
    """Projection of d_j|psi> onto the equivariant tangent frame."""
    circuit._gate_index(c, j)  # ValueError unless j is an integer in 0..p-1
    ev = tangent.evaluate(sym, c, theta, psi0, "equivariant")
    return _frame_component(ev.frame.onb, ev.partials[j])


def covariant_derivative_state(sym: SymmetrySpec, c: circuit.CircuitSpec, theta,
                               j: int, psi0) -> np.ndarray:
    """d_j|psi> minus its component along the vertical tangent frame."""
    circuit._gate_index(c, j)  # ValueError unless j is an integer in 0..p-1
    ev = tangent.evaluate(sym, c, theta, psi0)
    return ev.partials[j] - _frame_component(ev.frame.onb, ev.partials[j])


def _omega(ev: circuit.Evaluation) -> np.ndarray:
    """omega[b, j] = Re <Z_b | d_j psi> for the raw frame tangents Z_b."""
    return np.real(ev.frame.raw.conj() @ ev.partials.T)


def symmetry_derivative(sym: SymmetrySpec, c: circuit.CircuitSpec, theta, psi0,
                        m: pauli.PauliSum) -> np.ndarray:
    """Cost response to infinitesimal symmetry insertions:
    m_a = 2 Re <psi| M |Z_a> with Z_a the raw symmetry tangents."""
    return projected_cost_report("covariant", sym, c, theta, psi0, m).m


def overlap_omega(sym: SymmetrySpec, c: circuit.CircuitSpec, theta, psi0,
                  basis_kind: str = "vertical") -> np.ndarray:
    """omega[b, j] = Re <Z_b | d_j psi>, computed from statevectors."""
    return _omega(tangent.evaluate(sym, c, theta, psi0, basis_kind))


def _cost_report(ev: circuit.Evaluation, covector: np.ndarray,
                 basis_kind: str) -> SymGradReport:
    """Report for a cost whose differential is dC = 2 Re <covector|d psi>
    (covector = M psi for an expectation), from one evaluation whose frame
    holds the ``basis_kind`` tangents."""
    frame = ev.frame
    m_vec = 2.0 * np.real(frame.raw.conj() @ covector)
    partial = ev.gradient(covector)
    omega = _omega(ev)
    potential = frame.gram_pinv @ omega
    if basis_kind == "vertical":
        projected = partial - m_vec @ potential
    else:
        projected = m_vec @ potential
    return SymGradReport(
        m=m_vec, omega=omega, gram=frame.gram, vector_potential=potential,
        partial=partial, projected=projected,
    )


def projected_cost_report(kind: str, sym: SymmetrySpec, c: circuit.CircuitSpec, theta,
                          psi0, cost: circuit.CostSpec | pauli.PauliSum) -> SymGradReport:
    """Covariant or equivariant report for a cost spec or a bare Hermitian
    observable, from one evaluation; a squared sum enters through its
    covector, so the report is built once, not once per observable."""
    if kind not in ("covariant", "equivariant"):
        raise ValueError(f"kind must be 'covariant' or 'equivariant', got {kind!r}")
    basis_kind = "vertical" if kind == "covariant" else "equivariant"
    ev = tangent.evaluate(sym, c, theta, psi0, basis_kind)
    return _cost_report(ev, circuit.as_cost(cost).value_and_covector(ev.psi)[1], basis_kind)


def covariant_derivative_cost(sym: SymmetrySpec, c: circuit.CircuitSpec, theta,
                              psi0, m: pauli.PauliSum) -> SymGradReport:
    """D_j C = d_j C - m_a (G^+)_{ab} omega_{bj} over the symmetry basis."""
    return projected_cost_report("covariant", sym, c, theta, psi0, m)


def equivariant_derivative_cost(sym: SymmetrySpec, c: circuit.CircuitSpec, theta,
                                psi0, m: pauli.PauliSum) -> SymGradReport:
    """E_j C = m^E_a (G~^+)_{ab} omega^E_{bj} over the commutant basis."""
    return projected_cost_report("equivariant", sym, c, theta, psi0, m)


def vector_potential(sym: SymmetrySpec, c: circuit.CircuitSpec, theta, psi0) -> np.ndarray:
    """A[a, j] = (G^+ omega)[a, j] for the vertical basis; independent of
    any observable."""
    ev = tangent.evaluate(sym, c, theta, psi0)
    return ev.frame.gram_pinv @ _omega(ev)

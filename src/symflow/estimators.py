"""Quantum-computer-style estimation paths, simulated exactly.

The tangent overlaps omega_{bj} are measured with a modified Hadamard
test: decompose the symmetry generator z_b into unitary Pauli words
z_b = sum_l chi_l w_l, run one ancilla circuit per word (ancilla prepared
in |+>, controlled-w_l, then the relevant part of the circuit), measure
the ancilla in the X basis together with the gate generator on the
system, and contract the expectation values with i * chi_l.  An optional
variant decomposes the gate generator instead and measures the symmetry
generator.  The circuits are simulated in branch form: after the
controlled word the state is (|0> a + |1> b_l) / sqrt 2, so
<X (x) B>_l = Re <a|B|b_l>, and one batch of n-qubit rows carries a and
every b_l from the control point to the measurement point.

The symmetry derivatives m_a are estimated as central finite differences
of the cost with exp(z_a t) inserted at the action point.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import circuit, pauli
from .nummat import expm_skew, require_skew_hermitian


@dataclass(frozen=True, eq=False)
class AncillaCircuit:
    """One term of the Hadamard-test estimator: a fixed-angle circuit on
    n+1 qubits (ancilla is wire 0, prepared in |+>), the Hermitian
    observable to measure, and the contraction coefficient chi."""

    base: circuit.CircuitSpec
    observable: pauli.PauliSum
    chi: complex


def _shift_gate(g: circuit.Gate, theta: np.ndarray, invert: bool = False) -> circuit.Gate:
    return circuit.Gate(g.generator, tuple(w + 1 for w in g.wires),
                        angle=circuit.gate_angle(g, theta), scale=-g.scale if invert else g.scale)


def _controlled_word_gate(word: str) -> circuit.Gate | None:
    """Controlled Pauli word (control = ancilla wire 0) as a pi rotation of
    |1><1| (x) (1 - P)/2 = (II - IP - ZI + ZP) / 4; None for the identity word."""
    support = [q for q, ch in enumerate(word) if ch != "I"]
    if not support:
        return None
    local, idle = "".join(word[q] for q in support), "I" * len(support)
    gen = pauli.pauli_sum(len(support) + 1, {"I" + idle: 0.25, "I" + local: -0.25,
                                             "Z" + idle: -0.25, "Z" + local: 0.25})
    return circuit.Gate(gen, (0,) + tuple(q + 1 for q in support), angle=np.pi)


def _operand(x, shape: tuple[int, ...], name: str) -> np.ndarray:
    x = np.asarray(x, dtype=complex)
    if x.shape != shape:
        raise ValueError(f"{name} has shape {x.shape}, expected {shape}")
    return x


def _plan(c: circuit.CircuitSpec, theta, j: int, z_b, action: str, decompose_generator: bool):
    """Checked theta and z_b, the gate of parameter j, the decomposed operator,
    and the gate positions of the controlled word and of the measurement:
    the action point and gate j, exchanged with ``decompose_generator``."""
    theta = circuit.check_theta(c, theta)
    z_b = require_skew_hermitian(_operand(z_b, (c.dim, c.dim), "z_b"), name="symmetry generator")
    point, k = circuit.action_point(c, action), circuit._gate_index(c, j)
    gate = c.gates[k]
    if not decompose_generator:
        return theta, z_b, gate, pauli.unitary_decomposition(z_b), (point, k)
    kappa = circuit.embed_operator(circuit.gate_skew_generator(gate), gate.wires, c.n_qubits)
    return theta, z_b, gate, pauli.unitary_decomposition(kappa), (k, point)


def build_ancilla_circuit(c: circuit.CircuitSpec, theta, j: int, z_b, action: str,
                          decompose_generator: bool = False) -> list[AncillaCircuit]:
    """One fixed-angle ancilla circuit per unitary term of the decomposed
    operator.  By default z_b is decomposed and the gate generator is
    measured; with ``decompose_generator`` the roles are exchanged."""
    theta, z_b, gate, decomposition, points = _plan(c, theta, j, z_b, action, decompose_generator)
    if decompose_generator:
        system_obs = pauli.pauli_decompose(1j * z_b)
    else:
        system_obs = pauli.embed(gate.generator, gate.wires, c.n_qubits) * (-gate.scale)
    observable = pauli.pauli_sum(c.n_qubits + 1, {"X" + w: v for w, v in system_obs.terms})
    before, after = (tuple(_shift_gate(g, theta, inv) for g, inv in circuit.segment(c, *ends))
                     for ends in ((0, points[0]), points))
    out = []
    for chi, word in decomposition.terms:
        ctrl = _controlled_word_gate(word)
        gates = before + ((ctrl,) if ctrl is not None else ()) + after
        out.append(AncillaCircuit(circuit.CircuitSpec(c.n_qubits + 1, gates, 0), observable, chi))
    return out


def hadamard_terms(c: circuit.CircuitSpec, theta, j: int, z_b, psi0, action: str,
                   decompose_generator: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """chi_l and <X (x) B>_l = Re <a|B|b_l> for the circuits of
    :func:`build_ancilla_circuit`, in its order, in branch form."""
    psi0 = _operand(psi0, (c.dim,), "psi0")
    theta, z_b, gate, decomposition, (control, measure) = _plan(c, theta, j, z_b, action,
                                                                decompose_generator)
    x = circuit.apply_gates(c, theta, psi0, 0, control)
    words = [pauli.word_matrix(w) @ x for _, w in decomposition.terms]
    rows = circuit.apply_gates(c, theta, np.stack([x] + words), control, measure)
    if decompose_generator:
        b_on_a = 1j * (z_b @ rows[0])
    else:
        b_mat = -gate.scale * circuit.generator_matrix(gate.generator)
        b_on_a = circuit.apply_local(rows[0], b_mat, gate.wires, c.n_qubits)
    chi = np.array([chi for chi, _ in decomposition.terms], dtype=complex)
    return chi, np.real(rows[1:] @ b_on_a.conj())


def hadamard_omega(c: circuit.CircuitSpec, theta, j: int, z_b, psi0, action: str,
                   decompose_generator: bool = False) -> float:
    """omega_{bj} = Re(i * sum_l chi_l <X (x) B>_l), from :func:`hadamard_terms`."""
    chi, terms = hadamard_terms(c, theta, j, z_b, psi0, action, decompose_generator)
    return float(np.real(1j * chi) @ terms)


def insertion_m(c: circuit.CircuitSpec, theta, psi0, m: pauli.PauliSum, z_a,
                action: str) -> float:
    """Symmetry derivative m_a as a central finite difference, step 1e-5,
    of the cost with exp(z_a t) inserted at the action point."""
    psi0 = _operand(psi0, (c.dim,), "psi0")
    z_a = require_skew_hermitian(_operand(z_a, (c.dim, c.dim), "z_a"), name="symmetry generator")
    point = circuit.action_point(c, action)
    m_mat = pauli.to_matrix(m)
    steps = expm_skew(z_a, np.array([1e-5, -1e-5]))  # one eigh for both steps
    x = circuit.apply_gates(c, theta, psi0, 0, point)
    # one pass per step after the point: a (2, d) batch would round m differently
    psis = [circuit.apply_gates(c, theta, u @ x, point) for u in steps]
    plus, minus = (float(np.real(np.vdot(psi, m_mat @ psi))) for psi in psis)
    return (plus - minus) / 2e-5

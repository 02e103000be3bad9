"""Quantum-computer-style estimation paths, simulated exactly.

The tangent overlaps omega_{bj} are measured with a modified Hadamard
test: decompose the symmetry generator z_b into unitary Pauli words
z_b = sum_l chi_l w_l, run one ancilla circuit per word (ancilla prepared
in |+>, controlled-w_l, then the relevant part of the circuit), measure
the ancilla in the X basis together with the gate generator on the
system, and contract the expectation values with i * chi_l.  An optional
variant decomposes the gate generator instead and measures the symmetry
generator.

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
    return circuit.Gate(
        generator=g.generator,
        wires=tuple(w + 1 for w in g.wires),
        angle=circuit.gate_angle(g, theta),
        scale=-g.scale if invert else g.scale,
    )


def _controlled_word_gate(word: str) -> circuit.Gate | None:
    """Controlled Pauli word (control = ancilla wire 0) as a pi rotation of
    |1><1| (x) (1 - P)/2; None for the identity word."""
    support = [q for q, ch in enumerate(word) if ch != "I"]
    if not support:
        return None
    local = "".join(word[q] for q in support)
    k = len(local)
    coeffs = {
        "I" + "I" * k: 0.25,
        "I" + local: -0.25,
        "Z" + "I" * k: -0.25,
        "Z" + local: 0.25,
    }
    gen = pauli.pauli_sum(k + 1, coeffs)
    wires = (0,) + tuple(q + 1 for q in support)
    return circuit.Gate(gen, wires, angle=np.pi)


def _prefix_word(p: pauli.PauliSum, ch: str) -> pauli.PauliSum:
    return pauli.pauli_sum(p.n_qubits + 1, {ch + w: c for w, c in p.terms})


def build_ancilla_circuit(c: circuit.CircuitSpec, theta, j: int, z_b, action: str,
                          decompose_generator: bool = False) -> list[AncillaCircuit]:
    """One fixed-angle ancilla circuit per unitary term of the decomposed
    operator.  By default z_b is decomposed and the gate generator is
    measured; with ``decompose_generator`` the roles are exchanged."""
    theta = circuit.check_theta(c, theta)
    z_b = require_skew_hermitian(z_b, name="symmetry generator")
    circuit.check_action(action)
    k = circuit._gate_index(c, j)
    gate = c.gates[k]
    n = c.n_qubits

    if decompose_generator:
        kappa = circuit.embed_operator(circuit.gate_skew_generator(gate), gate.wires, n)
        decomposition = pauli.unitary_decomposition(kappa)
        system_obs = pauli.pauli_decompose(1j * z_b)
    else:
        decomposition = pauli.unitary_decomposition(z_b)
        system_obs = pauli.embed(gate.generator, gate.wires, n) * (-gate.scale)
    observable = _prefix_word(system_obs, "X")

    out = []
    for chi, word in decomposition.terms:
        ctrl = _controlled_word_gate(word)
        gates: list[circuit.Gate] = []
        if decompose_generator:
            if action == "theta":
                gates += [_shift_gate(g, theta) for g in c.gates[:k]]
                if ctrl is not None:
                    gates.append(ctrl)
                gates += [_shift_gate(g, theta, invert=True) for g in reversed(c.gates[:k])]
            else:
                gates += [_shift_gate(g, theta) for g in c.gates[:k]]
                if ctrl is not None:
                    gates.append(ctrl)
                gates += [_shift_gate(g, theta) for g in c.gates[k:]]
        else:
            if action == "theta":
                if ctrl is not None:
                    gates.append(ctrl)
                gates += [_shift_gate(g, theta) for g in c.gates[:k]]
            else:
                gates += [_shift_gate(g, theta) for g in c.gates]
                if ctrl is not None:
                    gates.append(ctrl)
                gates += [_shift_gate(g, theta, invert=True) for g in reversed(c.gates[k:])]
        base = circuit.CircuitSpec(n + 1, tuple(gates), 0)
        out.append(AncillaCircuit(base, observable, chi))
    return out


PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)


def hadamard_omega(c: circuit.CircuitSpec, theta, j: int, z_b, psi0, action: str,
                   decompose_generator: bool = False) -> float:
    """omega_{bj} from exact simulation of the ancilla circuits:
    i * sum_l chi_l <phi_l| B |phi_l>."""
    circuits = build_ancilla_circuit(c, theta, j, z_b, action, decompose_generator)
    start = np.kron(PLUS, np.asarray(psi0, dtype=complex))
    # every circuit of one call measures the same X (x) B
    obs = pauli.to_matrix(circuits[0].observable) if circuits else None
    total = 0.0 + 0.0j
    for anc in circuits:
        phi = circuit.apply(anc.base, [], start)
        total += anc.chi * np.vdot(phi, obs @ phi)
    total *= 1j
    return float(total.real)


def insertion_m(c: circuit.CircuitSpec, theta, psi0, m: pauli.PauliSum, z_a,
                action: str) -> float:
    """Symmetry derivative m_a as a central finite difference, step 1e-5,
    of the cost with exp(z_a t) inserted at the action point."""
    circuit.check_action(action)
    z_a = require_skew_hermitian(z_a, name="symmetry generator")
    psi0 = np.asarray(psi0, dtype=complex)
    m_mat = pauli.to_matrix(m)

    def value(t: float) -> float:
        if action == "theta":
            psi = circuit.apply(c, theta, expm_skew(z_a, t) @ psi0)
        else:
            psi = expm_skew(z_a, t) @ circuit.apply(c, theta, psi0)
        return float(np.real(np.vdot(psi, m_mat @ psi)))

    return (value(1e-5) - value(-1e-5)) / 2e-5

"""Quantum-computer-style estimation paths, simulated exactly.

Both estimators are one modified Hadamard test: split a skew-Hermitian
operator into unitary Pauli words, z = sum_l chi_l w_l with chi_l the Pauli
coefficients of z (``pauli.pauli_decompose``), run one ancilla circuit per
word (ancilla in |+>, controlled-w_l at a control point, the circuit up to a
measurement point) and measure the ancilla together with a Hermitian B on
the system.  In branch form the state after the controlled word is
(|0> a + |1> b_l) / sqrt 2, so <X (x) B>_l = Re <a|B|b_l> and
<Y (x) B>_l = Im <a|B|b_l>; one batch of n-qubit rows carries a and every
b_l from the control point to the measurement point.

The overlaps omega_{bj} control z_b's words at the action point and measure
-scale * H = i kappa (``circuit.kappa``) at gate j, or control kappa's own
words chi_w = i * scale * h_w (``circuit.gate_words``) at gate j and measure
i z_b, contracting with i * chi_l.  The derivatives m_a control z_a's words
at the action point and measure M at the output:
m_a = 2 Re sum_l chi_l <a|M|b_l>, the Y reading.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import circuit, pauli
from .nummat import require_skew_hermitian


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
    """Checked theta and z_b, the gate of parameter j (None, as is all that
    follows, if j drives no gate), the decomposed operator, the measured B as
    a map of the row, and the gate positions of the controlled word and of the
    measurement: z_b at the action point and B = i kappa at gate j, exchanged
    (B = i z_b) with ``decompose_generator``."""
    theta = circuit.check_theta(c, theta)
    z_b = require_skew_hermitian(_operand(z_b, (c.dim, c.dim), "z_b"), name="symmetry generator")
    point, k = circuit.action_point(c, action), circuit._gate_index(c, j)
    if k is None:
        return theta, z_b, None, None, None, None
    gate, n = c.gates[k], c.n_qubits
    if not decompose_generator:
        return (theta, z_b, gate, pauli.pauli_decompose(z_b),
                lambda row: 1j * circuit.kappa(row, gate, n), (point, k))
    words = circuit.gate_words(gate.generator, gate.wires, n)[0]
    kappa = pauli.PauliSum(n, tuple((w, 1j * gate.scale * h) for w, h, _, _ in words))
    return theta, z_b, gate, kappa, (1j * z_b).dot, (k, point)


def build_ancilla_circuit(c: circuit.CircuitSpec, theta, j: int, z_b, action: str,
                          decompose_generator: bool = False) -> list[AncillaCircuit]:
    """One fixed-angle ancilla circuit per Pauli term of the decomposed operator
    (none if j drives no gate).  By default z_b is decomposed and the gate
    generator is measured; with ``decompose_generator`` the roles are exchanged."""
    theta, z_b, gate, decomposition, _, points = _plan(c, theta, j, z_b, action,
                                                       decompose_generator)
    if gate is None:
        return []
    if decompose_generator:
        system_obs = pauli.pauli_decompose(1j * z_b)
    else:
        system_obs = pauli.embed(gate.generator, gate.wires, c.n_qubits) * (-gate.scale)
    observable = pauli.pauli_sum(c.n_qubits + 1, {"X" + w: v for w, v in system_obs.terms})
    before, after = (tuple(_shift_gate(g, theta, inv) for g, inv in circuit.segment(c, *ends))
                     for ends in ((0, points[0]), points))
    out = []
    for word, chi in decomposition.terms:
        ctrl = _controlled_word_gate(word)
        gates = before + ((ctrl,) if ctrl is not None else ()) + after
        out.append(AncillaCircuit(circuit.CircuitSpec(c.n_qubits + 1, gates, 0), observable, chi))
    return out


def _branch_overlaps(c: circuit.CircuitSpec, theta, psi0, decomposition: pauli.PauliSum, b,
                     control: int, measure: int) -> tuple[np.ndarray, np.ndarray]:
    """chi_l and <a|B|b_l>, words controlled at ``control`` and B, a map of
    the row, measured at ``measure``: X reading + i * Y reading."""
    x = circuit.apply_gates(c, theta, psi0, 0, control)
    words = [ph * x[src] for src, ph in (pauli.word_action(w) for w, _ in decomposition.terms)]
    rows = circuit.apply_gates(c, theta, np.stack([x] + words), control, measure)
    chi = np.array([chi for _, chi in decomposition.terms], dtype=complex)
    return chi, rows[1:] @ b(rows[0]).conj()


def hadamard_terms(c: circuit.CircuitSpec, theta, j: int, z_b, psi0, action: str,
                   decompose_generator: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """chi_l and <X (x) B>_l = Re <a|B|b_l> for the circuits of
    :func:`build_ancilla_circuit`, in its order, in branch form."""
    psi0 = _operand(psi0, (c.dim,), "psi0")
    theta, _, _, decomposition, b, points = _plan(c, theta, j, z_b, action, decompose_generator)
    if points is None:
        return np.zeros(0, dtype=complex), np.zeros(0)
    chi, overlaps = _branch_overlaps(c, theta, psi0, decomposition, b, *points)
    return chi, np.real(overlaps)


def hadamard_omega(c: circuit.CircuitSpec, theta, j: int, z_b, psi0, action: str,
                   decompose_generator: bool = False) -> float:
    """omega_{bj} = Re(i * sum_l chi_l <X (x) B>_l), from :func:`hadamard_terms`."""
    chi, terms = hadamard_terms(c, theta, j, z_b, psi0, action, decompose_generator)
    return float(np.real(1j * chi) @ terms)


def insertion_m(c: circuit.CircuitSpec, theta, psi0, m: pauli.PauliSum, z_a,
                action: str) -> float:
    """Symmetry derivative m_a = 2 Re sum_l chi_l <a|M|b_l>: z_a's words
    controlled at the action point, the Hermitian M measured at the output."""
    psi0 = _operand(psi0, (c.dim,), "psi0")
    z_a = require_skew_hermitian(_operand(z_a, (c.dim, c.dim), "z_a"), name="symmetry generator")
    if m.n_qubits != c.n_qubits:
        raise ValueError(f"M acts on {m.n_qubits} qubit(s), the circuit on {c.n_qubits}")
    b = circuit.ExpectationCost(m).matrices[0].dot
    chi, overlaps = _branch_overlaps(c, theta, psi0, pauli.pauli_decompose(z_a), b,
                                     circuit.action_point(c, action), len(c.gates))
    return float(2.0 * np.real(chi @ overlaps))

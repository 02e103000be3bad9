import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from symflow import circuit, estimators, liealg, pauli, symgrad, tangent
from symflow.nummat import ContractViolation
from conftest import (
    ancilla_expectation,
    ancilla_m,
    ancilla_omega,
    on_dense_words,
    random_circuit,
    random_observable,
    random_skew,
    random_state,
    su2_tensor_subspace,
)


Z = pauli.word_matrix("Z")
SWAP = 0.5 * sum(pauli.word_matrix(w) for w in ("II", "XX", "YY", "ZZ"))


def direct_omega(c, theta, j, z, psi0, action):
    dpsi = circuit.state_partial(c, theta, j, psi0)
    if action == "theta":
        zb = circuit.apply(c, theta, z @ psi0)
    else:
        zb = z @ circuit.apply(c, theta, psi0)
    return float(np.real(np.vdot(zb, dpsi)))


def test_build_single_term():
    c = random_circuit(1, 2, np.random.default_rng(0))
    theta = [0.3, 0.7]
    circuits = estimators.build_ancilla_circuit(c, theta, 0, 1j * Z, "theta")
    assert len(circuits) == 1
    assert circuits[0].chi == pytest.approx(1j)
    assert circuits[0].base.n_qubits == c.n_qubits + 1
    assert circuits[0].observable.n_qubits == c.n_qubits + 1
    # every observable word acts on the ancilla with X
    assert all(w[0] == "X" for w, _ in circuits[0].observable.terms)


def test_build_swap_generator_four_terms():
    c = random_circuit(2, 2, np.random.default_rng(1))
    circuits = estimators.build_ancilla_circuit(c, [0.2, 0.4], 0, 1j * SWAP, "theta")
    assert len(circuits) == 4
    assert all(a.chi == pytest.approx(0.5j) for a in circuits)


def test_build_first_gate_has_no_partial_circuit():
    c = circuit.CircuitSpec(1, (circuit.rotation("X", (0,), param=0),
                                circuit.rotation("Y", (0,), param=1)), 2)
    circuits = estimators.build_ancilla_circuit(c, [0.1, 0.2], 0, 1j * Z, "theta")
    # only the controlled word remains before measurement
    assert len(circuits[0].base.gates) == 1


def test_ancilla_circuit_layouts():
    # gate k = 1 of three; the suffix starts at gate k, which commutes with
    # its own generator, so only the layout itself pins where it starts
    a = circuit.rotation("X", (0,), param=0)
    b = circuit.rotation("YZ", (1, 0), param=1)
    f = circuit.rotation("Z", (1,), angle=0.4)
    c = circuit.CircuitSpec(2, (a, b, f), 2)
    theta = np.array([0.3, 0.7])

    def fwd(g):
        return estimators._shift_gate(g, theta)

    def inv(g):
        return estimators._shift_gate(g, theta, invert=True)

    ctrl_z = estimators._controlled_word_gate("ZZ")  # the word of i * ZZ
    ctrl_kappa = estimators._controlled_word_gate("ZY")  # b's generator YZ on wires (1, 0)
    want = {
        ("theta", False): (ctrl_z, fwd(a)),
        ("left", False): (fwd(a), fwd(b), fwd(f), ctrl_z, inv(f), inv(b)),
        ("theta", True): (fwd(a), ctrl_kappa, inv(a)),
        ("left", True): (fwd(a), ctrl_kappa, fwd(b), fwd(f)),
    }
    for (action, decompose_generator), gates in want.items():
        circuits = estimators.build_ancilla_circuit(c, theta, 1, 1j * pauli.word_matrix("ZZ"),
                                                    action, decompose_generator)
        assert [anc.base.gates for anc in circuits] == [gates]


def test_controlled_word_gate_matrix():
    gate = estimators._controlled_word_gate("XY")
    mats = circuit.gate_unitary(gate, np.zeros(0))
    want = np.kron(np.diag([1.0, 0.0]), np.eye(4)) + \
        np.kron(np.diag([0.0, 1.0]), pauli.word_matrix("XY"))
    assert np.allclose(mats, want, atol=1e-12)


def test_hadamard_omega_matches_direct(rng):
    worst = 0.0
    for _ in range(15):
        n = int(rng.integers(1, 3))
        p = int(rng.integers(1, 4))
        c = random_circuit(n, p, rng)
        theta = rng.uniform(0, 2 * np.pi, p)
        psi0 = random_state(n, rng)
        z = random_skew(2**n, rng)
        for action in ("theta", "left"):
            for j in range(p):
                want = direct_omega(c, theta, j, z, psi0, action)
                got = estimators.hadamard_omega(c, theta, j, z, psi0, action)
                worst = max(worst, abs(got - want))
    assert worst < 1e-10


def test_hadamard_omega_role_exchange(rng):
    for _ in range(5):
        c = random_circuit(2, 2, rng)
        theta = rng.uniform(0, 2 * np.pi, 2)
        psi0 = random_state(2, rng)
        z = random_skew(4, rng)
        for action in ("theta", "left"):
            for j in range(2):
                want = direct_omega(c, theta, j, z, psi0, action)
                got = estimators.hadamard_omega(c, theta, j, z, psi0, action,
                                                decompose_generator=True)
                assert got == pytest.approx(want, abs=1e-10)


def test_hadamard_omega_matches_overlap_omega(rng):
    sym_basis = su2_tensor_subspace()
    for action in ("theta", "left"):
        sym = tangent.SymmetrySpec(sym_basis, action)
        c = random_circuit(2, 3, rng)
        theta = rng.uniform(0, 2 * np.pi, 3)
        psi0 = random_state(2, rng)
        omega = symgrad.overlap_omega(sym, c, theta, psi0)
        for b, z in enumerate(sym_basis.basis):
            for j in range(3):
                got = estimators.hadamard_omega(c, theta, j, z, psi0, action)
                assert got == pytest.approx(omega[b, j], abs=1e-10)


def test_hadamard_omega_anticommuting_case(rng):
    # X-rotations anticommute with iZ at the initial state: omega vanishes
    c = circuit.CircuitSpec(1, (circuit.rotation("X", (0,), param=0),), 1)
    theta = rng.uniform(0, 2 * np.pi, 1)
    got = estimators.hadamard_omega(c, theta, 0, 1j * Z, random_state(1, rng), "theta")
    assert abs(got) < 1e-12


def test_hadamard_omega_single_gate_self_overlap(rng):
    c = circuit.CircuitSpec(1, (circuit.rotation("Z", (0,), param=0),), 1)
    theta = rng.uniform(0, 2 * np.pi, 1)
    psi0 = random_state(1, rng)
    z = -0.5j * Z  # the gate's own generator
    got = estimators.hadamard_omega(c, theta, 0, z, psi0, "theta")
    want = float(np.real(np.vdot(z @ psi0, z @ psi0)))
    assert got == pytest.approx(want, abs=1e-12)


def test_per_term_expectations_real(rng):
    c = random_circuit(2, 2, rng)
    theta = rng.uniform(0, 2 * np.pi, 2)
    psi0 = random_state(2, rng)
    circuits = estimators.build_ancilla_circuit(c, theta, 0, random_skew(4, rng), "left")
    for anc in circuits:
        assert abs(ancilla_expectation(anc, psi0).imag) < 1e-12


def check_branch_form(c, theta, psi0, z, action, decompose_generator):
    """Branch-form omega and every per-word term against the (n+1)-qubit
    simulation of the matching ancilla circuit, for every parameter."""
    for j in range(c.n_params):
        chi, terms = estimators.hadamard_terms(c, theta, j, z, psi0, action, decompose_generator)
        circuits = estimators.build_ancilla_circuit(c, theta, j, z, action, decompose_generator)
        assert np.array_equal(chi, [anc.chi for anc in circuits])
        want = [ancilla_expectation(anc, psi0).real for anc in circuits]
        assert np.max(np.abs(terms - want), initial=0.0) < 1e-12
        got = estimators.hadamard_omega(c, theta, j, z, psi0, action, decompose_generator)
        want = ancilla_omega(c, theta, j, z, psi0, action, decompose_generator)
        assert abs(got - want) < 1e-12
        dense = on_dense_words(estimators.hadamard_omega, c, theta, j, z, psi0, action,
                               decompose_generator)
        assert abs(got - dense) <= 1e-15


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 3), p=st.integers(1, 3),
       n_fixed=st.integers(0, 2), action=st.sampled_from(["theta", "left"]),
       decompose_generator=st.booleans())
def test_branch_form_matches_ancilla_oracle(seed, n, p, n_fixed, action, decompose_generator):
    rng = np.random.default_rng(seed)
    c = random_circuit(n, p, rng, n_fixed=n_fixed)
    check_branch_form(c, rng.uniform(0, 2 * np.pi, p), random_state(n, rng),
                      random_skew(2**n, rng), action, decompose_generator)


def test_branch_form_identity_words_edge_gates_and_descending_wires(rng):
    # trainable gates first and last; 2-wire gates on descending wires, one
    # of them with an identity component, so that decomposing either
    # operator gives the identity word (no controlled gate)
    c = circuit.CircuitSpec(3, (
        circuit.rotation("Y", (1,), param=0),
        circuit.rotation("XZ", (2, 0), angle=0.9),
        circuit.Gate(pauli.parse_pauli_sum("0.3*II + 0.5*YX", 2), (1, 0), param=1),
        circuit.rotation("ZY", (2, 1), param=2),
    ), 3)
    z = random_skew(8, rng) + 0.7j * np.eye(8)
    g = c.gates[2]
    kappa = 1j * g.scale * pauli.to_matrix(pauli.embed(g.generator, g.wires, 3))
    for operator in (z, kappa):
        assert "III" in [w for w, _ in pauli.pauli_decompose(operator).terms]
    assert estimators._controlled_word_gate("III") is None
    theta = rng.uniform(0, 2 * np.pi, 3)
    for action in ("theta", "left"):
        for decompose_generator in (False, True):
            check_branch_form(c, theta, random_state(3, rng), z, action, decompose_generator)


ZI, ZII = 1j * pauli.word_matrix("ZI"), 1j * pauli.word_matrix("ZII")
HERMITIAN_ZI = pauli.word_matrix("ZI")
PSI_2Q, PSI_3Q = circuit.basis_state("00"), circuit.basis_state("000")
ZZ_OBS = pauli.parse_pauli_sum("ZZ", 2)
NOT_SKEW = r"symmetry generator is not skew-Hermitian"


@pytest.mark.parametrize("call, error, message", [
    (lambda c: estimators.hadamard_omega(c, [0.3, 0.4], 0, ZII, PSI_2Q, "left"),
     ValueError, r"z_b has shape \(8, 8\), expected \(4, 4\)"),
    (lambda c: estimators.hadamard_omega(c, [0.3, 0.4], 0, ZI, PSI_3Q, "left"),
     ValueError, r"psi0 has shape \(8,\), expected \(4,\)"),
    (lambda c: estimators.build_ancilla_circuit(c, [0.3, 0.4], 0, ZII, "theta"),
     ValueError, r"z_b has shape \(8, 8\), expected \(4, 4\)"),
    (lambda c: estimators.insertion_m(c, [0.3, 0.4], PSI_2Q, ZZ_OBS, ZII, "left"),
     ValueError, r"z_a has shape \(8, 8\), expected \(4, 4\)"),
    (lambda c: estimators.insertion_m(c, [0.3, 0.4], PSI_3Q, ZZ_OBS, ZI, "theta"),
     ValueError, r"psi0 has shape \(8,\), expected \(4,\)"),
    (lambda c: estimators.insertion_m(c, [0.3, 0.4], PSI_2Q, pauli.parse_pauli_sum("Z", 1),
                                      ZI, "left"),
     ValueError, r"M acts on 1 qubit\(s\), the circuit on 2"),
    (lambda c: estimators.insertion_m(c, [0.3, 0.4], PSI_2Q, pauli.parse_pauli_sum("ZZZ", 3),
                                      ZI, "theta"),
     ValueError, r"M acts on 3 qubit\(s\), the circuit on 2"),
    (lambda c: estimators.hadamard_omega(c, [0.3, 0.4], 0, HERMITIAN_ZI, PSI_2Q, "left", True),
     ContractViolation, NOT_SKEW),
    (lambda c: estimators.build_ancilla_circuit(c, [0.3, 0.4], 0, HERMITIAN_ZI, "theta"),
     ContractViolation, NOT_SKEW),
    (lambda c: estimators.insertion_m(c, [0.3, 0.4], PSI_2Q, ZZ_OBS, HERMITIAN_ZI, "left"),
     ContractViolation, NOT_SKEW),
], ids=["hadamard_omega-z_b", "hadamard_omega-psi0", "build_ancilla_circuit-z_b",
        "insertion_m-z_a", "insertion_m-psi0", "insertion_m-m-1q", "insertion_m-m-3q",
        "hadamard_omega-hermitian-z_b", "build_ancilla_circuit-hermitian-z_b",
        "insertion_m-hermitian-z_a"])
def test_operand_from_another_register_rejected(call, error, message):
    """An operand that does not fit the circuit's register, or a symmetry
    generator that is not skew-Hermitian, is rejected by name before any
    gate is applied."""
    c = random_circuit(2, 2, np.random.default_rng(3))
    with pytest.raises(error, match=message):
        call(c)


def test_insertion_m_rejects_non_hermitian_observable():
    c = random_circuit(2, 2, np.random.default_rng(3))
    with pytest.raises(ValueError, match="observable must be Hermitian"):
        estimators.insertion_m(c, [0.3, 0.4], PSI_2Q, 1j * pauli.parse_pauli_sum("XI", 2), ZI,
                               "left")


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 3), p=st.integers(1, 3),
       n_fixed=st.integers(0, 2), action=st.sampled_from(["theta", "left"]))
def test_insertion_m_matches_y_basis_oracle(seed, n, p, n_fixed, action):
    """m_a against the (n+1)-qubit Y-basis circuits and against symgrad; the
    identity component of z_a gives a word with no controlled gate."""
    rng = np.random.default_rng(seed)
    c = random_circuit(n, p, rng, n_fixed=n_fixed)
    theta, psi0 = rng.uniform(0, 2 * np.pi, p), random_state(n, rng)
    obs = random_observable(n, rng)
    z = random_skew(2**n, rng) + 0.7j * np.eye(2**n)
    z = z / np.sqrt(liealg.trace_inner(z, z))
    assert "I" * n in [w for w, _ in pauli.pauli_decompose(z).terms]
    got = estimators.insertion_m(c, theta, psi0, obs, z, action)
    assert abs(got - ancilla_m(c, theta, psi0, obs, z, action)) < 1e-12
    dense = on_dense_words(estimators.insertion_m, c, theta, psi0, obs, z, action)
    assert abs(got - dense) <= 1e-15
    sym = tangent.SymmetrySpec(liealg.subspace(2**n, [z]), action)
    assert abs(got - symgrad.symmetry_derivative(sym, c, theta, psi0, obs)[0]) < 1e-12


def test_insertion_m_commuting_observable(rng):
    swap_obs = pauli.parse_pauli_sum("0.5*II+0.5*XX+0.5*YY+0.5*ZZ", 2)
    c = random_circuit(2, 2, rng)
    theta = rng.uniform(0, 2 * np.pi, 2)
    psi0 = random_state(2, rng)
    for z in su2_tensor_subspace().basis:
        got = estimators.insertion_m(c, theta, psi0, swap_obs, z, "left")
        assert abs(got) < 1e-15


def test_insertion_m_matches_symmetry_derivative(rng):
    for action in ("theta", "left"):
        sym = tangent.SymmetrySpec(su2_tensor_subspace(), action)
        c = random_circuit(2, 3, rng)
        theta = rng.uniform(0, 2 * np.pi, 3)
        psi0 = random_state(2, rng)
        obs = random_observable(2, rng)
        m = symgrad.symmetry_derivative(sym, c, theta, psi0, obs)
        for a, z in enumerate(sym.generators.basis):
            got = estimators.insertion_m(c, theta, psi0, obs, z, action)
            assert got == pytest.approx(m[a], abs=1e-12)


def test_insertion_m_vanishes_at_entangling_optimum():
    from symflow import cli, natgrad

    prob = cli.entangling_problem(seed=0)
    psi0 = prob.initial_state()
    trace = natgrad.optimize("gd", prob.circuit, None, psi0, prob.cost,
                             lr=0.5, max_iter=2000, tol=1e-11, seed=0)
    theta = trace.final.theta
    for obs in prob.cost.observables:
        for z in prob.symmetry.generators.basis:
            got = estimators.insertion_m(prob.circuit, theta, psi0, obs, z, "left")
            assert abs(got) < 2e-10

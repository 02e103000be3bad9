import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from symflow import circuit, estimators, liealg, pauli, symgrad, tangent
from conftest import (
    cost_partial_commutator,
    random_circuit,
    random_observable,
    random_skew,
    random_state,
    random_word,
    single_qubit_example,
)


X, Y, Z, I2 = (pauli.word_matrix(w) for w in "XYZI")
PLUS = np.array([1, 1]) / np.sqrt(2)


def rx(t):
    return np.array([[np.cos(t / 2), -1j * np.sin(t / 2)],
                     [-1j * np.sin(t / 2), np.cos(t / 2)]])


def ry(t):
    return np.array([[np.cos(t / 2), -np.sin(t / 2)],
                     [np.sin(t / 2), np.cos(t / 2)]])


def test_build_unitary_empty():
    c = circuit.CircuitSpec(2, (), 0)
    assert np.allclose(circuit.build_unitary(c, []), np.eye(4))


def test_build_unitary_single_ry():
    c = circuit.CircuitSpec(1, (circuit.rotation("Y", (0,), param=0),), 1)
    s = 1 / np.sqrt(2)
    assert np.allclose(circuit.build_unitary(c, [np.pi / 2]),
                       np.array([[s, -s], [s, s]]), atol=1e-14)


def test_build_unitary_three_factor_product(rng):
    c = single_qubit_example()
    theta = rng.uniform(0, 2 * np.pi, 3)
    want = np.exp(1j * theta[2]) * rx(theta[1]) @ ry(theta[0])
    assert np.allclose(circuit.build_unitary(c, theta), want, atol=1e-13)


def test_build_unitary_qubit_cap():
    c = circuit.CircuitSpec(11, (), 0)
    with pytest.raises(ValueError):
        circuit.build_unitary(c, [])


def test_apply_empty_circuit(rng):
    c = circuit.CircuitSpec(2, (), 0)
    psi = random_state(2, rng)
    assert np.allclose(circuit.apply(c, [], psi), psi)


def test_apply_ry_on_zero():
    c = circuit.CircuitSpec(1, (circuit.rotation("Y", (0,), param=0),), 1)
    got = circuit.apply(c, [np.pi / 2], circuit.basis_state("0"))
    assert np.allclose(got, PLUS, atol=1e-14)


def test_cnot_exponential_makes_bell():
    # CNOT = exp(-i (pi/4) (Z - I) (x) (I - X)), control on wire 0
    gen = pauli.parse_pauli_sum("ZI - ZX - II + IX", 2)
    c = circuit.CircuitSpec(2, (circuit.Gate(gen, (0, 1), angle=np.pi / 4),), 0)
    plus_zero = np.kron(PLUS, circuit.basis_state("0"))
    bell = (circuit.basis_state("00") + circuit.basis_state("11")) / np.sqrt(2)
    assert np.allclose(circuit.apply(c, [], plus_zero), bell, atol=1e-12)
    cnot = np.eye(4)[[0, 1, 3, 2]]
    assert np.allclose(circuit.build_unitary(c, []), cnot, atol=1e-12)


def test_apply_matches_build_unitary(rng):
    for _ in range(5):
        c = random_circuit(3, 3, rng)
        theta = rng.uniform(0, 2 * np.pi, 3)
        psi = random_state(3, rng)
        assert np.allclose(circuit.apply(c, theta, psi),
                           circuit.build_unitary(c, theta) @ psi, atol=1e-12)


def test_apply_preserves_norm(rng):
    c = random_circuit(3, 4, rng)
    theta = rng.uniform(0, 2 * np.pi, 4)
    psi = circuit.apply(c, theta, random_state(3, rng))
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 3), p=st.integers(0, 4),
       n_fixed=st.integers(0, 2), batch=st.integers(0, 3))
def test_apply_gates_carries_between_any_two_positions(seed, n, p, n_fixed, batch):
    """Forward to k and back to 0 returns the state; k to k is the identity;
    a backward segment is its forward gates reversed, each inverted."""
    rng = np.random.default_rng(seed)
    c = random_circuit(n, p, rng, n_fixed=n_fixed)
    theta = rng.uniform(0, 2 * np.pi, p)
    psi = np.stack([random_state(n, rng) for _ in range(batch)]) if batch else random_state(n, rng)
    g = len(c.gates)
    k = int(rng.integers(0, g + 1))
    there = circuit.apply_gates(c, theta, psi, 0, k)
    assert np.max(np.abs(circuit.apply_gates(c, theta, there, k, 0) - psi)) < 1e-12
    assert np.array_equal(circuit.apply_gates(c, theta, psi, k, k), psi)
    lo, hi = sorted(int(x) for x in rng.integers(0, g + 1, 2))
    inverse = circuit.CircuitSpec(n, tuple(
        circuit.Gate(gate.generator, gate.wires, angle=circuit.gate_angle(gate, theta),
                     scale=-gate.scale) for gate in reversed(c.gates[lo:hi])), 0)
    back = circuit.apply_gates(c, theta, psi, hi, lo)
    assert np.max(np.abs(back - circuit.apply(inverse, [], psi))) < 1e-12
    assert np.max(np.abs(circuit.apply_gates(c, theta, back, lo, hi) - psi)) < 1e-12


def test_apply_gates_rejects_positions_outside_the_circuit(rng):
    c = random_circuit(2, 2, rng)
    psi = random_state(2, rng)
    for start, stop in [(-1, 2), (0, 4), (4, 0), (1, -1)]:
        with pytest.raises(ValueError, match="gate positions"):
            circuit.apply_gates(c, [0.1, 0.2], psi, start, stop)


def test_action_point_is_a_gate_position(rng):
    c = random_circuit(2, 3, rng)
    assert circuit.action_point(c, "theta") == 0
    assert circuit.action_point(c, "left") == len(c.gates) == 4


def test_effective_generators_single_qubit_example(rng):
    c = single_qubit_example()
    theta = rng.uniform(0, 2 * np.pi, 3)
    c1, s1 = np.cos(theta[0]), np.sin(theta[0])
    c2, s2 = np.cos(theta[1]), np.sin(theta[1])
    assert np.allclose(circuit.effective_generator(c, theta, 0, "right"),
                       -0.5j * Y, atol=1e-13)
    assert np.allclose(circuit.effective_generator(c, theta, 1, "right"),
                       -0.5j * (c1 * X + s1 * Z), atol=1e-13)
    assert np.allclose(circuit.effective_generator(c, theta, 2, "right"),
                       1j * I2, atol=1e-13)
    assert np.allclose(circuit.effective_generator(c, theta, 0, "left"),
                       -0.5j * (c2 * Y + s2 * Z), atol=1e-13)
    assert np.allclose(circuit.effective_generator(c, theta, 1, "left"),
                       -0.5j * X, atol=1e-13)


def test_effective_generator_single_gate_sides_agree(rng):
    c = circuit.CircuitSpec(1, (circuit.rotation("Z", (0,), param=0),), 1)
    theta = rng.uniform(0, 2 * np.pi, 1)
    r = circuit.effective_generator(c, theta, 0, "right")
    l = circuit.effective_generator(c, theta, 0, "left")
    assert np.allclose(r, l, atol=1e-14)
    assert np.allclose(r, -0.5j * Z, atol=1e-14)


def test_effective_generator_errors(rng):
    c = single_qubit_example()
    theta = [0.1, 0.2, 0.3]
    with pytest.raises(ValueError):
        circuit.effective_generator(c, theta, 0, "middle")
    # a parameter index outside 0..p-1, or not an integer, is rejected on every route
    sym = tangent.SymmetrySpec(liealg.subspace(2, [1j * Z]), "left")
    for j in (5, 3, -1, 1.0, True, "1"):
        for call in (lambda: circuit.effective_generator(c, theta, j, "right"),
                     lambda: circuit.state_partial(c, theta, j, PLUS),
                     lambda: estimators.hadamard_omega(c, theta, j, 1j * Z, PLUS, "theta"),
                     lambda: circuit.cost_partial(c, theta, j, PLUS, pauli.parse_pauli_sum("Z", 1)),
                     lambda: symgrad.covariant_derivative_state(sym, c, theta, j, PLUS),
                     lambda: symgrad.equivariant_derivative_state(sym, c, theta, j, PLUS)):
            with pytest.raises(ValueError, match="parameter index"):
                call()


def test_left_equals_conjugated_right(rng):
    for _ in range(5):
        c = random_circuit(2, 3, rng)
        theta = rng.uniform(0, 2 * np.pi, 3)
        u = circuit.build_unitary(c, theta)
        for j in range(3):
            left = circuit.effective_generator(c, theta, j, "left")
            right = circuit.effective_generator(c, theta, j, "right")
            assert np.max(np.abs(left - u @ right @ u.conj().T)) < 1e-10


def test_effective_generators_lie_in_dla(rng):
    c = random_circuit(2, 3, rng)
    theta = rng.uniform(0, 2 * np.pi, 3)
    algebra = circuit.dla(c)
    for j in range(3):
        omega = circuit.effective_generator(c, theta, j, "right")
        assert np.max(np.abs(liealg.project_onto(omega, algebra) - omega)) < 1e-10


def test_state_partial_finite_difference(rng):
    c = random_circuit(3, 4, rng)
    theta = rng.uniform(0, 2 * np.pi, 4)
    psi0 = random_state(3, rng)
    h = 1e-5
    for j in range(4):
        dpsi = circuit.state_partial(c, theta, j, psi0)
        step = np.eye(4)[j] * h
        fd = (circuit.apply(c, theta + step, psi0) -
              circuit.apply(c, theta - step, psi0)) / (2 * h)
        assert np.max(np.abs(dpsi - fd)) < 1e-6


def test_state_partial_annihilating_generator():
    # generator |1><1| kills |0>
    proj1 = pauli.parse_pauli_sum("0.5*I - 0.5*Z", 1)
    c = circuit.CircuitSpec(1, (circuit.Gate(proj1, (0,), param=0),), 1)
    dpsi = circuit.state_partial(c, [0.3], 0, circuit.basis_state("0"))
    assert np.max(np.abs(dpsi)) < 1e-14


def test_state_partial_closed_form_on_plus(rng):
    # d2 |psi> = -(1/2) U (c1 i|+> + s1 i|->)
    c = single_qubit_example()
    theta = rng.uniform(0, 2 * np.pi, 3)
    c1, s1 = np.cos(theta[0]), np.sin(theta[0])
    minus = np.array([1, -1]) / np.sqrt(2)
    u = circuit.build_unitary(c, theta)
    want = -0.5 * u @ (c1 * 1j * PLUS + s1 * 1j * minus)
    assert np.allclose(circuit.state_partial(c, theta, 1, PLUS), want, atol=1e-12)


def test_cost_identity_observable(rng):
    c = random_circuit(2, 2, rng)
    theta = rng.uniform(0, 2 * np.pi, 2)
    m = pauli.parse_pauli_sum("II", 2)
    assert circuit.cost(c, theta, random_state(2, rng), m) == pytest.approx(1.0, abs=1e-12)


def test_cost_dense_matrix_oracle(rng):
    c = random_circuit(2, 3, rng)
    theta = rng.uniform(0, 2 * np.pi, 3)
    psi0 = random_state(2, rng)
    m = random_observable(2, rng)
    u = circuit.build_unitary(c, theta)
    want = np.vdot(u @ psi0, pauli.to_matrix(m) @ (u @ psi0)).real
    assert circuit.cost(c, theta, psi0, m) == pytest.approx(want, abs=1e-12)


def test_cost_rejects_non_hermitian(rng):
    c = random_circuit(1, 1, rng)
    with pytest.raises(ValueError):
        circuit.cost(c, [0.1], circuit.basis_state("0"),
                     pauli.parse_pauli_sum("i*Z", 1))


@pytest.mark.parametrize("make", [
    lambda m: circuit.ExpectationCost(m),
    lambda m: circuit.SquaredSumCost((pauli.parse_pauli_sum("Z", 1), m)),
])
def test_cost_specs_reject_non_hermitian(make):
    with pytest.raises(ValueError, match="Hermitian"):
        make(pauli.parse_pauli_sum("X + i*Z", 1))


def test_cost_specs_build_matrices_once(rng, monkeypatch):
    calls = []
    to_matrix = pauli.to_matrix
    monkeypatch.setattr(pauli, "to_matrix", lambda p: calls.append(p) or to_matrix(p))
    observables = tuple(random_observable(2, rng) for _ in range(3))
    for spec in (circuit.ExpectationCost(observables[0]), circuit.SquaredSumCost(observables)):
        calls.clear()
        for _ in range(4):
            value, covector = spec.value_and_covector(random_state(2, rng))
        assert len(calls) == len(spec.observables)
        assert covector.shape == (4,)


def test_cost_partial_finite_difference(rng):
    c = random_circuit(2, 3, rng)
    theta = rng.uniform(0, 2 * np.pi, 3)
    psi0 = random_state(2, rng)
    m = random_observable(2, rng)
    h = 1e-5
    for j in range(3):
        step = np.eye(3)[j] * h
        fd = (circuit.cost(c, theta + step, psi0, m) -
              circuit.cost(c, theta - step, psi0, m)) / (2 * h)
        assert circuit.cost_partial(c, theta, j, psi0, m) == pytest.approx(fd, abs=1e-6)


def test_cost_partial_commutator_route(rng):
    c = random_circuit(2, 3, rng)
    theta = rng.uniform(0, 2 * np.pi, 3)
    psi0 = random_state(2, rng)
    m = random_observable(2, rng)
    for j in range(3):
        a = circuit.cost_partial(c, theta, j, psi0, m)
        b = cost_partial_commutator(c, theta, j, psi0, m)
        assert a == pytest.approx(b, abs=1e-10)


def test_cost_partial_commuting_observable(rng):
    # M = I commutes with everything
    c = random_circuit(2, 2, rng)
    theta = rng.uniform(0, 2 * np.pi, 2)
    m = pauli.parse_pauli_sum("II", 2)
    for j in range(2):
        assert circuit.cost_partial(c, theta, j, random_state(2, rng), m) == \
            pytest.approx(0.0, abs=1e-12)


def test_unreferenced_param_gives_zero_tangent():
    """A parameter that drives no gate has zero derivative on every route."""
    c = circuit.CircuitSpec(1, (circuit.rotation("X", (0,), param=0),), 2)
    theta, psi0 = [0.1, 0.2], circuit.basis_state("0")
    dpsi = circuit.state_partial(c, theta, 1, psi0)
    assert np.max(np.abs(dpsi)) == 0.0
    assert np.max(np.abs(circuit.evaluate(c, theta, psi0).partials[1])) == 0.0
    for side in ("right", "left"):
        assert np.array_equal(circuit.effective_generator(c, theta, 1, side), np.zeros((2, 2)))
    for action in ("theta", "left"):
        for decompose_generator in (False, True):
            args = (c, theta, 1, 1j * Z, psi0, action, decompose_generator)
            chi, terms = estimators.hadamard_terms(*args)
            assert chi.shape == terms.shape == (0,)
            assert estimators.hadamard_omega(*args) == 0.0
            assert estimators.build_ancilla_circuit(c, theta, 1, 1j * Z, action,
                                                    decompose_generator) == []


def test_circuit_validation():
    with pytest.raises(ValueError):  # reused parameter
        circuit.CircuitSpec(1, (circuit.rotation("X", (0,), param=0),
                                circuit.rotation("Y", (0,), param=0)), 1)
    with pytest.raises(ValueError):  # wire out of range
        circuit.CircuitSpec(1, (circuit.rotation("X", (1,), param=0),), 1)
    with pytest.raises(ValueError):  # both param and angle
        circuit.Gate(pauli.parse_pauli_sum("X", 1), (0,), param=0, angle=0.1)
    with pytest.raises(ValueError):  # non-Hermitian generator
        circuit.Gate(pauli.parse_pauli_sum("i*X", 1), (0,), param=0)
    for param in (True, 1.0):  # a parameter index is an integer, not a bool or a float
        with pytest.raises(ValueError, match="param must be an integer"):
            circuit.Gate(pauli.parse_pauli_sum("X", 1), (0,), param=param)


def test_theta_validation():
    c = single_qubit_example()
    with pytest.raises(ValueError):
        circuit.apply(c, [0.1], circuit.basis_state("0"))
    with pytest.raises(ValueError):
        circuit.apply(c, [0.1, np.nan, 0.2], circuit.basis_state("0"))


def test_evaluate_names_the_psi0_shape(rng):
    c = random_circuit(2, 2, rng)
    batch = np.stack([random_state(2, rng), random_state(2, rng)])
    with pytest.raises(ValueError, match=r"psi0 has shape \(2, 4\), expected \(4,\)"):
        circuit.evaluate(c, [0.1, 0.2], batch)


def kernel_case_gate(kind: str, n: int, rng) -> circuit.Gate:
    """A gate on n qubits of one generator kind for the kernel property."""
    k = {"identity": int(rng.integers(1, n + 1)), "word": int(rng.integers(1, n + 1)),
         "demo": 2, "anticommuting": 2, "controlled": n}[kind]
    wires = tuple(int(w) for w in rng.permutation(n)[:k])
    scale = float(rng.choice([-1.0, rng.uniform(-2, 2)]))
    if kind == "controlled":
        word = "".join(rng.choice(list("IXYZ"), size=n - 1))
        ctrl = estimators._controlled_word_gate(word if word.strip("I") else "X" + word[1:])
        return circuit.Gate(ctrl.generator, tuple(wires[q] for q in ctrl.wires), param=0,
                            scale=scale)
    text = {"identity": "0.7*" + "I" * k, "word": "0.5*" + random_word(k, rng),
            "demo": "0.25*XI - 0.25*XZ", "anticommuting": "0.3*XI + 0.4*ZY"}[kind]
    return circuit.Gate(pauli.parse_pauli_sum(text, k), wires, param=0, scale=scale)


@settings(deadline=None, max_examples=80)
@given(seed=st.integers(0, 10**6), n=st.integers(2, 5),
       kind=st.sampled_from(["identity", "word", "demo", "controlled", "anticommuting"]),
       undone=st.booleans(), batch=st.sampled_from([None, 1, 3]))
def test_apply_gate_matches_local_unitary(seed, n, kind, undone, batch):
    """Word rotations as signed permutations, and the eigen route of a
    generator with anticommuting words, against the dense local unitary;
    kappa psi and the exchanged-role decomposition of kappa from the same
    word table, against the dense kappa."""
    rng = np.random.default_rng(seed)
    g = kernel_case_gate(kind, n, rng)
    assert circuit.gate_words(g.generator, g.wires, n)[1] == (kind != "anticommuting")
    theta = rng.uniform(-2 * np.pi, 2 * np.pi, 1)
    psi = (random_state(n, rng) if batch is None
           else np.stack([random_state(n, rng) for _ in range(batch)]))
    u = circuit.gate_unitary(g, theta)
    want = circuit.apply_local(psi, u.conj().T if undone else u, g.wires, n)
    got = circuit.apply_gate(psi, g, theta, n, undone)
    assert got.shape == psi.shape
    assert np.max(np.abs(got - want)) < 1e-14
    dense_kappa = 1j * g.scale * pauli.to_matrix(pauli.embed(g.generator, g.wires, n))
    got = circuit.kappa(psi, g, n)
    assert got.shape == psi.shape
    assert np.max(np.abs(got - psi @ dense_kappa.T)) < 1e-14
    c = circuit.CircuitSpec(n, (g,), 1)
    z = random_skew(2**n, rng)
    assert estimators._plan(c, theta, 0, z, "left", False)[3] == pauli.pauli_decompose(z)
    words = estimators._plan(c, theta, 0, z, "left", decompose_generator=True)[3].terms
    dense = pauli.pauli_decompose(dense_kappa).terms
    assert [w for w, _ in words] == [w for w, _ in dense]
    assert max(abs(a - b) for (_, a), (_, b) in zip(words, dense)) < 1e-15


def test_word_action_is_the_word_matrix():
    for word in pauli.all_words(3):
        src, phase = pauli.word_action(word)
        assert np.array_equal(pauli.word_matrix(word), phase[:, None] * np.eye(8)[src])


def test_apply_local_wire_order_against_kron(rng):
    """The eigen route's wire order: apply_local on the identity's rows
    embeds a local operator as its kron with the identity."""
    def embedded(mat, wires):
        return circuit.apply_local(np.eye(4, dtype=complex), mat, wires, 2).T

    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    assert np.allclose(embedded(a, (1,)), np.kron(np.eye(2), a))
    assert np.allclose(embedded(a, (0,)), np.kron(a, np.eye(2)))
    b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    # swapped wires equal conjugation by SWAP
    swap = np.eye(4)[[0, 2, 1, 3]]
    assert np.allclose(embedded(b, (1, 0)), swap @ b @ swap)


def test_dla_matches_closure():
    c = circuit.CircuitSpec(2, (
        circuit.rotation("ZZ", (0, 1), param=0),
        circuit.rotation("X", (0,), param=1),
        circuit.rotation("X", (1,), param=2),
    ), 3)
    assert circuit.dla(c).dim == 6


def test_random_product_state_deterministic():
    a = circuit.random_product_state(2, 7)
    b = circuit.random_product_state(2, 7)
    assert np.array_equal(a, b)
    assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-12)


def test_evaluate_rejects_generators_of_another_dimension():
    c = circuit.CircuitSpec(1, (circuit.rotation("Y", (0,), param=0),), 1)
    with pytest.raises(ValueError, match="symmetry generators do not match the state dimension"):
        circuit.evaluate(c, [0.3], circuit.basis_state("0"), [1j * np.eye(4)], "left")


def test_unknown_action_rejected_with_one_message():
    c = circuit.CircuitSpec(1, (circuit.rotation("Y", (0,), param=0),), 1)
    z = 1j * Z
    psi0 = circuit.basis_state("0")
    calls = [
        lambda: circuit.evaluate(c, [0.3], psi0, [z], "right"),
        lambda: tangent.SymmetrySpec(liealg.subspace(2, [z]), "right"),
        lambda: estimators.build_ancilla_circuit(c, [0.3], 0, z, "right"),
        lambda: estimators.insertion_m(c, [0.3], psi0, pauli.parse_pauli_sum("Z", 1), z, "right"),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="action must be 'left' or 'theta', got 'right'"):
            call()

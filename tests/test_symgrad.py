import numpy as np
import pytest

from symflow import circuit, liealg, nummat, pauli, symgrad, tangent
from symflow.nummat import expm_skew, pinv_psd
from conftest import (
    omega_anticommutator,
    random_circuit,
    random_observable,
    random_state,
    real_overlap,
    single_qubit_example,
    su2_tensor_subspace,
    two_qubit_example,
)


X, Y, Z, I2 = (pauli.word_matrix(w) for w in "XYZI")
PLUS = np.array([1, 1]) / np.sqrt(2)
MINUS = np.array([1, -1]) / np.sqrt(2)
T_Z = liealg.subspace(2, [1j * Z])
T_PHASE = liealg.subspace(2, [1j * I2])


def sym_z(action="theta"):
    return tangent.SymmetrySpec(T_Z, action)


def su2_first_qubit():
    mats = [1j * pauli.to_matrix(pauli.embed(pauli.parse_pauli_sum(w, 1), (0,), 2))
            for w in "XYZ"]
    return tangent.SymmetrySpec(liealg.subspace(4, mats), "left")


def test_unitary_derivatives_single_qubit_closed_forms(rng):
    c = single_qubit_example()
    for _ in range(10):
        theta = rng.uniform(0, 2 * np.pi, 3)
        c1, s1 = np.cos(theta[0]), np.sin(theta[0])
        u = circuit.build_unitary(c, theta)
        sym = sym_z()
        assert np.max(np.abs(symgrad.equivariant_derivative_unitary(c, theta, 0, sym))) < 1e-10
        assert np.allclose(symgrad.equivariant_derivative_unitary(c, theta, 1, sym),
                           -0.5j * s1 * u @ Z, atol=1e-10)
        assert np.allclose(symgrad.equivariant_derivative_unitary(c, theta, 2, sym),
                           1j * u, atol=1e-10)
        assert np.allclose(symgrad.covariant_derivative_unitary(c, theta, 0, sym),
                           -0.5j * u @ Y, atol=1e-10)
        assert np.allclose(symgrad.covariant_derivative_unitary(c, theta, 1, sym),
                           -0.5j * c1 * u @ X, atol=1e-10)
        assert np.allclose(symgrad.covariant_derivative_unitary(c, theta, 2, sym),
                           1j * u, atol=1e-10)


def test_unitary_derivatives_global_phase_symmetry(rng):
    c = single_qubit_example()
    theta = rng.uniform(0, 2 * np.pi, 3)
    sym = tangent.SymmetrySpec(T_PHASE, "theta")
    u = circuit.build_unitary(c, theta)
    for j in range(3):
        dju = u @ circuit.effective_generator(c, theta, j, "right")
        assert np.allclose(symgrad.equivariant_derivative_unitary(c, theta, j, sym),
                           dju, atol=1e-10)
    # the phase parameter aligns with the symmetry and is projected away
    assert np.max(np.abs(symgrad.covariant_derivative_unitary(c, theta, 2, sym))) < 1e-10


def test_equivariant_circuit_keeps_partial(rng):
    # all generators commute with t = span{iZ}: E_j U = d_j U
    c = circuit.CircuitSpec(1, (
        circuit.rotation("Z", (0,), param=0),
        circuit.Gate(pauli.parse_pauli_sum("-I", 1), (0,), param=1),
    ), 2)
    theta = rng.uniform(0, 2 * np.pi, 2)
    u = circuit.build_unitary(c, theta)
    for j in range(2):
        dju = u @ circuit.effective_generator(c, theta, j, "right")
        assert np.allclose(symgrad.equivariant_derivative_unitary(c, theta, j, sym_z()),
                           dju, atol=1e-12)


def test_state_derivatives_single_qubit(rng):
    c = single_qubit_example()
    theta = rng.uniform(0, 2 * np.pi, 3)
    sym = sym_z()
    psi = circuit.apply(c, theta, PLUS)
    c1 = np.cos(theta[0])
    assert np.allclose(symgrad.covariant_derivative_state(sym, c, theta, 1, PLUS),
                       -0.5j * c1 * psi, atol=1e-12)
    assert np.max(np.abs(symgrad.equivariant_derivative_state(sym, c, theta, 0, PLUS))) < 1e-12
    for j in (1, 2):
        assert np.allclose(symgrad.equivariant_derivative_state(sym, c, theta, j, PLUS),
                           circuit.state_partial(c, theta, j, PLUS), atol=1e-12)


def test_state_and_unitary_equivariant_derivatives_differ(rng):
    # X acts like a global phase at |+>, so E_2|psi> keeps what E_2 U drops
    c = single_qubit_example()
    theta = rng.uniform(0.3, 1.2, 3)
    sym = sym_z()
    state_route = symgrad.equivariant_derivative_state(sym, c, theta, 1, PLUS)
    unitary_route = symgrad.equivariant_derivative_unitary(c, theta, 1, sym) @ PLUS
    assert np.max(np.abs(state_route - unitary_route)) > 1e-3


def test_covariant_state_derivative_global_phase(rng):
    c = single_qubit_example()
    theta = rng.uniform(0, 2 * np.pi, 3)
    sym = tangent.SymmetrySpec(T_PHASE, "theta")
    s1 = np.sin(theta[0])
    u = circuit.build_unitary(c, theta)
    assert np.allclose(symgrad.covariant_derivative_state(sym, c, theta, 1, PLUS),
                       -0.5j * s1 * u @ MINUS, atol=1e-12)


def test_rank_zero_frame_keeps_partial():
    # all symmetry generators annihilate the singlet
    sym = tangent.SymmetrySpec(su2_tensor_subspace(), "theta")
    c = circuit.CircuitSpec(2, (circuit.rotation("XY", (0, 1), param=0),), 1)
    psi0 = (circuit.basis_state("01") - circuit.basis_state("10")) / np.sqrt(2)
    theta = [0.7]
    assert np.allclose(symgrad.covariant_derivative_state(sym, c, theta, 0, psi0),
                       circuit.state_partial(c, theta, 0, psi0), atol=1e-12)


def test_covariant_state_derivative_orthogonal_to_vertical(rng):
    for action in ("theta", "left"):
        c = random_circuit(2, 3, rng)
        theta = rng.uniform(0, 2 * np.pi, 3)
        psi0 = random_state(2, rng)
        sym = tangent.SymmetrySpec(su2_tensor_subspace(), action)
        frame = tangent.evaluate(sym, c, theta, psi0).frame
        for j in range(3):
            d = symgrad.covariant_derivative_state(sym, c, theta, j, psi0)
            for v in frame.onb:
                assert abs(real_overlap(v, d)) < 1e-10


def test_symmetry_derivative_commuting_observable_left(rng):
    # [M, t] = 0 with the left action makes every m_a vanish
    swap = pauli.parse_pauli_sum("0.5*II + 0.5*XX + 0.5*YY + 0.5*ZZ", 2)
    sym = tangent.SymmetrySpec(su2_tensor_subspace(), "left")
    c = random_circuit(2, 3, rng)
    theta = rng.uniform(0, 2 * np.pi, 3)
    m = symgrad.symmetry_derivative(sym, c, theta, random_state(2, rng), swap)
    assert np.max(np.abs(m)) < 1e-12


def test_symmetry_derivative_insertion_oracle(rng):
    h = 1e-5
    for action in ("theta", "left"):
        c = random_circuit(2, 2, rng)
        theta = rng.uniform(0, 2 * np.pi, 2)
        psi0 = random_state(2, rng)
        obs = random_observable(2, rng)
        sym = tangent.SymmetrySpec(su2_tensor_subspace(), action)
        m = symgrad.symmetry_derivative(sym, c, theta, psi0, obs)
        for a, z in enumerate(sym.generators.basis):
            def cost_at(t):
                if action == "theta":
                    psi = circuit.apply(c, theta, expm_skew(z, t) @ psi0)
                else:
                    psi = expm_skew(z, t) @ circuit.apply(c, theta, psi0)
                return np.vdot(psi, pauli.to_matrix(obs) @ psi).real
            fd = (cost_at(h) - cost_at(-h)) / (2 * h)
            assert m[a] == pytest.approx(fd, abs=1e-6)


def test_overlap_omega_anticommutator_route(rng):
    for action in ("theta", "left"):
        for kind in ("vertical", "equivariant"):
            c = random_circuit(2, 3, rng)
            theta = rng.uniform(0, 2 * np.pi, 3)
            psi0 = random_state(2, rng)
            sym = tangent.SymmetrySpec(su2_tensor_subspace(), action)
            direct = symgrad.overlap_omega(sym, c, theta, psi0, kind)
            via_anti = omega_anticommutator(sym, c, theta, psi0, kind)
            assert np.max(np.abs(direct - via_anti)) < 1e-10


def test_anticommuting_generators_make_partial_covariant(rng):
    # all-X rotations anticommute with iZ at |psi0>: omega = 0, D_j C = d_j C
    c = circuit.CircuitSpec(1, (
        circuit.rotation("X", (0,), param=0),
        circuit.rotation("X", (0,), param=1),
    ), 2)
    theta = rng.uniform(0, 2 * np.pi, 2)
    psi0 = random_state(1, rng)
    sym = sym_z("theta")
    omega = symgrad.overlap_omega(sym, c, theta, psi0)
    assert np.max(np.abs(omega)) < 1e-12
    report = symgrad.covariant_derivative_cost(sym, c, theta, psi0,
                                               random_observable(1, rng))
    assert np.allclose(report.projected, report.partial, atol=1e-12)


def test_commuting_generator_closed_form(rng):
    """With pairwise commuting gate generators the effective generator is
    the bare one, so omega[b, j] = Re <z_b base|kappa_j base> at the action
    point (psi0 for the theta action, psi for the left action)."""
    c = circuit.CircuitSpec(2, (
        circuit.rotation("ZZ", (0, 1), param=0),
        circuit.rotation("Z", (0,), param=1),
        circuit.rotation("IZ", (0, 1), angle=0.4),
    ), 2)
    psi0 = random_state(2, rng)
    kappas = [1j * g.scale * pauli.to_matrix(pauli.embed(g.generator, g.wires, 2))
              for g in c.gates[:2]]
    for action in ("theta", "left"):
        sym = tangent.SymmetrySpec(su2_tensor_subspace(), action)
        theta = rng.uniform(0, 2 * np.pi, 2)
        base = psi0 if action == "theta" else circuit.apply(c, theta, psi0)
        closed = np.array([[real_overlap(z @ base, k @ base) for k in kappas]
                           for z in sym.generators.basis])
        general = symgrad.overlap_omega(sym, c, theta, psi0)
        assert np.max(np.abs(closed - general)) < 1e-12
    # theta-action overlaps do not depend on theta
    sym = tangent.SymmetrySpec(su2_tensor_subspace(), "theta")
    base = symgrad.overlap_omega(sym, c, rng.uniform(0, 2 * np.pi, 2), psi0)
    for _ in range(10):
        other = symgrad.overlap_omega(sym, c, rng.uniform(0, 2 * np.pi, 2), psi0)
        assert np.max(np.abs(base - other)) < 1e-12


def single_qubit_expectations(theta_q, psi_q, obs):
    state = np.array([[np.cos(theta_q / 2), -np.sin(theta_q / 2)],
                      [np.sin(theta_q / 2), np.cos(theta_q / 2)]]) @ psi_q
    return np.vdot(state, obs @ state).real


def vector_potential_closed_form(theta, psi1, psi2):
    """Entrywise closed form for the two-qubit example, computed from
    single-qubit expectations before the entangling gate."""
    p0 = np.array([[1, 0], [0, 0]], dtype=complex)
    p1 = np.array([[0, 0], [0, 1]], dtype=complex)
    e1 = {w: single_qubit_expectations(theta[0], psi1, m)
          for w, m in (("X", X), ("Y", Y), ("Z", Z))}
    e2 = {w: single_qubit_expectations(theta[1], psi2, m)
          for w, m in (("Y", Y), ("P0", p0), ("P1", p1))}
    c3, s3 = np.cos(theta[2]), np.sin(theta[2])
    ch, sh = np.cos(theta[2] / 2), np.sin(theta[2] / 2)
    return -0.5 * np.array([
        [0.0, e1["X"] * e2["Y"], e2["P1"]],
        [e2["P0"] + c3 * e2["P1"], ch * (ch * e1["Y"] - sh * e1["Z"]) * e2["Y"], 0.0],
        [s3 * e2["P1"], ch * (ch * e1["Z"] + sh * e1["Y"]) * e2["Y"], 0.0],
    ])


def random_qubit_state(rng):
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return v / np.linalg.norm(v)


def test_vector_potential_two_qubit_closed_form(rng):
    c = two_qubit_example()
    sym = su2_first_qubit()
    for _ in range(10):
        psi1, psi2 = random_qubit_state(rng), random_qubit_state(rng)
        psi0 = np.kron(psi1, psi2)
        theta = rng.uniform(0, 2 * np.pi, 3)
        a = symgrad.vector_potential(sym, c, theta, psi0)
        want = vector_potential_closed_form(theta, psi1, psi2)
        assert np.max(np.abs(a - want)) < 1e-10


def test_vector_potential_zero_pattern(rng):
    c = two_qubit_example()
    sym = su2_first_qubit()
    psi0 = np.kron(random_qubit_state(rng), random_qubit_state(rng))
    theta = rng.uniform(0, 2 * np.pi, 3)
    a = symgrad.vector_potential(sym, c, theta, psi0)
    assert abs(a[0, 0]) < 1e-12 and abs(a[1, 2]) < 1e-12 and abs(a[2, 2]) < 1e-12


def test_vector_potential_at_pi_simplifies(rng):
    c = two_qubit_example()
    sym = su2_first_qubit()
    psi1, psi2 = random_qubit_state(rng), random_qubit_state(rng)
    psi0 = np.kron(psi1, psi2)
    theta = np.array([rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi), np.pi])
    a = symgrad.vector_potential(sym, c, theta, psi0)
    # only the first row and the (1, 0) entry survive
    assert np.max(np.abs(a[1:, 1:])) < 1e-10
    p1 = np.array([[0, 0], [0, 1]], dtype=complex)
    e_x1 = single_qubit_expectations(theta[0], psi1, X)
    e_y2 = single_qubit_expectations(theta[1], psi2, Y)
    e_p1 = single_qubit_expectations(theta[1], psi2, p1)
    e_z2 = single_qubit_expectations(theta[1], psi2, Z)
    assert a[0, 1] == pytest.approx(-0.5 * e_x1 * e_y2, abs=1e-10)
    assert a[0, 2] == pytest.approx(-0.5 * e_p1, abs=1e-10)
    assert a[1, 0] == pytest.approx(-0.5 * e_z2, abs=1e-10)


def test_covariant_cost_reconstruction(rng):
    for action in ("theta", "left"):
        c = random_circuit(2, 3, rng)
        theta = rng.uniform(0, 2 * np.pi, 3)
        psi0 = random_state(2, rng)
        obs = random_observable(2, rng)
        sym = tangent.SymmetrySpec(su2_tensor_subspace(), action)
        rep = symgrad.covariant_derivative_cost(sym, c, theta, psi0, obs)
        recon = rep.projected + rep.m @ rep.vector_potential
        assert np.max(np.abs(recon - rep.partial)) < 1e-10
        fd = circuit.cost_gradient(c, theta, psi0, obs)
        assert np.max(np.abs(rep.partial - fd)) < 1e-10


def test_covariant_cost_matches_state_route(rng):
    for action in ("theta", "left"):
        c = random_circuit(2, 3, rng)
        theta = rng.uniform(0, 2 * np.pi, 3)
        psi0 = random_state(2, rng)
        obs = random_observable(2, rng)
        sym = tangent.SymmetrySpec(su2_tensor_subspace(), action)
        rep = symgrad.covariant_derivative_cost(sym, c, theta, psi0, obs)
        psi = circuit.apply(c, theta, psi0)
        for j in range(3):
            dcov = symgrad.covariant_derivative_state(sym, c, theta, j, psi0)
            want = 2.0 * np.real(np.vdot(psi, pauli.to_matrix(obs) @ dcov))
            assert rep.projected[j] == pytest.approx(want, abs=1e-10)


def test_equivariant_cost_projector_route(rng):
    for action in ("theta", "left"):
        c = random_circuit(2, 3, rng)
        theta = rng.uniform(0, 2 * np.pi, 3)
        psi0 = random_state(2, rng)
        obs = random_observable(2, rng)
        sym = tangent.SymmetrySpec(su2_tensor_subspace(), action)
        rep = symgrad.equivariant_derivative_cost(sym, c, theta, psi0, obs)
        psi = circuit.apply(c, theta, psi0)
        for j in range(3):
            de = symgrad.equivariant_derivative_state(sym, c, theta, j, psi0)
            want = 2.0 * np.real(np.vdot(psi, pauli.to_matrix(obs) @ de))
            assert rep.projected[j] == pytest.approx(want, abs=1e-10)


def test_equivariant_cost_on_equivariant_circuit(rng):
    # an equivariant circuit and observable keep the partial derivative
    c = circuit.CircuitSpec(1, (
        circuit.rotation("Z", (0,), param=0),
        circuit.Gate(pauli.parse_pauli_sum("-I", 1), (0,), param=1),
    ), 2)
    theta = rng.uniform(0, 2 * np.pi, 2)
    psi0 = random_state(1, rng)
    obs = pauli.parse_pauli_sum("0.3*Z + 0.4*I", 1)
    for action in ("theta", "left"):
        sym = sym_z(action)
        rep = symgrad.equivariant_derivative_cost(sym, c, theta, psi0, obs)
        assert np.max(np.abs(rep.projected - rep.partial)) < 1e-10


def test_equivariant_cost_vanishes_for_bicommutant_observable(rng):
    # with the left action, an observable commuting with the commutant
    # algebra u^t makes every m^E vanish
    c = random_circuit(1, 2, rng)
    theta = rng.uniform(0, 2 * np.pi, 2)
    psi0 = random_state(1, rng)
    obs = pauli.parse_pauli_sum("0.7*Z", 1)  # commutes with span{iI, iZ}
    rep = symgrad.equivariant_derivative_cost(sym_z("left"), c, theta, psi0, obs)
    assert np.max(np.abs(rep.m)) < 1e-12
    assert np.max(np.abs(rep.projected)) < 1e-12


def _near_cut_example(eps: float):
    """RY(eps) and RY(2 eps) on |00>, then fixed XY, YX, XX, YY rotations
    by angles below 1e-6: the commutant tangents of total Z are nearly
    dependent, with singular values from O(1) down to about eps."""
    fixed = np.random.default_rng(1).uniform(0, 1e-6, 4)
    gates = [circuit.rotation("Y", (0,), param=0), circuit.rotation("Y", (1,), param=1)]
    gates += [circuit.rotation(w, (0, 1), angle=float(a))
              for w, a in zip(("XY", "YX", "XX", "YY"), fixed)]
    return circuit.CircuitSpec(2, tuple(gates), 2), np.array([eps, 2 * eps]), fixed


def _equivariant_cost_oracle(theta, fixed, obs_mat, tol: float) -> np.ndarray:
    """E_j C = 2 Re <M psi| P d_j psi> from dense numpy: P projects onto
    the SVD span of the tangents x psi, x in the commutant of total Z (the
    nullspace of its adjoint map on the 16 Hermitian basis matrices)."""
    paulis = {ch: pauli.word_matrix(ch) for ch in "IXYZ"}
    words = [a + b for a in "IXYZ" for b in "IXYZ"]
    mats = {w: np.kron(paulis[w[0]], paulis[w[1]]) for w in words}

    def rot(word, angle):
        return np.cos(angle / 2) * np.eye(4) - 1j * np.sin(angle / 2) * mats[word]

    tail = np.eye(4)
    for w, a in zip(("XY", "YX", "XX", "YY"), fixed):
        tail = rot(w, a) @ tail
    ry0, ry1 = rot("YI", theta[0]), rot("IY", theta[1])
    psi0 = np.eye(4)[0]
    psi = tail @ ry1 @ ry0 @ psi0
    dpsi = [tail @ ry1 @ (-0.5j * mats["YI"]) @ ry0 @ psi0,
            tail @ (-0.5j * mats["IY"]) @ ry1 @ ry0 @ psi0]

    total_z = mats["ZI"] + mats["IZ"]
    comms = [total_z @ mats[w] - mats[w] @ total_z for w in words]
    ad = np.stack([np.concatenate([k.real.ravel(), k.imag.ravel()]) for k in comms], axis=1)
    _, svals, vh = np.linalg.svd(ad)
    null = vh[int(np.sum(svals > 1e-12)):]
    commutant = [1j * sum(c * mats[w] for c, w in zip(row, words)) for row in null]

    def emb(v):
        return np.concatenate([v.real, v.imag])

    tangents = np.stack([emb(x @ psi) for x in commutant])
    _, svals, vh = np.linalg.svd(tangents, full_matrices=False)
    span = vh[svals > tol * svals[0]]
    covector = emb(obs_mat @ psi)
    return np.array([2.0 * covector @ (span.T @ (span @ emb(d))) for d in dpsi])


@pytest.mark.parametrize("eps", [1e-4, 1e-5, 1e-6])
def test_equivariant_cost_near_the_rank_cut(eps):
    """Directions of the commutant tangents far shorter than the longest
    but above the rank cut still count in E_j C."""
    c, theta, fixed = _near_cut_example(eps)
    obs = pauli.parse_pauli_sum("0.7*XX + 0.4*YY - 0.3*XY + 0.2*ZI", 2)
    sym = tangent.SymmetrySpec(liealg.subspace(4, [1j * pauli.to_matrix(
        pauli.parse_pauli_sum("ZI + IZ", 2)) / np.sqrt(2)]), "left")
    rep = symgrad.equivariant_derivative_cost(sym, c, theta, circuit.basis_state("00"), obs)
    want = _equivariant_cost_oracle(theta, fixed, pauli.to_matrix(obs), nummat.rank_tol())
    assert np.max(np.abs(rep.projected - want)) < 1e-10
    assert abs(want[0]) > 0.5 * eps  # the oracle sees the short directions


def test_frame_condition_near_the_rank_cut():
    """At eps = 1e-7 the commutant frame keeps five directions, the
    shortest about 1.26e7 times shorter than the longest; ``cond`` reads
    that ratio from the frame's coefficients, without a second SVD."""
    c, theta, _ = _near_cut_example(1e-7)
    sym = tangent.SymmetrySpec(liealg.subspace(4, [1j * pauli.to_matrix(
        pauli.parse_pauli_sum("ZI + IZ", 2)) / np.sqrt(2)]), "left")
    frame = tangent.evaluate(sym, c, theta, circuit.basis_state("00"), "equivariant").frame
    svals = np.linalg.svd(nummat.embed_real(frame.raw), compute_uv=False)
    assert frame.rank == 5
    assert frame.cond == pytest.approx(svals[0] / svals[4], rel=1e-9)
    assert frame.cond == pytest.approx(1.26e7, rel=1e-2)
    singlet = np.array([0, 1, -1, 0]) / np.sqrt(2)  # fixed by U (x) U: a rank-0 frame
    sym_su2 = tangent.SymmetrySpec(su2_tensor_subspace(), "left")
    assert tangent.evaluate(sym_su2, circuit.CircuitSpec(2, (), 0), [], singlet).frame.cond == 1.0


def test_covariant_derivative_is_equivariant_map(rng):
    # applying a symmetry transformation to the parametrized state commutes
    # with taking the covariant state derivative (left action)
    c = random_circuit(2, 3, rng)
    theta = rng.uniform(0, 2 * np.pi, 3)
    psi0 = random_state(2, rng)
    t = su2_tensor_subspace()
    sym = tangent.SymmetrySpec(t, "left")
    for _ in range(20):
        coeffs = rng.standard_normal(t.dim)
        x = sum(co * b for co, b in zip(coeffs, t.basis))
        s = expm_skew(x, 1.0)
        s_gate = circuit.Gate(pauli.pauli_decompose(1j * x), (0, 1), angle=1.0)
        c_shifted = circuit.CircuitSpec(2, c.gates + (s_gate,), c.n_params)
        for j in range(3):
            lhs = symgrad.covariant_derivative_state(sym, c_shifted, theta, j, psi0)
            rhs = s @ symgrad.covariant_derivative_state(sym, c, theta, j, psi0)
            assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_report_serialization_round_trip(rng):
    import json

    c = random_circuit(2, 2, rng)
    sym = tangent.SymmetrySpec(su2_tensor_subspace(), "left")
    rep = symgrad.covariant_derivative_cost(sym, c, rng.uniform(0, 2, 2),
                                            random_state(2, rng),
                                            random_observable(2, rng))
    payload = json.loads(rep.to_json())
    assert set(payload) == {"m", "omega", "gram", "vector_potential", "partial", "projected"}
    assert np.allclose(payload["vector_potential"],
                       pinv_psd(rep.gram) @ rep.omega, atol=1e-12)


def test_unknown_basis_or_report_kind_rejected():
    c = single_qubit_example()
    psi0 = circuit.basis_state("0")
    with pytest.raises(ValueError, match="kind must be 'covariant' or 'equivariant'"):
        symgrad.projected_cost_report("partial", sym_z(), c, np.zeros(3), psi0,
                                      pauli.parse_pauli_sum("Z", 1))
    with pytest.raises(ValueError, match="basis_kind must be 'vertical' or 'equivariant'"):
        symgrad.overlap_omega(sym_z(), c, np.zeros(3), psi0, basis_kind="x")

"""Differential matrix for the one-sweep evaluation core.

Every quantity that ``circuit.evaluate`` feeds (partials, cost gradients,
metrics, tangent overlaps, symmetry derivatives) is compared with an
independent route: the per-parameter re-simulation ``state_partial``,
central finite differences, the dense-unitary commutator and
anticommutator formulas, the Hadamard-test estimator (both routes) and the
insertion finite difference.  Random circuits mix fixed and trainable gates;
two pinned points sit where the frame degenerates or the optimizer ends.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from symflow import circuit, cli, estimators, liealg, natgrad, nummat, pauli, symgrad, tangent
from conftest import (cost_partial_commutator, omega_anticommutator, random_circuit,
                      random_observable, random_state)

H_FD = 1e-5


def collective_su2(n: int, action: str) -> tangent.SymmetrySpec:
    """Collective su(2) on n qubits: i * sum_q P_q / sqrt(n) for P in X, Y, Z."""
    mats = []
    for ch in "XYZ":
        words = ["I" * q + ch + "I" * (n - q - 1) for q in range(n)]
        mats.append(1j * sum(pauli.word_matrix(w) for w in words) / np.sqrt(n))
    return tangent.SymmetrySpec(liealg.subspace(2**n, mats), action)


def global_phase(n: int) -> tangent.SymmetrySpec:
    return tangent.SymmetrySpec(liealg.subspace(2**n, [1j * np.eye(2**n)]), "left")


def check_point(c, theta, psi0, sym, obs):
    """All differential checks at one (circuit, theta, psi0, symmetry)."""
    theta = np.asarray(theta, dtype=float)
    ev = tangent.evaluate(sym, c, theta, psi0)
    assert np.max(np.abs(ev.psi - circuit.apply(c, theta, psi0))) < 1e-12

    for j in range(c.n_params):
        oracle = circuit.state_partial(c, theta, j, psi0)
        assert np.max(np.abs(ev.partials[j] - oracle)) < 1e-12
        step = H_FD * np.eye(c.n_params)[j]
        fd = (circuit.apply(c, theta + step, psi0) - circuit.apply(c, theta - step, psi0)) / (2 * H_FD)
        assert np.max(np.abs(ev.partials[j] - fd)) < 1e-7

    grad = circuit.cost_gradient(c, theta, psi0, obs)
    commutator = [cost_partial_commutator(c, theta, j, psi0, obs)
                  for j in range(c.n_params)]
    assert np.max(np.abs(grad - commutator)) < 1e-10

    n = c.n_qubits
    f = natgrad.fubini_study(c, theta, psi0).entries
    fs = natgrad.covariant_metric(global_phase(n), c, theta, psi0).entries
    assert np.max(np.abs(f - fs)) < 1e-12

    omega = symgrad.overlap_omega(sym, c, theta, psi0)
    assert np.max(np.abs(omega - omega_anticommutator(sym, c, theta, psi0))) < 1e-10
    for b, z in enumerate(sym.generators.basis):
        for j in range(c.n_params):
            for route in (False, True):
                got = estimators.hadamard_omega(c, theta, j, z, psi0, sym.action,
                                                decompose_generator=route)
                assert abs(got - omega[b, j]) < 1e-10

    m = symgrad.symmetry_derivative(sym, c, theta, psi0, obs)
    for a, z in enumerate(sym.generators.basis):
        assert abs(estimators.insertion_m(c, theta, psi0, obs, z, sym.action) - m[a]) < 1e-6

    # the frame's rank is the SVD rank of the embedded raw tangents under
    # the rank rule, and the frame is orthonormal and spans them
    svals = np.linalg.svd(np.concatenate([ev.frame.raw.real, ev.frame.raw.imag], axis=1),
                          compute_uv=False)
    cut = max(nummat.rank_tol() * np.max(svals, initial=0.0), nummat.ZERO_MATRIX_FLOOR)
    assert ev.frame.rank == int(np.sum(svals > cut))
    onb = ev.frame.onb
    if len(onb):
        assert np.max(np.abs(np.real(onb.conj() @ onb.T) - np.eye(len(onb)))) < 1e-10
        residual = ev.frame.raw - np.real(ev.frame.raw.conj() @ onb.T) @ onb
        assert np.max(np.abs(residual)) < 1e-10
    else:
        assert np.max(np.abs(ev.frame.raw), initial=0.0) < 1e-10


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 3), p=st.integers(1, 4),
       n_fixed=st.integers(0, 2), action=st.sampled_from(["theta", "left"]))
def test_sweep_matches_every_oracle(seed, n, p, n_fixed, action):
    rng = np.random.default_rng(seed)
    c = random_circuit(n, p, rng, n_fixed=n_fixed)
    theta = rng.uniform(0, 2 * np.pi, p)
    check_point(c, theta, random_state(n, rng), collective_su2(n, action),
                random_observable(n, rng))


def test_sweep_at_singlet_stabilizer():
    """The singlet is fixed by collective su(2), so the frame has rank 0."""
    rng = np.random.default_rng(11)
    singlet = (circuit.basis_state("01") - circuit.basis_state("10")) / np.sqrt(2)
    obs = random_observable(2, rng)
    c = random_circuit(2, 3, rng, n_fixed=1)
    sym = collective_su2(2, "theta")
    assert tangent.evaluate(sym, c, rng.uniform(0, 2 * np.pi, 3), singlet).frame.rank == 0
    check_point(c, rng.uniform(0, 2 * np.pi, 3), singlet, sym, obs)
    # exchange rotations keep the output a singlet: rank 0 under the left action too
    exchange = circuit.CircuitSpec(2, (
        circuit.rotation("XX", (0, 1), param=0),
        circuit.rotation("YY", (0, 1), angle=0.7),
        circuit.rotation("ZZ", (0, 1), param=1),
    ), 2)
    sym = collective_su2(2, "left")
    theta = rng.uniform(0, 2 * np.pi, 2)
    assert tangent.evaluate(sym, exchange, theta, singlet).frame.rank == 0
    check_point(exchange, theta, singlet, sym, obs)


def test_sweep_at_entangling_optimum():
    """The gd optimum of demo seed 0, where theta_3 = pi."""
    prob = cli.entangling_problem(0)
    psi0 = prob.initial_state()
    trace = natgrad.optimize("gd", prob.circuit, None, psi0, prob.cost, lr=0.5,
                             max_iter=2000, tol=1e-9, seed=0)
    theta = trace.final.theta
    assert abs(theta[2] % (2 * np.pi) - np.pi) < 1e-6
    obs = pauli.parse_pauli_sum("XI + 0.5*IZ", 2)
    for action in ("left", "theta"):
        sym = tangent.SymmetrySpec(prob.symmetry.generators, action)
        check_point(prob.circuit, theta, psi0, sym, obs)


def test_cost_gradient_n8_p60_matches_per_parameter_oracle():
    rng = np.random.default_rng(860)
    c = random_circuit(8, 60, rng, n_fixed=4)
    theta = rng.uniform(0, 2 * np.pi, 60)
    psi0 = random_state(8, rng)
    obs = random_observable(8, rng, n_terms=4)
    m_psi = pauli.to_matrix(obs) @ circuit.apply(c, theta, psi0)
    oracle = [2.0 * np.real(np.vdot(m_psi, circuit.state_partial(c, theta, j, psi0)))
              for j in range(60)]
    assert np.max(np.abs(circuit.cost_gradient(c, theta, psi0, obs) - oracle)) < 1e-10


def test_cqng_stall_diagnosis():
    """Why cqng stalls on the demo at lr 0.5.  Near the minimum the step
    theta - lr * (1/2) * F^+ grad multiplies errors by 1 - (lr/2) * lambda
    for lambda in eig(F^+ H), H the cost Hessian.  At the gd minimum of
    seed 0 those are about {4.09, 8, 8} (covariant metric) and {4, 8, 8}
    (Fubini-Study), so lr 0.5 gives the factor -1 and no contraction,
    while lr 0.25 converges."""
    prob = cli.entangling_problem(0)
    c, psi0, cost = prob.circuit, prob.initial_state(), prob.cost
    theta = natgrad.optimize("gd", c, None, psi0, cost, lr=0.5, max_iter=2000,
                             tol=1e-9, seed=0).final.theta
    h = 1e-4
    hessian = np.stack([
        (circuit.cost_gradient(c, theta + h * e, psi0, cost)
         - circuit.cost_gradient(c, theta - h * e, psi0, cost)) / (2 * h)
        for e in np.eye(3)], axis=1)
    metrics = {"covariant": natgrad.covariant_metric(prob.symmetry, c, theta, psi0),
               "fubini_study": natgrad.fubini_study(c, theta, psi0)}
    want = {"covariant": [4.0894, 8.0, 8.0], "fubini_study": [4.0, 8.0, 8.0]}
    for kind, metric in metrics.items():
        assert np.min(np.linalg.eigvalsh(metric.entries)) > 0.06  # full rank
        lam = np.sort(np.linalg.eigvals(nummat.pinv_psd(metric.entries) @ hessian).real)
        assert np.max(np.abs(lam - want[kind])) < 1e-3
        assert 1.0 - 0.25 * lam[-1] == pytest.approx(-1.0, abs=1e-3)  # lr 0.5
    for seed in range(4):
        prob = cli.entangling_problem(seed)
        trace = natgrad.optimize("cqng", c, None, prob.initial_state(), cost, lr=0.25,
                                 max_iter=400, tol=1e-9, sym=prob.symmetry, seed=seed)
        assert trace.converged and trace.final.cost < 1e-15

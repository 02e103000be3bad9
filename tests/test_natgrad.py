import numpy as np
import pytest

from symflow import circuit, cli, liealg, natgrad, pauli, symgrad, tangent
from conftest import (
    random_circuit,
    random_observable,
    random_state,
    real_overlap,
    single_qubit_example,
)


I2 = np.eye(2, dtype=complex)


def global_phase_sym(d):
    return tangent.SymmetrySpec(liealg.subspace(d, [1j * np.eye(d)]), "left")


def test_fubini_study_global_phase_param_row_is_zero(rng):
    c = single_qubit_example()  # parameter 2 only shifts the global phase
    theta = rng.uniform(0, 2 * np.pi, 3)
    f = natgrad.fubini_study(c, theta, np.array([1, 1]) / np.sqrt(2)).entries
    assert np.max(np.abs(f[2, :])) < 1e-12
    assert np.max(np.abs(f[:, 2])) < 1e-12


def test_fubini_study_fidelity_oracle(rng):
    # F_11 from the second-order expansion of |<psi(t)|psi(t+h)>|^2
    c = circuit.CircuitSpec(1, (circuit.rotation("Y", (0,), param=0),), 1)
    psi0 = circuit.basis_state("0")
    theta = rng.uniform(0, 2 * np.pi, 1)
    f = natgrad.fubini_study(c, theta, psi0).entries[0, 0]
    h = 1e-4
    fid = abs(np.vdot(circuit.apply(c, theta, psi0),
                      circuit.apply(c, theta + h, psi0))) ** 2
    assert f == pytest.approx((1 - fid) / h**2, abs=1e-6)


def test_fubini_study_equals_global_phase_metric(rng):
    for _ in range(20):
        n = int(rng.integers(1, 4))
        p = int(rng.integers(1, 7))
        c = random_circuit(n, p, rng)
        theta = rng.uniform(0, 2 * np.pi, p)
        psi0 = random_state(n, rng)
        f = natgrad.fubini_study(c, theta, psi0).entries
        fs = natgrad.covariant_metric(global_phase_sym(2**n), c, theta, psi0).entries
        assert np.max(np.abs(f - fs)) < 1e-12


def test_metrics_symmetric_psd(rng):
    for _ in range(10):
        n, p = 2, 4
        c = random_circuit(n, p, rng)
        theta = rng.uniform(0, 2 * np.pi, p)
        psi0 = random_state(n, rng)
        for m in (natgrad.fubini_study(c, theta, psi0),
                  natgrad.covariant_metric(global_phase_sym(4), c, theta, psi0)):
            assert np.max(np.abs(m.entries - m.entries.T)) < 1e-12
            assert np.min(np.linalg.eigvalsh(m.entries)) > -1e-10


def test_covariant_metric_is_gram_of_covariant_derivatives(rng):
    from conftest import su2_tensor_subspace

    c = random_circuit(2, 3, rng)
    theta = rng.uniform(0, 2 * np.pi, 3)
    psi0 = random_state(2, rng)
    sym = tangent.SymmetrySpec(su2_tensor_subspace(), "left")
    fs = natgrad.covariant_metric(sym, c, theta, psi0).entries
    ders = [symgrad.covariant_derivative_state(sym, c, theta, j, psi0) for j in range(3)]
    want = np.array([[real_overlap(a, b) for b in ders] for a in ders])
    assert np.max(np.abs(fs - want)) < 1e-12


def test_covariant_metric_zero_when_all_tangents_vertical(rng):
    # the full algebra u(2) as symmetry makes every tangent vertical
    sym = tangent.SymmetrySpec(liealg.full_space(2), "left")
    c = random_circuit(1, 2, rng)
    theta = rng.uniform(0, 2 * np.pi, 2)
    fs = natgrad.covariant_metric(sym, c, theta, random_state(1, rng)).entries
    assert np.max(np.abs(fs)) < 1e-12


def test_cqng_step_fixed_point(rng):
    # observable I has zero gradient everywhere
    c = random_circuit(1, 2, rng)
    theta = rng.uniform(0, 2 * np.pi, 2)
    sym = global_phase_sym(2)
    new = natgrad.cqng_step(sym, c, theta, random_state(1, rng),
                            pauli.parse_pauli_sum("I", 1), lr=0.1)
    assert np.max(np.abs(new - theta)) < 1e-12


def test_cqng_equals_qng_for_global_phases(rng):
    for _ in range(5):
        n, p = 2, 4
        c = random_circuit(n, p, rng)
        theta = rng.uniform(0, 2 * np.pi, p)
        psi0 = random_state(n, rng)
        obs = random_observable(n, rng)
        sym = global_phase_sym(2**n)
        a = natgrad.qng_step(c, theta, psi0, obs, lr=0.05)
        b = natgrad.cqng_step(sym, c, theta, psi0, obs, lr=0.05)
        assert np.max(np.abs(a - b)) < 1e-12


def test_cqng_descent_direction(rng):
    from conftest import su2_tensor_subspace

    for _ in range(10):
        c = random_circuit(2, 3, rng)
        theta = rng.uniform(0, 2 * np.pi, 3)
        psi0 = random_state(2, rng)
        obs = random_observable(2, rng)
        sym = tangent.SymmetrySpec(su2_tensor_subspace(), "left")
        fs = natgrad.covariant_metric(sym, c, theta, psi0).entries
        if np.linalg.matrix_rank(fs, tol=1e-10) < 3:
            continue
        grad = symgrad.covariant_derivative_cost(sym, c, theta, psi0, obs).projected
        step = natgrad.cqng_step(sym, c, theta, psi0, obs, lr=0.1) - theta
        assert step @ (-grad) >= -1e-12


def test_cqng_cost_non_increasing_on_entangling_demo():
    prob = cli.entangling_problem(seed=0)
    psi0 = prob.initial_state()
    trace = natgrad.optimize("cqng", prob.circuit, None, psi0, prob.cost,
                             lr=0.1, max_iter=200, tol=0.0,
                             sym=prob.symmetry, seed=0)
    costs = [r.cost for r in trace.records]
    assert len(costs) == 201
    for prev, nxt in zip(costs, costs[1:]):
        assert nxt <= prev + 1e-12


def test_optimize_stationary_start(rng):
    c = random_circuit(1, 2, rng)
    cost = circuit.ExpectationCost(pauli.parse_pauli_sum("I", 1))
    trace = natgrad.optimize("gd", c, rng.uniform(0, 2, 2), circuit.basis_state("0"),
                             cost, lr=0.1)
    assert len(trace.records) == 1
    assert trace.converged


def test_optimize_entangling_demo_converges():
    prob = cli.entangling_problem(seed=3)
    psi0 = prob.initial_state()
    trace = natgrad.optimize("gd", prob.circuit, None, psi0, prob.cost,
                             lr=0.5, max_iter=2000, tol=1e-9, seed=3)
    assert trace.final.cost < 1e-8
    th3 = trace.final.theta[2] % (2 * np.pi)
    assert abs(th3 - np.pi) < 1e-3


def test_gd_and_cqng_reach_same_minimum():
    prob = cli.entangling_problem(seed=1)
    psi0 = prob.initial_state()
    for method in ("gd", "cqng"):
        trace = natgrad.optimize(method, prob.circuit, None, psi0, prob.cost,
                                 lr=0.5 if method == "gd" else 0.2, max_iter=2000,
                                 tol=1e-9, sym=prob.symmetry, seed=1)
        assert trace.final.cost < 1e-8


def test_optimize_method_validation(rng):
    c = random_circuit(1, 1, rng)
    cost = circuit.ExpectationCost(pauli.parse_pauli_sum("Z", 1))
    with pytest.raises(ValueError):
        natgrad.optimize("newton", c, [0.1], circuit.basis_state("0"), cost)
    with pytest.raises(ValueError):
        natgrad.optimize("cqng", c, [0.1], circuit.basis_state("0"), cost)  # no sym
    with pytest.raises(ValueError):
        natgrad.optimize("gd", c, [0.1], circuit.basis_state("0"), cost, lr=-1.0)


@pytest.mark.parametrize("lr", [-1.0, 0.0, float("nan"), float("inf")])
def test_steps_and_optimize_reject_bad_lr(rng, lr):
    c = random_circuit(1, 2, rng)
    theta, psi0 = [0.1, 0.2], circuit.basis_state("0")
    obs = pauli.parse_pauli_sum("Z", 1)
    calls = [
        lambda: natgrad.qng_step(c, theta, psi0, obs, lr=lr),
        lambda: natgrad.cqng_step(global_phase_sym(2), c, theta, psi0, obs, lr=lr),
        lambda: natgrad.optimize("gd", c, theta, psi0, circuit.ExpectationCost(obs), lr=lr),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="learning rate"):
            call()


@pytest.mark.parametrize("bad", [{"max_iter": -1}, {"max_iter": 2.5}, {"max_iter": True},
                                 {"tol": float("nan")}, {"tol": -1.0}, {"tol": float("inf")}],
                         ids=["max_iter=-1", "max_iter=2.5", "max_iter=True", "tol=nan",
                              "tol=-1", "tol=inf"])
def test_optimize_rejects_bad_max_iter_and_tol(rng, bad):
    c = random_circuit(1, 2, rng)
    cost = circuit.ExpectationCost(pauli.parse_pauli_sum("Z", 1))
    settings = {"max_iter": 3, "tol": 1e-9, **bad}
    with pytest.raises(ValueError, match=next(iter(bad))):
        natgrad.optimize("gd", c, [0.1, 0.2], circuit.basis_state("0"), cost, **settings)


def test_theta0_sampling_deterministic():
    a = natgrad.sample_theta0(4, 11)
    b = natgrad.sample_theta0(4, 11)
    assert np.array_equal(a, b)
    assert np.all((a >= 0) & (a < 2 * np.pi))


def test_trace_csv_format(rng):
    c = random_circuit(1, 2, rng)
    cost = circuit.ExpectationCost(pauli.parse_pauli_sum("Z", 1))
    trace = natgrad.optimize("gd", c, [0.3, 0.4], circuit.basis_state("0"), cost,
                             lr=0.1, max_iter=5, tol=0.0,
                             monitor=lambda th: {"probe": float(th[0])})
    text = trace.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "iter,theta_0,theta_1,cost,grad_norm,probe"
    assert len(lines) == 7  # header + 6 records
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == pytest.approx(0.3)


def test_squared_sum_cost_gradient_matches_fd(rng):
    prob = cli.entangling_problem(seed=2)
    psi0 = prob.initial_state()
    theta = rng.uniform(0, 2 * np.pi, 3)
    grad = circuit.cost_gradient(prob.circuit, theta, psi0, prob.cost)
    h = 1e-5
    for j in range(3):
        step = np.eye(3)[j] * h
        fd = (circuit.cost(prob.circuit, theta + step, psi0, prob.cost) -
              circuit.cost(prob.circuit, theta - step, psi0, prob.cost)) / (2 * h)
        assert grad[j] == pytest.approx(fd, abs=1e-6)


def test_projected_report_squared_sum_consistency(rng):
    prob = cli.entangling_problem(seed=4)
    psi0 = prob.initial_state()
    theta = rng.uniform(0, 2 * np.pi, 3)
    rep = symgrad.projected_cost_report("covariant", prob.symmetry, prob.circuit,
                                        theta, psi0, prob.cost)
    assert np.max(np.abs(rep.partial - (rep.projected + rep.m @ rep.vector_potential))) < 1e-10
    assert np.max(np.abs(rep.partial -
                         circuit.cost_gradient(prob.circuit, theta, psi0, prob.cost))) < 1e-10

import json

import numpy as np
import pytest

from symflow import circuit, cli, natgrad, pauli


def write_spec(tmp_path, data, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def u1_spec(tmp_path):
    return write_spec(tmp_path, {
        "circuit": {
            "n_qubits": 1,
            "n_params": 3,
            "gates": [
                {"h": "0.5*Y", "wires": [0], "param": 0},
                {"h": "0.5*X", "wires": [0], "param": 1},
                {"h": "-I", "wires": [0], "param": 2},
            ],
        },
        "initial_state": [[0.70710678118654752, 0.0], [0.70710678118654752, 0.0]],
        "symmetry": {"generators": ["i*Z"], "action": "theta"},
        "observable": "Z",
        "optimizer": {"method": "gd", "lr": 0.2, "max_iter": 500, "tol": 1e-9, "seed": 0},
    })


def su2_spec(tmp_path):
    return write_spec(tmp_path, {
        "circuit": {"n_qubits": 2, "n_params": 1,
                    "gates": [{"h": "0.5*XY", "wires": [0, 1], "param": 0}]},
        "initial_state": "01",
        "symmetry": {"generators": ["i*XI + i*IX", "i*YI + i*IY", "i*ZI + i*IZ"],
                     "action": "left"},
        "observable": "ZI",
    })


def test_decompose_u1(tmp_path, capsys):
    rc = cli.main(["decompose", u1_spec(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "dims: r=2 commutant_centerless=1 center=1 symmetry_centerless=0" in out


def test_decompose_su2_tensor(tmp_path, capsys):
    rc = cli.main(["decompose", su2_spec(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "dims: r=11 commutant_centerless=2 center=0 symmetry_centerless=3" in out


def test_decompose_writes_file(tmp_path):
    out = tmp_path / "report.txt"
    rc = cli.main(["decompose", u1_spec(tmp_path), "--out", str(out)])
    assert rc == 0
    assert out.read_text().startswith("ambient: u(2)")


def test_decompose_non_closed_generators_exit_3(tmp_path, capsys):
    spec = write_spec(tmp_path, {
        "circuit": {"n_qubits": 1, "n_params": 0, "gates": []},
        "initial_state": "0",
        "symmetry": {"generators": ["i*X", "i*Y"], "action": "left"},
    })
    assert cli.main(["decompose", spec]) == 3


def test_malformed_spec_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["decompose", str(bad)]) == 2
    missing = write_spec(tmp_path, {"circuit": {"n_qubits": 1, "n_params": 0}})
    assert cli.main(["decompose", missing]) == 2


def test_grad_partial_matches_fd(tmp_path, capsys):
    spec = u1_spec(tmp_path)
    theta = [0.4, 1.1, 0.2]
    rc = cli.main(["grad", spec, "--theta", "0.4,1.1,0.2", "--kind", "partial"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    c = circuit.CircuitSpec(1, (
        circuit.rotation("Y", (0,), param=0),
        circuit.rotation("X", (0,), param=1),
        circuit.Gate(pauli.parse_pauli_sum("-I", 1), (0,), param=2),
    ), 3)
    psi0 = np.array([1, 1]) / np.sqrt(2)
    m = pauli.parse_pauli_sum("Z", 1)
    h = 1e-5
    for j in range(3):
        step = np.eye(3)[j] * h
        fd = (circuit.cost(c, np.array(theta) + step, psi0, m) -
              circuit.cost(c, np.array(theta) - step, psi0, m)) / (2 * h)
        assert payload["partial"][j] == pytest.approx(fd, abs=1e-6)


def test_grad_covariant_equivariant_observable_left(tmp_path, capsys):
    # observable commuting with the symmetry: projected equals partial
    spec = write_spec(tmp_path, {
        "circuit": {"n_qubits": 1, "n_params": 2,
                    "gates": [{"h": "0.5*Y", "wires": [0], "param": 0},
                              {"h": "0.5*X", "wires": [0], "param": 1}]},
        "initial_state": "0",
        "symmetry": {"generators": ["i*Z"], "action": "left"},
        "observable": "0.8*Z",
    })
    rc = cli.main(["grad", spec, "--theta", "0.5,0.9", "--kind", "covariant"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert np.allclose(payload["projected"], payload["partial"], atol=1e-10)


def test_grad_shape_mismatch_exit_2(tmp_path):
    assert cli.main(["grad", u1_spec(tmp_path), "--theta", "0.1,0.2"]) == 2


def test_grad_entangling_vector_potential_pattern(tmp_path, capsys):
    # converge first, then inspect A at the optimum via the grad command
    prob = cli.entangling_problem(seed=0)
    psi0 = prob.initial_state()
    trace = natgrad.optimize("gd", prob.circuit, None, psi0, prob.cost,
                             lr=0.5, max_iter=2000, tol=1e-11, seed=0)
    theta = ",".join(repr(float(t)) for t in trace.final.theta)
    rc = cli.main(["grad", "entangling", "--theta", theta, "--kind", "covariant",
                   "--seed", "0"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    a = np.array(payload["vector_potential"])
    want = np.array([[0.0, 0.0, -0.25], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    assert np.max(np.abs(a - want)) < 1e-6


def test_optimize_entangling_demo(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    rc = cli.main(["optimize", "entangling", "--seed", "0", "--out", str(out)])
    summary = capsys.readouterr().out
    assert rc == 0
    assert "converged=True" in summary
    assert "X1_pre=" in summary and "Z2_pre=" in summary
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("iter,theta_0,theta_1,theta_2,cost,grad_norm")
    final_cost = float(lines[-1].split(",")[4])
    assert final_cost < 1e-8


def test_optimize_csv_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(["optimize", "entangling", "--seed", "1", "--out", str(a)]) == 0
    assert cli.main(["optimize", "entangling", "--seed", "1", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_optimize_stationary_start_single_row(tmp_path, capsys):
    spec = write_spec(tmp_path, {
        "circuit": {"n_qubits": 1, "n_params": 1,
                    "gates": [{"h": "0.5*X", "wires": [0], "param": 0}]},
        "initial_state": "0",
        "observable": "I",
        "optimizer": {"method": "gd", "lr": 0.1, "seed": 0},
    })
    out = tmp_path / "t.csv"
    rc = cli.main(["optimize", spec, "--out", str(out)])
    assert rc == 0
    assert len(out.read_text().strip().split("\n")) == 2  # header + 1 record


def test_optimize_non_convergence_exit_4(tmp_path, capsys):
    out = tmp_path / "t.csv"
    rc = cli.main(["optimize", "entangling", "--seed", "0", "--max-iter", "1",
                   "--out", str(out)])
    assert rc == 4
    assert out.exists()  # trace still written


def test_optimize_qng_equals_cqng_with_global_phase(tmp_path):
    base = {
        "circuit": {"n_qubits": 1, "n_params": 2,
                    "gates": [{"h": "0.5*Y", "wires": [0], "param": 0},
                              {"h": "0.5*X", "wires": [0], "param": 1}]},
        "initial_state": "0",
        "symmetry": {"generators": ["i*I"], "action": "left"},
        "observable": "Z",
        "optimizer": {"method": "qng", "lr": 0.2, "max_iter": 40, "tol": 0.0, "seed": 5},
    }
    outs = {}
    for method in ("qng", "cqng"):
        base["optimizer"]["method"] = method
        spec = write_spec(tmp_path, base, name=f"{method}.json")
        out = tmp_path / f"{method}.csv"
        cli.main(["optimize", spec, "--out", str(out)])
        rows = [r.split(",") for r in out.read_text().strip().split("\n")[1:]]
        outs[method] = np.array([[float(v) for v in r[:5]] for r in rows])
    assert np.max(np.abs(outs["qng"] - outs["cqng"])) < 1e-10


def test_cqng_without_symmetry_exit_2(tmp_path):
    spec = write_spec(tmp_path, {
        "circuit": {"n_qubits": 1, "n_params": 1,
                    "gates": [{"h": "0.5*X", "wires": [0], "param": 0}]},
        "initial_state": "0",
        "observable": "Z",
        "optimizer": {"method": "cqng", "lr": 0.1, "seed": 0},
    })
    assert cli.main(["optimize", spec]) == 2


def test_initial_state_forms(tmp_path):
    prob = cli.load_problem(write_spec(tmp_path, {
        "circuit": {"n_qubits": 1, "n_params": 0, "gates": []},
        "initial_state": "random_product:5",
    }))
    a = prob.initial_state()
    assert np.allclose(a, circuit.random_product_state(1, 5))
    b = prob.initial_state(seed_override=9)
    assert np.allclose(b, circuit.random_product_state(1, 9))
    with pytest.raises(cli.SpecError):
        cli.resolve_initial_state("001", 1)
    with pytest.raises(cli.SpecError):
        cli.resolve_initial_state([0.0, 0.0], 1)


def test_symmetry_from_strings_orthonormalizes():
    sym = cli.symmetry_from_strings(["2i*Z", "i*Z + i*I"], "left", 1)
    assert sym.generators.dim == 2
    for a in range(2):
        for b in range(2):
            want = 1.0 if a == b else 0.0
            got = np.trace(sym.generators.basis[a].conj().T @ sym.generators.basis[b]).real / 2
            assert got == pytest.approx(want, abs=1e-12)


def test_symmetry_basis_rank_follows_symflow_tol(tmp_path, capsys, monkeypatch):
    # the second generator adds a direction of relative size 1e-11: below
    # the default cut of 1e-10, above a cut of 1e-12
    spec = write_spec(tmp_path, {
        "circuit": {"n_qubits": 2, "n_params": 0, "gates": []},
        "initial_state": "00",
        "symmetry": {"generators": ["i*ZI", "i*ZI + 1e-11i*IZ"], "action": "left"},
    })
    monkeypatch.delenv("SYMFLOW_TOL", raising=False)
    assert cli.main(["decompose", spec]) == 0
    assert "center=1 symmetry_centerless=0" in capsys.readouterr().out
    monkeypatch.setenv("SYMFLOW_TOL", "1e-12")
    assert cli.main(["decompose", spec]) == 0
    assert "center=2 symmetry_centerless=0" in capsys.readouterr().out


def test_symmetry_rejects_non_skew(tmp_path):
    with pytest.raises(cli.SpecError):
        cli.symmetry_from_strings(["Z"], "left", 1)


def optimizer_spec(tmp_path, **fields):
    with open(u1_spec(tmp_path)) as fh:
        data = json.load(fh)
    data["optimizer"].update(fields)
    return write_spec(tmp_path, data, name="optimizer.json")


@pytest.mark.parametrize("field, value", [
    ("seed", "abc"),
    ("seed", 1.5),
    ("seed", -1),
    ("max_iter", -3),
    ("max_iter", "7"),
    ("tol", "inf"),
    ("tol", -1e-9),
    ("lr", "nan"),
    ("lr", 0.0),
    ("lr", None),
    ("lr", True),
    ("lr", "0.5"),
    ("tol", False),
    ("tol", "1e-9"),
])
def test_optimize_bad_optimizer_field_exit_2(tmp_path, capsys, field, value):
    spec = optimizer_spec(tmp_path, **{field: value})
    assert cli.main(["optimize", spec, "--out", str(tmp_path / "t.csv")]) == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("flags", [["--max-iter", "-3"], ["--lr", "nan"], ["--lr", "-0.5"]])
def test_optimize_bad_override_exit_2(tmp_path, flags):
    out = tmp_path / "t.csv"
    assert cli.main(["optimize", "entangling", *flags, "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("command", ["grad", "optimize"])
@pytest.mark.parametrize("seed", ["-1", "1_0", " 1", "abc"])
def test_bad_seed_flag_exit_2(tmp_path, capsys, command, seed):
    """A --seed value is an integer >= 0 written in ASCII digits."""
    out = tmp_path / "out.txt"
    assert cli.main([command, "entangling", "--seed", seed, "--out", str(out)]) == 2
    assert f"--seed must be an integer >= 0 written in digits, got {seed!r}" in \
        capsys.readouterr().err
    assert not out.exists()


BARE_PROBLEM = {"circuit": {"n_qubits": 1, "n_params": 1,
                            "gates": [{"h": "0.5*X", "wires": [0], "param": 0}]},
                "initial_state": "0"}
SYMMETRY_Z = {"generators": ["i*Z"], "action": "left"}
OPTIMIZER_GD = {"method": "gd", "lr": 0.1, "seed": 0}


@pytest.mark.parametrize("argv, blocks, missing", [
    (["decompose"], {"observable": "Z"}, "a symmetry block"),
    (["grad"], {"symmetry": SYMMETRY_Z}, "an observable block"),
    (["grad", "--kind", "covariant"], {"observable": "Z"}, "a symmetry block"),
    (["grad", "--kind", "equivariant"], {"observable": "Z"}, "a symmetry block"),
    (["optimize"], {"optimizer": OPTIMIZER_GD}, "observable and optimizer blocks"),
    (["optimize"], {"observable": "Z"}, "observable and optimizer blocks"),
], ids=["decompose", "grad", "grad-covariant", "grad-equivariant", "optimize-no-observable",
        "optimize-no-optimizer"])
def test_missing_block_exit_2(tmp_path, capsys, argv, blocks, missing):
    """A command whose problem lacks a block it needs exits 2, names the
    block and writes no output file."""
    spec = write_spec(tmp_path, {**BARE_PROBLEM, **blocks})
    out = tmp_path / "out.txt"
    assert cli.main([argv[0], spec, *argv[1:], "--out", str(out)]) == 2
    assert f"needs {missing}" in capsys.readouterr().err
    assert not out.exists()


NAN, INF = float("nan"), float("inf")


MALFORMED = {
    "param-float": ("param", lambda d: d["circuit"]["gates"][0].update(param=0.0)),
    "param-bool": ("param", lambda d: d["circuit"]["gates"][0].update(param=False)),
    "angle-list": ("angle", lambda d: d["circuit"]["gates"][1].update(angle=[1])),
    "angle-nan": ("angle", lambda d: d["circuit"]["gates"][1].update(angle=NAN)),
    "scale-nan": ("scale", lambda d: d["circuit"]["gates"][1].update(scale=NAN)),
    "angle-bool": ("angle", lambda d: d["circuit"]["gates"][1].update(angle=True)),
    "angle-str": ("angle", lambda d: d["circuit"]["gates"][1].update(angle="2.5")),
    "angle-huge-int": ("angle", lambda d: d["circuit"]["gates"][1].update(angle=10**400)),
    "scale-bool": ("scale", lambda d: d["circuit"]["gates"][1].update(scale=True)),
    "scale-str": ("scale", lambda d: d["circuit"]["gates"][1].update(scale="-1")),
    "coeff-inf": ("inf", lambda d: d["circuit"]["gates"][1].update(h="inf*Z")),
    "amp-nan": ("initial_state", lambda d: d.update(initial_state=[NAN, 1.0])),
    "amp-inf": ("initial_state", lambda d: d.update(initial_state=[INF, 1.0])),
    "amp-pair-nan": ("initial_state", lambda d: d.update(initial_state=[[1.0, NAN], [0.0, 0.0]])),
    "amp-pair-str": ("initial_state", lambda d: d.update(initial_state=[["a", 1.0], [0.0, 0.0]])),
    "amp-bool": ("initial_state", lambda d: d.update(initial_state=[True, False])),
    "amp-str": ("initial_state", lambda d: d.update(initial_state=["1", "0"])),
    "amp-pair-bool": ("initial_state", lambda d: d.update(initial_state=[[True, 0], [0, 0]])),
    "random-product-negative": ("initial_state", lambda d: d.update(
        initial_state="random_product:-1")),
    "random-product-str": ("initial_state", lambda d: d.update(
        initial_state="random_product:abc")),
    "coeff-nan": ("nan", lambda d: d.update(observable="Z + nan*Y")),
    "observable-non-hermitian": ("observable", lambda d: d.update(observable="i*Z")),
    "observable-no-terms": ("observable", lambda d: d.update(
        observable={"kind": "squared_sum", "terms": []})),
    "observable-terms-str": ("observable", lambda d: d.update(
        observable={"kind": "squared_sum", "terms": "XZ"})),
    "observable-terms-object": ("observable", lambda d: d.update(
        observable={"kind": "squared_sum", "terms": {"X": 1}})),
    "state-int": ("initial_state", lambda d: d.update(initial_state=5)),
    "generators-int": ("symmetry", lambda d: d.update(symmetry={"generators": 5})),
    "generators-int-list": ("symmetry", lambda d: d.update(symmetry={"generators": [5]})),
    "circuit-list": ("circuit", lambda d: d.update(circuit=[])),
    "h-int": ("h must be", lambda d: d["circuit"]["gates"][0].update(h=5)),
    "n_qubits-float": ("n_qubits must be", lambda d: d["circuit"].update(n_qubits=1.5)),
    "n_qubits-integral-float": ("n_qubits must be", lambda d: d["circuit"].update(n_qubits=1.0)),
    "n_qubits-bool": ("n_qubits must be", lambda d: d["circuit"].update(n_qubits=True)),
    "n_qubits-str": ("n_qubits must be", lambda d: d["circuit"].update(n_qubits="1")),
    "n_qubits-zero": ("n_qubits must be", lambda d: d["circuit"].update(n_qubits=0)),
    "n_qubits-above-cap": ("n_qubits must be", lambda d: d["circuit"].update(n_qubits=11)),
    "n_params-float": ("n_params must be", lambda d: d["circuit"].update(n_params=1.0)),
    "n_params-bool": ("n_params must be", lambda d: d["circuit"].update(n_params=True)),
    "n_params-str": ("n_params must be", lambda d: d["circuit"].update(n_params="1")),
    "n_params-negative": ("n_params must be", lambda d: d["circuit"].update(n_params=-1)),
    "wires-float": ("wires must be", lambda d: d["circuit"]["gates"][0].update(wires=[0.0])),
    "wires-bool": ("wires must be", lambda d: d["circuit"]["gates"][0].update(wires=[False])),
    "wires-str": ("wires must be", lambda d: d["circuit"]["gates"][0].update(wires=["0"])),
}


@pytest.mark.parametrize("field, edit", MALFORMED.values(), ids=MALFORMED.keys())
def test_grad_malformed_input_exit_2(tmp_path, capsys, field, edit):
    data = {
        "circuit": {"n_qubits": 1, "n_params": 1, "gates": [
            {"h": "0.5*Y", "wires": [0], "param": 0},
            {"h": "0.5*Z", "wires": [0], "angle": 0.3}]},
        "initial_state": [1.0, 0.0],
        "observable": "Z",
    }
    edit(data)
    assert cli.main(["grad", write_spec(tmp_path, data)]) == 2
    assert field in capsys.readouterr().err


def test_integer_numbers_load(tmp_path):
    """JSON integers are numbers: integral angles, scales and amplitudes load."""
    data = {"circuit": {"n_qubits": 1, "n_params": 0, "gates": [
        {"h": "Z", "wires": [0], "angle": 1, "scale": -1}]},
        "initial_state": [[1, 0], 0], "observable": "Z"}
    assert cli.main(["grad", write_spec(tmp_path, data), "--out", str(tmp_path / "g.json")]) == 0


def test_forty_qubit_file_exit_2(tmp_path, capsys):
    """The qubit count is checked against the dense cap before any
    2^n-sized array is built."""
    spec = write_spec(tmp_path, {"circuit": {"n_qubits": 40, "n_params": 0, "gates": []},
                                 "initial_state": "0" * 40, "observable": "Z" * 40})
    assert cli.main(["grad", spec]) == 2
    assert "n_qubits must be an integer in 1..10, got 40" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["grad", "optimize", "decompose"])
def test_n_params_above_gate_count_exit_2(tmp_path, capsys, command):
    """Each parameter drives at most one gate, so a larger n_params is
    rejected when the file is loaded, before any parameter-sized array."""
    spec = write_spec(tmp_path, {
        "circuit": {"n_qubits": 1, "n_params": 10**13,
                    "gates": [{"h": "0.5*Y", "wires": [0], "param": 0}]},
        "initial_state": "0",
        "symmetry": {"generators": ["i*Z"]},
        "observable": "Z",
        "optimizer": {"method": "gd", "max_iter": 1},
    })
    assert cli.main([command, spec, "--out", str(tmp_path / "out")]) == 2
    assert "n_params 10000000000000 exceeds the gate count 1" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["abc", "nan", "inf", "-1", "0", "1"])
def test_bad_symflow_tol_exit_2(tmp_path, capsys, monkeypatch, value):
    monkeypatch.setenv("SYMFLOW_TOL", value)
    assert cli.main(["decompose", su2_spec(tmp_path)]) == 2
    assert "SYMFLOW_TOL" in capsys.readouterr().err


def test_inconsistent_decomposition_exit_3(tmp_path, capsys, monkeypatch):
    # a cut at 0.9 of the largest singular value drops real directions, so
    # the four dimensions no longer add up to d^2
    monkeypatch.setenv("SYMFLOW_TOL", "0.9")
    assert cli.main(["decompose", su2_spec(tmp_path)]) == 3
    assert "dimensions sum to" in capsys.readouterr().err

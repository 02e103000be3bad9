"""Command-line frontend.

Subcommands:
  decompose  four-way split of u(d) for the problem's symmetry algebra
  grad       partial / equivariant / covariant cost derivatives at a point
  optimize   gd / qng / cqng run with a CSV trajectory and a summary line

Problems are JSON files (see README); the literal spec path ``entangling``
loads the built-in two-qubit maximal-entangling demo.  The loader checks
the JSON type of every block and field it reads.  Exit codes: 0 success,
2 malformed problem or bad ``SYMFLOW_TOL``, 3 algebra contract error or
failed algebra computation, 4 optimizer did not converge.  The
``SYMFLOW_TOL`` environment variable sets the relative rank tolerance of
every rank decision, the orthonormalization of the symmetry generators
included; it must be a finite number in (0, 1) and is checked before any
work.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import circuit, liealg, natgrad, pauli, symgrad
from .nummat import ContractViolation, GramSchmidt, rank_tol
from .tangent import SymmetrySpec


class SpecError(ValueError):
    """Malformed problem specification."""


@dataclass
class OptimizerConfig:
    method: str = "gd"
    lr: float = 0.5
    max_iter: int = 2000
    tol: float = 1e-9
    seed: int | None = 0


@dataclass
class Problem:
    circuit: circuit.CircuitSpec
    initial_state_spec: object
    symmetry: SymmetrySpec | None = None
    cost: circuit.CostSpec | None = None
    optimizer: OptimizerConfig | None = None

    def initial_state(self, seed_override: int | None = None) -> np.ndarray:
        return resolve_initial_state(
            self.initial_state_spec, self.circuit.n_qubits, seed_override
        )


def resolve_initial_state(spec, n_qubits: int, seed_override: int | None = None) -> np.ndarray:
    if isinstance(spec, str):
        if spec.startswith("random_product:"):
            seed = int(spec.split(":", 1)[1]) if seed_override is None else seed_override
            return circuit.random_product_state(n_qubits, seed)
        if len(spec) != n_qubits:
            raise SpecError(f"basis label {spec!r} has wrong length for {n_qubits} qubits")
        return circuit.basis_state(spec)
    if not isinstance(spec, (list, tuple)):
        raise SpecError(f"bad initial_state {spec!r}: expected a basis label or an amplitude list")
    amps = []
    for entry in spec:
        pair = isinstance(entry, (list, tuple))
        if pair and len(entry) != 2:
            raise SpecError(f"amplitude entry {entry!r} is not a [re, im] pair")
        real, imag = entry if pair else (entry, 0.0)
        amps.append(complex(_finite(real, "initial_state amplitude"),
                            _finite(imag, "initial_state amplitude")))
    psi = np.asarray(amps, dtype=complex)
    if psi.shape != (2**n_qubits,):
        raise SpecError(f"state has {psi.size} amplitudes, expected {2 ** n_qubits}")
    norm = np.linalg.norm(psi)
    if norm < 1e-12:
        raise SpecError("state vector is zero")
    return psi / norm


def symmetry_from_strings(strings, action: str, n_qubits: int) -> SymmetrySpec:
    """Symmetry spanned by the generator strings, orthonormalized in order."""
    d = 2**n_qubits
    mats = []
    for text in strings:
        p = pauli.parse_pauli_sum(text, n_qubits)
        if not p.is_skew_hermitian():
            raise SpecError(f"symmetry generator {text!r} is not skew-Hermitian")
        mats.append(pauli.to_matrix(p))
    rows = GramSchmidt(d * d).extend(liealg.coords(np.reshape(mats, (-1, d, d)), d))
    return SymmetrySpec(liealg.Subspace(d, rows), action)


def _finite(value, name: str) -> float:
    """A finite JSON number (int or float, not bool) as a float."""
    try:
        x = float(value) if _is_number(value) else float("nan")
    except OverflowError:  # an int beyond the float range
        x = float("inf")
    if not np.isfinite(x):
        raise SpecError(f"{name} must be a finite number, got {value!r}")
    return x


def _parse_gate(entry: dict) -> circuit.Gate:
    try:
        wires = tuple(entry["wires"])
        if not all(_is_int(w) for w in wires):
            raise SpecError(f"wires must be JSON integers, got {entry['wires']!r}")
        if not isinstance(entry["h"], str):
            raise SpecError(f"h must be a Pauli-sum string, got {entry['h']!r}")
        gen = pauli.parse_pauli_sum(entry["h"], len(wires))
        param, angle = entry.get("param"), entry.get("angle")
        if param is not None and not _is_int(param):
            raise SpecError(f"param must be an integer, got {param!r}")
        return circuit.Gate(
            generator=gen,
            wires=wires,
            param=param,
            angle=None if angle is None else _finite(angle, "angle"),
            scale=_finite(entry.get("scale", -1.0), "scale"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecError(f"bad gate entry {entry!r}: {exc}") from exc


def load_problem(path: str) -> Problem:
    if path == "entangling":
        return entangling_problem()
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SpecError(f"cannot load problem file {path!r}: {exc}") from exc
    return problem_from_dict(data)


def problem_from_dict(data: dict) -> Problem:
    try:
        cdata = data["circuit"]
        if not isinstance(cdata, dict):
            raise SpecError(f"bad circuit block {cdata!r}: expected an object")
        n, p, cap = cdata["n_qubits"], cdata["n_params"], circuit.DENSE_QUBIT_CAP
        if not (_is_int(n) and 1 <= n <= cap):
            raise SpecError(f"n_qubits must be an integer in 1..{cap}, got {n!r}")
        if not (_is_int(p) and p >= 0):
            raise SpecError(f"n_params must be an integer >= 0, got {p!r}")
        c = circuit.CircuitSpec(n, tuple(_parse_gate(g) for g in cdata.get("gates", [])), p)
        if p > len(c.gates):  # each parameter drives at most one gate
            raise SpecError(f"n_params {p} exceeds the gate count {len(c.gates)}")
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, SpecError):
            raise
        raise SpecError(f"bad circuit block: {exc}") from exc
    n = c.n_qubits

    sym = None
    if "symmetry" in data:
        block = data["symmetry"]
        try:
            strings = block["generators"]
            action = block.get("action", "left")
        except (KeyError, TypeError) as exc:
            raise SpecError(f"bad symmetry block: {exc}") from exc
        if not isinstance(strings, list) or not all(isinstance(t, str) for t in strings):
            raise SpecError(f"bad symmetry block: generators {strings!r} are not strings")
        sym = symmetry_from_strings(strings, action, n)

    cost = None
    if "observable" in data:
        entry = data["observable"]
        squared = isinstance(entry, dict) and entry.get("kind") == "squared_sum"
        if not (isinstance(entry, str) or squared and entry.get("terms")):
            raise SpecError(f"bad observable entry {entry!r} (a squared_sum needs terms)")
        try:
            texts = entry["terms"] if squared else [entry]
            terms = tuple(pauli.parse_pauli_sum(t, n) for t in texts)
            cost = circuit.SquaredSumCost(terms) if squared else circuit.ExpectationCost(terms[0])
        except (AttributeError, TypeError, ValueError) as exc:
            raise SpecError(f"bad observable {entry!r}: {exc}") from exc

    opt = None
    if "optimizer" in data:
        block = data["optimizer"]
        if not isinstance(block, dict):
            raise SpecError(f"bad optimizer block {block!r}")
        opt = OptimizerConfig(
            method=block.get("method", "gd"),
            lr=_finite(block.get("lr", 0.5), "optimizer lr"),
            max_iter=block.get("max_iter", 2000),
            tol=_finite(block.get("tol", 1e-9), "optimizer tol"),
            seed=block.get("seed"),
        )
        check_optimizer(opt)
        if opt.method == "cqng" and sym is None:
            raise SpecError("cqng requires a symmetry block")

    if "initial_state" not in data:
        raise SpecError("problem needs an initial_state")
    resolve_initial_state(data["initial_state"], n)  # validate eagerly
    return Problem(c, data["initial_state"], sym, cost, opt)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def check_optimizer(cfg: OptimizerConfig) -> None:
    """Reject optimizer settings the run cannot use: ``seed`` an int or
    None, ``lr`` finite and > 0, ``tol`` finite and >= 0 (0 runs all
    ``max_iter`` steps), ``max_iter`` an int >= 0."""
    if cfg.method not in ("gd", "qng", "cqng"):
        raise SpecError(f"unknown optimizer method {cfg.method!r}")
    if cfg.seed is not None and not _is_int(cfg.seed):
        raise SpecError(f"optimizer seed must be an integer or null, got {cfg.seed!r}")
    if not (np.isfinite(cfg.lr) and cfg.lr > 0):
        raise SpecError(f"optimizer lr must be finite and > 0, got {cfg.lr!r}")
    if not (np.isfinite(cfg.tol) and cfg.tol >= 0):
        raise SpecError(f"optimizer tol must be finite and >= 0, got {cfg.tol!r}")
    if not _is_int(cfg.max_iter) or cfg.max_iter < 0:
        raise SpecError(f"optimizer max_iter must be an integer >= 0, got {cfg.max_iter!r}")


def entangling_problem(seed: int = 0) -> Problem:
    """Built-in two-qubit demo: drive the first qubit's Bloch vector to
    zero, which forces the controlled-X angle to pi and maximal
    entanglement."""
    crx_gen = pauli.parse_pauli_sum("0.25*XI - 0.25*XZ", 2)  # X (x) |1><1| / 2
    gates = (
        circuit.rotation("Y", (0,), param=0),
        circuit.rotation("Y", (1,), param=1),
        circuit.Gate(crx_gen, (0, 1), param=2),
    )
    c = circuit.CircuitSpec(2, gates, 3)
    sym = symmetry_from_strings(["i*XI", "i*YI", "i*ZI"], "left", 2)
    cost = circuit.SquaredSumCost(tuple(
        pauli.parse_pauli_sum(w, 2) for w in ("XI", "YI", "ZI")
    ))
    return Problem(c, f"random_product:{seed}", sym, cost,
                   OptimizerConfig(method="gd", lr=0.5, max_iter=2000, tol=1e-9, seed=seed))


def pre_entangler_circuit(c: circuit.CircuitSpec) -> circuit.CircuitSpec:
    """Circuit truncated just before its last multi-wire gate."""
    cut = len(c.gates)
    for k in range(len(c.gates) - 1, -1, -1):
        if len(c.gates[k].wires) > 1:
            cut = k
            break
    return circuit.CircuitSpec(c.n_qubits, c.gates[:cut], c.n_params)


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_decompose(args) -> int:
    problem = load_problem(args.spec)
    if problem.symmetry is None:
        raise SpecError("decompose needs a symmetry block")
    fd = liealg.four_decomposition(problem.symmetry.generators)
    lines = [
        f"ambient: u({problem.circuit.dim})",
        "dims: r={} commutant_centerless={} center={} symmetry_centerless={}".format(
            *fd.dims
        ),
    ]
    lines += liealg.subspace_report(fd.r, "r (purely covariant remainder)")
    lines += liealg.subspace_report(fd.ut_centerless, "commutant_centerless (equivariant and covariant)")
    lines += liealg.subspace_report(fd.center_t, "center (purely equivariant)")
    lines += liealg.subspace_report(fd.t_centerless, "symmetry_centerless (purely vertical)")
    _write("\n".join(lines) + "\n", args.out)
    return 0


def cmd_grad(args) -> int:
    problem = load_problem(args.spec)
    c = problem.circuit
    theta = np.array([float(x) for x in args.theta.split(",")]) if args.theta else \
        np.zeros(c.n_params)
    theta = circuit.check_theta(c, theta)
    psi0 = problem.initial_state(args.seed)
    if problem.cost is None:
        raise SpecError("grad needs an observable block")

    payload: dict = {"kind": args.kind, "theta": theta.tolist()}
    if args.kind == "partial":
        payload["partial"] = circuit.cost_gradient(c, theta, psi0, problem.cost).tolist()
    else:
        if problem.symmetry is None:
            raise SpecError(f"kind={args.kind} needs a symmetry block")
        report = symgrad.projected_cost_report(
            args.kind, problem.symmetry, c, theta, psi0, problem.cost
        )
        payload.update(json.loads(report.to_json()))
    _write(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    return 0


def cmd_optimize(args) -> int:
    problem = load_problem(args.spec)
    if problem.cost is None or problem.optimizer is None:
        raise SpecError("optimize needs observable and optimizer blocks")
    cfg = problem.optimizer
    seed = args.seed if args.seed is not None else cfg.seed
    lr = args.lr if args.lr is not None else cfg.lr
    max_iter = args.max_iter if args.max_iter is not None else cfg.max_iter
    check_optimizer(OptimizerConfig(cfg.method, lr, max_iter, cfg.tol, seed))
    c = problem.circuit
    psi0 = problem.initial_state(seed)

    monitor = None
    if c.n_qubits >= 2:
        pre = pre_entangler_circuit(c)
        x1, z2 = (circuit.ExpectationCost(pauli.parse_pauli_sum(w, c.n_qubits))
                  for w in ("X" + "I" * (c.n_qubits - 1), "IZ" + "I" * (c.n_qubits - 2)))

        def monitor(th):
            psi = circuit.apply(pre, th, psi0)
            return {"X1_pre": x1.value_and_covector(psi)[0],
                    "Z2_pre": z2.value_and_covector(psi)[0]}

    trace = natgrad.optimize(
        cfg.method, c, None, psi0, problem.cost, lr=lr, max_iter=max_iter,
        tol=cfg.tol, sym=problem.symmetry, seed=seed, monitor=monitor,
    )
    _write(trace.to_csv(), args.out or "trace.csv")

    final = trace.final
    summary = (
        f"final_cost={final.cost!r} grad_norm={final.grad_norm!r} "
        f"theta={[float(t) for t in final.theta]!r} iterations={final.iteration} "
        f"converged={trace.converged}"
    )
    for name, value in final.extras.items():
        summary += f" {name}={value!r}"
    if problem.symmetry is not None:
        a = symgrad.vector_potential(problem.symmetry, c, final.theta, psi0)
        summary += f" vector_potential={np.round(a, 10).tolist()!r}"
    print(summary)
    return 0 if trace.converged else 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symflow",
        description="Symmetry-aware derivatives of parametrized quantum circuits",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_dec = sub.add_parser("decompose", help="four-way split of u(d) for the symmetry")
    p_dec.add_argument("spec")
    p_dec.add_argument("--out", default=None)
    p_dec.set_defaults(func=cmd_decompose)

    p_grad = sub.add_parser("grad", help="cost derivatives at a parameter point")
    p_grad.add_argument("spec")
    p_grad.add_argument("--theta", default=None, help="comma-separated angles")
    p_grad.add_argument("--kind", choices=("partial", "equivariant", "covariant"),
                        default="partial")
    p_grad.add_argument("--seed", type=int, default=None)
    p_grad.add_argument("--out", default=None)
    p_grad.set_defaults(func=cmd_grad)

    p_opt = sub.add_parser("optimize", help="run the configured optimizer")
    p_opt.add_argument("spec")
    p_opt.add_argument("--out", default=None, help="trace CSV path (default trace.csv)")
    p_opt.add_argument("--seed", type=int, default=None)
    p_opt.add_argument("--lr", type=float, default=None)
    p_opt.add_argument("--max-iter", type=int, default=None)
    p_opt.set_defaults(func=cmd_optimize)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        rank_tol()  # a bad SYMFLOW_TOL fails here, before any work
        return args.func(args)
    except (ContractViolation, liealg.AlgebraFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (SpecError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

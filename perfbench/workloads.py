"""The benchmark workloads: input generation, the op each request
runs, and the independent oracle that checks the op's output.

Every input is derived from ``(workload, seed, op index)`` through numpy's
seeded generator, so a seed always yields the same inputs and any seed
yields inputs of the same sizes.  symflow sees only the generated problem
files and arrays.  Ops run in a fixed cycle of kinds; the timed loop stops
at a cycle boundary so every run has the same mix of kinds.
"""
from __future__ import annotations

import ast
import contextlib
import io
import itertools
import json
import re
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from symflow import circuit, cli, estimators, pauli, symgrad, tangent

TWO_PI = 2.0 * np.pi

_PAULI_1Q = {"I": np.eye(2, dtype=complex),
             "X": np.array([[0, 1], [1, 0]], dtype=complex),
             "Y": np.array([[0, -1j], [1j, 0]]),
             "Z": np.diag([1.0 + 0j, -1.0])}


class OracleError(Exception):
    """An op's output disagrees with its oracle."""


def _check(cond: bool, message: str) -> None:
    if not cond:
        raise OracleError(message)


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str
    out_path: Path


def run_cli(argv: list[str], out_path: Path) -> CliResult:
    """One in-process ``symflow`` invocation with its output sent to a file."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main([*argv, "--out", str(out_path)])
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code if isinstance(exc.code, int) else 1
    return CliResult(code, out.getvalue(), err.getvalue(), out_path)


@dataclass
class Op:
    """One user-level request: ``call`` is timed, ``check`` is not.

    ``check`` raises :class:`OracleError` on a wrong answer.  ``stall``
    tells whether a result is the known cqng stall: a failed op, but a
    documented outcome rather than a wrong answer.
    """

    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], None]
    stall: Callable[[Any], bool] | None = None


class Workload:
    """Base class: ``cycle`` lists the op kinds, ``op(i)`` builds op i."""

    name = ""
    cycle: tuple[str, ...] = ()

    def __init__(self, workdir: Path, seed: int):
        self.workdir = workdir
        self.seed = seed
        self.tag = zlib.crc32(self.name.encode())
        self.prepare()

    def rng(self, *key: int) -> np.random.Generator:
        return np.random.default_rng([self.tag, self.seed, *key])

    def prepare(self) -> None:
        """Write the problem files shared by all ops."""

    def op(self, i: int) -> Op:
        raise NotImplementedError

    def warmup(self) -> Op:
        """The untimed op run during set-up; inputs distinct from op 0."""
        return self.op(-1)

    def final_checks(self) -> None:
        """Checks that span several ops, run once after the timed loop."""

    def sizes(self) -> dict:
        raise NotImplementedError


def _write_json(path: Path, data: dict) -> Path:
    path.write_text(json.dumps(data, indent=1))
    return path


def _random_word(rng: np.random.Generator, n: int, weight: int) -> str:
    word = ["I"] * n
    for q in rng.choice(n, size=weight, replace=False):
        word[q] = "XYZ"[rng.integers(3)]
    return "".join(word)


def _pauli_text(terms: list[tuple[float, str]]) -> str:
    out = []
    for pos, (c, word) in enumerate(terms):
        sign = "-" if c < 0 else ("" if pos == 0 else "+")
        out.append(f"{sign} {abs(c)!r}*{word}".strip())
    return " ".join(out)


def _random_observable(rng: np.random.Generator, n: int, n_terms: int) -> str:
    words: dict[str, float] = {}
    while len(words) < n_terms:
        words[_random_word(rng, n, int(rng.integers(1, 3)))] = float(rng.uniform(-1, 1))
    return _pauli_text(sorted((c, w) for w, c in words.items()))


def _random_state(rng: np.random.Generator, n: int) -> np.ndarray:
    psi = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return psi / np.linalg.norm(psi)


def _random_gates(rng: np.random.Generator, n: int, n_params: int,
                  n_fixed: int) -> list[dict]:
    """Pauli rotations on 1 or 2 wires, trainable and fixed interleaved."""
    trainable = rng.permutation(n_params + n_fixed) < n_params
    gates, j = [], 0
    for is_param in trainable:
        k = int(rng.integers(1, 3))
        wires = [int(w) for w in rng.choice(n, size=k, replace=False)]
        word = "".join("XYZ"[rng.integers(3)] for _ in range(k))
        gate = {"h": f"0.5*{word}", "wires": wires}
        if is_param:
            gate["param"] = j
            j += 1
        else:
            gate["angle"] = float(rng.uniform(0, TWO_PI))
        gates.append(gate)
    return gates


def _circuit(n: int, n_params: int, gates: list[dict]) -> circuit.CircuitSpec:
    problem = {"circuit": {"n_qubits": n, "n_params": n_params, "gates": gates},
               "initial_state": "0" * n}
    return cli.problem_from_dict(problem).circuit


def _collective(letter: str, n: int) -> str:
    return " + ".join("i*" + "I" * q + letter + "I" * (n - q - 1) for q in range(n))


# --------------------------------------------------------------------------
# entangle-opt
# --------------------------------------------------------------------------

# One --max-iter cap for both methods.  Every gd op's demo seed converges in
# at most POOL["max_gd_iterations"] (100) iterations, so only cqng, which
# stalls (cost ~1e-3 after 2000 iterations), reaches the cap.
MAX_ITER_CAP = 120
POOL = json.loads((Path(__file__).resolve().parent / "entangle_seeds.json").read_text())
ENTANGLE_TARGET_A = np.array([[0.0, 0.0, -0.25], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])


def _demo_state(seed: int) -> np.ndarray:
    """The demo's seeded random product state, computed without symflow."""
    rng = np.random.default_rng(seed)
    psi = np.ones(1, dtype=complex)
    for _ in range(2):
        amp = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        psi = np.kron(psi, amp / np.linalg.norm(amp))
    return psi


def _demo_observables(theta: np.ndarray, psi0: np.ndarray) -> tuple[float, float, float]:
    """Independent statevector model of the demo circuit: RY on each qubit,
    then RX(theta_2) on qubit 0 controlled by qubit 1.  Returns the cost
    (sum of squared qubit-0 Pauli expectations) and the pre-entangler
    <X x I> and <I x Z>."""
    def ry(t):
        c, s = np.cos(t / 2), np.sin(t / 2)
        return np.array([[c, -s], [s, c]], dtype=complex)

    eye, x, y, z = (_PAULI_1Q[ch] for ch in "IXYZ")
    pre = np.kron(ry(theta[0]), ry(theta[1])) @ psi0
    c, s = np.cos(theta[2] / 2), np.sin(theta[2] / 2)
    crx = np.kron(eye, np.diag([1.0, 0.0])) + np.kron(c * eye - 1j * s * x, np.diag([0.0, 1.0]))
    psi = crx @ pre

    def ev(state, op):
        return float(np.real(np.vdot(state, op @ state)))

    cost = sum(ev(psi, np.kron(p, eye)) ** 2 for p in (x, y, z))
    return cost, ev(pre, np.kron(x, eye)), ev(pre, np.kron(eye, z))


def parse_summary(text: str) -> dict:
    """Fields of the ``optimize`` summary line, ``name=<python literal>``."""
    line = text.strip().splitlines()[-1]
    fields = (part.split("=", 1) for part in re.split(r" (?=\w+=)", line))
    return {name: ast.literal_eval(value) for name, value in fields}


def _first_trace_row(path: Path) -> dict:
    """The first record of an ``optimize`` trace CSV, as numbers."""
    header, row = path.read_text().splitlines()[:2]
    return {k: float(v) for k, v in zip(header.split(","), row.split(","))}


class EntangleOpt(Workload):
    """Built-in 2-qubit demo (d=4, p=3): gd via ``optimize entangling`` and
    cqng via the same demo as a problem file.

    Each cycle runs one gd op and two cqng ops.  With one of each, the
    median op would fall in the gap between the two latency clusters and be
    set by the slowest gd op and the fastest cqng op alone, the two most
    noise-prone samples of a run.
    """

    name = "entangle-opt"
    cycle = ("gd", "cqng", "cqng")

    def prepare(self) -> None:
        self.cqng_spec = _write_json(self.workdir / "entangling_cqng.json", {
            "circuit": {"n_qubits": 2, "n_params": 3, "gates": [
                {"h": "0.5*Y", "wires": [0], "param": 0},
                {"h": "0.5*Y", "wires": [1], "param": 1},
                {"h": "0.25*XI - 0.25*XZ", "wires": [0, 1], "param": 2},
            ]},
            "symmetry": {"generators": ["i*XI", "i*YI", "i*ZI"], "action": "left"},
            "observable": {"kind": "squared_sum", "terms": ["XI", "YI", "ZI"]},
            "optimizer": {"method": "cqng", "lr": 0.5, "max_iter": MAX_ITER_CAP,
                          "tol": 1e-9, "seed": 0},
            "initial_state": "random_product:0",
        })
        self.first_gd: tuple[int, bytes] | None = None

    def demo_seed(self, i: int) -> int:
        """Op i's demo seed, drawn from the pool.  The warm-up op always
        uses the first pooled seed, so set-up time does not depend on
        ``--seed`` through the gd iteration count."""
        seeds = POOL["seeds"]
        return int(seeds[0] if i < 0 else seeds[self.rng(i + 1).integers(len(seeds))])

    def op(self, i: int) -> Op:
        kind = self.cycle[i % len(self.cycle)] if i >= 0 else "gd"
        s = self.demo_seed(i)
        spec = "entangling" if kind == "gd" else str(self.cqng_spec)
        out = self.workdir / "trace.csv"
        argv = ["optimize", spec, "--seed", str(s), "--max-iter", str(MAX_ITER_CAP)]

        def check(res: CliResult) -> None:
            _check(res.code == 0, f"{kind} seed {s}: exit code {res.code}")
            summary = parse_summary(res.stdout)
            theta = np.array(summary["theta"])
            cost, x1, z2 = _demo_observables(theta, _demo_state(s))
            _check(cost < 1e-8, f"{kind} seed {s}: final cost {cost:.3e}")
            _check(abs(theta[2] % TWO_PI - np.pi) < 1e-3,
                   f"{kind} seed {s}: theta_2 = {theta[2]!r}")
            _check(abs(x1) < 1e-4 and abs(z2) < 1e-4,
                   f"{kind} seed {s}: X1_pre={x1:.3e} Z2_pre={z2:.3e}")
            a = np.array(summary["vector_potential"])
            _check(np.max(np.abs(a - ENTANGLE_TARGET_A)) < 1e-6,
                   f"{kind} seed {s}: vector potential {a.tolist()}")
            if kind == "gd" and i >= 0 and self.first_gd is None:
                self.first_gd = (s, res.out_path.read_bytes())

        def stall(res: CliResult) -> bool:
            """True for the known cqng stall; its numbers are still checked:
            the reported cost must be finite, match the cost recomputed
            from the reported theta, and be below the cost at iteration 0."""
            if kind != "cqng" or res.code != 4:
                return False
            summary = parse_summary(res.stdout)
            if summary["iterations"] != MAX_ITER_CAP or summary["converged"] is not False:
                return False
            cost = summary["final_cost"]
            theta = np.array(summary["theta"])
            _check(np.isfinite(cost) and np.all(np.isfinite(theta)),
                   f"cqng seed {s}: non-finite result, cost {cost!r}")
            model, _, _ = _demo_observables(theta, _demo_state(s))
            _check(abs(model - cost) < 1e-10,
                   f"cqng seed {s}: reported cost {cost!r}, recomputed {model!r}")
            start = _first_trace_row(res.out_path)
            _check(start["iter"] == 0 and cost < start["cost"],
                   f"cqng seed {s}: cost {cost!r} not below iteration-0 cost {start['cost']!r}")
            return True

        return Op(kind, lambda: run_cli(argv, out), check, stall)

    def final_checks(self) -> None:
        """Re-run the first timed gd op: its trace CSV must match byte for byte."""
        _check(self.first_gd is not None, "no gd op completed")
        s, first = self.first_gd
        out = self.workdir / "trace_repeat.csv"
        run_cli(["optimize", "entangling", "--seed", str(s),
                 "--max-iter", str(MAX_ITER_CAP)], out)
        _check(out.read_bytes() == first, f"gd seed {s}: trace CSV differs on repeat")

    def sizes(self) -> dict:
        return {"n": 2, "p": 3, "gates": 3, "max_iter": MAX_ITER_CAP,
                "demo_seeds": len(POOL["seeds"])}


# --------------------------------------------------------------------------
# algebra-geometry
# --------------------------------------------------------------------------

_DIMS = re.compile(r"dims: r=(\d+) commutant_centerless=(\d+) center=(\d+) "
                   r"symmetry_centerless=(\d+)")


def _word(letters: dict[int, str], n: int) -> np.ndarray:
    """Full-register Pauli word with the given letter on each listed wire
    (wire 0 is the leftmost tensor factor), computed without symflow."""
    out = np.ones((1, 1), dtype=complex)
    for q in range(n):
        out = np.kron(out, _PAULI_1Q[letters.get(q, "I")])
    return out


def _unitary(gates: list[dict], theta: np.ndarray, n: int) -> np.ndarray:
    """Standalone circuit unitary for gates from :func:`_random_gates`:
    each is exp(-i a h P) = cos(a h) - i sin(a h) P for the generator
    h*P (h a number, P a Pauli word) and angle a."""
    u = np.eye(2**n, dtype=complex)
    for g in gates:
        h, word = g["h"].split("*")
        p = _word(dict(zip(g["wires"], word)), n)
        angle = theta[g["param"]] if "param" in g else g["angle"]
        phi = float(h) * angle
        u = (np.cos(phi) * np.eye(2**n) - 1j * np.sin(phi) * p) @ u
    return u


def _permutations(n: int):
    """The n! qubit-permutation operators, which span the commutant of
    collective su(2) (Schur-Weyl duality)."""
    eye = np.eye(2**n).reshape([2] * n + [2**n])
    for perm in itertools.permutations(range(n)):
        yield np.transpose(eye, [*perm, n]).reshape(2**n, 2**n)


def _rank(rows: np.ndarray) -> int:
    return int(np.linalg.matrix_rank(rows, tol=1e-8))


def _embed(v: np.ndarray) -> np.ndarray:
    return np.concatenate([v.real, v.imag])


class AlgebraGeometry(Workload):
    """``decompose`` on three 4-qubit symmetries, then the state four-way
    split and induced algebra split for collective su(2)."""

    name = "algebra-geometry"
    N = 4
    D = 2**N
    # symmetry generators, commutant dimension (closed form) and algebra dimension
    SYMMETRIES = {
        "su2": ([_collective(ch, 4) for ch in "XYZ"], 14, 3),   # Catalan C_4
        "u1": ([_collective("Z", 4)], 70, 1),                    # C(8, 4)
        "parity": (["i*ZZZZ"], 128, 1),                          # d^2 / 2
    }
    cycle = ("su2", "u1", "parity", "tangent")
    TANGENT_P, TANGENT_FIXED = 8, 2

    def prepare(self) -> None:
        self.specs = {
            key: _write_json(self.workdir / f"decompose_{key}.json", {
                "circuit": {"n_qubits": self.N, "n_params": 0, "gates": []},
                "symmetry": {"generators": gens, "action": "left"},
                "initial_state": "0" * self.N,
            })
            for key, (gens, _, _) in self.SYMMETRIES.items()
        }
        self.permutations = list(_permutations(self.N))
        self.su2 = {action: cli.symmetry_from_strings(self.SYMMETRIES["su2"][0], action, self.N)
                    for action in ("left", "theta")}

    def op(self, i: int) -> Op:
        kind = self.cycle[i % len(self.cycle)]
        if kind == "tangent":
            return self.tangent_op(i)
        out = self.workdir / f"decompose_{kind}.txt"
        argv = ["decompose", str(self.specs[kind])]
        _, commutant_dim, algebra_dim = self.SYMMETRIES[kind]

        def check(res: CliResult) -> None:
            _check(res.code == 0, f"op {i}: exit code {res.code}: {res.stderr.strip()}")
            m = _DIMS.search(res.out_path.read_text())
            _check(m is not None, f"op {i}: no dims line")
            r, ut, z, t = (int(x) for x in m.groups())
            _check(ut + z == commutant_dim,
                   f"{kind}: commutant dim {ut + z}, closed form {commutant_dim}")
            _check(t + z == algebra_dim, f"{kind}: symmetry dim {t + z}, expected {algebra_dim}")
            _check(r + ut + z + t == self.D**2, f"{kind}: dims sum to {r + ut + z + t}")

        return Op(kind, lambda: run_cli(argv, out), check)

    def tangent_op(self, i: int) -> Op:
        rng = self.rng(i + 2)
        gates = _random_gates(rng, self.N, self.TANGENT_P, self.TANGENT_FIXED)
        c = _circuit(self.N, self.TANGENT_P, gates)
        theta = rng.uniform(0, TWO_PI, self.TANGENT_P)
        psi0 = _random_state(rng, self.N)
        action = "left" if (i // len(self.cycle)) % 2 == 0 else "theta"
        sym = self.su2[action]

        def call():
            return (tangent.state_four_decomposition(sym, c, theta, psi0),
                    tangent.induced_algebra_split(sym, c, theta, psi0))

        def check(res) -> None:
            four, (u_par, u_perp) = res
            # identities of the library's construction, kept as sanity checks
            parts = (four.cov, four.both, four.equi, four.vert)
            total = sum(len(p) for p in parts) + four.residual_dim
            _check(total == 2 * self.D - 1, f"op {i}: tangent split sums to {total}")
            dims = u_par.dim + u_perp.dim
            _check(dims == self.D**2, f"op {i}: dim u_par + dim u_perp = {dims}")
            # independent checks against a standalone simulation
            u = _unitary(gates, theta, self.N)
            psi = u @ psi0
            gens = [1j * sum(_word({q: ch}, self.N) for q in range(self.N)) for ch in "XYZ"]

            def action_tangent(x):
                return x @ psi if action == "left" else u @ (x @ psi0)

            vertical = np.stack([_embed(action_tangent(z)) for z in gens])
            rank = _rank(vertical)
            _check(len(four.equi) + len(four.vert) == rank,
                   f"op {i}: equi + vert = {len(four.equi) + len(four.vert)}, "
                   f"vertical rank {rank}")
            # equivariant tangents: those of the skew span of the permutations
            equivariant = np.stack([_embed(action_tangent(x)) for p in self.permutations
                                    for x in (p - p.T, 1j * (p + p.T))])
            shared = _rank(equivariant) + rank - _rank(np.vstack([equivariant, vertical]))
            _check(len(four.equi) == shared,
                   f"op {i}: {len(four.equi)} equi vectors, dim(E & V) = {shared}")
            vecs = [v for p in parts for v in p]
            if vecs:
                rows = np.stack([_embed(v) for v in vecs])
                gram_err = np.max(np.abs(rows @ rows.T - np.eye(len(vecs))))
                _check(gram_err < 1e-8, f"op {i}: tangent split not orthonormal ({gram_err:.2e})")
                off = np.max(np.abs(rows @ _embed(psi)))
                _check(off < 1e-8, f"op {i}: split vectors not tangent at the state ({off:.2e})")
            horizontal = [v for p in (four.cov, four.both) for v in p]
            if horizontal:
                off = np.max(np.abs(np.stack([_embed(v) for v in horizontal]) @ vertical.T))
                _check(off < 1e-8, f"op {i}: cov/both not orthogonal to vertical ({off:.2e})")
            # u_perp acts vertically; the symmetry lies in it when it acts freely
            q, _ = np.linalg.qr(vertical.T)
            for x in u_perp.basis:
                t = _embed(action_tangent(x))
                err = np.linalg.norm(t - q @ (q.T @ t))
                _check(err < 1e-8, f"op {i}: u_perp direction with non-vertical tangent ({err:.2e})")
            if rank == len(gens) and u_perp.dim:
                span = np.stack([_embed(x.ravel()) for x in u_perp.basis], axis=1)
                for z in gens:
                    coef, *_ = np.linalg.lstsq(span, _embed(z.ravel()), rcond=None)
                    err = np.linalg.norm(span @ coef - _embed(z.ravel())) / np.linalg.norm(z)
                    _check(err < 1e-8, f"op {i}: symmetry generator outside u_perp ({err:.2e})")

        return Op("tangent", call, check)

    def sizes(self) -> dict:
        return {"n": self.N, "d": self.D, "decompose": list(self.SYMMETRIES),
                "tangent_circuit": {"p": self.TANGENT_P, "fixed_gates": self.TANGENT_FIXED}}


# --------------------------------------------------------------------------
# estimator-sweep
# --------------------------------------------------------------------------

class EstimatorSweep(Workload):
    """Full Hadamard-test omega (3 x p) plus the insertion m vector for
    collective su(2) on a random 5-qubit circuit, with two left-action
    ops to each theta-action op.

    A left op takes about 1.35 times as long as a theta op.  With a 1:1
    cycle the median falls between the two latency clusters and spreads
    with whichever cluster the host slows; with left the majority, the
    median and the tail both fall inside the left cluster."""

    name = "estimator-sweep"
    cycle = ("left", "left", "theta")
    N, P, FIXED, TERMS = 5, 12, 2, 6

    def prepare(self) -> None:
        rng = self.rng(0)
        gates = _random_gates(rng, self.N, self.P, self.FIXED)
        self.circ = _circuit(self.N, self.P, gates)
        self.obs = pauli.parse_pauli_sum(_random_observable(rng, self.N, self.TERMS), self.N)
        gens = [_collective(ch, self.N) for ch in "XYZ"]
        self.syms = {a: cli.symmetry_from_strings(gens, a, self.N) for a in self.cycle}

    def op(self, i: int) -> Op:
        action = self.cycle[i % len(self.cycle)]
        rng = self.rng(i + 2)
        theta = rng.uniform(0, TWO_PI, self.P)
        psi0 = _random_state(rng, self.N)
        sym = self.syms[action]
        c = self.circ

        def call():
            omega = np.array([[estimators.hadamard_omega(c, theta, j, z, psi0, action)
                               for j in range(self.P)] for z in sym.generators.basis])
            m = np.array([estimators.insertion_m(c, theta, psi0, self.obs, z, action)
                          for z in sym.generators.basis])
            return omega, m

        def check(res) -> None:
            omega, m = res
            ref_omega = symgrad.overlap_omega(sym, c, theta, psi0)
            ref_m = symgrad.symmetry_derivative(sym, c, theta, psi0, self.obs)
            err = np.max(np.abs(omega - ref_omega))
            _check(err < 1e-10, f"op {i}: omega off by {err:.3e}")
            err = np.max(np.abs(m - ref_m))
            _check(err < 1e-6, f"op {i}: m off by {err:.3e}")

        return Op(action, call, check)

    def sizes(self) -> dict:
        return {"n": self.N, "p": self.P, "fixed_gates": self.FIXED,
                "observable_terms": self.TERMS, "symmetry": "collective su(2)",
                "omega_shape": [3, self.P]}


WORKLOADS = {w.name: w for w in (EntangleOpt, AlgebraGeometry, EstimatorSweep)}


"""Metrics and optimizers: the projective state-space metric, its
symmetry-projected generalization, and gradient-descent / natural-gradient
/ covariant-natural-gradient loops with trajectory recording, whose
settings are checked in one place (:class:`OptimizerConfig`).

The natural-gradient step keeps the explicit 1/2 prefactor
theta' = theta - lr * (1/2) * F^+ grad, rather than folding it into the
learning rate, so the projected and plain variants agree exactly when the
symmetry is the group of global phases.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import circuit, pauli, symgrad, tangent
from .circuit import CostSpec
from .nummat import is_finite_real, is_integer, pinv_psd
from .tangent import SymmetrySpec


@dataclass(frozen=True)
class OptimizerConfig:
    """Settings of an optimizer run, checked when built: ``method`` one of
    gd, qng, cqng; ``lr`` (the learning rate) a finite number > 0;
    ``max_iter`` an integer >= 0; ``tol`` a finite number >= 0 (0 runs all
    ``max_iter`` steps); ``seed`` (of the initial angles) an integer >= 0
    or None.
    A bool or a string is neither a number nor an integer."""

    method: str = "gd"
    lr: float = 0.5
    max_iter: int = 2000
    tol: float = 1e-9
    seed: int | None = None

    def __post_init__(self):
        if self.method not in ("gd", "qng", "cqng"):
            raise ValueError(f"unknown optimizer method {self.method!r}")
        if not (is_finite_real(self.lr) and self.lr > 0):
            raise ValueError(f"optimizer lr (learning rate) must be a finite number > 0, "
                             f"got {self.lr!r}")
        if not (is_integer(self.max_iter) and self.max_iter >= 0):
            raise ValueError(f"optimizer max_iter must be an integer >= 0, got {self.max_iter!r}")
        if not (is_finite_real(self.tol) and self.tol >= 0):
            raise ValueError(f"optimizer tol must be a finite number >= 0, got {self.tol!r}")
        if not (self.seed is None or (is_integer(self.seed) and self.seed >= 0)):
            raise ValueError(f"optimizer seed must be an integer >= 0 or None, got {self.seed!r}")


@dataclass(frozen=True, eq=False)
class MetricMatrix:
    entries: np.ndarray


@dataclass
class TraceRecord:
    iteration: int
    theta: np.ndarray
    cost: float
    grad_norm: float
    extras: dict[str, float] = field(default_factory=dict)


@dataclass
class OptTrace:
    records: list[TraceRecord] = field(default_factory=list)
    converged: bool = False

    @property
    def final(self) -> TraceRecord:
        return self.records[-1]

    def to_csv(self) -> str:
        if not self.records:
            return ""
        p = self.records[0].theta.size
        header = ["iter"] + [f"theta_{j}" for j in range(p)] + ["cost", "grad_norm"]
        header += list(self.records[0].extras)
        lines = [",".join(header)]
        for rec in self.records:
            row = [str(rec.iteration)]
            row += [repr(float(v)) for v in rec.theta]
            row += [repr(float(rec.cost)), repr(float(rec.grad_norm))]
            row += [repr(float(v)) for v in rec.extras.values()]
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"


def _metric(ev: circuit.Evaluation) -> np.ndarray:
    """Gram matrix of the partials after removing their components along
    the orthonormal frame T: Re<d_j psi|d_k psi> - sum_a Re<d_j psi|T_a> Re<T_a|d_k psi>."""
    proj = np.real(ev.frame.onb.conj() @ ev.partials.T)
    f = np.real(ev.partials.conj() @ ev.partials.T) - proj.T @ proj
    return (f + f.T) / 2.0


def _global_phase(d: int) -> list[np.ndarray]:
    """Generator of the global phases, whose tangent at psi is i psi."""
    return [1j * np.eye(d)]


def fubini_study(c: circuit.CircuitSpec, theta, psi0) -> MetricMatrix:
    """F_jk = Re<d_j psi|d_k psi> - <d_j psi|psi><psi|d_k psi>, which is the
    covariant metric of the global-phase symmetry."""
    ev = circuit.evaluate(c, theta, psi0, _global_phase(c.dim))
    return MetricMatrix(_metric(ev))


def covariant_metric(sym: SymmetrySpec, c: circuit.CircuitSpec, theta, psi0) -> MetricMatrix:
    """Gram matrix of the covariant state derivatives:
    F^S_jk = Re<d_j psi|d_k psi> - sum_a Re<d_j psi|T_a> Re<T_a|d_k psi>."""
    return MetricMatrix(_metric(tangent.evaluate(sym, c, theta, psi0)))


def _drive(method: str, sym: SymmetrySpec | None, c: circuit.CircuitSpec, theta: np.ndarray,
           psi0, cost: CostSpec) -> tuple[circuit.Evaluation, float, np.ndarray]:
    """One evaluation at theta, with the frame the method's metric needs,
    and the cost and driving gradient there: the covariant gradient for
    cqng, the plain one for gd and qng."""
    ev = (tangent.evaluate(sym, c, theta, psi0) if method == "cqng" else
          circuit.evaluate(c, theta, psi0, _global_phase(c.dim) if method == "qng" else ()))
    value, covector = cost.value_and_covector(ev.psi)
    if method == "cqng":
        return ev, value, symgrad._cost_report(ev, covector, "vertical").projected
    return ev, value, ev.gradient(covector)


def _natural_step(ev: circuit.Evaluation, theta: np.ndarray, grad: np.ndarray,
                  lr: float) -> np.ndarray:
    """theta' = theta - lr * (1/2) * F^+ grad with F the metric of ev's frame."""
    return theta - lr * 0.5 * (pinv_psd(_metric(ev)) @ grad)


def _one_step(method: str, sym: SymmetrySpec | None, c: circuit.CircuitSpec, theta, psi0,
              m: pauli.PauliSum, lr: float) -> np.ndarray:
    OptimizerConfig(method, lr)  # ValueError unless lr is a finite number > 0
    theta = circuit.check_theta(c, theta)
    ev, _, grad = _drive(method, sym, c, theta, psi0, circuit.ExpectationCost(m))
    return _natural_step(ev, theta, grad, lr)


def qng_step(c: circuit.CircuitSpec, theta, psi0, m: pauli.PauliSum, lr: float) -> np.ndarray:
    """One natural-gradient step theta' = theta - lr * (1/2) * F^+ * grad."""
    return _one_step("qng", None, c, theta, psi0, m, lr)


def cqng_step(sym: SymmetrySpec, c: circuit.CircuitSpec, theta, psi0,
              m: pauli.PauliSum, lr: float) -> np.ndarray:
    """One covariant natural-gradient step
    theta' = theta - lr * (1/2) * (F^S)^+ * gradS."""
    return _one_step("cqng", sym, c, theta, psi0, m, lr)


def sample_theta0(n_params: int, seed: int | None) -> np.ndarray:
    """Uniform initial angles in [0, 2 pi) from a seeded generator."""
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 2.0 * np.pi, size=n_params)


def optimize(method: str, c: circuit.CircuitSpec, theta0, psi0, cost_spec: CostSpec,
             lr: float = 0.1, max_iter: int = 2000, tol: float = 1e-9,
             sym: SymmetrySpec | None = None, seed: int | None = None,
             monitor: Callable[[np.ndarray], dict[str, float]] | None = None) -> OptTrace:
    """Run gd / qng / cqng until the driving gradient norm drops below tol.

    Records one row per visited point (including the final one reached by
    the last step).  The driving gradient is the plain gradient for gd and
    qng and the covariant gradient for cqng.  ``monitor(theta)`` returns
    the named extra columns of a row.  The settings must pass
    :class:`OptimizerConfig`.
    """
    OptimizerConfig(method, lr, max_iter, tol, seed)  # ValueError for a bad setting
    if method == "cqng" and sym is None:
        raise ValueError("cqng requires a symmetry")
    theta = sample_theta0(c.n_params, seed) if theta0 is None else \
        circuit.check_theta(c, theta0).copy()
    trace = OptTrace()
    for it in range(max_iter + 1):
        ev, value, grad = _drive(method, sym, c, theta, psi0, cost_spec)
        gnorm = float(np.linalg.norm(grad))
        extras = monitor(theta) if monitor else {}
        trace.records.append(TraceRecord(it, theta.copy(), value, gnorm, extras))
        if gnorm < tol:
            trace.converged = True
            break
        if it == max_iter:
            break
        if method == "gd":
            theta = theta - lr * grad
        else:
            theta = _natural_step(ev, theta, grad, lr)
    return trace

#!/usr/bin/env python3
"""Run the built-in two-qubit maximal-entangling experiment over a sweep of
seeds and report convergence, the final angles, and the vector potential.

Writes one trace CSV per seed plus a summary table.  Exits 0 when every
seed converges and 4 otherwise, as ``symflow optimize`` does.

Usage: python scripts/run_entangling_demo.py [--seeds N] [--outdir DIR]
       [--lr LR] [--method gd|qng|cqng]
"""
import argparse
import pathlib
import sys

import numpy as np

from symflow import circuit, cli, natgrad, pauli, symgrad


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--outdir", default="demo_out")
    parser.add_argument("--lr", type=float, default=0.5)
    parser.add_argument("--method", choices=("gd", "qng", "cqng"), default="gd")
    args = parser.parse_args()

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    print(f"{'seed':>4} {'iters':>6} {'cost':>12} {'|theta3 - pi|':>14} "
          f"{'|<X1>|':>10} {'|<Z2>|':>10}")
    converged = 0
    for seed in range(args.seeds):
        prob = cli.entangling_problem(seed)
        psi0 = prob.initial_state()
        trace = natgrad.optimize(
            args.method, prob.circuit, None, psi0, prob.cost, lr=args.lr,
            max_iter=prob.optimizer.max_iter, tol=prob.optimizer.tol,
            sym=prob.symmetry, seed=seed,
        )
        (outdir / f"trace_seed{seed}.csv").write_text(trace.to_csv())
        converged += trace.converged
        final = trace.final
        pre = cli.pre_entangler_circuit(prob.circuit)
        x1 = circuit.cost(pre, final.theta, psi0, pauli.parse_pauli_sum("XI", 2))
        z2 = circuit.cost(pre, final.theta, psi0, pauli.parse_pauli_sum("IZ", 2))
        dist = abs(final.theta[2] % (2 * np.pi) - np.pi)
        print(f"{seed:>4} {final.iteration:>6} {final.cost:>12.3e} {dist:>14.3e} "
              f"{abs(x1):>10.3e} {abs(z2):>10.3e}")
        a = symgrad.vector_potential(prob.symmetry, prob.circuit, final.theta, psi0)
        np.savetxt(outdir / f"vector_potential_seed{seed}.csv", a, delimiter=",")

    print(f"\ntraces and final vector potentials written to {outdir}/")
    return 0 if converged == args.seeds else 4


if __name__ == "__main__":
    sys.exit(main())

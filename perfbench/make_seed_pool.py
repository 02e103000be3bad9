"""Regenerate ``entangle_seeds.json``: the demo seeds that entangle-opt draws
from, namely the seeds in 0..CANDIDATES-1 whose plain gd run of the
built-in demo converges within POOL_MAX_ITER iterations.

The cap of the benchmark's ops (workloads.MAX_ITER_CAP) sits above
POOL_MAX_ITER, so a gd op never stops at the cap.  About a quarter of all
seeds need more iterations (a few need over 2000) and are left out;
the file records how many.

    python3 perfbench/make_seed_pool.py      # takes several minutes
"""
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from symflow import cli, natgrad  # noqa: E402

CANDIDATES = 1000
POOL_MAX_ITER = 100


def gd_iterations(seed: int) -> int | None:
    prob = cli.entangling_problem(seed)
    cfg = prob.optimizer
    trace = natgrad.optimize("gd", prob.circuit, None, prob.initial_state(), prob.cost,
                             lr=cfg.lr, max_iter=POOL_MAX_ITER, tol=cfg.tol, seed=seed)
    return trace.final.iteration if trace.converged else None


def main() -> None:
    iterations = {s: gd_iterations(s) for s in range(CANDIDATES)}
    seeds = [s for s, it in iterations.items() if it is not None]
    pool = {
        "rule": f"seeds in 0..{CANDIDATES - 1} whose gd run converges "
                f"within {POOL_MAX_ITER} iterations",
        "candidates": CANDIDATES,
        "excluded": CANDIDATES - len(seeds),
        "max_gd_iterations": max(iterations[s] for s in seeds),
        "seeds": seeds,
    }
    (HERE / "entangle_seeds.json").write_text(json.dumps(pool) + "\n")


if __name__ == "__main__":
    main()

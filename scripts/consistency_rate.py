#!/usr/bin/env python3
"""Empirical convergence rate of the likelihood estimator.

Runs the simulation harness over a range of target sample sizes and fits a
log-log slope of MSE against m. A well-specified, identifiable setup should
show a slope near -1 (the parametric 1/m rate).
"""
import argparse

import numpy as np

from labelshift.predictors import GmmSpec
from labelshift.simplex import ProbVector
from labelshift.simulation import ExperimentConfig, ShiftSpec, run_trials


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--method", default="mlls_em")
    ap.add_argument("--target-marginal", default="0.8,0.2")
    ap.add_argument("--m-values", default="100,1000,10000")
    ap.add_argument("--n-trials", type=int, default=100)
    ap.add_argument("--n-source", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=11)
    args = ap.parse_args()

    pt = np.array([float(v) for v in args.target_marginal.split(",")])
    k = pt.size
    cfg = ExperimentConfig(
        gmm=GmmSpec(1.0, ProbVector(np.full(k, 1.0 / k))),
        shifts=(ShiftSpec("explicit", target_marginal=ProbVector(pt)),),
        methods=(args.method,),
        m_values=tuple(int(v) for v in args.m_values.split(",")),
        n_trials=args.n_trials,
        base_seed=args.seed,
        n_source=args.n_source,
    )
    _, rows = run_trials(cfg)
    print("m,mse,stderr")
    for r in rows:
        print(f"{r.m},{r.mse:.6g},{r.stderr:.6g}")
    ms = np.log([r.m for r in rows])
    slope = float(np.polyfit(ms, np.log([r.mse for r in rows]), 1)[0])
    print(f"log-log slope: {slope:.4f}")


if __name__ == "__main__":
    main()

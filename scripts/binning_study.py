#!/usr/bin/env python3
"""Effect of output binning on identifiability and estimation error.

Sweeps the number of calibration bins and reports, per bin count, the mean
minimum eigenvalue of the binned second-moment matrix (the identifiability
margin) alongside the MSE of the likelihood estimator. Coarser bins lose
Fisher information; the eigenvalue and the error move in opposite directions.
"""
import argparse

import numpy as np

from labelshift.predictors import GmmSpec
from labelshift.simplex import ProbVector
from labelshift.simulation import ExperimentConfig, ShiftSpec, run_trials


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--bins", default="2,4,8,16")
    ap.add_argument("--target-marginal", default="0.99,0.01")
    ap.add_argument("--m", type=int, default=10000)
    ap.add_argument("--n-source", type=int, default=10000)
    ap.add_argument("--n-trials", type=int, default=100)
    ap.add_argument("--seed", type=int, default=3)
    args = ap.parse_args()

    pt = np.array([float(v) for v in args.target_marginal.split(",")])
    k = pt.size
    print("bins,mean_min_eig,mse,stderr")
    for bins in (int(b) for b in args.bins.split(",")):
        cfg = ExperimentConfig(
            gmm=GmmSpec(1.0, ProbVector(np.full(k, 1.0 / k))),
            shifts=(ShiftSpec("explicit", target_marginal=ProbVector(pt)),),
            methods=("mlls_em",),
            m_values=(args.m,),
            n_trials=args.n_trials,
            base_seed=args.seed,
            n_source=args.n_source,
            bins=bins,
        )
        _, rows = run_trials(cfg)
        r = rows[0]
        print(f"{bins},{r.mean_min_eig:.6g},{r.mse:.6g},{r.stderr:.6g}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""How predictor miscalibration degrades likelihood-based weight estimation.

Applies a temperature distortion to the simulated predictor, measures the
resulting canonical calibration error by Monte Carlo, and reports the MSE of
the likelihood estimator at each temperature. Error and MSE should increase
together.
"""
import argparse

import numpy as np

from labelshift.calibration import BctsParams, bcts_apply_matrix
from labelshift.predictors import GmmSpec, gmm_posterior
from labelshift.simplex import ProbVector
from labelshift.simulation import ExperimentConfig, ShiftSpec, run_trials, sample_gmm


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--temperatures", default="1.0,1.5,3.0")
    ap.add_argument("--target-marginal", default="0.9,0.1")
    ap.add_argument("--m", type=int, default=2000)
    ap.add_argument("--n-source", type=int, default=2000)
    ap.add_argument("--n-trials", type=int, default=30)
    ap.add_argument("--seed", type=int, default=5)
    ap.add_argument("--mc-samples", type=int, default=200_000)
    args = ap.parse_args()

    pt = np.array([float(v) for v in args.target_marginal.split(",")])
    k = pt.size
    uniform = ProbVector(np.full(k, 1.0 / k))
    gmm = GmmSpec(1.0, uniform)
    xs, _ = sample_gmm(gmm, uniform, args.mc_samples, 777, 0)
    clean = gmm_posterior(gmm, xs)

    print("temperature,calibration_error,mse,stderr")
    for t_str in args.temperatures.split(","):
        temperature = float(t_str)
        mis = None if temperature == 1.0 else BctsParams(temperature, np.zeros(k))
        out = clean if mis is None else bcts_apply_matrix(mis, clean)
        calib_error = float(np.sqrt(np.mean(((out - clean) ** 2).sum(axis=1))))
        cfg = ExperimentConfig(
            gmm=gmm,
            shifts=(ShiftSpec("explicit", target_marginal=ProbVector(pt)),),
            methods=("mlls_em",),
            m_values=(args.m,),
            n_trials=args.n_trials,
            base_seed=args.seed,
            n_source=args.n_source,
            miscalibration=mis,
        )
        _, rows = run_trials(cfg)
        r = rows[0]
        print(f"{temperature},{calib_error:.6g},{r.mse:.6g},{r.stderr:.6g}")


if __name__ == "__main__":
    main()

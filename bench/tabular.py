"""Seeded k-class finite-support ("tabular") predictor for the benchmark.

The predictor shows one of `n_support` distinct output vectors f_j on the
k-simplex, with source masses pi_j, and is calibrated by construction: a
source row showing f_j has label y with probability f_j[y]. Hence
p_s(y) = sum_j pi_j f_j[y]. Under label shift to a target marginal p_t the
target shows f_j with probability pi_j * (f_j . w*), where w* = p_t / p_s are
the generating weights the benchmark scores estimates against.

`GmmSpec` covers two classes only, so this generator is what lets the
benchmark measure how the package scales in k.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Logit added to each support vector's "own" class; 3.0 gives confident but
# not one-hot outputs, so the support is full rank and every class is reachable.
CLASS_MARGIN = 3.0


@dataclass(frozen=True)
class TabularInstance:
    support: np.ndarray  # (s, k) distinct calibrated output vectors
    masses: np.ndarray  # (s,) source probability of each support vector
    target_marginal: np.ndarray  # (k,) p_t, a Dirichlet(1) draw

    @property
    def source_marginal(self) -> np.ndarray:
        return self.masses @ self.support

    @property
    def w_star(self) -> np.ndarray:
        return self.target_marginal / self.source_marginal


def make_instance(k: int, n_support: int, rng: np.random.Generator) -> TabularInstance:
    logits = rng.normal(0.0, 1.0, (n_support, k))
    logits[np.arange(n_support), np.arange(n_support) % k] += CLASS_MARGIN
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    support = e / e.sum(axis=1, keepdims=True)
    masses = rng.dirichlet(np.full(n_support, 5.0))
    return TabularInstance(support, masses, rng.dirichlet(np.ones(k)))


def sample_rows(inst: TabularInstance, n_source: int, m_target: int, rng: np.random.Generator):
    """Return (source outputs, source labels, target outputs)."""
    s, k = inst.support.shape
    src_idx = rng.choice(s, size=n_source, p=inst.masses)
    cdf = np.cumsum(inst.support[src_idx], axis=1)
    labels = np.minimum((rng.random(n_source)[:, None] >= cdf).sum(axis=1), k - 1)
    tgt_p = inst.masses * (inst.support @ inst.w_star)
    tgt_idx = rng.choice(s, size=m_target, p=tgt_p / tgt_p.sum())
    return inst.support[src_idx], labels, inst.support[tgt_idx]


def write_tabular_files(
    directory: Path, k: int, n_support: int, n_source: int, m_target: int, seed: int
) -> dict:
    """Write source.csv, target.csv and truth.json through the package's writer.

    Returns the truth record: generating weights and both label marginals.
    """
    from labelshift.io import write_prediction_file

    rng = np.random.default_rng(seed)
    inst = make_instance(k, n_support, rng)
    src_out, src_lab, tgt_out = sample_rows(inst, n_source, m_target, rng)
    write_prediction_file(directory / "source.csv", src_out, src_lab)
    write_prediction_file(directory / "target.csv", tgt_out)
    truth = {
        "w_star": inst.w_star.tolist(),
        "source_marginal": inst.source_marginal.tolist(),
        "target_marginal": inst.target_marginal.tolist(),
    }
    (directory / "truth.json").write_text(json.dumps(truth) + "\n", encoding="utf-8")
    return truth

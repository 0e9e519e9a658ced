"""Test oracles for the trial engine in ``weylcdma.sim`` and the falsifier's bound.

``interference`` and ``decision_statistic`` are the scalar reference path:
one trial, one receiver, every crosscorrelation from ``aperiodic_c`` lag
by lag, so they share no table code (``aperiodic_table``, ``theta_pairs``)
with the engine they check.  ``simulate_trials`` keeps every draw and
decision of an engine run, for comparing the two trial by trial.
``lower_bound`` is ``phase_opt._lower_bound`` written with a temporary per
step, which the falsifier's in-place version must match bit for bit.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from weylcdma.correlation import _chips, _pair, aperiodic_c
from weylcdma.sequences import _integer
from weylcdma.sim import TC, SimConfig, TrialDraw, _map_blocks, _noise_std
from weylcdma.snr import LinkBudget


def interference(i: int, k: int, draw: TrialDraw, seqs) -> complex:
    """Two-lag interference of user k on receiver i for one trial.

    exp(j phi_k) * [(tau_k - l Tc)(b_prev C(l) + b_cur C(l-N))
                    + ((l+1) Tc - tau_k)(b_prev C(l+1) + b_cur C(l+1-N))]
    with l = floor(tau_k / Tc).
    """
    i = _integer("i", i, 0, len(seqs) - 1)
    k = _integer("k", k, 0, len(seqs) - 1)
    if i == k:
        raise ValueError("interference is defined for k != i")
    x, y = _pair(seqs[i], seqs[k])
    n = x.size
    tau_k = float(draw.tau[k])
    if not 0.0 <= tau_k < n * TC:
        raise ValueError(f"tau must lie in [0, {n * TC}), got {tau_k}")
    l = int(tau_k // TC)
    b_prev = float(draw.bits_prev[k])
    b_cur = float(draw.bits_cur[k])
    low = b_prev * aperiodic_c(x, y, l) + b_cur * aperiodic_c(x, y, l - n)
    high = b_prev * aperiodic_c(x, y, l + 1) + b_cur * aperiodic_c(x, y, l + 1 - n)
    weight_low = tau_k - l * TC
    weight_high = (l + 1) * TC - tau_k
    return complex(np.exp(1j * float(draw.phi[k])) * (weight_low * low + weight_high * high))


def decision_statistic(
    i: int, draw: TrialDraw, seqs, budget: LinkBudget, noise_sample: float
) -> float:
    """Decision statistic of receiver i; noise_sample is a standard normal.

    User i is the coherent reference (tau_i = 0, phi_i = 0 by convention);
    its own draw entries are ignored.
    """
    i = _integer("i", i, 0, len(seqs) - 1)
    n = _chips(seqs[i]).size
    mai = sum(
        interference(i, k, draw, seqs).real for k in range(len(seqs)) if k != i
    )
    return float(draw.bits_cur[i]) + mai / (n * TC) + noise_sample * math.sqrt(budget.noise_term)


def simulate_trials(config: SimConfig) -> tuple[TrialDraw, np.ndarray, np.ndarray]:
    """Run the engine and keep every draw and decision (memory: O(T*K)).

    Returns (draw, noise, z): the (T, K) draws, the standard-normal noise
    samples before scaling, and the decision statistics.  Intended for
    diagnostics and tests; use ``run_ber`` for large counts.
    """
    std = _noise_std(config)
    draws, noise, z = zip(*_map_blocks(
        config, lambda draw, g, mai: [(draw, g, draw.bits_cur + mai[:, 0] + std * g)])[0])
    draw = TrialDraw(**{
        f.name: np.concatenate([getattr(d, f.name) for d in draws])
        for f in dataclasses.fields(TrialDraw)
    })
    return draw, np.concatenate(noise), np.concatenate(z)


def lower_bound(rho: np.ndarray) -> np.ndarray:
    """``phase_opt._lower_bound`` as one array expression per step, for sorted phases (K, m)."""
    k = rho.shape[0]
    gaps = np.diff(rho, axis=0, append=rho[:1] + 1.0)
    floor = sum(k / math.sin(math.pi * g / k) for g in range(2, (k + 1) // 2)) + k / 2 * (k % 2 == 0)
    return (np.sum(1.0 / (np.pi * gaps + 1e-13), axis=0) + floor) * (1.0 - 1e-9)

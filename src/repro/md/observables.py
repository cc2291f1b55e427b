"""Scalar and per-atom observables computed from simulation state."""

from __future__ import annotations

import numpy as np

__all__ = ["msd"]


def msd(positions: np.ndarray, reference: np.ndarray) -> float:
    """Mean-squared displacement (A^2) between two configurations."""
    delta = np.asarray(positions) - np.asarray(reference)
    return float(np.mean(np.einsum("ij,ij->i", delta, delta)))

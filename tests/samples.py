"""Seeded test data that the package itself does not need."""

import numpy as np

from msot.spd import spd_exp


def sample_spd_cloud(d, n, seed=0, spread=1.0):
    """Wishart-like SPD test clouds: exp of random symmetric matrices."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, d, d)) * spread / np.sqrt(d)
    sym = (z + np.swapaxes(z, -1, -2)) / 2.0
    return spd_exp(sym)

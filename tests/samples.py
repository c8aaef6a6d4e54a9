"""Seeded test data, and the array layouts it is passed in, that the package
itself does not need."""

import numpy as np

from msot.spd import spd_exp


def sample_spd_cloud(d, n, seed=0, spread=1.0):
    """Wishart-like SPD test clouds: exp of random symmetric matrices."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, d, d)) * spread / np.sqrt(d)
    sym = (z + np.swapaxes(z, -1, -2)) / 2.0
    return spd_exp(sym)


# one (n, L) array in the three layouts a caller may pass
LAYOUTS = {
    "c": lambda a: np.ascontiguousarray(a),
    "fortran": lambda a: np.asfortranarray(a),
    "transposed_view": lambda a: np.ascontiguousarray(a.T).T,
}


def unchanged(*arrays):
    """Copies of the arrays, and a check that each is still what it was."""
    copies = [a.copy() for a in arrays]
    return lambda: all(np.array_equal(a, c) for a, c in zip(arrays, copies, strict=True))

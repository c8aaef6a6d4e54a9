"""The shared input boundary of the sliced distances.

Every distance rejects the same malformed inputs with ``InvalidInput``:
non-finite atoms, zero total mass, weights that do not match the atoms and
clouds of different dimension.
"""

import numpy as np
import pytest

from msot.errors import InvalidInput, MassMismatch
from msot.hyperbolic import ghsw, hhsw, origin, sample_wrapped_normal
from msot.sliced import EuclideanSlicer, sample_directions, sw_p
from msot.spd import (
    hspdsw,
    logsw,
    logsw_directions,
    sample_unit_symmetric,
    spdsw,
)
from msot.sphere import sample_stiefel, ssw
from msot.unbalanced import UnbalancedParams, suot, usw
from samples import sample_spd_cloud


def _sphere(n, d, seed):
    x = np.random.default_rng(seed).normal(size=(n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def _euclidean(n, d, seed):
    return np.random.default_rng(seed).normal(size=(n, d))


def _lorentz(n, d, seed):
    return sample_wrapped_normal(origin(d - 1), 0.3 * np.eye(d - 1), n, seed=seed)


def _spd(n, d, seed):
    return sample_spd_cloud(d, n, seed=seed)


_PARAMS = UnbalancedParams(n_iters=2)

# name -> (cloud maker, atom dimension, call(x, y, a, b, d))
DISTANCES = {
    "sw_p": (_euclidean, 3, lambda x, y, a, b, d: sw_p(
        x, y, sample_directions(d, 5, 0), x_weights=a, y_weights=b)),
    "ghsw": (_lorentz, 3, lambda x, y, a, b, d: ghsw(
        x, y, sample_directions(d - 1, 5, 0), x_weights=a, y_weights=b)),
    "hhsw": (_lorentz, 3, lambda x, y, a, b, d: hhsw(
        x, y, sample_directions(d - 1, 5, 0), x_weights=a, y_weights=b)),
    "spdsw": (_spd, 2, lambda x, y, a, b, d: spdsw(
        x, y, sample_unit_symmetric(d, 5, 0), x_weights=a, y_weights=b)),
    "hspdsw": (_spd, 2, lambda x, y, a, b, d: hspdsw(
        x, y, sample_unit_symmetric(d, 5, 0), x_weights=a, y_weights=b)),
    "logsw": (_spd, 2, lambda x, y, a, b, d: logsw(
        x, y, logsw_directions(d, 5, 0), x_weights=a, y_weights=b)),
    "ssw": (_sphere, 3, lambda x, y, a, b, d: ssw(
        x, y, sample_stiefel(d, 5, 0), x_weights=a, y_weights=b)),
    "usw": (_euclidean, 3, lambda x, y, a, b, d: usw(
        x, y, EuclideanSlicer(sample_directions(d, 5, 0)), _PARAMS,
        x_weights=a, y_weights=b)),
    "suot": (_euclidean, 3, lambda x, y, a, b, d: suot(
        x, y, EuclideanSlicer(sample_directions(d, 5, 0)), _PARAMS,
        x_weights=a, y_weights=b)),
}


def _with_bad_atom(value):
    def corrupt(x, y, a, b):
        x = x.copy()
        x.reshape(len(x), -1)[2, 0] = value
        return x, y, a, b

    return corrupt


def _zero_mass(x, y, a, b):
    return x, y, np.zeros(len(x)), np.zeros(len(y))


def _weight_length(x, y, a, b):
    return x, y, np.full(len(x) + 1, 1.0 / (len(x) + 1)), b


CASES = {
    "nan": _with_bad_atom(np.nan),
    "+inf": _with_bad_atom(np.inf),
    "-inf": _with_bad_atom(-np.inf),
    "zero-mass": _zero_mass,
    "weight-length": _weight_length,
}


@pytest.mark.parametrize("case", list(CASES))
@pytest.mark.parametrize("name", list(DISTANCES))
def test_malformed_input_is_invalid(name, case):
    make, d, call = DISTANCES[name]
    x, y, a, b = CASES[case](make(6, d, 1), make(5, d, 2), None, None)
    with pytest.raises(InvalidInput):
        call(x, y, a, b, d)


@pytest.mark.parametrize("name", list(DISTANCES))
def test_dimension_mismatch_is_invalid(name):
    make, d, call = DISTANCES[name]
    with pytest.raises(InvalidInput):
        call(make(6, d, 1), make(5, d + 1, 2), None, None, d)


@pytest.mark.parametrize("name", list(DISTANCES))
def test_well_formed_input_passes(name):
    make, d, call = DISTANCES[name]
    x, y = make(6, d, 1), make(5, d, 2)
    result = call(x, y, np.full(6, 1 / 6), None, d)
    value = result[0] if isinstance(result, tuple) else result
    assert np.isfinite(value)


@pytest.mark.parametrize("name", ["sw_p", "ghsw", "hhsw", "spdsw", "hspdsw", "logsw"])
def test_unequal_positive_masses_mismatch(name):
    make, d, call = DISTANCES[name]
    with pytest.raises(MassMismatch):
        call(make(6, d, 1), make(5, d, 2), np.full(6, 0.5), None, d)


@pytest.mark.parametrize("name", list(DISTANCES))
def test_atoms_of_the_wrong_rank_are_invalid(name):
    make, d, call = DISTANCES[name]
    x, y = make(6, d, 1), make(5, d, 2)
    with pytest.raises(InvalidInput):
        call(np.stack([x, x], axis=1), np.stack([y, y], axis=1), None, None, d)


@pytest.mark.parametrize("name", ["ghsw", "hhsw", "ssw"])
def test_single_point_is_a_one_atom_cloud(name):
    make, d, call = DISTANCES[name]
    x, y = make(6, d, 1), make(5, d, 2)
    assert call(x[0], y, None, None, d) == call(x[:1], y, None, None, d)


@pytest.mark.parametrize(
    "name", ["sw_p", "ghsw", "hhsw", "spdsw", "hspdsw", "logsw", "ssw", "usw", "suot"]
)
def test_slices_of_another_dimension_are_invalid(name):
    make, d, call = DISTANCES[name]
    with pytest.raises(InvalidInput):
        call(make(6, d, 1), make(5, d, 2), None, None, d + 1)

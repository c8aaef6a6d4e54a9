"""The benchmark's own numpy references and output checks.

These re-derive line coordinates and exact 1D costs without calling msot,
so a check compares msot against independent code: sorted pairing for
uniform clouds of equal size, a quantile merge for general weights.
"""

import json
import math

import numpy as np

RTOL = 1e-9


def close(a, b, rtol=RTOL, atol=1e-12):
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= atol + rtol * abs(b)


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_json(text):
    """Parse JSON, rejecting NaN and +-Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def w1d(u, a, v, b, p):
    """Exact W_p^p between two weighted 1D measures of equal total mass."""
    if a is None and b is None and u.size == v.size:
        return float(np.mean(np.abs(np.sort(u) - np.sort(v)) ** p))
    a = np.full(u.size, 1.0 / u.size) if a is None else a / np.sum(a)
    b = np.full(v.size, 1.0 / v.size) if b is None else b / np.sum(b)
    iu, iv = np.argsort(u), np.argsort(v)
    cu, cv = np.cumsum(a[iu]), np.cumsum(b[iv])
    qs = np.unique(np.concatenate([cu, cv, [0.0]]))
    mids = 0.5 * (qs[1:] + qs[:-1])
    qu = u[iu][np.minimum(np.searchsorted(cu, mids), u.size - 1)]
    qv = v[iv][np.minimum(np.searchsorted(cv, mids), v.size - 1)]
    return float(np.sum(np.diff(qs) * np.abs(qu - qv) ** p))


def sliced(cx, a, cy, b, p):
    """Mean of :func:`w1d` over the columns of two coordinate matrices."""
    return float(np.mean([w1d(cx[:, k], a, cy[:, k], b, p) for k in range(cx.shape[1])]))


def lorentz_from_poincare(x):
    sq = np.sum(x**2, axis=1, keepdims=True)
    return np.concatenate([(1.0 + sq) / (1.0 - sq), 2.0 * x / (1.0 - sq)], axis=1)


def geodesic_coords(x, ideal):
    """Lorentz geodesic coordinate arctanh(<x_{1:}, v> / x_0)."""
    return np.arctanh(x[:, 1:] @ ideal.T / x[:, :1])


def horo_coords(x, ideal):
    """Negated Lorentz Busemann function -log(x_0 - <x_{1:}, v>)."""
    return -np.log(x[:, :1] - x[:, 1:] @ ideal.T)


def spd_logm(m):
    vals, vecs = np.linalg.eigh(m)
    return np.einsum("nik,nk,njk->nij", vecs, np.log(vals), vecs)


def le_coords(m, slices):
    return np.einsum("nij,lij->nl", spd_logm(m), slices)


def log_vec(m):
    logs = spd_logm(m)
    d = logs.shape[-1]
    iu = np.triu_indices(d, k=1)
    return np.concatenate(
        [np.einsum("nii->ni", logs), logs[:, iu[0], iu[1]] * np.sqrt(2.0)], axis=1
    )

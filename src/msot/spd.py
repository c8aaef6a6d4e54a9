r"""Sliced distances on symmetric positive definite matrices.

The space :math:`S_d^{++}(\mathbb{R})` carries two metrics here: the flat
Log-Euclidean one, :math:`d_{LE}(X,Y) = \|\log X - \log Y\|_F`, and the
curved Affine-Invariant one,
:math:`d_{AI}(X,Y) = \sqrt{\operatorname{tr}(\log(X^{-1}Y)^2)}`.  Slicing
directions are unit-Frobenius symmetric matrices drawn uniformly by
conjugating a uniform sphere point with a Haar orthogonal matrix.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateDirection, InvalidInput, NotPositiveDefinite, check_atoms
from .measures import check_positive, quantile_rows, sorted_rows, validate_weights
from .sliced import (
    EuclideanSlicer,
    haar_orthonormal,
    sample_directions,
    sliced_cost,
)

SYM_ATOL = 1e-10
EIG_FLOOR = 1e-13
# matrix entries in one (atoms, slices, d, d) block of the AI Busemann
# coordinate: 2 MiB per float64 temporary, whatever the cloud size
AI_BLOCK_ENTRIES = 1 << 18


def _symmetric_stack(m):
    """A finite square stack (one matrix becomes a stack of one), and which
    of its matrices are symmetric within ``SYM_ATOL`` relative to the
    stack's largest entry (at least 1)."""
    m = np.asarray(m, dtype=float)
    if m.ndim == 2:
        m = m[None]
    if m.shape[-1] != m.shape[-2]:
        raise InvalidInput("matrices must be square")
    if not np.all(np.isfinite(m)):
        raise InvalidInput("matrices must be finite")
    err = np.max(np.abs(m - np.swapaxes(m, -1, -2)), axis=(-2, -1))
    return m, err <= SYM_ATOL * max(1.0, float(np.max(np.abs(m))))


def validate_spd(m):
    """SPD atoms as an ``(n, d, d)`` stack; names the first matrix that is
    not symmetric or whose smallest eigenvalue is at most ``EIG_FLOOR``.
    Bad input, so :class:`InvalidInput`, not :class:`NotPositiveDefinite`."""
    m, symmetric = _symmetric_stack(m)
    low = np.linalg.eigvalsh((m + np.swapaxes(m, -1, -2)) / 2.0)[:, 0]
    check_atoms(symmetric & (low > EIG_FLOOR), lambda i: (
        "matrix not positive definite" if symmetric[i] else "matrix not symmetric"))
    return m


def sym_eig(m):
    """Spectral decomposition of a symmetric matrix, eigenvalues descending.

    Returns ``(eigvals, eigvecs)`` with ``m = eigvecs @ diag(eigvals) @
    eigvecs.T``; batched over a leading axis when present.
    """
    arr, symmetric = _symmetric_stack(m)
    check_atoms(symmetric.ravel(), "matrix not symmetric")
    vals, vecs = np.linalg.eigh(arr)
    vals, vecs = vals[..., ::-1], vecs[..., ::-1]
    if np.asarray(m).ndim == 2:
        return vals[0], vecs[0]
    return vals, vecs


def spd_log(m):
    """Matrix logarithm of SPD matrices via the spectral decomposition."""
    vals, vecs = sym_eig(m)
    if np.min(vals) <= EIG_FLOOR:
        raise NotPositiveDefinite(f"eigenvalue {np.min(vals):.2e} <= {EIG_FLOOR}")
    lv = np.log(vals)
    return np.einsum("...ik,...k,...jk->...ij", vecs, lv, vecs)


def spd_exp(s):
    """Matrix exponential of symmetric matrices."""
    vals, vecs = sym_eig(s)
    ev = np.exp(vals)
    return np.einsum("...ik,...k,...jk->...ij", vecs, ev, vecs)


def inv_sqrt_eig(vals, vecs):
    """``M^{-1/2}`` from ``(vals, vecs) = sym_eig(M)``."""
    return vecs @ np.diag(vals**-0.5) @ vecs.T


def dist_le(x, y):
    """Log-Euclidean distance ``||log X - log Y||_F``."""
    diff = spd_log(x) - spd_log(y)
    return float(np.linalg.norm(diff))


def dist_ai(x, y):
    r"""Affine-invariant distance :math:`\sqrt{\mathrm{tr}(\log(X^{-1}Y)^2)}`.

    Evaluated through the symmetric form
    :math:`\|\log(X^{-1/2} Y X^{-1/2})\|_F`.
    """
    vals, vecs = sym_eig(x)
    if np.min(vals) <= EIG_FLOOR:
        raise NotPositiveDefinite("first argument not positive definite")
    inv_sqrt = inv_sqrt_eig(vals, vecs)
    middle = inv_sqrt @ np.asarray(y, dtype=float) @ inv_sqrt
    mid_vals, _ = sym_eig((middle + middle.T) / 2.0)
    if np.min(mid_vals) <= EIG_FLOOR:
        raise NotPositiveDefinite("second argument not positive definite")
    return float(np.linalg.norm(np.log(mid_vals)))


def sample_unit_symmetric(d, n_projections, seed=0):
    """Uniform unit-Frobenius symmetric slicing directions.

    ``A = P diag(theta) P^T`` with ``P`` Haar-distributed (Gaussian QR with
    a positive-diagonal sign fix) and ``theta`` uniform on the sphere;
    returns an ``(L, d, d)`` stack.
    """
    if d < 2:
        raise InvalidInput("symmetric slicing needs d >= 2")
    if n_projections < 1:
        raise InvalidInput("n_projections must be positive")
    rng = np.random.default_rng(seed)
    q = haar_orthonormal(rng.standard_normal((n_projections, d, d)))
    theta = rng.standard_normal((n_projections, d))
    theta /= np.linalg.norm(theta, axis=1, keepdims=True)
    return np.einsum("lik,lk,ljk->lij", q, theta, q)


def coordinate_le(m, a):
    r"""Geodesic coordinate :math:`\mathrm{Tr}(A \log M)` on the LE geodesic.

    Accepts a single matrix or a cloud ``(n, d, d)`` and a single direction
    or a stack ``(L, d, d)``; returns scalars, vectors or an ``(n, L)``
    matrix accordingly.  Equals minus the Log-Euclidean Busemann function.
    """
    logs = spd_log(m)
    single_m = logs.ndim == 2
    single_a = np.asarray(a).ndim == 2
    if single_m:
        logs = logs[None]
    a_stack = np.asarray(a, dtype=float)
    if single_a:
        a_stack = a_stack[None]
    coords = np.einsum("nij,lij->nl", logs, a_stack)
    if single_m and single_a:
        return float(coords[0, 0])
    if single_m:
        return coords[0]
    if single_a:
        return coords[:, 0]
    return coords


def _busemann_ai_batch(m, slices):
    """:func:`busemann_ai` of a cloud ``(n, d, d)`` along ``L`` slices, ``(n, L)``.

    One ``eigh`` of the slices, then per block of atoms and slices one
    broadcast rotation and one stacked Cholesky.  The UDU diagonal comes
    from the exchange trick ``UDU(M) = J LDL(J M J) J``, with ``J`` the
    index reversal and LDL read off a Cholesky factor.
    """
    a_vals, a_vecs = sym_eig(np.asarray(slices, dtype=float))  # (L, d), (L, d, d)
    if np.min(np.diff(a_vals[..., ::-1], axis=-1)) < 1e-10:
        raise DegenerateDirection("direction eigenvalues collide; resample")
    m = np.asarray(m, dtype=float)
    (n_slices, d), n = a_vals.shape, len(m)
    step_l = min(n_slices, max(1, AI_BLOCK_ENTRIES // d**2))
    step_n = max(1, AI_BLOCK_ENTRIES // (step_l * d**2))
    out = np.empty((n, n_slices))
    for l0 in range(0, n_slices, step_l):
        vecs = a_vecs[l0 : l0 + step_l]
        for i0 in range(0, n, step_n):
            # (atoms, slices, d, d) stack of P^T M P, symmetrized
            work = np.swapaxes(vecs, -1, -2) @ m[i0 : i0 + step_n, None]
            rotated = work @ vecs
            np.add(rotated, np.swapaxes(rotated, -1, -2), out=work)
            work /= 2.0
            try:
                chol = np.linalg.cholesky(work[..., ::-1, ::-1])
            except np.linalg.LinAlgError as exc:
                raise NotPositiveDefinite(str(exc)) from exc
            diag = np.einsum("...ii->...i", chol)[..., ::-1] ** 2
            if np.min(diag) <= EIG_FLOOR:
                raise NotPositiveDefinite("matrix not positive definite")
            block = np.einsum("lk,nlk->nl", a_vals[l0 : l0 + step_l], np.log(diag))
            out[i0 : i0 + step_n, l0 : l0 + step_l] = -block
    return out


def busemann_ai(m, a):
    r"""Affine-invariant Busemann function of the geodesic ``t -> exp(tA)``.

    Diagonalize ``A = P \tilde A P^T`` with eigenvalues sorted descending,
    rotate ``\tilde M = P^T M P``, take the diagonal ``D`` of its UDU
    factorization ``\tilde M = g D g^T`` (``g`` unit upper) and return
    :math:`-\langle \tilde A, \log D\rangle_F`.  Returns a scalar for a
    single matrix ``m`` and a vector for a cloud ``(n, d, d)``.  Requires
    pairwise distinct eigenvalues of ``A`` (almost sure for the uniform
    directions).
    """
    m = np.asarray(m, dtype=float)
    stack = m[None] if m.ndim == 2 else m
    out = _busemann_ai_batch(stack, np.asarray(a)[None])[:, 0]
    return float(out[0]) if m.ndim == 2 else out


@dataclass(frozen=True)
class SpdSlicer:
    r"""Line coordinates of SPD-valued atoms along symmetric slices.

    ``kind="geodesic"`` gives the Log-Euclidean coordinate
    :math:`\mathrm{Tr}(A \log M)`; ``kind="horospherical"`` the negated
    affine-invariant Busemann function of :func:`busemann_ai`, batched
    over atoms and slices.
    """

    slices: np.ndarray = field(repr=False)
    kind: str = "geodesic"

    def coordinates(self, points):
        points = np.asarray(points, dtype=float)
        d = np.shape(self.slices)[-1]
        if points.shape[1:] != (d, d):
            raise InvalidInput(f"need an (n, {d}, {d}) stack, got {points.shape}")
        if self.kind == "geodesic":
            return coordinate_le(points, self.slices)
        if self.kind == "horospherical":
            out = _busemann_ai_batch(points, self.slices)
            return np.negative(out, out=out)
        raise InvalidInput(f"unknown SPD slicer kind {self.kind!r}")


def spdsw(x, y, slices, p=2.0, x_weights=None, y_weights=None):
    r"""Log-Euclidean SPD sliced Wasserstein, :math:`SPDSW_p^p`.

    Projects both clouds with the geodesic coordinate
    :math:`\mathrm{Tr}(A \log M)` over the symmetric slices and averages
    the exact 1D costs.
    """
    return sliced_cost(SpdSlicer(slices), x, y, p, x_weights, y_weights)


def hspdsw(x, y, slices, p=2.0, x_weights=None, y_weights=None):
    """Affine-invariant horospherical SPD sliced Wasserstein."""
    slicer = SpdSlicer(slices, kind="horospherical")
    return sliced_cost(slicer, x, y, p, x_weights, y_weights)


def sym_to_vec(s):
    """Vectorize symmetric matrices isometrically for the Frobenius norm.

    Off-diagonal entries are scaled by sqrt(2) so the Euclidean norm of the
    output equals ``||S||_F``.
    """
    s = np.asarray(s, dtype=float)
    single = s.ndim == 2
    stack = s[None] if single else s
    d = stack.shape[-1]
    iu = np.triu_indices(d, k=1)
    diag = np.einsum("...ii->...i", stack)
    off = stack[..., iu[0], iu[1]] * np.sqrt(2.0)
    out = np.concatenate([diag, off], axis=-1)
    return out[0] if single else out


def log_vectors(m):
    """The flat-metric points of :func:`logsw`: the vectorized matrix logs."""
    return sym_to_vec(spd_log(m))


def logsw(x, y, dirs, p=2.0, x_weights=None, y_weights=None):
    """Euclidean SW between log-pushforwards (the flat-metric ablation).

    The log images are vectorized with the sqrt(2) off-diagonal weighting so
    the flat metric equals the Frobenius norm, then sliced with uniform
    sphere directions on the d(d+1)/2 coordinates.
    """
    x_vec, y_vec = log_vectors(x), log_vectors(y)
    return sliced_cost(EuclideanSlicer(dirs), x_vec, y_vec, p, x_weights, y_weights)


def logsw_directions(d, n_projections, seed=0):
    """Sphere directions in the vectorized symmetric space of dimension d."""
    return sample_directions(d * (d + 1) // 2, n_projections, seed=seed)


@dataclass(frozen=True)
class QuantileFeatures:
    """Per-slice quantile evaluations backing the sliced kernel."""

    values: np.ndarray  # (M, L), scaled by 1/sqrt(M L)
    grid: np.ndarray  # quantile levels, increasing in (0, 1)


def kernel_features(cloud, slices, n_quantiles, grid=None, weights=None):
    r"""Approximate feature map :math:`\hat\Phi(\mu)` of the sliced kernel.

    ``values[j, i] = F^{-1}_{t^{A_i}_\#\mu}(q_j) / \sqrt{ML}`` on the
    midpoint grid :math:`q_j = (j - 1/2)/M` by default.
    """
    if grid is None:
        grid = (np.arange(1, n_quantiles + 1) - 0.5) / n_quantiles
    grid = np.asarray(grid, dtype=float)
    if np.any(grid <= 0.0) or np.any(grid >= 1.0) or np.any(np.diff(grid) <= 0):
        raise InvalidInput("quantile grid must be strictly increasing inside (0, 1)")
    cloud = np.asarray(cloud, dtype=float)
    w = validate_weights(weights, n=cloud.shape[0])
    rows, order = sorted_rows(coordinate_le(cloud, slices))  # (L, n)
    cums = np.cumsum(w[order], axis=-1)
    values = quantile_rows(rows, cums, grid * cums[:, -1:]).T
    return QuantileFeatures(values=values / np.sqrt(values.size), grid=grid)


def gaussian_kernel(f, g, sigma):
    r"""Gaussian kernel :math:`\exp(-\|F - G\|^2 / (2\sigma^2))` on features."""
    check_positive(sigma, "sigma")
    sq = float(np.sum((f.values - g.values) ** 2))
    return float(np.exp(-sq / (2.0 * sigma**2)))


__all__ = [
    "QuantileFeatures",
    "SpdSlicer",
    "busemann_ai",
    "coordinate_le",
    "dist_ai",
    "dist_le",
    "gaussian_kernel",
    "hspdsw",
    "kernel_features",
    "log_vectors",
    "logsw",
    "logsw_directions",
    "sample_unit_symmetric",
    "spd_exp",
    "spd_log",
    "spdsw",
    "sym_eig",
    "sym_to_vec",
]

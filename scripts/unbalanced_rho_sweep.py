"""Sweep the KL penalty of USW on a cloud with a planted outlier mode.

Shows how much of the outlier's mass the optimal marginals keep as the
penalty grows: small rho discards it, large rho converges to balanced SW.
At penalties below ~1e-2 the dual curvature scales like 1/rho and the
reported value needs hundreds of Frank-Wolfe rounds to converge; the kept
mass stabilizes much earlier.

    python scripts/unbalanced_rho_sweep.py --slicer euclidean
    python scripts/unbalanced_rho_sweep.py --slicer hyperbolic --fw-iters 100
"""

import argparse

import numpy as np

from msot.hyperbolic import HyperbolicSlicer, exp_map, origin, sample_wrapped_normal
from msot.sliced import EuclideanSlicer, sample_directions
from msot.unbalanced import UnbalancedParams, usw


def euclidean_instance(rng):
    core = rng.normal(size=(30, 2)) * 0.2
    outliers = rng.normal(size=(6, 2)) * 0.2 + np.array([6.0, 6.0])
    x = np.concatenate([core, outliers])
    weights = np.concatenate([np.full(30, 0.8 / 30), np.full(6, 0.2 / 6)])
    y = rng.normal(size=(40, 2)) * 0.2
    return x, weights, y, EuclideanSlicer(sample_directions(2, 100, seed=0))


def hyperbolic_instance(rng):
    core = sample_wrapped_normal(origin(2), 0.05 * np.eye(2), 30, seed=1)
    far = exp_map(origin(2)[None, :], np.array([[0.0, 3.5, 0.0]]))[0]
    outliers = sample_wrapped_normal(far, 0.05 * np.eye(2), 6, seed=2)
    x = np.concatenate([core, outliers])
    weights = np.concatenate([np.full(30, 0.8 / 30), np.full(6, 0.2 / 6)])
    y = sample_wrapped_normal(origin(2), 0.05 * np.eye(2), 40, seed=3)
    slicer = HyperbolicSlicer(sample_directions(2, 100, seed=4), kind="geodesic")
    return x, weights, y, slicer


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--slicer", choices=("euclidean", "hyperbolic"), default="euclidean")
    parser.add_argument("--fw-iters", type=int, default=40)
    args = parser.parse_args()

    rng = np.random.default_rng(0)
    build = euclidean_instance if args.slicer == "euclidean" else hyperbolic_instance
    x, weights, y, slicer = build(rng)
    outlier_input_mass = float(np.sum(weights[30:]))
    print(f"slicer: {args.slicer}; outlier input mass {outlier_input_mass:.3f}")
    print(f"{'rho':>10} {'usw value':>12} {'outlier mass kept':>18}")
    for rho in (1e-3, 1e-2, 1e-1, 1e0, 1e1, 1e3):
        params = UnbalancedParams(rho1=rho, rho2=rho, n_iters=args.fw_iters)
        value, _, marginals, _ = usw(x, y, slicer, params, x_weights=weights)
        kept = float(np.sum(marginals.source[30:]))
        print(f"{rho:10.0e} {value:12.6f} {kept:18.6f}")


if __name__ == "__main__":
    main()

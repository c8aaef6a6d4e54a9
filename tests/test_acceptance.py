"""Acceptance suite: one test per criterion, one pass/fail line printed each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
"""

import contextlib
import json
import time

import numpy as np
import pytest
from scipy import integrate

from msot.busemann import (
    BWGaussian,
    GaussianRay,
    QuantileRay,
    busemann_bw,
    busemann_gaussian1d,
    busemann_w1d,
    gaussian_pca_1d,
)
from msot.cli import main as cli_main
from msot.flows import (
    EntropyFunctional,
    GridState,
    InnerOptimizer,
    InteractionFunctional,
    PotentialFunctional,
    SumFunctional,
    euler_particles,
    quadratic_potential,
    swjko_grid,
    swjko_particles,
)
from msot.gw import gw1d_inner, hw_tensor, mk_gaussian
from msot.hyperbolic import (
    exp_map,
    ghsw,
    hhsw,
    lorentz_to_poincare,
    origin,
    sample_wrapped_normal,
)
from msot.measures import (
    build_circle_profile,
    build_profile,
    circle_w1_level_median,
    circle_w2_vs_uniform,
    circle_wp_binary_search,
    wasserstein_1d,
    wasserstein_1d_batched,
)
from msot.sliced import EuclideanSlicer, sample_directions, sw2_subgradient, sw_p
from msot.spd import (
    coordinate_le,
    dist_le,
    gaussian_kernel,
    kernel_features,
    sample_unit_symmetric,
    spd_log,
    spdsw,
    sym_to_vec,
)
from msot.unbalanced import (
    UnbalancedParams,
    sliced_dual,
    suot,
    usw,
)

from oracles import (
    bw_geodesic_point,
    dist_lorentz,
    gw_inner_exhaustive,
    hw_tensor_naive,
    ring_equilibrium_radius,
    wasserstein_pp_permutations,
)
from samples import sample_spd_cloud


@contextlib.contextmanager
def criterion(num, text):
    try:
        yield
    except Exception:
        print(f"FAIL  criterion {num:2d}: {text}")
        raise
    print(f"PASS  criterion {num:2d}: {text}")


def test_criterion_01_axis_dilation():
    with criterion(1, "axis-supported measures: SW2^2 = W2^2/d within 5% at L=1e4"):
        rng = np.random.default_rng(10)
        start = time.perf_counter()
        for d in (2, 5, 10):
            n, m = 180, 220
            x1 = rng.normal(size=n)
            y1 = rng.normal(size=m) + 0.8
            x = np.zeros((n, d))
            x[:, 0] = x1
            y = np.zeros((m, d))
            y[:, 0] = y1
            w1 = wasserstein_1d(build_profile(x1), build_profile(y1), 2)
            dirs = sample_directions(d, 10_000, seed=100 + d)
            est = sw_p(x, y, dirs, p=2)
            assert est == pytest.approx(w1 / d, rel=0.05)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s"


def test_criterion_02_isotropic_gaussian_closed_form():
    with criterion(2, "isotropic Gaussians: SW2^2 = |mu-m|^2/d + (sigma-s)^2 within 5%"):
        rng = np.random.default_rng(11)
        d, n = 5, 5000
        mu_mean, nu_mean = np.full(d, 0.7), np.full(d, -0.3)
        sigma, s = 1.0, 2.0
        x = mu_mean + sigma * rng.standard_normal((n, d))
        y = nu_mean + s * rng.standard_normal((n, d))
        dirs = sample_directions(d, 3000, seed=12)
        expected = float(np.sum((mu_mean - nu_mean) ** 2)) / d + (sigma - s) ** 2
        assert sw_p(x, y, dirs, p=2) == pytest.approx(expected, rel=0.05)


def test_criterion_03_circle_closed_forms():
    with criterion(3, "circle closed forms (1/12, 1/48) and p=1 path agreement"):
        # independent geodesic-integral oracle for the Dirac case
        def circle_dist(x, y):
            d = abs(x - y) % 1.0
            return min(d, 1.0 - d)

        oracle_dirac, _ = integrate.quad(lambda y: circle_dist(0.5, y) ** 2, 0.0, 1.0)
        got_dirac = circle_w2_vs_uniform(build_circle_profile([0.5], [1.0]))
        assert abs(got_dirac - 1.0 / 12.0) <= 1e-12
        assert abs(got_dirac - oracle_dirac) <= 1e-9
        # two antipodal atoms: each atom receives its nearest quarter arcs
        oracle_pair = 4.0 * integrate.quad(lambda u: u**2, 0.0, 0.25)[0]
        got_pair = circle_w2_vs_uniform(build_circle_profile([0.0, 0.5]))
        assert abs(got_pair - 1.0 / 48.0) <= 1e-12
        assert abs(got_pair - oracle_pair) <= 1e-9
        rng = np.random.default_rng(13)
        for _ in range(100):
            mu = build_circle_profile(rng.random(rng.integers(2, 9)))
            nu = build_circle_profile(rng.random(rng.integers(2, 9)))
            bs = circle_wp_binary_search(mu, nu, p=1, eps=1e-8)
            lm = circle_w1_level_median(mu, nu)
            assert abs(bs - lm) <= 1e-5


def test_criterion_04_chsw_upper_bound():
    with criterion(4, "GHSW/HHSW/SPDSW below brute-force W_p^p, 100 instances"):
        rng = np.random.default_rng(14)
        ideal = sample_directions(2, 500, seed=15)
        for trial in range(50):
            n = int(rng.integers(2, 8))
            x = sample_wrapped_normal(origin(2), 0.4 * np.eye(2), n, seed=1000 + trial)
            y = sample_wrapped_normal(origin(2), 0.4 * np.eye(2), n, seed=2000 + trial)
            cost = dist_lorentz(np.repeat(x, n, axis=0), np.tile(y, (n, 1))).reshape(n, n)
            w = wasserstein_pp_permutations(cost, 2.0)
            assert ghsw(x, y, ideal, p=2) <= w + 1e-9
            assert hhsw(x, y, ideal, p=2) <= w + 1e-9
        slices = sample_unit_symmetric(3, 500, seed=16)
        for trial in range(50):
            n = int(rng.integers(2, 8))
            x = sample_spd_cloud(3, n, seed=3000 + trial)
            y = sample_spd_cloud(3, n, seed=4000 + trial)
            cost = np.array([[dist_le(xi, yj) for yj in y] for xi in x])
            w = wasserstein_pp_permutations(cost, 2.0)
            assert spdsw(x, y, slices, p=2) <= w + 1e-9


def test_criterion_05_model_equivalences():
    with criterion(5, "Lorentz/Poincare agreement 1e-9; SPDSW = SymSW(log) 1e-12"):
        for trial in range(10):
            x = sample_wrapped_normal(origin(3), 0.3 * np.eye(3), 9, seed=100 + trial)
            y = sample_wrapped_normal(origin(3), 0.3 * np.eye(3), 11, seed=200 + trial)
            dirs = sample_directions(3, 60, seed=300 + trial)
            xb, yb = lorentz_to_poincare(x), lorentz_to_poincare(y)
            assert abs(
                ghsw(x, y, dirs) - ghsw(xb, yb, dirs, model="poincare")
            ) <= 1e-9
            assert abs(
                hhsw(x, y, dirs) - hhsw(xb, yb, dirs, model="poincare")
            ) <= 1e-9
        for trial in range(10):
            x = sample_spd_cloud(3, 6, seed=400 + trial)
            y = sample_spd_cloud(3, 7, seed=500 + trial)
            slices = sample_unit_symmetric(3, 40, seed=600 + trial)
            direct = spdsw(x, y, slices, p=2)
            # independent SymSW path: vectorized log pushforwards sliced by
            # the same symmetric directions through plain inner products
            vx = sym_to_vec(spd_log(x)) @ sym_to_vec(slices).T
            vy = sym_to_vec(spd_log(y)) @ sym_to_vec(slices).T
            symsw = float(np.mean(wasserstein_1d_batched(vx, vy, p=2)))
            assert abs(direct - symsw) <= 1e-12


def test_criterion_06_kernel_identity():
    with criterion(6, "quantile features recover SPDSW2^2 at M=n; Gram PSD"):
        slices = sample_unit_symmetric(3, 20, seed=17)
        for trial in range(10):
            n = int(np.random.default_rng(trial).integers(3, 10))
            x = sample_spd_cloud(3, n, seed=700 + trial)
            y = sample_spd_cloud(3, n, seed=800 + trial)
            fx = kernel_features(x, slices, n_quantiles=n)
            fy = kernel_features(y, slices, n_quantiles=n)
            sq = float(np.sum((fx.values - fy.values) ** 2))
            assert abs(sq - spdsw(x, y, slices, p=2)) <= 1e-10
        clouds = [sample_spd_cloud(2, 5, seed=900 + i) for i in range(10)]
        g_slices = sample_unit_symmetric(2, 25, seed=18)
        feats = [kernel_features(c, g_slices, n_quantiles=5) for c in clouds]
        gram = np.array(
            [[gaussian_kernel(f, g, sigma=1.0) for g in feats] for f in feats]
        )
        assert float(np.min(np.linalg.eigvalsh(gram))) >= -1e-8


def test_criterion_07_unbalanced():
    with criterion(7, "unbalanced limits, SUOT<=USW ordering, outlier removal, dual gap"):
        rng = np.random.default_rng(19)
        # balanced limit at rho = 1e6
        x = rng.normal(size=(12, 3))
        y = rng.normal(size=(15, 3)) + 0.6
        dirs = sample_directions(3, 50, seed=20)
        slicer = EuclideanSlicer(dirs)
        sw_value = sw_p(x, y, dirs, p=2)
        params = UnbalancedParams(rho1=1e6, rho2=1e6, n_iters=150)
        suot_value, _, _ = suot(x, y, slicer, params)
        usw_value, _, _, _ = usw(x, y, slicer, params)
        assert suot_value == pytest.approx(sw_value, rel=1e-3)
        assert usw_value == pytest.approx(sw_value, rel=1e-3)
        # ordering on 50 random unbalanced instances with shared slices
        for trial in range(50):
            n, m = int(rng.integers(3, 8)), int(rng.integers(3, 8))
            xs = rng.normal(size=(n, 2))
            ys = rng.normal(size=(m, 2)) + 0.5
            a = rng.random(n) + 0.1
            b = rng.random(m) + 0.1
            sl = EuclideanSlicer(sample_directions(2, 10, seed=5000 + trial))
            pr = UnbalancedParams(rho1=0.5, rho2=1.5, n_iters=80)
            v_suot, _, _ = suot(xs, ys, sl, pr, x_weights=a, y_weights=b)
            v_usw, _, _, _ = usw(xs, ys, sl, pr, x_weights=a, y_weights=b)
            assert v_suot <= v_usw + 1e-8
        # planted outlier: reweighted mass below 10% of its input mass
        core = rng.normal(size=(20, 2)) * 0.1
        outlier = np.array([[10.0, 10.0]])
        xo = np.concatenate([core, outlier])
        ao = np.concatenate([np.full(20, 0.9 / 20), [0.1]])
        yo = rng.normal(size=(25, 2)) * 0.1
        sl = EuclideanSlicer(sample_directions(2, 30, seed=21))
        _, _, marg, _ = usw(
            xo, yo, sl, UnbalancedParams(rho1=1.0, rho2=1.0, n_iters=30), x_weights=ao
        )
        assert marg.source[-1] < 0.1 * ao[-1]
        # per-slice primal-dual gap of the balanced oracle
        for trial in range(20):
            a = rng.random(10) + 0.05
            b = rng.random(10) + 0.05
            b *= a.sum() / b.sum()
            mu = build_profile(rng.normal(size=10), a)
            nu = build_profile(rng.normal(size=10), b)
            pots = sliced_dual(mu, nu, p=2)
            dual_val = float(np.sum(pots.f * mu.weights) + np.sum(pots.g * nu.weights))
            assert abs(dual_val - wasserstein_1d(mu, nu, 2)) <= 1e-10


def test_criterion_08_flows():
    with criterion(
        8,
        "flows: ring radius R*=1/sqrt(3)+-0.01 (std<=0.02), JKO traces "
        "nonincreasing, FD gradient",
    ):
        # sw2 subgradient against central finite differences
        rng = np.random.default_rng(22)
        xg = rng.normal(size=(6, 3))
        yg = rng.normal(size=(6, 3))
        dirs = sample_directions(3, 25, seed=23)
        grad = sw2_subgradient(xg, yg, dirs)
        h = 1e-6
        for i in range(6):
            for k in range(3):
                plus = xg.copy()
                plus[i, k] += h
                minus = xg.copy()
                minus[i, k] -= h
                fd = (sw_p(plus, yg, dirs) - sw_p(minus, yg, dirs)) / (2 * h)
                assert grad[i, k] == pytest.approx(fd, rel=1e-5, abs=1e-8)
        # SW-JKO traces nonincreasing: Fokker-Planck grid run
        nodes = np.linspace(-1.2, 1.2, 25)[:, None]
        rho0 = np.exp(-0.5 * (nodes[:, 0] + 0.3) ** 2 / 0.36)
        rho0 /= rho0.sum()
        grid = GridState(
            nodes=nodes, rho=rho0, cell_volume=float(nodes[1, 0] - nodes[0, 0])
        )
        func = SumFunctional(
            [
                PotentialFunctional(
                    v=lambda p: 0.5 * float((p[0] - 0.2) ** 2),
                    grad_v=lambda p: p - 0.2,
                ),
                EntropyFunctional(),
            ]
        )
        grid_trace = swjko_grid(
            grid,
            func,
            tau=0.3,
            n_steps=15,
            inner=InnerOptimizer(learning_rate=0.002, n_steps=300),
            n_projections=1,
            seed=24,
        )
        assert float(np.max(np.diff(grid_trace.energies))) <= 1e-8
        # SW-JKO particle run (potential functional; entropy has no
        # particle density)
        x0 = rng.normal(size=(40, 2)) * 0.5 + np.array([1.0, -1.0])
        particle_trace = swjko_particles(
            x0,
            quadratic_potential(np.zeros(2)),
            tau=0.1,
            n_steps=12,
            inner=InnerOptimizer(learning_rate=0.02, n_steps=80),
            n_projections=40,
            seed=25,
        )
        assert float(np.max(np.diff(particle_trace.energies))) <= 1e-8
        # aggregation ring: forward Euler collapses the cloud onto the Dirac
        # ring of W(z) = |z|^4/4 - |z|^2/2.  On a uniform ring of radius R the
        # radial mean-field force is R(3R^2 - 1), which vanishes only at
        # R* = 1/sqrt(3); the target comes from the quadrature oracle.
        ring_star = ring_equilibrium_radius(4.0, 2.0)
        ring0 = np.random.default_rng(26).multivariate_normal(
            np.zeros(2), 0.005 * np.eye(2), size=500
        )
        ring_trace = euler_particles(
            ring0,
            InteractionFunctional(),
            step_size=0.1,
            n_steps=200,
            record_positions=True,
        )
        radii = np.linalg.norm(ring_trace.records[-1].positions, axis=1)
        mean_radius = float(np.mean(radii))
        assert abs(mean_radius - ring_star) <= 0.01, (
            f"mean ring radius {mean_radius:.4f}; the ring equilibrium of the "
            f"kernel, the root of R(3R^2 - 1) = 0, is R* = {ring_star:.4f}"
        )
        assert float(np.std(radii)) <= 0.02, "particles did not collapse onto a ring"


def test_criterion_09_busemann_pca():
    with criterion(9, "Busemann linear along rays; PCA special cases and variance"):
        # 1D quantile ray: B(mu_t) = -t within 1e-8
        ray = QuantileRay(
            mu0=build_profile([0.0], [1.0]), mu1=build_profile([-1.0, 1.0])
        )
        for t in (0.0, 0.5, 1.0, 3.0):
            qs = np.array([0.5, 1.0])
            nu = build_profile(ray.quantiles_at(t, qs), np.diff(qs, prepend=0.0))
            assert abs(busemann_w1d(ray, nu) + t) <= 1e-8
        gray = GaussianRay(m0=0.2, s0=0.9, m1=0.2 + 0.6, s1=0.9 + 0.8)
        for t in (0.0, 0.5, 1.0, 3.0):
            m_t, s_t = gray.at(t)
            assert abs(busemann_gaussian1d(gray, m_t, s_t) + t) <= 1e-8
        # BW-Gaussian ray
        rng = np.random.default_rng(27)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        sigma0 = q @ np.diag(rng.random(3) + 0.5) @ q.T
        growth = q @ np.diag(rng.random(3) + 0.2) @ q.T
        dm = rng.normal(size=3)
        speed = np.sqrt(dm @ dm + np.trace(growth @ sigma0 @ growth))
        a = np.eye(3) + growth / speed
        mu0 = BWGaussian(mean=np.zeros(3), cov=sigma0)
        mu1 = BWGaussian(mean=dm / speed, cov=a @ sigma0 @ a)
        for t in (0.5, 1.0, 2.0):
            nu = bw_geodesic_point(mu0, mu1, t)
            assert abs(busemann_bw(mu0, mu1, nu) + t) <= 1e-8
        # PCA special cases reproduce (m0, s0+1) / (m0+1, s0) exactly
        sig_data = np.stack([np.full(30, 0.7), rng.random(30) + 0.5], axis=1)
        ray1, _, _ = gaussian_pca_1d(sig_data, origin=(0.7, 1.0))
        assert (ray1.m1, ray1.s1) == (0.7, 2.0)
        mean_data = np.stack([rng.normal(size=30), np.full(30, 1.5)], axis=1)
        ray1, _, _ = gaussian_pca_1d(mean_data, origin=(0.0, 1.5))
        assert (ray1.m1, ray1.s1) == (1.0, 1.5)
        # variance optimality against 100 random feasible directions
        data = np.stack([rng.normal(size=50), rng.random(50) + 0.5], axis=1)
        _, _, scores = gaussian_pca_1d(data)
        first_var = float(np.var(scores[:, 0]))
        m0 = float(np.mean(data[:, 0]))
        s0 = float(np.mean(data[:, 1]))
        for _ in range(100):
            phi = rng.uniform(0.0, np.pi)
            direction = np.array([np.cos(phi), np.sin(phi)])
            vals = (data - np.array([m0, s0])) @ direction
            assert float(np.var(vals)) <= first_var + 1e-12


def test_criterion_10_gromov():
    with criterion(10, "gw1d exhaustive equality; hw_tensor naive; MK transport identity"):
        rng = np.random.default_rng(28)
        for n in (2, 3, 4, 5, 6):
            for _ in range(4):
                x = np.sort(rng.normal(size=n))
                y = np.sort(rng.normal(size=n))
                a = np.full(n, 1.0 / n)
                _, value = gw1d_inner(x, a, y, a)
                want = gw_inner_exhaustive(x, a, y, a)
                assert abs(value - want) <= 1e-10
        for _ in range(5):
            x = rng.normal(size=(3, 2))
            y = rng.normal(size=(3, 2))
            a = np.full(3, 1 / 3)
            from msot.measures import nw_corner

            plan = nw_corner(a, a)
            got = hw_tensor(x, y, plan)
            want = hw_tensor_naive(x, y, plan)
            assert np.max(np.abs(got - want)) <= 1e-10
        for trial in range(50):
            p, q, k = 4, 3, 2
            zs = rng.normal(size=(p, p))
            sigma = zs @ zs.T / p + 0.2 * np.eye(p)
            zt = rng.normal(size=(q, q))
            lam = zt @ zt.T / q + 0.2 * np.eye(q)
            qe, _ = np.linalg.qr(rng.normal(size=(p, p)))
            qf, _ = np.linalg.qr(rng.normal(size=(q, q)))
            b = mk_gaussian(sigma, lam, qe[:, :k], qf[:, :k])
            assert np.linalg.norm(b @ sigma @ b.T - lam) <= 1e-8


def test_criterion_11_cli_determinism(tmp_path):
    with criterion(11, "CLI reruns with identical config are numerically identical"):
        rng = np.random.default_rng(29)

        def euclidean_csv(path, points):
            pts = np.asarray(points, dtype=float)
            header = ",".join(f"x{i}" for i in range(pts.shape[1]))
            lines = [header] + [
                ",".join(repr(float(v)) for v in row) for row in pts
            ]
            path.write_text("\n".join(lines) + "\n")

        a, b, c = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
        euclidean_csv(a, rng.normal(size=(6, 2)))
        euclidean_csv(b, rng.normal(size=(7, 2)))
        euclidean_csv(c, rng.normal(size=(5, 2)))
        gaussians = tmp_path / "g.csv"
        gaussians.write_text(
            "m,sigma\n" + "\n".join(f"{m},{s}" for m, s in rng.random((12, 2)) + 0.3)
        )
        runs = [
            ["dist", "usw", str(a), str(b), "--projections", "15", "--seed", "7"],
            ["matrix", "sw", str(a), str(b), str(c), "--projections", "15"],
            ["pca", str(gaussians)],
            ["gw", "gw1d", str(a.with_suffix('.1d.csv')), str(b.with_suffix('.1d.csv'))],
            [
                "flow", "jko-particles", str(a), "--functional", "interaction",
                "--tau", "0.1", "--steps", "3", "--inner-lr", "0.02",
                "--inner-steps", "20", "--projections", "10", "--seed", "3",
                "--record-positions",
            ],
        ]
        euclidean_csv(a.with_suffix(".1d.csv"), np.sort(rng.normal(size=5))[:, None])
        euclidean_csv(b.with_suffix(".1d.csv"), np.sort(rng.normal(size=5))[:, None])
        for argv in runs:
            outputs = []
            for rep in range(2):
                out = tmp_path / f"out_{rep}.json"
                code = cli_main([*argv, "--out", str(out)])
                assert code == 0
                text = out.read_text()
                if argv[0] != "flow":
                    payload = json.loads(text)
                    payload.pop("wallclock_ms")
                    text = json.dumps(payload, sort_keys=True)
                outputs.append(text)
            assert outputs[0] == outputs[1], f"run {argv[0]} not deterministic"

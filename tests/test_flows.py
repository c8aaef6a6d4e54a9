import numpy as np
import pytest

from msot import flows
from msot.errors import FlowDiverged, InvalidInput
from msot.flows import (
    EntropyFunctional,
    FlowRecord,
    FlowTrace,
    Functional,
    GhswToTargetFunctional,
    GridState,
    InnerOptimizer,
    InteractionFunctional,
    PotentialFunctional,
    SumFunctional,
    SwToTargetFunctional,
    euler_particles,
    quadratic_potential,
    simplex_project,
    swjko_grid,
    swjko_particles,
)
from msot.hyperbolic import exp_map, origin, sample_wrapped_normal
from msot.sliced import sample_directions

from oracles import (
    dist_lorentz,
    dual_1d_batched_gathers,
    euler_particles_loop,
    ghsw_gradient_dense,
    interaction_dense,
    interaction_on_norms,
    pairwise_from_zeros,
    potential_per_atom,
    ring_equilibrium_radius,
    ring_radial_force,
    sw2_subgradient_stable,
    swjko_particles_loop,
    wasserstein_pp_assignment,
)


class TestFunctionalValues:
    def test_interaction_single_particle(self):
        func = InteractionFunctional()
        assert func.value(np.zeros((1, 2))) == 0.0

    def test_interaction_two_atoms_at_distance_one(self):
        func = InteractionFunctional()
        pts = np.array([[0.0, 0.0], [1.0, 0.0]])
        assert func.value(pts) == pytest.approx(-1.0 / 16.0, abs=1e-15)

    def test_potential_squared_norm(self):
        func = PotentialFunctional(
            v=lambda x: float(np.sum(x**2)), grad_v=lambda x: 2.0 * x
        )
        pts = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert func.value(pts) == pytest.approx(1.0)

    def test_entropy_unsupported_on_particles(self):
        with pytest.raises(InvalidInput):
            EntropyFunctional().value(np.zeros((3, 2)))

    def test_entropy_on_grid(self):
        grid = GridState(
            nodes=np.zeros((2, 1)), rho=np.array([0.5, 0.5]), cell_volume=0.5
        )
        assert EntropyFunctional().grid_value(grid) == pytest.approx(0.0)

    def test_interaction_grid_value_on_two_nodes(self):
        func = InteractionFunctional()
        grid = GridState(
            nodes=np.array([[0.0], [1.0]]), rho=np.array([0.5, 0.5]), cell_volume=1.0
        )
        assert func.grid_value(grid) == pytest.approx(
            func.value(grid.nodes, grid.rho)
        )

    def test_interaction_gradient_finite_differences(self):
        rng = np.random.default_rng(0)
        func = InteractionFunctional()
        pts = rng.normal(size=(5, 2))
        grad = func.particle_gradient(pts)
        h = 1e-6
        for i in range(5):
            for k in range(2):
                plus = pts.copy()
                plus[i, k] += h
                minus = pts.copy()
                minus[i, k] -= h
                fd = (func.value(plus) - func.value(minus)) / (2 * h)
                assert grad[i, k] == pytest.approx(fd, rel=1e-4, abs=1e-8)

    def test_ghsw_gradient_directional_derivatives(self):
        # ambient-gradient check along on-manifold exponential curves: for
        # tangent directions xi the derivative equals <ambient grad, xi>
        from msot.hyperbolic import exp_map as hexp
        from msot.hyperbolic import minkowski_ip

        target = sample_wrapped_normal(origin(2), 0.3 * np.eye(2), 6, seed=0)
        x = sample_wrapped_normal(origin(2), 0.3 * np.eye(2), 6, seed=1)
        dirs = sample_directions(2, 10, seed=2)
        func = GhswToTargetFunctional(target, dirs)
        grad = func.particle_gradient(x)
        rng = np.random.default_rng(3)
        h = 1e-5
        for _ in range(5):
            z = rng.normal(size=x.shape)
            xi = z + minkowski_ip(x, z)[:, None] * x  # tangent projection
            plus = hexp(x, h * xi)
            minus = hexp(x, -h * xi)
            fd = (func.value(plus) - func.value(minus)) / (2 * h)
            want = float(np.sum(grad * xi))
            assert fd == pytest.approx(want, rel=1e-4, abs=1e-7)


def _cloud(d, weighted, seed):
    """A cloud of 17 atoms in R^d, off the origin, with two coincident pairs."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(17, d)) * 0.8 + 2.5
    x[3] = x[0]
    x[-1] = x[5]
    w = rng.uniform(0.0, 1.0, 17) if weighted else np.full(17, 1.0 / 17)
    return x, w / np.sum(w)


def _max_rel(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


class TestBatchedFunctionals:
    """The whole-array functionals against per-atom and (n, n, d) oracles."""

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_quadratic_potential_matches_per_atom(self, d, weighted):
        x, w = _cloud(d, weighted, seed=d)
        target, strength = np.linspace(-1.0, 1.0, d), 1.7
        func = quadratic_potential(target, strength=strength)
        value, grad, node_values = potential_per_atom(
            lambda p: 0.5 * strength * float(np.sum((p - target) ** 2)),
            lambda p: strength * (p - target),
            x,
            w,
        )
        weights = w if weighted else None
        assert func.value(x, weights) == pytest.approx(value, rel=1e-12)
        assert _max_rel(func.particle_gradient(x, weights), grad) <= 1e-12
        grid = GridState(nodes=x, rho=w, cell_volume=1.0)
        assert func.grid_value(grid) == pytest.approx(value, rel=1e-12)
        assert _max_rel(func.grid_gradient(grid), node_values) <= 1e-12

    def test_user_callables_run_per_atom(self):
        x, w = _cloud(3, True, seed=0)

        def v(p):
            return float(np.sin(p[0]) + p[1] * p[2])

        def grad_v(p):
            return np.array([np.cos(p[0]), p[2], p[1]])

        func = PotentialFunctional(v=v, grad_v=grad_v)
        value, grad, node_values = potential_per_atom(v, grad_v, x, w)
        assert func.value(x, w) == value
        assert np.array_equal(func.particle_gradient(x, w), grad)
        grid = GridState(nodes=x, rho=w, cell_volume=1.0)
        assert np.array_equal(func.grid_gradient(grid), node_values)

    @pytest.mark.parametrize("kernel", [(4.0, 2.0), (3.0, 1.5)])
    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_interaction_matches_dense_tensor(self, d, weighted, kernel):
        x, w = _cloud(d, weighted, seed=10 + d)
        func = InteractionFunctional(*kernel)
        value, grad, node_grad = interaction_dense(x, w, *kernel)
        weights = w if weighted else None
        assert func.value(x, weights) == pytest.approx(value, rel=1e-12)
        assert _max_rel(func.particle_gradient(x, weights), grad) <= 1e-12
        both = func.value_and_gradient(x, weights)
        assert both[0] == pytest.approx(value, rel=1e-12)
        assert _max_rel(both[1], grad) <= 1e-12
        on_norms = interaction_on_norms(x, w, *kernel)
        assert both[0] == pytest.approx(on_norms[0], rel=1e-12)
        assert _max_rel(both[1], on_norms[1]) <= 1e-12
        grid = GridState(nodes=x, rho=w, cell_volume=1.0)
        assert func.grid_value(grid) == pytest.approx(value, rel=1e-12)
        assert _max_rel(func.grid_gradient(grid), node_grad) <= 1e-12

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_pairwise_is_the_sum_from_zeros_bit_for_bit(self, d):
        x, _ = _cloud(d, False, seed=30 + d)
        got = InteractionFunctional()._pairwise(x)
        assert np.array_equal(got, pairwise_from_zeros(x))

    def test_points_without_coordinates_rejected(self):
        x, w = _cloud(0, False, seed=30)
        func = InteractionFunctional()
        grid = GridState(nodes=x, rho=w, cell_volume=1.0)
        for call in (lambda: func.value(x), lambda: func.particle_gradient(x),
                     lambda: func.value_and_gradient(x), lambda: func.grid_gradient(grid)):
            with pytest.raises(InvalidInput, match=r"needs \(n, d\) points, d >= 1"):
                call()

    def test_value_and_gradient_is_value_and_particle_gradient(self):
        x, w = _cloud(2, True, seed=7)
        parts = [quadratic_potential(np.array([0.5, -0.2])), InteractionFunctional(3.0, 1.5)]
        for func in (*parts, SumFunctional(parts)):
            value, grad = func.value_and_gradient(x, w)
            assert value == func.value(x, w)
            assert np.array_equal(grad, func.particle_gradient(x, w))

    @pytest.mark.parametrize(
        "make",
        [
            lambda x: PotentialFunctional(
                v=lambda p: float(np.sin(p[0]) + p[1] ** 2),
                grad_v=lambda p: np.array([np.cos(p[0]), 2.0 * p[1]]),
            ),
            lambda x: quadratic_potential(np.array([0.5, -0.2]), strength=1.7),
            lambda x: InteractionFunctional(),
            lambda x: SwToTargetFunctional(
                x[::-1] + 0.3, sample_directions(2, 9, seed=1)
            ),
        ],
        ids=["potential", "quadratic", "interaction", "sw-target"],
    )
    def test_grid_value_is_value_on_the_nodes(self, make):
        x, w = _cloud(2, True, seed=6)
        func = make(x)
        grid = GridState(nodes=x, rho=w, cell_volume=1.0)
        assert func.grid_value(grid) == func.value(grid.nodes, grid.rho)

    def test_ghsw_to_target_has_no_grid_surface(self):
        target = sample_wrapped_normal(origin(2), 0.3 * np.eye(2), 5, seed=0)
        func = GhswToTargetFunctional(target, sample_directions(2, 4, seed=1))
        grid = GridState(nodes=target, rho=np.full(5, 0.2), cell_volume=1.0)
        with pytest.raises(InvalidInput):
            func.grid_value(grid)

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_ghsw_gradient_matches_dense_tensor(self, d):
        x = sample_wrapped_normal(origin(d), 0.3 * np.eye(d), 17, seed=d)
        x[3] = x[0]
        target = sample_wrapped_normal(origin(d), 0.5 * np.eye(d), 17, seed=9)
        dirs = sample_directions(d, 12, seed=d)
        got = GhswToTargetFunctional(target, dirs).particle_gradient(x)
        assert _max_rel(got, ghsw_gradient_dense(x, target, dirs.dirs)) <= 1e-12

    @pytest.mark.parametrize(
        "functional",
        [quadratic_potential(np.array([0.5, -0.2])), InteractionFunctional()],
        ids=["potential", "interaction"],
    )
    def test_swjko_particles_matches_the_subgradient_loop(self, functional):
        rng = np.random.default_rng(3)
        x0 = rng.normal(size=(30, 2))
        x0[7] = x0[2]
        inner = InnerOptimizer(learning_rate=0.02, n_steps=15)
        trace = swjko_particles(
            x0, functional, tau=0.1, n_steps=3, inner=inner,
            n_projections=20, seed=4, record_positions=True,
        )
        want = swjko_particles_loop(x0, functional, 0.1, 3, inner, 20, 4)
        assert len(trace.records) == len(want)
        for record, (energy, objective, residual, positions) in zip(
            trace.records, want
        ):
            assert record.energy == energy
            assert record.objective == objective
            assert record.residual_grad == residual
            assert np.array_equal(record.positions, positions)


class TestFlowInputBoundary:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -0.1])
    def test_step_sizes_must_be_positive_and_finite(self, bad):
        x0 = np.zeros((3, 2))
        func = quadratic_potential(np.zeros(2))
        grid = GridState(nodes=x0, rho=np.full(3, 1.0 / 3), cell_volume=1.0)
        with pytest.raises(InvalidInput):
            euler_particles(x0, func, step_size=bad, n_steps=2)
        with pytest.raises(InvalidInput):
            swjko_particles(x0, func, tau=bad, n_steps=2)
        with pytest.raises(InvalidInput):
            swjko_grid(grid, func, tau=bad, n_steps=2)
        with pytest.raises(InvalidInput):
            InnerOptimizer(learning_rate=bad)
        with pytest.raises(InvalidInput):
            GridState(nodes=x0, rho=np.full(3, 1.0 / 3), cell_volume=bad)

    @pytest.mark.parametrize(
        "target, strength",
        [([np.nan, 0.0], 1.0), ([0.0, np.inf], 1.0), ([0.0, 0.0], np.inf),
         ([0.0, 0.0], np.nan), (np.zeros((2, 2)), 1.0)],
    )
    def test_quadratic_potential_parameters_must_be_finite(self, target, strength):
        with pytest.raises(InvalidInput):
            quadratic_potential(target, strength=strength)

    def test_potential_center_of_another_dimension(self):
        func = quadratic_potential(np.zeros(2))
        x = np.zeros((4, 3))
        grid = GridState(nodes=x, rho=np.full(4, 0.25), cell_volume=1.0)
        for call in (
            lambda: func.value(x),
            lambda: func.particle_gradient(x),
            lambda: func.grid_value(grid),
            lambda: func.grid_gradient(grid),
            lambda: euler_particles(x, func, step_size=0.1, n_steps=1),
        ):
            with pytest.raises(InvalidInput, match="dimension 2"):
                call()

    def test_scalar_center_applies_to_every_coordinate(self):
        x = np.array([[1.0, 2.0, 3.0]])
        assert quadratic_potential(1.0, strength=2.0).value(x) == 5.0

    @pytest.mark.parametrize("a, b", [(np.nan, 2.0), (4.0, np.nan), (np.inf, 2.0)])
    def test_interaction_exponents_must_be_finite(self, a, b):
        with pytest.raises(InvalidInput):
            InteractionFunctional(a=a, b=b)

    @pytest.mark.parametrize("a, b", [(4.0, 0.0), (4.0, -1.0), (2.0, 2.0), (1.0, 2.0)])
    def test_interaction_exponents_need_zero_below_b_below_a(self, a, b):
        # b <= 0 puts |0|^b / b, infinite or 0/0, on the diagonal
        with pytest.raises(InvalidInput, match="0 < b < a"):
            InteractionFunctional(a=a, b=b)


class TestSimplexProject:
    def test_fixed_point(self):
        assert np.allclose(simplex_project(np.array([0.5, 0.5])), [0.5, 0.5])

    def test_threshold(self):
        assert np.allclose(simplex_project(np.array([2.0, 0.0])), [1.0, 0.0])

    def test_symmetric(self):
        assert np.allclose(simplex_project(np.array([1.0, 1.0])), [0.5, 0.5])

    def test_translation_invariance(self):
        rng = np.random.default_rng(1)
        v = rng.normal(size=7)
        assert np.allclose(simplex_project(v), simplex_project(v + 3.7), atol=1e-12)

    def test_is_projection(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            v = rng.normal(size=5)
            p = simplex_project(v)
            assert np.all(p >= 0)
            assert np.sum(p) == pytest.approx(1.0, abs=1e-12)
            # optimality: no feasible direction improves the distance
            q = simplex_project(v + 1e-3 * rng.normal(size=5))
            assert np.sum((p - v) ** 2) <= np.sum((q - v) ** 2) + 1e-9

    @pytest.mark.parametrize(
        "v, want",
        [
            ([1e308, -1e308, 0.0], [1.0, 0.0, 0.0]),
            ([-1e308, 1e308, 1e308], [0.0, 0.5, 0.5]),
        ],
    )
    def test_extreme_entries_do_not_overflow(self, v, want):
        # the cumulative sum of the unshifted sorted entries overflows here
        assert simplex_project(np.array(v)).tolist() == want


class TestFlowTrace:
    def test_round_trip_lossless(self):
        trace = FlowTrace()
        rng = np.random.default_rng(3)
        for k in range(5):
            trace.append(
                FlowRecord(
                    step=k,
                    energy=float(rng.normal()) * np.pi,
                    objective=float(rng.normal()),
                )
            )
        text = trace.to_jsonl()
        back = FlowTrace.from_jsonl(text)
        assert [r.step for r in back.records] == [r.step for r in trace.records]
        for a, b in zip(trace.records, back.records):
            assert a.energy == b.energy  # bitwise: repr round-trip
            assert a.objective == b.objective

    def test_strictly_increasing_steps_enforced(self):
        trace = FlowTrace()
        trace.append(FlowRecord(step=0, energy=1.0))
        with pytest.raises(InvalidInput):
            trace.append(FlowRecord(step=0, energy=0.5))


class TestSwjkoParticles:
    @pytest.mark.parametrize("seed", range(3))
    def test_duplicate_atoms_trace_matches_the_stable_sort_loop(self, seed):
        """On a cloud whose atoms repeat (and stay repeated, so projections
        tie on every inner step) a 2-step trace is bit-identical to the loop
        on numpy's stable sort."""
        rng = np.random.default_rng(seed)
        x0 = rng.integers(-2, 3, size=(24, 2)).astype(float)
        functional = quadratic_potential(np.array([0.3, -0.1]))
        inner = InnerOptimizer(learning_rate=0.02, n_steps=6)
        trace = swjko_particles(
            x0, functional, tau=0.1, n_steps=2, inner=inner,
            n_projections=12, seed=seed, record_positions=True,
        )
        want = swjko_particles_loop(
            x0, functional, 0.1, 2, inner, 12, seed, subgradient=sw2_subgradient_stable
        )
        assert len(trace.records) == len(want) == 3
        for record, (energy, objective, residual, positions) in zip(trace.records, want):
            assert record.energy == energy
            assert record.objective == objective
            assert record.residual_grad == residual
            assert np.array_equal(record.positions, positions)
        assert len(np.unique(trace.records[-1].positions, axis=0)) < len(x0)

    def test_zero_functional_is_static(self):
        class Zero(
            PotentialFunctional
        ):  # potential 0 everywhere: minimizer is the previous state
            def __init__(self):
                super().__init__(v=lambda x: 0.0, grad_v=lambda x: np.zeros_like(x))

        rng = np.random.default_rng(4)
        x0 = rng.normal(size=(12, 2))
        trace = swjko_particles(
            x0,
            Zero(),
            tau=0.1,
            n_steps=3,
            inner=InnerOptimizer(learning_rate=0.02, n_steps=40),
            n_projections=30,
            seed=5,
            record_positions=True,
        )
        final = trace.records[-1].positions
        assert np.max(np.abs(final - x0)) <= 1e-10

    def test_sw_target_at_initial_state_is_constant(self):
        rng = np.random.default_rng(6)
        x0 = rng.normal(size=(10, 2))
        dirs = sample_directions(2, 25, seed=7)
        func = SwToTargetFunctional(x0, dirs)
        trace = swjko_particles(
            x0,
            func,
            tau=0.05,
            n_steps=3,
            inner=InnerOptimizer(learning_rate=0.02, n_steps=30),
            n_projections=25,
            seed=8,
            record_positions=True,
        )
        assert np.max(np.abs(trace.records[-1].positions - x0)) <= 1e-8
        assert np.max(np.abs(trace.energies)) <= 1e-10

    def test_energy_nonincreasing_on_interaction_flow(self):
        rng = np.random.default_rng(9)
        x0 = rng.normal(size=(40, 2)) * 0.1
        trace = swjko_particles(
            x0,
            InteractionFunctional(),
            tau=0.1,
            n_steps=12,
            inner=InnerOptimizer(learning_rate=0.05, n_steps=80),
            n_projections=40,
            seed=10,
        )
        diffs = np.diff(trace.energies)
        assert np.max(diffs) <= 1e-8

    def test_dilation_tracks_ornstein_uhlenbeck_mean(self):
        # corrected scheme (factor d) on a potential flow: the empirical
        # mean must follow m_t = m + exp(-t) (m0 - m) for A = I, d = 2
        rng = np.random.default_rng(11)
        d = 2
        m_target = np.array([1.0, -0.5])
        m_start = np.array([-1.0, 1.5])
        x0 = m_start + 0.3 * rng.standard_normal((200, d))
        tau = 0.05
        func = quadratic_potential(m_target)
        trace = swjko_particles(
            x0,
            func,
            tau=tau,
            n_steps=20,
            inner=InnerOptimizer(learning_rate=0.01, n_steps=120),
            n_projections=60,
            seed=12,
            dilation=True,
            record_positions=True,
        )
        for t_phys in (0.5, 1.0):
            k = int(round(t_phys / tau))
            mean_k = trace.records[k].positions.mean(axis=0)
            want = m_target + np.exp(-t_phys) * (m_start - m_target)
            err = np.linalg.norm(mean_k - want) / np.linalg.norm(
                want - m_target
            )
            assert err <= 0.10


class TestSwjkoGrid:
    @pytest.mark.parametrize("rho", [[np.nan, 1.0], [np.inf, 1.0], [0.5, np.nan]])
    def test_non_finite_weights_are_invalid(self, rho):
        with pytest.raises(InvalidInput):
            GridState(nodes=np.zeros((2, 1)), rho=np.array(rho), cell_volume=1.0)

    def test_diverging_step_is_named(self):
        nodes = np.array([[0.1, 0.2], [0.5, -0.3], [-0.4, 0.1]])
        grid = GridState(nodes=nodes, rho=np.full(3, 1.0 / 3), cell_volume=0.25)
        func = quadratic_potential(np.zeros(2), strength=1e300)
        with pytest.raises(FlowDiverged, match="at step 1"):
            swjko_grid(grid, func, tau=0.05, n_steps=2,
                       inner=InnerOptimizer(n_steps=3), n_projections=8)

    def test_single_node_stays(self):
        grid = GridState(nodes=np.zeros((1, 1)), rho=np.array([1.0]), cell_volume=1.0)
        func = quadratic_potential(np.array([0.0]))
        trace = swjko_grid(grid, func, tau=0.1, n_steps=3, record_rho=True)
        assert np.allclose(trace.records[-1].rho, [1.0])

    def test_fokker_planck_grid_reaches_gaussian(self):
        # stationary state of V(x) = A (x-b)^2 / 2 is N(b, 1/A); on the
        # truncated grid the discrete Gibbs weights are the exact optimum
        a_coef, b_center = 1.0, 0.2
        nodes = np.linspace(-1.2, 1.2, 25)[:, None]
        cell = float(nodes[1, 0] - nodes[0, 0])
        target_density = np.exp(-0.5 * a_coef * (nodes[:, 0] - b_center) ** 2)
        target_density /= target_density.sum()
        rho0 = np.exp(-0.5 * (nodes[:, 0] + 0.3) ** 2 / 0.36)
        rho0 /= rho0.sum()
        grid = GridState(nodes=nodes, rho=rho0, cell_volume=cell)
        func = SumFunctional(
            [
                PotentialFunctional(
                    v=lambda x: 0.5 * a_coef * float((x[0] - b_center) ** 2),
                    grad_v=lambda x: a_coef * (x - b_center),
                ),
                EntropyFunctional(),
            ]
        )
        trace = swjko_grid(
            grid,
            func,
            tau=0.3,
            n_steps=20,
            inner=InnerOptimizer(learning_rate=0.002, n_steps=300),
            n_projections=1,
            seed=13,
            record_rho=True,
        )

        def kl(p, q):
            mask = p > 0
            return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))

        kl0 = kl(rho0, target_density)
        kl_final = kl(trace.records[-1].rho, target_density)
        assert kl_final <= kl0 / 10.0
        diffs = np.diff(trace.energies)
        assert np.max(diffs) <= 1e-8


class TestEulerParticles:
    @pytest.mark.parametrize("kernel", [(4.0, 2.0), (3.0, 1.5)])
    def test_matches_the_loop_on_distances(self, kernel):
        # one evaluation per state on squared distances against a separate
        # force and energy per step on the distances themselves
        x0 = np.random.default_rng(21).standard_normal((300, 2)) * 0.3
        w = np.full(300, 1.0 / 300)
        trace = euler_particles(
            x0, InteractionFunctional(*kernel), step_size=0.05, n_steps=10,
            record_positions=True,
        )
        energies, positions = euler_particles_loop(
            x0,
            lambda x: interaction_on_norms(x, w, *kernel)[0],
            lambda x: interaction_on_norms(x, w, *kernel)[1],
            step_size=0.05,
            n_steps=10,
        )
        assert np.all(np.abs(trace.energies - energies) <= 1e-12 * np.abs(energies))
        got = np.array([r.positions for r in trace.records])
        assert _max_rel(got, positions) <= 1e-12

    @pytest.mark.parametrize("n_steps", [0, 1, 5])
    def test_one_pairwise_matrix_per_state(self, monkeypatch, n_steps):
        calls = {"_pairwise": 0, "_force": 0}
        for name in calls:
            def counted(self, *args, _name=name, _method=getattr(InteractionFunctional, name)):
                calls[_name] += 1
                return _method(self, *args)

            monkeypatch.setattr(InteractionFunctional, name, counted)
        x0 = np.random.default_rng(22).normal(size=(12, 2))
        trace = euler_particles(x0, InteractionFunctional(), step_size=0.05, n_steps=n_steps)
        assert len(trace.records) == n_steps + 1
        assert calls == {"_pairwise": n_steps + 1, "_force": n_steps}

    def test_functional_without_particle_gradient(self):
        class ValueOnly(Functional):
            def value(self, points, weights=None):
                return 0.0

        x0 = np.zeros((3, 2))
        assert euler_particles(x0, ValueOnly(), step_size=0.1, n_steps=0).energies == [0.0]
        with pytest.raises(InvalidInput, match="has no particle gradient"):
            euler_particles(x0, ValueOnly(), step_size=0.1, n_steps=1)

    def test_zero_functional_static(self):
        func = PotentialFunctional(v=lambda x: 0.0, grad_v=lambda x: np.zeros_like(x))
        x0 = np.random.default_rng(14).normal(size=(5, 2))
        trace = euler_particles(x0, func, step_size=0.1, n_steps=4, record_positions=True)
        assert np.array_equal(trace.records[-1].positions, x0)

    def test_ring_equilibrium_oracle(self):
        # W(z) = |z|^4/4 - |z|^2/2: the radial mean-field force on a uniform
        # ring of radius R is R(3R^2 - 1), zero only at R = 1/sqrt(3)
        assert ring_equilibrium_radius(4.0, 2.0) == pytest.approx(
            1.0 / np.sqrt(3.0), abs=1e-12
        )
        for r in (0.4, 0.5, 1.0 / np.sqrt(3.0), 0.7):
            assert ring_radial_force(r, 4.0, 2.0) == pytest.approx(
                r * (3.0 * r**2 - 1.0), abs=1e-12
            )
        assert ring_radial_force(0.5, 4.0, 2.0) == pytest.approx(-0.125, abs=1e-12)

    @pytest.mark.parametrize("radius", [0.4, 0.5, 1.0 / np.sqrt(3.0), 0.7])
    def test_particle_gradient_matches_ring_oracle(self, radius):
        # on an exact uniform ring the per-particle gradient is purely radial
        # with magnitude the quadrature oracle's mean-field force
        n = 500
        theta = 2.0 * np.pi * np.arange(n) / n
        e_r = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        grad = n * InteractionFunctional().particle_gradient(radius * e_r)
        radial = np.sum(grad * e_r, axis=1)
        tangential = grad[:, 0] * e_r[:, 1] - grad[:, 1] * e_r[:, 0]
        expected = ring_radial_force(radius, 4.0, 2.0)
        assert np.max(np.abs(radial - expected)) <= 1e-12
        assert np.max(np.abs(tangential)) <= 1e-12

    def test_aggregation_reaches_dirac_ring(self):
        rng = np.random.default_rng(15)
        x0 = rng.multivariate_normal(np.zeros(2), 0.005 * np.eye(2), size=500)
        trace = euler_particles(
            x0,
            InteractionFunctional(),
            step_size=0.1,
            n_steps=200,
            record_positions=True,
        )
        radii = np.linalg.norm(trace.records[-1].positions, axis=1)
        assert float(np.mean(radii)) == pytest.approx(
            ring_equilibrium_radius(4.0, 2.0), abs=0.02
        )
        assert float(np.std(radii)) <= 0.02
        diffs = np.diff(trace.energies)
        assert np.max(diffs) <= 1e-8

    def test_hyperbolic_ghsw_flow_decreases_geodesic_w2(self):
        target = sample_wrapped_normal(
            exp_map(origin(2)[None, :], np.array([[0.0, 0.8, -0.3]]))[0],
            0.1 * np.eye(2),
            32,
            seed=16,
        )
        x0 = sample_wrapped_normal(origin(2), 0.1 * np.eye(2), 32, seed=17)
        dirs = sample_directions(2, 60, seed=18)
        func = GhswToTargetFunctional(target, dirs)
        trace = euler_particles(
            x0,
            func,
            step_size=1.0,
            n_steps=60,
            geometry="lorentz",
            record_positions=True,
        )

        def log_w2(points):
            cost = dist_lorentz(
                np.repeat(points, 32, axis=0), np.tile(target, (32, 1))
            ).reshape(32, 32)
            return np.log(wasserstein_pp_assignment(cost, 2.0))

        start = log_w2(trace.records[0].positions)
        quarter = log_w2(trace.records[15].positions)
        end = log_w2(trace.records[-1].positions)
        assert quarter < start
        assert end < quarter


class TestSwTargetGridGradient:
    def test_weight_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(30)
        nodes = rng.normal(size=(8, 2))
        rho = rng.random(8) + 0.2
        rho /= rho.sum()
        target = rng.normal(size=(6, 2)) + 0.4
        dirs = sample_directions(2, 12, seed=31)
        func = SwToTargetFunctional(target, dirs)
        grid = GridState(nodes=nodes, rho=rho, cell_volume=1.0)
        grad = func.grid_gradient(grid)
        h = 1e-7
        for _ in range(6):
            d = rng.normal(size=8)
            d -= d.mean()  # simplex-tangent direction
            up = GridState(nodes=nodes, rho=rho + h * d, cell_volume=1.0)
            down = GridState(nodes=nodes, rho=rho - h * d, cell_volume=1.0)
            fd = (func.grid_value(up) - func.grid_value(down)) / (2 * h)
            assert float(grad @ d) == pytest.approx(fd, rel=1e-4, abs=1e-8)

    def test_grid_flow_descends_toward_target_profile(self):
        # the inner solver is fixed-step projected subgradient descent on a
        # piecewise-linear objective: near the optimum (energy below ~2% of
        # its start) it oscillates, and whether a step there rises is decided
        # by rounding.  Monotone descent is asserted on the steps that start
        # at or above 5% of the initial energy, over six seed shifts.
        nodes = np.linspace(-1.0, 1.0, 30)[:, None]
        rho0 = np.exp(-0.5 * (nodes[:, 0] + 0.5) ** 2 / 0.04)
        rho0 /= rho0.sum()
        grid = GridState(nodes=nodes, rho=rho0, cell_volume=2.0 / 30)
        for shift in range(6):
            rng = np.random.default_rng(32 + shift)
            target = rng.normal(size=(40, 1)) * 0.2 + 0.4
            dirs = sample_directions(1, 4, seed=33 + shift)
            func = SwToTargetFunctional(target, dirs)
            trace = swjko_grid(
                grid,
                func,
                tau=0.5,
                n_steps=10,
                inner=InnerOptimizer(learning_rate=0.01, n_steps=200),
                n_projections=1,
                seed=34 + shift,
            )
            energies = trace.energies
            assert energies[-1] < energies[0] / 5.0, shift
            rises = np.diff(energies)[energies[:-1] >= 0.05 * energies[0]]
            assert np.max(rises) <= 1e-8, shift


class TestGridDualDifferential:
    def test_grid_flow_with_the_gather_kernel(self, monkeypatch):
        # a 2-D grid flow toward a target cloud: the same bits with
        # ``dual_1d_batched`` swapped for its 2-D gather body
        axis = np.linspace(-1.0, 1.0, 6)
        nodes = np.stack(np.meshgrid(axis, axis), axis=-1).reshape(-1, 2)
        rho0 = np.exp(-np.sum((nodes + 0.3) ** 2, axis=-1))
        grid = GridState(nodes=nodes, rho=rho0 / rho0.sum(), cell_volume=0.16)
        target = np.random.default_rng(40).integers(-2, 3, size=(15, 2)) / 2.0
        func = SumFunctional([SwToTargetFunctional(target, sample_directions(2, 8, seed=41)),
                              EntropyFunctional()])
        runs = []
        for reference in (False, True):
            if reference:
                monkeypatch.setattr(flows, "dual_1d_batched", dual_1d_batched_gathers)
            trace = swjko_grid(grid, func, tau=0.2, n_steps=3, record_rho=True,
                               inner=InnerOptimizer(learning_rate=0.01, n_steps=10),
                               n_projections=6, seed=42)
            runs.append([r.rho for r in trace.records] + [trace.energies])
        for got, want in zip(*runs):
            assert np.array_equal(got, want)

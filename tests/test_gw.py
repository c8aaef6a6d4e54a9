import json
import tracemalloc

import numpy as np
import pytest

from msot import gw as gw_module
from msot.cli import main
from msot.errors import InstanceTooLarge, InvalidInput, MassMismatch
from msot.measures import dense_plan, nw_corner, stable_order
from msot.gw import (
    gw1d,
    gw1d_inner,
    hw_solve,
    hw_tensor,
    mi_gaussian,
    mk_gaussian,
)

from oracles import (
    complete_basis_null_space,
    gw1d_inner_dense,
    gw_inner_exhaustive,
    gw_inner_objective,
    hw_tensor_naive,
    nw_corner_add_at,
    nw_corner_greedy,
)


def random_orthobasis(p, k, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(p, p)))
    return q[:, :k]


def random_spd(d, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(d, d))
    return z @ z.T * scale / d + 0.2 * np.eye(d)


def random_weights(rng, n, kind):
    """Probability weights on ``n`` atoms: positive (kind 0), eighths whose
    cumulative sums tie and may hold zeros (kind 1), or with zeros (kind 2)."""
    if kind == 1:
        return np.diff([0, *np.sort(rng.integers(0, 9, n - 1)), 8]) / 8.0
    w = rng.random(n) + 0.01
    if kind == 2:
        w[rng.random(n) < 0.4] = 0.0
        w[rng.integers(n)] += 0.5
    return w / w.sum()


class TestNwCorner:
    def test_uniform_identity(self):
        n = 4
        plan = nw_corner(np.full(n, 1 / n), np.full(n, 1 / n))
        assert np.allclose(plan, np.eye(n) / n, atol=1e-15)

    def test_hand_execution(self):
        plan = nw_corner(np.array([0.3, 0.7]), np.array([0.5, 0.5]))
        assert np.allclose(plan, [[0.3, 0.0], [0.2, 0.5]], atol=1e-15)

    def test_single_row(self):
        plan = nw_corner(np.array([1.0]), np.array([0.4, 0.6]))
        assert np.allclose(plan, [[0.4, 0.6]], atol=1e-15)

    def test_marginals_exact_on_rationals(self):
        a = np.array([0.25, 0.5, 0.25])
        b = np.array([0.125, 0.375, 0.375, 0.125])
        plan = nw_corner(a, b)
        assert np.array_equal(plan.sum(axis=1), a)
        assert np.array_equal(plan.sum(axis=0), b)
        assert np.all(plan >= 0)

    def test_mass_mismatch(self):
        with pytest.raises(MassMismatch):
            nw_corner(np.array([1.0]), np.array([0.5]))

    def test_equals_greedy_fill(self):
        rng = np.random.default_rng(7)
        for trial in range(200):
            n, m = rng.integers(1, 12, size=2)
            if trial % 2:  # eighths: exact ties between the cumulative weights
                a = np.diff([0, *np.sort(rng.integers(0, 9, n - 1)), 8]) / 8.0
                b = np.diff([0, *np.sort(rng.integers(0, 9, m - 1)), 8]) / 8.0
            else:
                a, b = rng.random(n) + 0.01, rng.random(m) + 0.01
                a, b = a / a.sum(), b / b.sum()
            plan = nw_corner(a, b)
            assert np.max(np.abs(plan - nw_corner_greedy(a, b))) <= 1e-15
            assert np.count_nonzero(plan) == np.count_nonzero(nw_corner_greedy(a, b))

    def test_equals_add_at_scatter(self):
        rng = np.random.default_rng(8)
        for trial in range(300):
            n, m = rng.integers(1, 12, size=2)
            if trial % 5 == 0:
                n = 1
            elif trial % 5 == 1:
                m = 1
            a = random_weights(rng, n, trial % 3)
            b = random_weights(rng, m, trial // 3 % 3)
            assert np.array_equal(nw_corner(a, b), nw_corner_add_at(a, b))


class TestGw1dInner:
    def test_symmetric_sets_tie(self):
        x = np.array([-1.0, 0.0, 1.0])
        a = np.full(3, 1 / 3)
        plan, value = gw1d_inner(x, a, x, a)
        # reflection symmetry: ascending plan returned on the tie
        assert np.allclose(plan, np.eye(3) / 3, atol=1e-15)
        assert value == pytest.approx(gw_inner_exhaustive(x, a, x, a), abs=1e-12)

    def test_single_atom(self):
        plan, value = gw1d_inner(
            np.array([2.0]), np.array([1.0]), np.array([3.0]), np.array([1.0])
        )
        assert value == pytest.approx((4.0 - 9.0) ** 2)
        assert plan[0, 0] == 1.0

    def test_matches_exhaustive_minimum(self):
        rng = np.random.default_rng(0)
        for n in (2, 3, 4, 5, 6):
            for trial in range(6):
                x = np.sort(rng.normal(size=n))
                y = np.sort(rng.normal(size=n))
                a = np.full(n, 1.0 / n)
                _, value = gw1d_inner(x, a, y, a)
                want = gw_inner_exhaustive(x, a, y, a)
                assert value <= want + 1e-12
                assert value == pytest.approx(want, abs=1e-10)

    def test_moment_decomposition_matches_naive_objective(self):
        rng = np.random.default_rng(1)
        x = np.sort(rng.normal(size=4))
        y = np.sort(rng.normal(size=5))
        a = rng.random(4) + 0.1
        a /= a.sum()
        b = rng.random(5) + 0.1
        b /= b.sum()
        plan, value = gw1d_inner(x, a, y, b)
        assert value == pytest.approx(gw_inner_objective(x, y, plan), abs=1e-12)

    def test_reflection_invariance(self):
        rng = np.random.default_rng(2)
        x = np.sort(rng.normal(size=5))
        y = np.sort(rng.normal(size=5))
        a = np.full(5, 0.2)
        _, value = gw1d_inner(x, a, y, a)
        _, value_flip = gw1d_inner(np.sort(-x), a, y, a)
        assert value == pytest.approx(value_flip, abs=1e-12)

    def test_matches_dense_candidates(self):
        # the value to 1e-12 of the terms' scale; the plan wherever the two
        # candidate values are further apart than that
        rng = np.random.default_rng(9)
        decided = 0
        for trial in range(300):
            n, m = rng.integers(1, 12, size=2)
            a = random_weights(rng, n, trial % 3)
            b = random_weights(rng, m, trial // 3 % 3)
            x = rng.integers(-3, 4, n).astype(float) if trial % 2 else rng.normal(size=n)
            x, y = np.sort(x), np.sort(rng.normal(size=m))
            plan, value = gw1d_inner(x, a, y, b)
            want, want_value, other = gw1d_inner_dense(x, a, y, b)
            scale = float(np.sum(a * x**2)) ** 2 + float(np.sum(b * y**2)) ** 2
            assert value == pytest.approx(want_value, rel=1e-12, abs=1e-12 * scale)
            if abs(other - want_value) > 1e-12 * scale:
                decided += 1
                assert np.array_equal(plan, want)
        assert decided > 200

    def test_unsorted_rejected(self):
        with pytest.raises(InvalidInput):
            gw1d_inner(
                np.array([1.0, 0.0]), np.full(2, 0.5), np.array([0.0, 1.0]), np.full(2, 0.5)
            )


class TestHwTensor:
    def test_single_pair_consistency(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(1, 3))
        y = rng.normal(size=(1, 3))
        plan = np.array([[1.0]])
        val = float(np.sum(hw_tensor(x, y, plan) * plan))
        assert val == pytest.approx(float(np.sum((x * x - y * y) ** 2)), abs=1e-12)

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(3, 2))
        y = rng.normal(size=(3, 2))
        a = np.full(3, 1 / 3)
        plan = nw_corner(a, a)
        got = hw_tensor(x, y, plan)
        want = hw_tensor_naive(x, y, plan)
        assert np.max(np.abs(got - want)) <= 1e-10

    def test_matches_naive_loop_with_axis_weights(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(3, 2))
        y = rng.normal(size=(2, 2))
        a = np.array([0.5, 0.25, 0.25])
        b = np.array([0.5, 0.5])
        w = np.array([1.0, 0.3])
        plan = nw_corner(a, b)
        got = hw_tensor(x, y, plan, axis_weights=w)
        want = hw_tensor_naive(x, y, plan, axis_weights=w)
        assert np.max(np.abs(got - want)) <= 1e-10

    def test_zero_axis_weights(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 2))
        y = rng.normal(size=(2, 2))
        plan = np.full((2, 2), 0.25)
        assert np.max(np.abs(hw_tensor(x, y, plan, axis_weights=np.zeros(2)))) == 0.0


class TestHwSolve:
    def test_identical_clouds_identity_plan(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 2))
        plan, value = hw_solve(x, x)
        assert value == pytest.approx(0.0, abs=1e-14)
        assert np.allclose(plan, np.eye(4) / 4)

    def test_objective_nonincreasing(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(5, 2))
        y = rng.normal(size=(5, 2))
        values = []
        plan = np.outer(np.full(5, 0.2), np.full(5, 0.2)) / 1.0
        from msot.gw import _hw_objective, hw_tensor as ht

        for iters in (1, 2, 5, 10, 25):
            _, value = hw_solve(x, y, n_iters=iters)
            values.append(value)
        assert all(v2 <= v1 + 1e-10 for v1, v2 in zip(values, values[1:]))
        _ = plan, ht, _hw_objective

    def test_d1_matches_gw1d_inner(self):
        rng = np.random.default_rng(2)
        for trial in range(10):
            n = int(rng.integers(2, 7))
            x = np.sort(rng.normal(size=n))
            a = np.full(n, 1.0 / n)
            y = np.sort(rng.normal(size=n))
            _, want = gw1d_inner(x, a, y, a)
            _, got = hw_solve(x[:, None], y[:, None], n_iters=100)
            assert got == pytest.approx(want, abs=1e-8)

    def test_d1_is_the_gw1d_plan(self):
        """In 1D the plan is ``gw1d``'s, bit for bit, whatever ``n_iters``,
        and the value is the HW objective of that plan."""
        rng = np.random.default_rng(12)
        for trial in range(60):
            n, m = rng.integers(1, 9, size=2)
            if trial % 4 == 0:
                m = n
            x = rng.integers(-3, 4, size=(n, 1)).astype(float)  # ties
            y = rng.normal(size=(m, 1))
            uniform = trial % 3 == 0
            a = None if uniform else random_weights(rng, n, trial % 3)
            b = None if uniform else random_weights(rng, m, trial // 3 % 3)
            axis_weights = None if trial % 2 else rng.uniform(0.0, 2.0, size=1)
            plan, value = hw_solve(x, y, a=a, b=b, axis_weights=axis_weights,
                                   n_iters=int(rng.integers(0, 60)))
            want, _ = gw1d(x, np.full(n, 1.0 / n) if a is None else a,
                           y, np.full(m, 1.0 / m) if b is None else b)
            assert np.array_equal(plan, want)
            assert value == gw_module._hw_objective(x, y, want, axis_weights)

    def test_axis_flip_pairs_reach_zero(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 2))
        y = x * np.array([-1.0, 1.0])  # reflected along the first axis
        perm = np.eye(4)[::-1]
        _ = perm
        plan, value = hw_solve(x, y, n_iters=200)
        assert value <= 1e-10
        assert plan.sum() == pytest.approx(1.0)

    def test_too_large_instance_rejected(self):
        x = np.zeros((9, 2))
        with pytest.raises(InstanceTooLarge):
            hw_solve(x, x, n_iters=2)

    def test_nonuniform_weights_rejected_in_2d(self):
        x = np.zeros((3, 2))
        a = np.array([0.5, 0.25, 0.25])
        with pytest.raises(InvalidInput):
            hw_solve(x, x, a=a, b=a, n_iters=2)


class TestMkGaussian:
    def test_full_subspace_reduces_to_plain_map(self):
        d = 3
        sigma = random_spd(d, seed=0)
        lam = random_spd(d, seed=1)
        basis = np.eye(d)
        b = mk_gaussian(sigma, lam, basis, basis)
        from msot.gw import _gw_gaussian_map

        want = _gw_gaussian_map(sigma, lam)
        assert np.allclose(b, want, atol=1e-10)
        assert np.allclose(b @ sigma @ b.T, lam, atol=1e-8)

    def test_transport_identity_on_random_instances(self):
        rng = np.random.default_rng(2)
        for trial in range(50):
            p, q, k = 4, 3, 2
            sigma = random_spd(p, seed=100 + trial)
            lam = random_spd(q, seed=200 + trial)
            ve = random_orthobasis(p, k, seed=300 + trial)
            vf = random_orthobasis(q, k, seed=400 + trial)
            b = mk_gaussian(sigma, lam, ve, vf)
            assert np.linalg.norm(b @ sigma @ b.T - lam) <= 1e-8
        _ = rng

    def test_diagonal_commuting_case(self):
        sigma = np.diag([4.0, 1.0, 0.25])
        lam = np.diag([9.0, 1.0, 0.04])
        ve = np.eye(3)[:, :2]
        vf = np.eye(3)[:, :2]
        b = mk_gaussian(sigma, lam, ve, vf)
        # eigenvalues sorted descending per block: diagonal with sqrt ratios
        assert np.allclose(b, np.diag(np.sqrt(np.diag(lam) / np.diag(sigma))), atol=1e-10)

    def test_singular_subspace_rejected(self):
        sigma = np.zeros((3, 3))
        sigma[2, 2] = 1.0
        sigma[0, 0] = 1e-15
        sigma[1, 1] = 1.0
        lam = np.eye(2)
        with pytest.raises(InvalidInput):
            mk_gaussian(sigma, lam, np.eye(3)[:, :1], np.eye(2)[:, :1])


class TestMiGaussian:
    def test_marginal_blocks(self):
        sigma = random_spd(4, seed=0)
        lam = random_spd(3, seed=1)
        ve = random_orthobasis(4, 2, seed=2)
        vf = random_orthobasis(3, 2, seed=3)
        gamma = mi_gaussian(sigma, lam, ve, vf)
        assert np.array_equal(gamma[:4, :4], sigma)
        assert np.array_equal(gamma[4:, 4:], lam)

    def test_full_subspace_deterministic_coupling(self):
        d = 3
        sigma = random_spd(d, seed=4)
        lam = random_spd(d, seed=5)
        basis = np.eye(d)
        gamma = mi_gaussian(sigma, lam, basis, basis)
        from msot.gw import _gw_gaussian_map

        t = _gw_gaussian_map(sigma, lam)
        assert np.allclose(gamma[:d, d:], sigma @ t.T, atol=1e-10)

    def test_psd_on_random_instances(self):
        for trial in range(50):
            sigma = random_spd(4, seed=600 + trial)
            lam = random_spd(3, seed=700 + trial)
            ve = random_orthobasis(4, 2, seed=800 + trial)
            vf = random_orthobasis(3, 2, seed=900 + trial)
            gamma = mi_gaussian(sigma, lam, ve, vf)
            assert np.min(np.linalg.eigvalsh((gamma + gamma.T) / 2)) >= -1e-8


class TestCompleteBasis:
    """``_complete_basis`` is ``scipy.linalg.null_space`` without scipy:
    the same bits, and the same wider complement of a rank-deficient
    basis; the Gaussian detours built on it keep their bits too."""

    @pytest.mark.parametrize("p, k", [(2, 1), (4, 2), (5, 3), (6, 1), (3, 3)])
    def test_bit_identical_to_null_space(self, p, k):
        for trial in range(8):
            basis = random_orthobasis(p, k, seed=10 * p + trial)
            got = gw_module._complete_basis(basis)
            assert np.array_equal(got, complete_basis_null_space(basis))

    def test_rank_deficient_basis_keeps_null_space_rank_rule(self):
        basis = random_orthobasis(5, 3, seed=1)
        basis[:, 2] = basis[:, 0]
        got = gw_module._complete_basis(basis)
        assert got.shape == (5, 3)
        assert np.array_equal(got, complete_basis_null_space(basis))

    def test_detours_bit_identical_to_null_space_oracle(self, monkeypatch):
        cases = []
        for trial in range(40):
            sigma = random_spd(5, seed=1000 + trial)
            lam = random_spd(4, seed=2000 + trial)
            ve = random_orthobasis(5, 2, seed=3000 + trial)
            vf = random_orthobasis(4, 2, seed=4000 + trial)
            cases.append((sigma, lam, ve, vf))
        got = [(mk_gaussian(*c), mi_gaussian(*c)) for c in cases]
        monkeypatch.setattr(gw_module, "_complete_basis", complete_basis_null_space)
        for (mk, mi), case in zip(got, cases):
            assert np.array_equal(mk, mk_gaussian(*case))
            assert np.array_equal(mi, mi_gaussian(*case))


class TestDegenerateAxisWeights:
    def test_strong_first_axis_weight_recovers_1d_coupling(self):
        # with weights (1, t), t -> 0, the optimal plan must agree with the
        # closed-form 1D coupling of the first coordinates
        rng = np.random.default_rng(5)
        n = 5
        x = rng.normal(size=(n, 2))
        y = rng.normal(size=(n, 2))
        a = np.full(n, 1.0 / n)
        order_x = np.argsort(x[:, 0])
        order_y = np.argsort(y[:, 0])
        plan_1d, _ = gw1d_inner(x[order_x, 0], a, y[order_y, 0], a)
        want = np.zeros((n, n))
        want[np.ix_(order_x, order_y)] = plan_1d
        plan, _ = hw_solve(x, y, axis_weights=np.array([1.0, 1e-8]), n_iters=80)
        assert np.max(np.abs(plan - want)) <= 1e-6

    def test_weighted_objective_interpolates(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(4, 2))
        y = rng.normal(size=(4, 2))
        _, v_full = hw_solve(x, y, n_iters=60)
        _, v_first = hw_solve(x, y, axis_weights=np.array([1.0, 0.0]), n_iters=60)
        _, v_second = hw_solve(x, y, axis_weights=np.array([0.0, 1.0]), n_iters=60)
        # each single-axis optimum lower-bounds the joint objective
        assert v_first <= v_full + 1e-9
        assert v_second <= v_full + 1e-9


class TestGw1dInInputOrder:
    """``gw1d`` is the one sort-and-scatter of the 1D GW plan: ``msot gw
    gw1d`` and ``hw_solve`` in 1D both read it."""

    @staticmethod
    def _pair():
        rng = np.random.default_rng(5)
        x = rng.integers(-3, 4, size=(7, 1)).astype(float)  # ties
        y = rng.normal(size=(5, 1))
        a = rng.integers(1, 5, size=7) / 8.0
        return x, a / a.sum(), y, np.full(5, 0.2)

    def test_cli_plan_is_gw1d(self, tmp_path, capsys):
        x, a, y, b = self._pair()
        paths = [tmp_path / "x.csv", tmp_path / "y.csv"]
        for path, atoms, w in zip(paths, (x, y), (a, b)):
            rows = [f"{float(v)!r},{float(u)!r}" for v, u in zip(atoms[:, 0], w)]
            path.write_text("\n".join(["x,weight", *rows]) + "\n")
        assert main(["gw", "gw1d", *map(str, paths)]) == 0
        payload = json.loads(capsys.readouterr().out)
        plan, value = gw1d(x, a, y, b)
        assert np.array_equal(np.array(payload["plan"]), plan)
        assert payload["value"] == value

    def test_hw_seed_is_gw1d(self):
        x, a, y, b = self._pair()
        seed, _ = hw_solve(x, y, a=a, b=b, n_iters=0)
        assert np.array_equal(seed, gw1d(x, a, y, b)[0])

    def test_plan_is_the_sorted_plan_scattered(self):
        rng = np.random.default_rng(10)
        for trial in range(20):
            n, m = rng.integers(1, 9, size=2)
            x = rng.integers(-3, 4, size=(n, 1)).astype(float)
            y = rng.normal(size=(m, 1))
            a, b = random_weights(rng, n, trial % 3), random_weights(rng, m, 1)
            order_x, order_y = stable_order(x[:, 0])[0], stable_order(y[:, 0])[0]
            sorted_plan, value, other = gw1d_inner_dense(
                x[order_x, 0], a[order_x], y[order_y, 0], b[order_y]
            )
            want = np.zeros((n, m))
            want[np.ix_(order_x, order_y)] = sorted_plan
            plan, got = gw1d(x, a, y, b)
            assert got == pytest.approx(value, rel=1e-12, abs=1e-12)
            if abs(other - value) > 1e-12:
                assert np.array_equal(plan, want)

    def test_hw_target_is_the_sorted_plan_scattered(self):
        x, a, y, b = self._pair()
        order_x, order_y = stable_order(x[:, 0])[0], stable_order(y[:, 0])[0]
        a_s, b_s = a[order_x], b[order_y]
        sorted_plans = {
            1.0: nw_corner_add_at(a_s, b_s),
            -1.0: nw_corner_add_at(a_s[::-1], b_s)[::-1, :],
        }
        for sign, sorted_plan in sorted_plans.items():
            want = np.zeros((a.size, b.size))
            want[np.ix_(order_x, order_y)] = sorted_plan
            rows, cols, mass = gw_module._linear_oracle_1d(a_s, b_s, sign)
            got = dense_plan(order_x[rows], order_y[cols], mass, want.shape)
            assert np.array_equal(got, want)

    def test_one_dense_plan_per_call(self):
        rng = np.random.default_rng(11)
        n = 2000
        x, y = rng.normal(size=(n, 1)), rng.normal(size=(n, 1))
        a, b = random_weights(rng, n, 0), random_weights(rng, n, 0)
        tracemalloc.start()
        try:
            plan, _ = gw1d(x, a, y, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert plan.shape == (n, n)
        assert peak < 1.25 * plan.nbytes

    def test_needs_one_dimensional_atoms(self):
        x, a, y, b = self._pair()
        with pytest.raises(InvalidInput, match="one-dimensional"):
            gw1d(np.hstack([x, x]), a, y, b)


TWO_ATOMS = np.array([[0.0], [1.0]])
HALVES = np.full(2, 0.5)
MALFORMED = {
    "nan-atom": (
        "finite",
        lambda: gw1d_inner([0.0, np.nan], HALVES, [0.0, 1.0], HALVES),
    ),
    "column-atoms": (
        "1D arrays",
        lambda: gw1d_inner(TWO_ATOMS, HALVES, TWO_ATOMS, HALVES),
    ),
    "inf-atom": ("finite", lambda: hw_solve(np.array([[0.0], [np.inf]]), TWO_ATOMS)),
    "negative-weight": (
        "nonnegative",
        lambda: gw1d(TWO_ATOMS, [1.5, -0.5], TWO_ATOMS, HALVES),
    ),
    "weight-length": (
        "expected 2 weights",
        lambda: hw_solve(TWO_ATOMS, TWO_ATOMS, a=[0.2, 0.3, 0.5]),
    ),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_input_is_invalid(case):
    """The GW solvers share the input boundary of the sliced distances."""
    match, call = MALFORMED[case]
    with pytest.raises(InvalidInput, match=match):
        call()

import numpy as np
import pytest

from msot.errors import InvalidInput, MeasureZeroProjection
from msot.sphere import (
    circle_coordinates,
    project_circle,
    sample_stiefel,
    ssw,
    ssw2_vs_uniform,
)


def sphere_cloud(d, n, seed=0, center=None, spread=1.0):
    """Projected-Gaussian sphere samples, optionally pulled toward a center."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, d)) * spread
    if center is not None:
        z = z + center
    return z / np.linalg.norm(z, axis=1, keepdims=True)


class TestSampleStiefel:
    def test_orthonormal_frames(self):
        frames = sample_stiefel(5, 40, seed=0)
        gram = np.einsum("lik,lij->lkj", frames, frames)
        assert np.max(np.abs(gram - np.eye(2))) <= 1e-10

    def test_deterministic(self):
        assert np.array_equal(sample_stiefel(4, 7, seed=3), sample_stiefel(4, 7, seed=3))

    def test_span_uniformity(self):
        d = 4
        frames = sample_stiefel(d, 10_000, seed=1)
        mean_proj = np.einsum("lik,ljk->ij", frames, frames) / frames.shape[0]
        assert np.max(np.abs(mean_proj - 2.0 * np.eye(d) / d)) <= 0.03

    def test_rejects_degenerate_dimension(self):
        with pytest.raises(InvalidInput):
            sample_stiefel(2, 5)


class TestProjectCircle:
    def test_in_plane_round_trip(self):
        rng = np.random.default_rng(2)
        frame = sample_stiefel(4, 1, seed=0)[0]
        angles = rng.random(20)
        z = np.stack(
            [-np.cos(np.pi + 2 * np.pi * angles), -np.sin(np.pi + 2 * np.pi * angles)],
            axis=1,
        )
        # build sphere points lying exactly in the frame's plane
        pts = z @ frame.T
        got = project_circle(pts, frame)
        assert np.max(np.abs(np.minimum(np.abs(got - angles), 1 - np.abs(got - angles)))) <= 1e-12

    def test_output_range(self):
        frame = sample_stiefel(3, 1, seed=1)[0]
        x = sphere_cloud(3, 200, seed=2)
        angles = project_circle(x, frame)
        assert np.all((angles >= 0) & (angles < 1))

    def test_geodesic_projection_optimality(self):
        # the closed form minimizes the geodesic distance to the circle
        rng = np.random.default_rng(3)
        grid = np.linspace(0.0, 1.0, 360, endpoint=False)
        zs = np.stack(
            [-np.cos(np.pi + 2 * np.pi * grid), -np.sin(np.pi + 2 * np.pi * grid)],
            axis=1,
        )
        for trial in range(20):
            frame = sample_stiefel(4, 1, seed=10 + trial)[0]
            x = sphere_cloud(4, 1, seed=50 + trial)[0]
            angle = project_circle(x[None], frame)[0]
            zstar = np.array(
                [
                    -np.cos(np.pi + 2 * np.pi * angle),
                    -np.sin(np.pi + 2 * np.pi * angle),
                ]
            )
            best = np.arccos(np.clip(x @ (frame @ zstar), -1, 1))
            others = np.arccos(np.clip((frame @ zs.T).T @ x, -1, 1))
            assert best <= np.min(others) + 1e-10
        _ = rng

    def test_measure_zero_projection(self):
        frame = np.zeros((4, 2))
        frame[0, 0] = 1.0
        frame[1, 1] = 1.0
        x = np.array([[0.0, 0.0, 1.0, 0.0]])
        with pytest.raises(MeasureZeroProjection):
            project_circle(x, frame)

    def test_angle_convention(self):
        # z = (-1, 0) has atan2(0, 1) = 0 so angle 1/2
        assert circle_coordinates(np.array([[-1.0, 0.0]]))[0] == pytest.approx(0.5)


class TestSsw:
    def test_identity(self):
        x = sphere_cloud(3, 15, seed=0)
        frames = sample_stiefel(3, 20, seed=1)
        assert ssw(x, x, frames) <= 1e-12

    def test_symmetry_and_triangle(self):
        frames = sample_stiefel(3, 10, seed=2)
        for trial in range(20):
            a = sphere_cloud(3, 5, seed=100 + trial)
            b = sphere_cloud(3, 5, seed=200 + trial)
            c = sphere_cloud(3, 5, seed=300 + trial)
            dab = ssw(a, b, frames)
            assert dab == pytest.approx(ssw(b, a, frames), abs=1e-9)
            assert dab**0.5 <= ssw(a, c, frames) ** 0.5 + ssw(c, b, frames) ** 0.5 + 1e-9

    def test_rotation_invariance_with_compensated_frames(self):
        rng = np.random.default_rng(4)
        x = sphere_cloud(3, 8, seed=5)
        y = sphere_cloud(3, 9, seed=6)
        frames = sample_stiefel(3, 15, seed=7)
        rot, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        rotated_frames = np.einsum("ij,ljk->lik", rot, frames)
        base = ssw(x, y, frames)
        moved = ssw(x @ rot.T, y @ rot.T, rotated_frames)
        assert moved == pytest.approx(base, abs=1e-10)

    def test_p1_binary_search_matches_level_median(self):
        x = sphere_cloud(3, 7, seed=8)
        y = sphere_cloud(3, 7, seed=9)
        frames = sample_stiefel(3, 10, seed=10)
        lm = ssw(x, y, frames, p=1)
        from msot.measures import build_circle_profile, circle_wp_binary_search
        from msot.sphere import project_circle

        bs = np.mean(
            [
                circle_wp_binary_search(
                    build_circle_profile(project_circle(x, f)),
                    build_circle_profile(project_circle(y, f)),
                    p=1,
                    eps=1e-8,
                )
                for f in frames
            ]
        )
        assert lm == pytest.approx(bs, abs=1e-5)

    def test_weak_convergence_direction(self):
        # shrinking perturbations of a cloud drive ssw to zero
        rng = np.random.default_rng(11)
        x = sphere_cloud(3, 30, seed=12)
        frames = sample_stiefel(3, 20, seed=13)
        prev = np.inf
        for scale in (0.3, 0.03, 0.003):
            noisy = x + scale * rng.standard_normal(x.shape)
            noisy /= np.linalg.norm(noisy, axis=1, keepdims=True)
            val = ssw(x, noisy, frames)
            assert val < prev
            prev = val
        assert prev <= 1e-4

    def test_variance_decay(self):
        x = sphere_cloud(3, 20, seed=14)
        y = sphere_cloud(3, 20, seed=15, center=np.array([2.0, 0.0, 0.0]))
        ls = np.array([10, 40, 160])
        variances = []
        for L in ls:
            vals = [
                ssw(x, y, sample_stiefel(3, int(L), seed=1000 + rep))
                for rep in range(40)
            ]
            variances.append(np.var(vals))
        slope = np.polyfit(np.log(ls), np.log(variances), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.35)


class TestSswVsUniform:
    def test_dirac_gives_one_twelfth(self):
        x = np.zeros((1, 4))
        x[0, 0] = 1.0
        frames = sample_stiefel(4, 25, seed=0)
        assert ssw2_vs_uniform(x, frames) == pytest.approx(1 / 12, abs=1e-12)

    def test_large_uniform_sample_trend(self):
        frames = sample_stiefel(3, 30, seed=1)
        vals = [
            ssw2_vs_uniform(sphere_cloud(3, n, seed=2), frames)
            for n in (20, 200, 2000)
        ]
        assert vals[0] > vals[1] > vals[2]

    def test_matches_big_uniform_sample(self):
        frames = sample_stiefel(3, 50, seed=3)
        x = sphere_cloud(3, 40, seed=4, center=np.array([1.5, 0.5, 0.0]))
        closed = ssw2_vs_uniform(x, frames)
        uniform = sphere_cloud(3, 5000, seed=6)
        sampled = ssw(x, uniform, frames, p=2, eps=1e-7)
        assert sampled == pytest.approx(closed, rel=0.02)


class TestFrameShapes:
    """Frames are an ``(L, d, 2)`` stack with L >= 1, or one ``(d, 2)`` frame,
    which every entry point takes as a stack of one."""

    @pytest.mark.parametrize("shape", [(5, 3, 3), (5, 3, 1), (0, 3, 2), (3, 3), (3, 1),
                                       (3,), (), (2, 5, 3, 2)])
    def test_other_shapes_are_rejected(self, shape):
        x, y = sphere_cloud(3, 20, seed=1), sphere_cloud(3, 15, seed=2)
        frames = np.ones(shape)
        calls = [lambda: ssw(x, y, frames), lambda: ssw(x, y, frames, p=1.0),
                 lambda: ssw2_vs_uniform(x, frames)]
        for call in calls:
            with pytest.raises(InvalidInput, match=r"frames must be one \(d, 2\) frame"):
                call()

    @pytest.mark.parametrize("shape", [(4, 2), (6, 4, 2)])
    def test_frames_of_another_dimension_are_rejected(self, shape):
        x = sphere_cloud(3, 20, seed=1)
        with pytest.raises(InvalidInput, match=r"frames in R\^4 cannot slice points in R\^3"):
            ssw(x, x, np.ones(shape))
        with pytest.raises(InvalidInput, match=r"frames in R\^4 cannot slice points in R\^3"):
            ssw2_vs_uniform(x, np.ones(shape))

    def test_project_circle_rejects_a_stack(self):
        x = sphere_cloud(3, 20, seed=1)
        with pytest.raises(InvalidInput, match=r"one \(d, 2\) frame, got shape \(5, 3, 2\)"):
            project_circle(x, sample_stiefel(3, 5, seed=1))

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_one_frame_is_a_stack_of_one(self, p):
        x, y = sphere_cloud(3, 20, seed=1), sphere_cloud(3, 15, seed=2, spread=0.5)
        frame = sample_stiefel(3, 1, seed=4)[0]
        assert ssw(x, y, frame, p) == ssw(x, y, frame[None], p) > 0
        assert ssw2_vs_uniform(y, frame) == ssw2_vs_uniform(y, frame[None]) > 0

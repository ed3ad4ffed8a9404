import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from stmotion import so3


def rx(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[1, 0, 0], [0, c, -s], [0, s, c]], dtype=np.float64)


def ry(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, 0, s], [0, 1, 0], [-s, 0, c]], dtype=np.float64)


def rz(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]], dtype=np.float64)


class TestQuaternion:
    def test_identity(self):
        np.testing.assert_allclose(so3.rotmat_from_quat([1, 0, 0, 0]), np.eye(3))

    def test_x_axis_rotation_closed_form(self):
        for theta in (0.3, 1.2, 2.9):
            q = [np.cos(theta / 2), np.sin(theta / 2), 0, 0]
            np.testing.assert_allclose(so3.rotmat_from_quat(q), rx(theta), atol=1e-12)

    def test_roundtrip_random(self):
        rng = np.random.default_rng(0)
        R = so3.random_rotations(1000, rng)
        R2 = so3.rotmat_from_quat(so3.quat_from_rotmat(R))
        assert so3.geodesic_angle(R, R2).max() < 1e-5

    def test_canonical_w_nonnegative(self):
        rng = np.random.default_rng(1)
        q = so3.quat_from_rotmat(so3.random_rotations(200, rng))
        assert np.all(q[:, 0] >= 0)

    def test_slightly_off_unit_normalized_with_warning(self):
        q = np.array([1.0 + 5e-4, 0, 0, 0])
        with pytest.warns(UserWarning):
            R = so3.rotmat_from_quat(q)
        np.testing.assert_allclose(R, np.eye(3), atol=1e-6)

    def test_badly_off_unit_rejected(self):
        with pytest.raises(ValueError):
            so3.rotmat_from_quat([2.0, 0, 0, 0])


class TestAngleAxis:
    def test_zero_gives_identity(self):
        np.testing.assert_allclose(so3.rotmat_from_angleaxis([0, 0, 0]), np.eye(3))

    def test_matches_quaternion_path(self):
        a = np.array([np.pi / 2, 0, 0])
        via_q = so3.rotmat_from_quat([np.cos(np.pi / 4), np.sin(np.pi / 4), 0, 0])
        np.testing.assert_allclose(so3.rotmat_from_angleaxis(a), via_q, atol=1e-12)
        np.testing.assert_allclose(so3.rotmat_from_angleaxis(a), rx(np.pi / 2), atol=1e-12)

    def test_roundtrip_random(self):
        rng = np.random.default_rng(2)
        R = so3.random_rotations(1000, rng)
        R2 = so3.rotmat_from_angleaxis(so3.angleaxis_from_rotmat(R))
        assert so3.geodesic_angle(R, R2).max() < 1e-5

    def test_pi_rotation_about_y(self):
        R = ry(np.pi)
        a = so3.angleaxis_from_rotmat(R)
        angle = np.linalg.norm(a)
        assert abs(angle - np.pi) < 1e-5
        axis = a / angle
        assert min(np.linalg.norm(axis - [0, 1, 0]),
                   np.linalg.norm(axis + [0, 1, 0])) < 1e-5

    def test_canonical_norm_at_most_pi(self):
        rng = np.random.default_rng(3)
        a = so3.angleaxis_from_rotmat(so3.random_rotations(500, rng))
        assert np.linalg.norm(a, axis=-1).max() <= np.pi + 1e-9


class TestEuler:
    def test_identity(self):
        np.testing.assert_allclose(so3.euler_from_rotmat(np.eye(3)), [0, 0, 0])

    def test_single_axis(self):
        np.testing.assert_allclose(so3.euler_from_rotmat(rx(0.3)), [0.3, 0, 0], atol=1e-12)

    def test_recomposition_random(self):
        rng = np.random.default_rng(4)
        R = so3.random_rotations(500, rng)
        e = so3.euler_from_rotmat(R)
        R2 = so3.rotmat_from_euler(e)
        assert np.abs(R - R2).max() < 1e-5

    def test_ranges(self):
        rng = np.random.default_rng(5)
        e = so3.euler_from_rotmat(so3.random_rotations(500, rng))
        assert np.all(e > -np.pi)
        assert np.all(e <= np.pi)

    def test_gimbal_lock_third_angle_zero(self):
        R = rx(0.7) @ ry(np.pi / 2)
        e = so3.euler_from_rotmat(R)
        assert e[2] == 0.0
        np.testing.assert_allclose(so3.rotmat_from_euler(e), R, atol=1e-6)


class TestProjection:
    def test_idempotent_on_valid(self):
        rng = np.random.default_rng(6)
        R = so3.random_rotations(100, rng).astype(np.float32)
        P = so3.project_to_so3(R)
        np.testing.assert_array_equal(P, R)  # valid input passes through bit-exact

    def test_scaling_removed(self):
        np.testing.assert_allclose(so3.project_to_so3(2 * np.eye(3)), np.eye(3), atol=1e-10)

    def test_output_always_valid(self):
        rng = np.random.default_rng(7)
        A = so3.random_rotations(200, rng) + 0.05 * rng.standard_normal((200, 3, 3))
        P = so3.project_to_so3(A)
        assert np.all(so3.is_valid_rotmat(P, tol=1e-5))

    def test_nearest_by_sampling(self):
        rng = np.random.default_rng(8)
        R = so3.random_rotations(1, rng)[0]
        A = R + 0.01 * rng.standard_normal((3, 3))
        P = so3.project_to_so3(A)
        d_best = np.linalg.norm(A - P)
        samples = so3.random_rotations(10_000, rng)
        d_samples = np.linalg.norm(A[None] - samples, axis=(1, 2))
        assert np.all(d_samples >= d_best - 1e-9)

    def test_rank_deficient_rejected(self):
        with pytest.raises(so3.DegenerateRotationError):
            so3.project_to_so3(np.zeros((3, 3)))


class TestGeodesic:
    def test_zero_on_equal(self):
        rng = np.random.default_rng(9)
        R = so3.random_rotations(50, rng)
        np.testing.assert_allclose(so3.geodesic_angle(R, R), 0.0, atol=1e-6)

    def test_closed_form_single_axis(self):
        for theta in (0.0, 0.5, 1.7, np.pi):
            assert abs(so3.geodesic_angle(np.eye(3), rx(theta)) - theta) < 1e-9

    def test_symmetric(self):
        rng = np.random.default_rng(10)
        R1 = so3.random_rotations(100, rng)
        R2 = so3.random_rotations(100, rng)
        np.testing.assert_allclose(so3.geodesic_angle(R1, R2),
                                   so3.geodesic_angle(R2, R1), atol=1e-10)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(11)
        a = so3.random_rotations(1000, rng)
        b = so3.random_rotations(1000, rng)
        c = so3.random_rotations(1000, rng)
        ab = so3.geodesic_angle(a, b)
        bc = so3.geodesic_angle(b, c)
        ac = so3.geodesic_angle(a, c)
        assert np.all(ac <= ab + bc + 1e-9)

    def test_positive_on_distinct(self):
        assert so3.geodesic_angle(np.eye(3), rz(0.01)) > 0


class TestCrossRepresentation:
    def test_all_paths_agree(self):
        # any rotation pushed through quaternion, angle-axis and matrix paths
        # must land on the same rotation
        rng = np.random.default_rng(12)
        R = so3.random_rotations(300, rng)
        via_quat = so3.rotmat_from_quat(so3.quat_from_rotmat(R))
        via_aa = so3.rotmat_from_angleaxis(so3.angleaxis_from_rotmat(R))
        assert so3.geodesic_angle(via_quat, via_aa).max() < 1e-5
        assert so3.geodesic_angle(R, via_quat).max() < 1e-5

    def test_wrap_angle(self):
        np.testing.assert_allclose(so3.wrap_angle(np.pi), np.pi)
        np.testing.assert_allclose(so3.wrap_angle(-np.pi), np.pi)
        np.testing.assert_allclose(so3.wrap_angle(2 * np.pi + 0.1), 0.1, atol=1e-12)
        np.testing.assert_allclose(so3.wrap_angle(-0.3), -0.3)


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

unit_quats = (st.lists(st.floats(-1, 1), min_size=4, max_size=4).map(np.array)
              .filter(lambda q: np.linalg.norm(q) > 0.1)
              .map(lambda q: q / np.linalg.norm(q)))
rotations = unit_quats.map(so3.rotmat_from_quat)
angles = st.floats(-np.pi, np.pi)


def matrix(u, singular_values, v):
    """u diag(s) v^T for rotations u, v; the singular values are |s|."""
    return u @ np.diag(singular_values) @ v.T


class TestProperties:
    @given(unit_quats)
    def test_quaternion_round_trip(self, q):
        q2 = so3.quat_from_rotmat(so3.rotmat_from_quat(q))
        assert q2[0] >= 0
        assert min(np.abs(q2 - q).max(), np.abs(q2 + q).max()) < 1e-9

    @given(rotations)
    def test_rotmat_round_trip_through_quaternion_and_angleaxis(self, r):
        # Euler angles lose precision near gimbal lock: tested apart below
        for there, back in ((so3.quat_from_rotmat, so3.rotmat_from_quat),
                            (so3.angleaxis_from_rotmat, so3.rotmat_from_angleaxis)):
            np.testing.assert_allclose(back(there(r)), r, atol=1e-9)

    @given(st.lists(st.floats(-1, 1), min_size=3, max_size=3).map(np.array),
           st.floats(0, np.pi - 1e-3))
    def test_angleaxis_round_trip(self, direction, angle):
        norm = np.linalg.norm(direction)
        a = direction / norm * angle if norm > 1e-3 else np.zeros(3)
        np.testing.assert_allclose(
            so3.angleaxis_from_rotmat(so3.rotmat_from_angleaxis(a)), a, atol=1e-9)

    @given(angles, st.floats(-np.pi / 2 + 1e-2, np.pi / 2 - 1e-2), angles)
    def test_euler_round_trip_away_from_gimbal_lock(self, a, b, c):
        e = np.array([a, b, c])
        back = so3.euler_from_rotmat(so3.rotmat_from_euler(e))
        np.testing.assert_allclose(so3.wrap_angle(back - e), 0.0, atol=1e-9)

    @given(rotations, rotations, st.lists(st.floats(1e-6, 10), min_size=3, max_size=3),
           st.booleans(), st.sampled_from([np.float32, np.float64]))
    def test_projection_is_valid_and_idempotent(self, u, v, s, reflect, dtype):
        a = matrix(u, np.array(s) * [1, 1, -1 if reflect else 1], v).astype(dtype)
        p = so3.project_to_so3(a)
        assert p.dtype == dtype
        assert so3.is_valid_rotmat(p, tol=1e-6 if dtype == np.float32 else 1e-9)
        np.testing.assert_array_equal(so3.project_to_so3(p), p)

    @given(rotations, rotations, st.lists(st.floats(1e-6, 10), min_size=3, max_size=3),
           st.booleans(), st.sampled_from([np.float32, np.float64]))
    @example(u=np.eye(3), v=np.eye(3), s=[1.0, 1.0, 1.0], reflect=False, dtype=np.float64)
    @example(u=np.eye(3), v=np.eye(3), s=[2.0, 2.0, 2.0], reflect=False, dtype=np.float32)
    def test_one_matrix_projects_as_a_stack_of_one(self, u, v, s, reflect, dtype):
        a = matrix(u, np.array(s) * [1, 1, -1 if reflect else 1], v).astype(dtype)
        one, stacked = so3.project_to_so3(a), so3.project_to_so3(a[None])[0]
        assert (one.shape, one.dtype) == (stacked.shape, stacked.dtype)
        assert one.tobytes() == stacked.tobytes()

    @given(rotations, rotations, st.lists(st.floats(0, 10), min_size=2, max_size=2))
    @example(u=so3.rotmat_from_quat(np.array([0.0, 0.0, 1.0, 2.22507386e-309])),
             v=so3.rotmat_from_quat(np.array([0.0, 1.0, 1.0, 2.0]) / np.sqrt(6.0)),
             s=[0.0, 1.0])  # a subnormal row: det's LU divides by zero
    def test_projection_rejects_rank_two_or_less(self, u, v, s):
        with pytest.raises(so3.DegenerateRotationError):
            so3.project_to_so3(matrix(u, np.array(s + [0.0]), v))

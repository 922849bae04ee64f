import numpy as np
import pytest

from mqret import greens, media
from mqret.core import C, GeometryError, IDENTITY, QuadratureError, outer


LAM = 1e-6
OMEGA = 2 * np.pi * C / LAM


def transverse(rho_vec):
    e = np.asarray(rho_vec) / np.linalg.norm(rho_vec)
    return IDENTITY - outer(e, e)


class TestVacuumBulk:
    def test_nr_known_tensor(self):
        """Quasi-static tensor along z: prefactor * diag(1, 1, -2)."""
        rho = LAM / 100
        r_a = np.array([0.0, 0.0, rho])
        r_d = np.zeros(3)
        g = greens.vacuum_bulk_nr(r_a, r_d, OMEGA, include_phase=False)
        pref = -(C**2) / (4 * np.pi * OMEGA**2 * rho**3)
        expected = pref * np.diag([1.0, 1.0, -2.0]).astype(complex)
        assert np.allclose(g, expected, rtol=1e-13)

    def test_r_known_tensor(self):
        """Far-zone tensor: +e^{ik rho}/(4 pi rho) times the transverse projector."""
        rho_vec = np.array([3.0, 4.0, 12.0]) * LAM
        rho = np.linalg.norm(rho_vec)
        g = greens.vacuum_bulk_r(rho_vec, np.zeros(3), OMEGA)
        k = OMEGA / C
        expected = np.exp(1j * k * rho) / (4 * np.pi * rho) * transverse(rho_vec)
        assert np.allclose(g, expected, rtol=1e-13)

    def test_exact_to_nr_limit(self):
        """Exact tensor approaches the phased NR tensor as k*rho -> 0."""
        errs = []
        for rho in (LAM / 50, LAM / 500, LAM / 5000):
            r = np.array([rho, 0.0, 0.0])
            exact = greens.vacuum_bulk_exact(r, np.zeros(3), OMEGA)
            nr = greens.vacuum_bulk_nr(r, np.zeros(3), OMEGA)
            errs.append(np.max(np.abs(exact - nr)) / np.max(np.abs(exact)))
        assert errs[0] < 0.2
        assert errs[1] < errs[0] / 5
        assert errs[2] < errs[1] / 5

    def test_exact_to_r_limit(self):
        errs = []
        for rho in (10 * LAM, 100 * LAM, 1000 * LAM):
            r = np.array([0.0, rho, 0.0])
            exact = greens.vacuum_bulk_exact(r, np.zeros(3), OMEGA)
            far = greens.vacuum_bulk_r(r, np.zeros(3), OMEGA)
            errs.append(np.max(np.abs(exact - far)) / np.max(np.abs(exact)))
        assert errs[0] < 0.1
        assert errs[1] < errs[0] / 5
        assert errs[2] < errs[1] / 5

    def test_reciprocity(self):
        r1 = np.array([0.3, -0.2, 0.7]) * LAM
        r2 = np.array([-0.1, 0.5, 0.2]) * LAM
        g12 = greens.vacuum_bulk_exact(r1, r2, OMEGA)
        g21 = greens.vacuum_bulk_exact(r2, r1, OMEGA)
        assert np.allclose(g12, g21.T, rtol=1e-14)

    def test_symmetric_tensor(self):
        """The vacuum tensor is complex-symmetric for any separation."""
        r = np.array([0.2, 0.9, -0.4]) * LAM
        g = greens.vacuum_bulk_exact(r, np.zeros(3), OMEGA)
        assert np.allclose(g, g.T, rtol=1e-14)

    def test_coincidence_guard(self):
        with pytest.raises(GeometryError):
            greens.vacuum_bulk_exact(np.zeros(3), np.zeros(3), OMEGA)

    def test_complex_frequency(self):
        """Imaginary frequency gives a real, exponentially damped tensor."""
        r = np.array([0.0, 0.0, 2 * LAM])
        g = greens.vacuum_bulk(r, 1j * OMEGA)
        assert np.max(np.abs(g.imag)) < 1e-14 * np.max(np.abs(g.real))


class TestLimitReflection:
    def test_vacuum(self):
        assert greens.limit_reflection(greens.Vacuum(), OMEGA) == (0.0, 0.0)

    def test_mirror(self):
        assert greens.limit_reflection(greens.PerfectMirror(), OMEGA) == (1.0, -1.0)

    def test_halfspace(self):
        env = greens.HalfSpace(media.Constant(3.0))
        r_nr, r_r = greens.limit_reflection(env, OMEGA)
        assert r_nr == pytest.approx(0.5)
        assert r_r == pytest.approx(media.r_retarded(3.0))


class TestScatterLimits:
    def test_nr_structure(self):
        z, zp = 0.07 * LAM, 0.11 * LAM
        env_mat = media.Constant(2.0)
        g = greens.halfspace_scatter_nr([0, 0, z], [0, 0, zp], OMEGA, env_mat)
        zz = z + zp
        pref = C**2 / (4 * np.pi * OMEGA**2 * zz**3) * media.r_nonretarded(2.0)
        assert np.allclose(g, pref * np.diag([1.0, 1.0, 2.0]), rtol=1e-13)

    def test_r_structure(self):
        z, zp = 5 * LAM, 9 * LAM
        g = greens.halfspace_scatter_r([0, 0, z], [0, 0, zp], OMEGA, media.Constant(4.0))
        zz = z + zp
        pref = np.exp(1j * OMEGA * zz / C) / (4 * np.pi * zz) * media.r_retarded(4.0)
        assert np.allclose(g, pref * np.diag([1.0, 1.0, 0.0]), rtol=1e-13)

    def test_off_axis_rejected(self):
        with pytest.raises(GeometryError):
            greens.halfspace_scatter_nr(
                [0.1 * LAM, 0, 0.2 * LAM], [0, 0, 0.3 * LAM], OMEGA, media.Constant(2.0)
            )

    def test_below_surface_rejected(self):
        with pytest.raises(GeometryError):
            greens.halfspace_scatter_nr(
                [0, 0, -0.1 * LAM], [0, 0, 0.3 * LAM], OMEGA, media.Constant(2.0)
            )


class TestMirrorImage:
    def test_matches_nr_limit(self):
        z, zp = LAM / 300, LAM / 250
        g = greens.mirror_scatter_exact([0, 0, z], [0, 0, zp], OMEGA)
        lim = greens.halfspace_scatter_nr(
            [0, 0, z], [0, 0, zp], OMEGA, media.PerfectReflector()
        )
        assert np.allclose(g, lim, rtol=5e-3)

    def test_lateral_reciprocity(self):
        r1 = np.array([0.2, 0.1, 0.4]) * LAM
        r2 = np.array([-0.3, 0.25, 0.6]) * LAM
        g12 = greens.mirror_scatter_exact(r1, r2, OMEGA)
        g21 = greens.mirror_scatter_exact(r2, r1, OMEGA)
        assert np.allclose(g12, g21.T, rtol=1e-13)


class TestSommerfeld:
    def test_matches_mirror_image(self):
        r1 = np.array([0.15, -0.1, 0.3]) * LAM
        r2 = np.array([0.05, 0.2, 0.45]) * LAM
        image = greens.mirror_scatter_exact(r1, r2, OMEGA)
        full, err = greens.halfspace_scatter_full(
            r1, r2, OMEGA, media.PerfectReflector(), rtol=1e-10
        )
        scale = np.max(np.abs(image))
        assert np.max(np.abs(full - image)) / scale < 1e-8
        assert err < 1e-6

    def test_reciprocity_dielectric(self):
        r1 = np.array([0.3, 0.0, 0.2]) * LAM
        r2 = np.array([-0.1, 0.4, 0.5]) * LAM
        mat = media.Constant(2.25)
        g12, _ = greens.halfspace_scatter_full(r1, r2, OMEGA, mat)
        g21, _ = greens.halfspace_scatter_full(r2, r1, OMEGA, mat)
        assert np.max(np.abs(g12 - g21.T)) / np.max(np.abs(g12)) < 1e-8

    def test_nr_limit_on_axis(self):
        z = LAM / 200
        mat = media.Constant(11.68)
        full, _ = greens.halfspace_scatter_full([0, 0, z], [0, 0, z], OMEGA, mat)
        lim = greens.halfspace_scatter_nr([0, 0, z], [0, 0, z], OMEGA, mat)
        assert np.max(np.abs(full - lim)) / np.max(np.abs(lim)) < 1e-2

    def test_r_limit_on_axis(self):
        z = 10 * LAM
        mat = media.Constant(2.0)
        full, _ = greens.halfspace_scatter_full([0, 0, z], [0, 0, z], OMEGA, mat)
        lim = greens.halfspace_scatter_r([0, 0, z], [0, 0, z], OMEGA, mat)
        assert np.max(np.abs(full - lim)) / np.max(np.abs(lim)) < 2e-2


class TestBatchedSommerfeld:
    LOSSY_METAL = media.DrudeLorentz(2.5 * OMEGA, 0.0, 0.2 * OMEGA)
    # two geometries whose error estimate bottoms out near 1e-13
    FLOOR = [(np.array([0.0, 0.0, 0.005]) * LAM, np.array([1.0, 0.0, 0.014]) * LAM),
             (np.array([0.2, 0.0, 0.009]) * LAM, np.array([-0.8, 0.0, 0.012]) * LAM)]

    @staticmethod
    def counting_panels(monkeypatch):
        """Counts the panels the Sommerfeld integrand is evaluated on."""
        from mqret import quadrature

        real = quadrature.adaptive_quad_vec
        nodes = []

        def counting(f, *args, **kwargs):
            def kernel(x):
                nodes.append(x.size)
                return f(x)
            return real(kernel, *args, **kwargs)

        monkeypatch.setattr(quadrature, "adaptive_quad_vec", counting)
        return lambda: sum(nodes) // 21

    def test_j2_recurrence_matches_scipy(self):
        """J2 = 2 J1/x - J0 against scipy's jn(2, x), which shares no code
        with it, at the origin, tiny arguments and far along the axis."""
        from scipy.special import jn

        x = np.concatenate([[0.0, 1e-300, 1e-12, 1e-6, 1e-3],
                            np.random.default_rng(2).uniform(0.0, 2000.0, 20000)])
        _, _, j2 = greens._bessel_j012(x)
        assert np.abs(j2 - jn(2, x)).max() <= 1e-14
        assert j2[0] == 0.0

    def test_batch_equals_single_geometry(self):
        mat = media.Constant(2.25)
        r = np.array([[0.0, 0.0, 0.05], [0.3, -0.2, 0.4], [0.0, 0.0, 2.0]]) * LAM
        rp = np.array([[0.0, 0.0, 0.08], [-0.5, 0.1, 0.9], [1.5, 0.0, 0.3]]) * LAM
        g, err = greens.halfspace_scatter_full(r, rp, OMEGA, mat)
        assert g.shape == (3, 3, 3) and err.shape == (3,)
        for k in range(3):
            g_k, err_k = greens.halfspace_scatter_full(r[k], rp[k], OMEGA, mat)
            assert np.array_equal(g[k], g_k) and err[k] == err_k

    def test_far_zone_meets_its_own_tolerance(self):
        """A 40 lambda tensor batched with a 0.002 lambda one is ~1e9 times
        smaller; it must still meet rtol against its own magnitude."""
        mat = media.Constant(2.25)
        r = np.array([[0.0, 0.0, 0.002], [0.0, 0.0, 40.0]]) * LAM
        rp = np.array([[0.002, 0.0, 0.002], [0.5, 0.0, 40.0]]) * LAM
        rtol = 1e-6
        g, _ = greens.halfspace_scatter_full(r, rp, OMEGA, mat, rtol=rtol)
        ref, _ = greens.halfspace_scatter_full(r[1], rp[1], OMEGA, mat, rtol=1e-10)
        assert np.abs(g[0]).max() > 1e6 * np.abs(ref).max()
        assert np.abs(g[1] - ref).max() <= rtol * np.abs(ref).max()
        solo, _ = greens.halfspace_scatter_full(r[1], rp[1], OMEGA, mat, rtol=rtol)
        assert np.array_equal(g[1], solo)

    def test_rounding_floor_fails_fast(self, monkeypatch):
        """Below the rounding floor of |K21 - G10| the evaluator raises at
        once instead of spending its 4000-panel budget."""
        panels = self.counting_panels(monkeypatch)
        for r, rp in self.FLOOR:
            before = panels()
            with pytest.raises(QuadratureError) as info:
                greens.halfspace_scatter_full(r, rp, OMEGA, self.LOSSY_METAL,
                                              rtol=1e-13)
            assert info.value.estimate is not None and info.value.estimate > 1e-13
            assert panels() - before <= 1200

    def test_floor_geometries_converge_at_1e12(self):
        r, rp = (np.stack(p) for p in zip(*self.FLOOR))
        _, err = greens.halfspace_scatter_full(r, rp, OMEGA, self.LOSSY_METAL,
                                               rtol=1e-12)
        assert np.all(err <= 1e-12)

    def test_near_zone_dielectric_converges_at_1e12(self):
        """Mediator legs of a map over eps = 2.25 near the benchmark's
        geometries reach rtol 1e-12, the benchmark's reference tolerance."""
        xs, zs = np.meshgrid(np.linspace(-3.0, 3.0, 5), [0.2, 0.5, 2.0, 4.0])
        med = np.stack([xs.ravel(), 0.0 * xs.ravel(), zs.ravel()], axis=1) * LAM
        r_a, r_d = np.array([0.0, 0.0, 0.07]) * LAM, np.array([0.0, 0.0, 0.04]) * LAM
        r = np.concatenate([np.broadcast_to(r_a, med.shape), med])
        rp = np.concatenate([med, np.broadcast_to(r_d, med.shape)])
        _, err = greens.halfspace_scatter_full(r, rp, OMEGA, media.Constant(2.25),
                                               rtol=1e-12)
        assert np.all(err <= 1e-12)


class TestDispatch:
    def test_green_total_vacuum_is_bulk(self):
        r1 = np.array([0.0, 0.0, 0.6]) * LAM
        r2 = np.array([0.0, 0.2, 0.1]) * LAM
        total = greens.green_total(greens.Vacuum(), r1, r2, OMEGA)
        bulk = greens.vacuum_bulk_exact(r1, r2, OMEGA)
        assert np.array_equal(total, bulk)

    def test_parts_sum(self):
        env = greens.PerfectMirror()
        r1 = np.array([0.0, 0.0, 0.4]) * LAM
        r2 = np.array([0.1, 0.0, 0.3]) * LAM
        total = greens.green_total(env, r1, r2, OMEGA, part="total")
        bulk = greens.green_total(env, r1, r2, OMEGA, part="bulk")
        scat = greens.green_total(env, r1, r2, OMEGA, part="scatter")
        assert np.allclose(total, bulk + scat, rtol=1e-14)

    def test_unknown_part(self):
        with pytest.raises(ValueError):
            greens.green_total(
                greens.Vacuum(), [0, 0, LAM], [0, 0, 0], OMEGA, part="bogus"
            )

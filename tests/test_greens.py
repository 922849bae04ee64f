import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mqret import greens, media, oracles
from mqret.core import C, GeometryError, IDENTITY, QuadratureError


LAM = 1e-6
OMEGA = 2 * np.pi * C / LAM


def transverse(rho_vec):
    e = np.asarray(rho_vec) / np.linalg.norm(rho_vec)
    return IDENTITY - np.outer(e, e)


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
        g = greens.vacuum_bulk_exact(r, np.zeros(3), 1j * OMEGA)
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

    def test_nearly_index_matched_is_first_order_in_eps_minus_one(self):
        """Over eps = 1 + delta the scattering tensor is delta times a
        tensor of its own plus O(delta^2): G / delta at delta = 1e-6 and
        1e-5 agrees with it at 1e-8 within delta (0.63 delta here) plus the
        estimates. With k_z2 from eps k1^2 - k_par^2, whose two terms
        cancel near k_par = k1, each of these exhausted 4000 panels."""
        r1, r2 = np.array([0.3, 0.0, 0.2]) * LAM, np.array([0.0, 0.0, 0.1]) * LAM

        def per_delta(delta):
            eps = 1.0 + delta
            g, err = greens.halfspace_scatter_full(r1, r2, OMEGA,
                                                   media.Constant(eps))
            return g / (eps - 1.0), err

        ref, ref_err = per_delta(1e-8)
        for delta in (1e-6, 1e-5):
            g, err = per_delta(delta)
            dev = np.max(np.abs(g - ref)) / np.max(np.abs(ref))
            assert dev <= delta + err + ref_err


class TestBesselKernel:
    """The numpy J0/J1/J2 kernel of the Sommerfeld integrand against
    scipy.special, which shares no code with it, and against values of
    mpmath."""

    # region edges of greens._bessel_j012: its series below 4, where J2
    # leaves its own series for the recurrence, and Hankel's form from 8
    EDGES = np.array([4.0, 8.0])
    # (x, J0, J1, J2) from mpmath at 40 digits
    MPMATH = [
        (0.5, 0.9384698072408129, 0.2422684576748739, 0.03060402345868264),
        (3.9, -0.4018260148876399, -0.02724403962077989, 0.3878547125180092),
        (4.5, -0.32054250898512143, -0.23106043192337064, 0.2178489836858456),
        (7.9, 0.19436184484127825, 0.2191793999217512, -0.13887338916488554),
        (10.0, -0.24593576445134835, 0.04347274616886144, 0.2546303136851206),
        (123.456, -0.07103006241837069, -0.010839584856520649,
         0.07085446001983971),
        (1000.5, 0.01948655998713014, 0.016027715373203338,
         -0.019454520576089252),
        (31415.9, 0.003097510069146274, -0.0032663991117737852,
         -0.003097718014747818),
        (99999.5, -0.0006233556179769665, 0.0024449216935900743,
         0.0006234045166553317),
    ]

    @staticmethod
    def scipy_j012(x):
        from scipy.special import j0, j1, jn

        return j0(x), j1(x), jn(2, x)

    @staticmethod
    def scipy_tolerance(x):
        """2e-15, plus the error of scipy's J0 and J1 from x = 8 up: they
        round x - pi/4 to a double, which moves J by up to eps sqrt(x/2 pi),
        4e-15 at x = 2000 and 2.8e-14 at 1e5."""
        return 2e-15 + np.finfo(float).eps * np.sqrt(x / (2.0 * np.pi))

    def test_matches_scipy(self):
        """x = 0, a subnormal, 1e-300, 1e-12 to 1e-3, each region edge and
        its neighbouring doubles, the first 20 zeros of J0 and J1, 20,000
        uniform draws on [0, 2000] and a geometric sweep to 1e5, beyond the
        largest k_par rho of a near-surface map. J2 at x = 0 is exact."""
        from scipy.special import jn_zeros

        edges = self.EDGES
        x = np.concatenate([
            [0.0, 5e-324, 1e-300], np.geomspace(1e-12, 1e-3, 10),
            np.nextafter(edges, 0.0), edges, np.nextafter(edges, np.inf),
            jn_zeros(0, 20), jn_zeros(1, 20),
            np.random.default_rng(3).uniform(0.0, 2000.0, 20000),
            np.geomspace(1e-3, 1e5, 2000)])
        tol = self.scipy_tolerance(x)
        got = greens._bessel_j012(x)
        for g, want in zip(got, self.scipy_j012(x)):
            assert np.all(np.abs(g - want) <= tol)
        assert got[2][0] == 0.0

    def test_lone_arguments_match_scipy(self):
        """Each argument alone, as a region of a batch may hold it, where
        the terms of a series in (x/4)^2 cancel: the result must not depend
        on the order in which the matrix product adds them."""
        x = np.random.default_rng(4).uniform(3.0, 8.0, 200)
        want = self.scipy_j012(x)
        for k in range(len(x)):
            got = greens._bessel_j012(x[k:k + 1])
            for g, w in zip(got, want):
                assert abs(g[0] - w[k]) <= 1e-15

    def test_matches_mpmath(self):
        """Within 5e-16 of mpmath; from x = 8 up this kernel is closer to
        it than scipy, which is 4.2e-15 off at x = 31415.9."""
        x, *want = np.array(self.MPMATH).T
        for got, w in zip(greens._bessel_j012(x), want):
            assert np.abs(got - w).max() <= 5e-16

    @staticmethod
    def series_j2(x):
        """J2(x) = sum_m (-1)^m (x/2)^(2m+2) / (m! (m+2)!) summed in decimal
        arithmetic at 40 digits from the exact double x; equal to mpmath's
        besselj(2, x) at 40 digits, rounded to a double, on the sweep
        below."""
        from decimal import Decimal, localcontext

        with localcontext() as ctx:
            ctx.prec = 40
            h2 = (Decimal(float(x)) / 2) ** 2
            term = total = h2 / 2
            m = 0
            while abs(term) > Decimal(10) ** -45 * abs(total):
                m += 1
                term = -term * h2 / (m * (m + 2))
                total += term
            return float(total)

    def test_j2_below_4_matches_its_series(self):
        """J2 within 1e-15 relative on a geometric sweep over (1e-8, 4),
        where it is its own series in x^2/8 - 1, not the recurrence
        2 J1/x - J0, which cancels to 2.5e-11 near x = 0.01."""
        x = np.geomspace(1e-8, 4.0, 600, endpoint=False)
        want = np.array([self.series_j2(v) for v in x])
        got = greens._bessel_j012(x)[2]
        assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))

    @pytest.mark.parametrize("shape", [(), (1,), (7,), (2, 3, 4), (0,)])
    def test_shape_of_input(self, shape):
        """Each result is an array of the shape of x. A 0-d x, at 0 and at
        two points of the series below x = 4, gives the values of the same x
        in a 1-element array."""
        x = np.random.default_rng(5).uniform(0.0, 20.0, shape)
        for j in greens._bessel_j012(x):
            assert type(j) is np.ndarray and j.shape == shape
        if shape == ():
            for value in (0.0, 0.005, 0.5):
                lone = greens._bessel_j012(np.array([value]))
                for j, want in zip(greens._bessel_j012(np.array(value)),
                                   lone):
                    assert type(j) is np.ndarray and j.shape == ()
                    assert j.tobytes() == want.tobytes()

    def test_zero_arguments(self):
        """rho = 0, as on axis: the columns take J0 = 1 and J1 = J2 = 0
        exactly."""
        rng = np.random.default_rng(6)
        k_par = OMEGA / C * rng.uniform(0.0, 30.0, (16, 21, 1))
        kernel = (rng.standard_normal((16, 21, 1, 4))
                  + 1j * rng.standard_normal((16, 21, 1, 4)))
        cols = greens._bessel_columns(kernel, k_par, np.zeros(1))
        assert cols.shape == (16, 21, 1, 4)
        assert np.array_equal(cols[..., ::2], kernel[..., ::2])
        assert not cols[..., 1::2].any()

    def test_on_axis_runs_evaluate_no_bessel_function(self, monkeypatch):
        """A lone on-axis G_AD and a batch of on-axis geometries at several
        heights never reach the Bessel kernel, and give the tensors that they
        give when it is there to call."""
        mat = media.Constant(2.25)
        z = np.array([0.04, 0.3, 1.1, 2.0])[:, None]
        pairs = [(np.array([0.0, 0.0, 0.08]) * LAM,
                  np.array([0.0, 0.0, 0.04]) * LAM),
                 (np.hstack([np.zeros((4, 2)), z]) * LAM,
                  np.tile([0.0, 0.0, 0.07], (4, 1)) * LAM)]
        want = [greens.halfspace_scatter_full(r, rp, OMEGA, mat)
                for r, rp in pairs]

        def no_kernel(x):
            raise AssertionError("the Bessel kernel was called on axis")

        monkeypatch.setattr(greens, "_bessel_j012", no_kernel)
        for (r, rp), (g, err) in zip(pairs, want):
            got, got_err = greens.halfspace_scatter_full(r, rp, OMEGA, mat)
            assert got.tobytes() == g.tobytes()
            assert np.array_equal(got_err, err)


def lone_reference(r, rp, mat):
    """A geometry's tensor and relative error estimate from a lone run at
    rtol 1e-12, or at 1e-11 for the far pairs that cannot reach 1e-12
    (z + z' = 80 lambda has a rounding floor near 1e-12)."""
    try:
        return greens.halfspace_scatter_full(r, rp, OMEGA, mat, rtol=1e-12)
    except QuadratureError:
        assert r[2] + rp[2] > 10.0 * LAM
        return greens.halfspace_scatter_full(r, rp, OMEGA, mat, rtol=1e-11)


def assert_batch_within_tolerance(r, rp, mat, rtol):
    """Each tensor of a batch, which shares one panel set, lies within
    rtol max|g| of its lone reference, and its error estimate bounds that
    deviation."""
    g, err = greens.halfspace_scatter_full(r, rp, OMEGA, mat, rtol=rtol)
    assert g.shape == (len(r), 3, 3) and err.shape == (len(r),)
    for k in range(len(r)):
        ref, ref_err = lone_reference(r[k], rp[k], mat)
        dev = np.abs(g[k] - ref).max() / np.abs(ref).max()
        assert dev <= rtol
        assert dev <= err[k] + ref_err


class TestBatchedSommerfeld:
    LOSSY_METAL = media.DrudeLorentz(2.5 * OMEGA, 0.0, 0.2 * OMEGA)
    # two geometries whose error estimate bottoms out near 1e-13
    FLOOR = [(np.array([0.0, 0.0, 0.005]) * LAM, np.array([1.0, 0.0, 0.014]) * LAM),
             (np.array([0.2, 0.0, 0.009]) * LAM, np.array([-0.8, 0.0, 0.012]) * LAM)]

    @staticmethod
    def integrand_calls(monkeypatch):
        """The node count of every call of the Sommerfeld integrand, in
        order, as a list that fills as the evaluator runs."""
        from mqret import quadrature

        real = quadrature.adaptive_quad_vec
        nodes = []

        def counting(f, *args, **kwargs):
            def kernel(x):
                nodes.append(x.size)
                return f(x)
            return real(kernel, *args, **kwargs)

        monkeypatch.setattr(quadrature, "adaptive_quad_vec", counting)
        return nodes

    @staticmethod
    def counting_panels(monkeypatch):
        """Counts the panels the Sommerfeld integrand is evaluated on."""
        nodes = TestBatchedSommerfeld.integrand_calls(monkeypatch)
        return lambda: sum(nodes) // 21

    def test_fresnel_once_per_integrand_call(self, monkeypatch):
        """Each integrand call takes r_s and r_p from one call of the module
        global greens.fresnel, the name bench/tracing.py wraps to count
        them: neither hoisted out of the integrand nor bypassed."""
        calls = self.integrand_calls(monkeypatch)
        real = greens.fresnel
        fresnel_calls = []

        def counting(*args, **kwargs):
            fresnel_calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(greens, "fresnel", counting)
        greens.halfspace_scatter_full(*self.map_legs(), OMEGA,
                                      media.Constant(2.25))
        assert len(calls) >= 1 and len(fresnel_calls) == len(calls)

    def test_batch_equals_single_geometry(self):
        """A batch shares one panel set; each tensor agrees with its lone
        evaluation within the tolerance, no longer bit for bit."""
        r = np.array([[0.0, 0.0, 0.05], [0.3, -0.2, 0.4], [0.0, 0.0, 2.0]]) * LAM
        rp = np.array([[0.0, 0.0, 0.08], [-0.5, 0.1, 0.9], [1.5, 0.0, 0.3]]) * LAM
        assert_batch_within_tolerance(r, rp, media.Constant(2.25), 1e-9)

    def test_far_zone_meets_its_own_tolerance(self):
        """A 40 lambda tensor batched with a 0.002 lambda one is ~1e9 times
        smaller; it must still meet rtol against its own magnitude."""
        mat = media.Constant(2.25)
        r = np.array([[0.0, 0.0, 0.002], [0.0, 0.0, 40.0]]) * LAM
        rp = np.array([[0.002, 0.0, 0.002], [0.5, 0.0, 40.0]]) * LAM
        rtol = 1e-6
        g, err = greens.halfspace_scatter_full(r, rp, OMEGA, mat, rtol=rtol)
        ref, _ = greens.halfspace_scatter_full(r[1], rp[1], OMEGA, mat, rtol=1e-10)
        assert np.abs(g[0]).max() > 1e6 * np.abs(ref).max()
        dev = np.abs(g[1] - ref).max() / np.abs(ref).max()
        assert dev <= rtol and dev <= err[1] + 1e-10

    @settings(max_examples=12, deadline=None)
    @given(kinds=st.lists(st.sampled_from(["near", "leg", "far"]), min_size=1,
                          max_size=64),
           seed=st.integers(0, 2**32 - 1), lossy_metal=st.booleans())
    @example(kinds=["near", "leg", "leg", "far"] * 16, seed=1, lossy_metal=False)
    @example(kinds=["near", "leg", "leg", "far"] * 16, seed=2, lossy_metal=True)
    @example(kinds=["near"] * 6, seed=414, lossy_metal=False)  # rounding floor
    def test_random_batch_meets_tolerance(self, kinds, seed, lossy_metal):
        """A random batch of near-surface pairs, mediator legs of a map and
        40 lambda pairs, over eps = 2.25 or the lossy Drude-Lorentz metal:
        every tensor meets rtol 1e-9 against its own lone reference."""
        rng = np.random.default_rng(seed)

        def pair(kind):
            low = rng.uniform(0.02, 0.1, 2)
            if kind == "near":
                return [rng.uniform(-0.1, 0.1), 0.0, low[0]], [0.0, 0.0, low[1]]
            if kind == "leg":
                return ([rng.uniform(-3.0, 3.0), rng.uniform(-0.5, 0.5),
                         rng.uniform(0.2, 4.0)], [0.0, 0.0, low[0]])
            return [rng.uniform(-1.0, 1.0), 0.0, 40.0], [0.0, 0.0, 40.0]

        r, rp = (np.array(p) * LAM for p in zip(*map(pair, kinds)))
        mat = self.LOSSY_METAL if lossy_metal else media.Constant(2.25)
        assert_batch_within_tolerance(r, rp, mat, 1e-9)

    def test_hard_near_surface_batch_shares_a_larger_budget(self,
                                                            monkeypatch):
        """Near-surface pairs at rho/(z + z') of 300-475 need 1,100-1,760
        panels each alone and about 2,150 together. Each converges alone
        within a budget of 1,900 panels, and so does the batch, within the
        tolerance of the lone runs."""
        from mqret import quadrature

        monkeypatch.setattr(quadrature, "_MAX_PANELS", 1900)
        rng = np.random.default_rng(7)
        n = 4
        big_z = rng.uniform(0.004, 0.01, n)
        r = np.stack([rng.uniform(300.0, 500.0, n) * big_z, np.zeros(n),
                      big_z / 2], axis=1) * LAM
        rp = np.stack([np.zeros(n), np.zeros(n), big_z / 2], axis=1) * LAM
        mat = media.Constant(2.25)
        g, err = greens.halfspace_scatter_full(r, rp, OMEGA, mat)
        for k in range(n):
            ref, ref_err = greens.halfspace_scatter_full(r[k], rp[k], OMEGA,
                                                         mat)
            dev = np.abs(g[k] - ref).max() / np.abs(ref).max()
            assert err[k] <= 1e-9 and dev <= err[k] + ref_err

    @pytest.mark.parametrize("ratio", [0, np.inf])
    def test_product_and_per_geometry_contractions_agree(self, monkeypatch,
                                                         ratio):
        """The same batch reduced by the (Z, rho) product in one run, or
        geometry by geometry in blocks of 3: every tensor within its
        tolerance of the lone reference."""
        monkeypatch.setattr(greens, "_PRODUCT_RATIO", ratio)
        monkeypatch.setattr(greens, "_BLOCK", 3)
        z = np.array([0.3, 0.3, 1.1, 1.1, 2.0, 2.0, 0.05])
        r = np.stack([[0.0, 0.4, 0.0, 0.4, 0.0, 0.4, 0.02], np.zeros(7), z],
                     axis=1) * LAM
        rp = np.tile([0.0, 0.0, 0.04], (7, 1)) * LAM
        assert_batch_within_tolerance(r, rp, media.Constant(2.25), 1e-9)

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

    # the donor and acceptor of a map and 20 mediator positions around them
    R_D, R_A = np.array([0.0, 0.0, 0.04]) * LAM, np.array([0.0, 0.0, 0.07]) * LAM

    @classmethod
    def map_legs(cls):
        """Both mediator legs of 20 map positions as one batch, (r, r')."""
        xs, zs = np.meshgrid(np.linspace(-3.0, 3.0, 5), [0.2, 0.5, 2.0, 4.0])
        med = np.stack([xs.ravel(), 0.0 * xs.ravel(), zs.ravel()], axis=1) * LAM
        return (np.concatenate([np.broadcast_to(cls.R_A, med.shape), med]),
                np.concatenate([med, np.broadcast_to(cls.R_D, med.shape)]))

    def test_near_zone_dielectric_converges_at_1e12(self):
        """Mediator legs of a map over eps = 2.25 near the benchmark's
        geometries reach rtol 1e-12, the benchmark's reference tolerance."""
        _, err = greens.halfspace_scatter_full(*self.map_legs(), OMEGA,
                                               media.Constant(2.25), rtol=1e-12)
        assert np.all(err <= 1e-12)

    def test_seeded_panels_save_rounds(self, monkeypatch):
        """Each contour segment starts as _SEED_PANELS panels, so the rounds
        that would only bisect a uniform mesh are gone: the map legs above
        converge at rtol 1e-9 in at most 5 integrand calls (7 from one
        panel per segment), and a lone on-axis G_AD in its first."""
        calls = self.integrand_calls(monkeypatch)
        greens.halfspace_scatter_full(*self.map_legs(), OMEGA,
                                      media.Constant(2.25), rtol=1e-9)
        assert len(calls) <= 5
        calls.clear()
        greens.halfspace_scatter_full(self.R_D, self.R_A, OMEGA,
                                      media.Constant(2.25), rtol=1e-9)
        assert len(calls) == 1

    def test_estimate_covers_the_cut_off_tail(self, monkeypatch):
        """On the seeded panels the on-axis G_AD converges in one round with
        |K21 - G10| near 1e-15, below the ~3e-15 that the cut-off at
        kappa (z + z') = 40 leaves out; the estimate, floored at the
        rounding level of the panel sum, covers the distance to the tensor
        cut at 70."""
        mat = media.Constant(2.25)
        g, err = greens.halfspace_scatter_full(self.R_D, self.R_A, OMEGA, mat,
                                               rtol=1e-12)
        monkeypatch.setattr(greens, "_EVANESCENT_DECADES", 70.0)
        ref, _ = greens.halfspace_scatter_full(self.R_D, self.R_A, OMEGA, mat,
                                               rtol=1e-12)
        dev = np.abs(g - ref).max() / np.abs(ref).max()
        assert 1e-15 < dev <= err

    # (t_max, t_b): unsplit, split, cut-off before t_b, cut-off just past it
    CONTOURS = [(3.0, 0.0), (3.85, 0.962), (0.5, 0.962), (0.9620001, 0.962)]

    @pytest.mark.parametrize("t_max, t_b", CONTOURS)
    def test_seeded_edges_keep_every_segment_edge(self, t_max, t_b):
        """Every edge of _contour_edges, joins and the branch-point edge
        t_b + u_c^2 included, is an edge of the seeded panels, bit for bit,
        and the seeded panels tile each segment in equal widths."""
        lo, hi = greens._contour_edges(t_max, t_b)
        seeded_lo, seeded_hi = greens._seeded_edges(lo, hi)
        assert len(seeded_lo) == greens._SEED_PANELS * len(lo)
        assert set(lo) <= set(seeded_lo) and set(hi) <= set(seeded_hi)
        inner = seeded_lo.reshape(len(lo), -1)[:, 1:]
        assert np.array_equal(inner, seeded_hi.reshape(len(lo), -1)[:, :-1])
        width = (seeded_hi - seeded_lo).reshape(len(lo), -1)
        assert np.allclose(width, ((hi - lo) / greens._SEED_PANELS)[:, None],
                           rtol=1e-12)

    @pytest.mark.parametrize("t_max, t_b", CONTOURS)
    def test_seeded_edges_equal_linspace(self, t_max, t_b):
        """The seeded edges are those of np.linspace, bit for bit."""
        lo, hi = greens._contour_edges(t_max, t_b)
        grid = np.linspace(lo, hi, greens._SEED_PANELS + 1, axis=1)
        seeded_lo, seeded_hi = greens._seeded_edges(lo, hi)
        assert seeded_lo.tobytes() == grid[:, :-1].ravel().tobytes()
        assert seeded_hi.tobytes() == grid[:, 1:].ravel().tobytes()

    def test_points_broadcast(self):
        """A lone point against a batch is that point repeated, bit for
        bit."""
        r = np.array([0.1, 0.0, 0.3]) * LAM
        rp = np.array([[0.0, 0.0, 0.2], [0.4, 0.1, 0.5]]) * LAM
        mat = media.Constant(2.25)
        got = greens.halfspace_scatter_full(r, rp, OMEGA, mat)
        ref = greens.halfspace_scatter_full(np.broadcast_to(r, rp.shape), rp,
                                            OMEGA, mat)
        assert all(np.array_equal(a, b) for a, b in zip(got, ref))

    def test_lone_pair_in_either_shape(self):
        """A point pair of shape (1, 3) gives the tensor and the estimate of
        the same pair of shape (3,), bit for bit, and a lone geometry's
        distinct Z and rho are those of np.unique."""
        mat = media.Constant(2.25)
        for r in (self.R_A, np.array([0.3, -0.2, 0.2]) * LAM):
            g, err = greens.halfspace_scatter_full(r, self.R_D, OMEGA, mat)
            g1, err1 = greens.halfspace_scatter_full(r[None], self.R_D[None],
                                                     OMEGA, mat)
            assert g1.shape == (1, 3, 3) and err1.shape == (1,)
            assert g1[0].tobytes() == g.tobytes() and err1[0] == err
        z_sum, lateral = np.array([0.3 * LAM]), np.array([0.36 * LAM])
        terms = greens._distinct_terms(z_sum, lateral)
        unique = (np.unique(z_sum, return_inverse=True)
                  + np.unique(lateral, return_inverse=True))
        for got, want in zip(terms, unique):
            assert got.dtype == want.dtype and np.array_equal(got, want)


class TestRewrittenSteps:
    """Steps of the Sommerfeld evaluator written with fewer numpy calls
    equal, bit for bit, the formulas they replaced, which are kept here as
    the reference. Inputs include signed zeros and both signs, so that a
    rewrite that rounds or signs a zero differently fails."""

    @staticmethod
    def complex_sample(rng, shape):
        z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        z.real.flat[::7] = -0.0
        z.imag.flat[3::11] = 0.0
        return z

    @staticmethod
    def stacked_assemble(comps, phi0):
        xx, yy, zz, xz = np.moveaxis(np.asarray(comps, dtype=complex), -1, 0)
        zx = -xz
        c, s = np.cos(phi0), np.sin(phi0)
        cs = c * s * (xx - yy)
        return np.stack([
            np.stack([c * c * xx + s * s * yy, cs, c * xz], axis=-1),
            np.stack([cs, s * s * xx + c * c * yy, s * xz], axis=-1),
            np.stack([c * zx, s * zx, zz], axis=-1),
        ], axis=-2)

    def test_assemble_equals_stacked_formula(self):
        rng = np.random.default_rng(3)
        comps = self.complex_sample(rng, (6, 4))
        for phi0 in (rng.uniform(-np.pi, np.pi, 6), np.zeros(6), 0.0, 2.5):
            want = self.stacked_assemble(comps, phi0)
            assert greens._assemble(comps, phi0).tobytes() == want.tobytes()
        lone = greens._assemble(comps[0], 0.0)
        assert lone.shape == (3, 3)
        assert lone.tobytes() == self.stacked_assemble(comps[0], 0.0).tobytes()

    def test_kernel_columns_and_components_equal_stacked_formulas(self):
        rng = np.random.default_rng(4)
        k1 = OMEGA / C
        k_par = k1 * rng.uniform(0.0, 30.0, (5, 21, 1))
        k_z = k1 * self.complex_sample(rng, (5, 21, 1))
        r_s, r_p = (self.complex_sample(rng, (5, 21, 1)) for _ in range(2))
        cols = greens._kernel_columns(k_par, k_z, k1, r_s, r_p)
        c2 = r_p * (k_z / k1) ** 2
        want = np.stack([r_s - c2, r_s + c2, 2.0 * r_p * (k_par / k1) ** 2,
                         -2j * r_p * k_z * k_par / k1**2], axis=-1)
        assert cols.tobytes() == want.tobytes()
        a, b, c, d = np.moveaxis(want, -1, 0)
        want = np.stack([a + b, a - b, c, d], axis=-1)
        assert greens._components(cols).tobytes() == want.tobytes()

    def test_bessel_columns_equal_stacked_formula(self):
        """Off axis, and on axis, where the Bessel factors are J0 = 1 and
        J1 = J2 = 0 exactly, without evaluating them: the reference there is
        the kernel times (1, 0, 1, 0), not the kernel functions at 0, which
        are 1 only to their last bit."""
        rng = np.random.default_rng(5)
        k_par = OMEGA / C * rng.uniform(0.0, 30.0, (5, 21, 1))
        kernel = self.complex_sample(rng, (5, 21, 1, 4))
        got = greens._bessel_columns(kernel, k_par, np.zeros(1))
        want = kernel * np.array([1.0, 0.0, 1.0, 0.0])
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        rho = np.array([0.0, 0.3, 2.0]) * LAM
        b0, b1, b2 = greens._bessel_j012(k_par * rho)
        want = np.stack([b0, b2, b0, b1], axis=-1) * kernel
        got = greens._bessel_columns(kernel, k_par, rho)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @staticmethod
    def where_contour_point(s, k1, t_b):
        theta = s + (1.0 + 1.5 * np.pi)
        prop = theta < 0.5 * np.pi
        v, u = s + (1.0 + np.pi), s + 1.0
        below = ~prop & (s < -1.0)
        square = (s >= -1.0) & (s < 0.0)
        t = np.where(below, t_b * np.sin(0.5 * v) ** 2,
                     np.where(square, t_b + u * u, s))
        dt = np.where(below, 0.5 * t_b * np.sin(v),
                      np.where(square, 2.0 * u, 1.0))
        k_par = np.where(prop, k1 * np.sin(theta), k1 * np.cosh(t))
        k_z = np.where(prop, k1 * np.cos(theta), 1j * k1 * np.sinh(t))
        return k_par, k_z, np.where(prop, k_par, -1j * k_par * dt)

    @pytest.mark.parametrize("t_max, t_b", TestBatchedSommerfeld.CONTOURS)
    def test_contour_point_equals_where_cascade(self, t_max, t_b):
        """On the seeded panels of each contour, in order and shuffled."""
        from mqret.quadrature import _XK

        lo, hi = greens._seeded_edges(*greens._contour_edges(t_max, t_b))
        s = ((0.5 * (lo + hi))[:, None] + 0.5 * (hi - lo)[:, None] * _XK)
        k1 = OMEGA / C
        shuffled = np.random.default_rng(6).permutation(s)
        for nodes in (s.ravel(), shuffled.ravel()):
            got = greens._contour_point(nodes, k1, t_b)
            for g, w in zip(got, self.where_contour_point(nodes, k1, t_b)):
                assert g.tobytes() == w.tobytes()


class TestBranchPointContour:
    """Over a dielectric with Re sqrt(eps) > 1 the evanescent segment is
    split at the branch point t_b = acosh(Re sqrt(eps)) of k_z2, with a
    substitution on each side that makes the integrand analytic there."""

    @settings(max_examples=20, deadline=None)
    @given(eps=st.one_of(
               # dielectrics, lossless or nearly so
               st.builds(complex, st.floats(1.05, 12.0),
                         st.one_of(st.just(0.0), st.floats(0.0, 1e-2))),
               # lossy metals, with the surface-plasmon pole near the axis
               st.builds(complex, st.floats(-5.0, -1.05), st.floats(0.01, 1.0)),
               # 0 < Re eps < 1, away from 0 (see test_oracles.py) and, as
               # the dielectrics, from 1, where a vanishing tensor meets its
               # rounding floor at a relative tolerance
               st.builds(complex, st.floats(1e-3, 0.95),
                         st.one_of(st.just(0.0), st.floats(0.0, 1.0)))),
           spread=st.floats(0.0, 1.0), log_z=st.floats(np.log10(0.004), 1.0),
           share=st.floats(0.1, 0.9), phi=st.floats(-np.pi, np.pi))
    @example(eps=2.25, spread=0.2, log_z=np.log10(8.0), share=0.5,
             phi=0.3)    # cut-off before t_b: unsplit
    @example(eps=11.68, spread=0.3, log_z=np.log10(2.0), share=0.3,
             phi=0.0)    # unsplit
    @example(eps=2.25, spread=0.27, log_z=np.log10(0.37), share=0.2, phi=0.0)
    @example(eps=1.05, spread=2.2250738585e-313, log_z=0.0, share=0.5,
             phi=0.0)    # subnormal lateral distance
    def test_matches_quad_vec_in_kpar(self, eps, spread, log_z, share, phi):
        """z + z' from 0.004 to 10 lambda, lateral distance up to 3 lambda
        and up to 3 (z + z'): further out the k_par tail cancels so deeply
        that quad_vec takes seconds per tensor. Both integrate a lossless
        eps as given."""
        big_z = 10.0**log_z * LAM
        lateral = spread * min(3.0 * LAM, 3.0 * big_z)
        rho = lateral * np.array([np.cos(phi), np.sin(phi), 0.0])
        r = np.array([0.0, 0.0, share * big_z]) + rho
        rp = np.array([0.0, 0.0, (1.0 - share) * big_z])
        rtol = 1e-9
        g, err = greens.halfspace_scatter_full(r, rp, OMEGA, media.Constant(eps),
                                               rtol=rtol)
        ref, ref_err = oracles.sommerfeld_reference(r, rp, OMEGA,
                                                    media.Constant(eps))
        dev = np.abs(g - ref).max() / np.abs(ref).max()
        assert dev <= rtol
        assert dev <= err + ref_err

    def test_mixed_batch_equals_lone_runs(self):
        """Geometries whose cut-off lies beyond t_b and geometries whose
        cut-off comes first share one contour, split at t_b for the lowest
        one; each agrees with its lone evaluation within the tolerance."""
        mat = media.Constant(2.25)
        r = np.array([[0.0, 0.0, 0.07], [0.2, 0.0, 4.0], [0.0, 0.0, 0.3],
                      [1.0, 0.5, 6.0]]) * LAM
        rp = np.array([[0.3, 0.0, 0.3], [0.0, 0.0, 4.0], [0.0, 0.0, 0.01],
                       [0.0, 0.0, 5.0]]) * LAM
        k1 = OMEGA / C
        t_b = greens._branch_edge(mat, OMEGA)
        t_max = np.arcsinh(40.0 / (k1 * (r[:, 2] + rp[:, 2])))
        assert (t_max > t_b).tolist() == [True, False, True, False]
        lo, _ = greens._contour_edges(t_max.max(), t_b)
        assert len(lo) == 4   # split
        lo, _ = greens._contour_edges(t_max[1], t_b)
        assert len(lo) == 2   # unsplit
        assert_batch_within_tolerance(r, rp, mat, 1e-9)

    def test_metals_keep_two_segments(self):
        """Re sqrt(eps) <= 1: no branch point on the evanescent segment, and
        the contour keeps its propagating and evanescent panels."""
        metal = media.DrudeLorentz(2.5 * OMEGA, 0.0, 0.2 * OMEGA)
        assert greens._branch_edge(metal, OMEGA) == 0.0
        assert greens._branch_edge(media.PerfectReflector(), OMEGA) == 0.0
        lo, hi = greens._contour_edges(3.0, 0.0)
        assert np.array_equal(lo, [-1.0 - 1.5 * np.pi, 0.0])
        assert np.array_equal(hi, [-1.0 - np.pi, 3.0])
        s = np.array([-1.0 - 1.25 * np.pi, 0.5])
        k1 = OMEGA / C
        k_par, k_z, _ = greens._contour_point(s, k1, 0.0)
        assert np.allclose(k_par, k1 * np.array([np.sin(np.pi / 4), np.cosh(0.5)]))
        assert np.allclose(k_z, k1 * np.array([np.cos(np.pi / 4), 1j * np.sinh(0.5)]))

    def test_node_count_near_surface(self, monkeypatch):
        """A near-zone mediator leg over eps = 2.25 converges geometrically:
        at most 400 integrand nodes at rtol 1e-9 (924 with the evanescent
        segment unsplit)."""
        panels = TestBatchedSommerfeld.counting_panels(monkeypatch)
        greens.halfspace_scatter_full(np.array([0.0, 0.0, 0.07]) * LAM,
                                      np.array([0.3, 0.0, 0.3]) * LAM, OMEGA,
                                      media.Constant(2.25), rtol=1e-9)
        assert 21 * panels() <= 400


class TestDispatch:
    ENVIRONMENTS = {
        "vacuum": greens.Vacuum(),
        "mirror": greens.PerfectMirror(),
        "dielectric": greens.HalfSpace(media.Constant(2.25)),
        "drude": greens.HalfSpace(media.DrudeLorentz(4.7e15, 0.0, 3.7e14)),
    }

    @pytest.mark.parametrize("method", ["exact", "nr", "r"])
    @pytest.mark.parametrize("name", list(ENVIRONMENTS))
    def test_sommerfeld_predicate_matches_dispatch(self, monkeypatch, name,
                                                   method):
        """is_sommerfeld holds exactly when green_scatter integrates the
        tensor with halfspace_scatter_full."""
        env = self.ENVIRONMENTS[name]
        real = greens.halfspace_scatter_full
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(greens, "halfspace_scatter_full", counting)
        greens.green_scatter(env, np.array([0.0, 0.0, 0.08]) * LAM,
                             np.array([0.0, 0.0, 0.04]) * LAM, OMEGA,
                             method=method)
        assert len(calls) == int(greens.is_sommerfeld(env, method))

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

    @pytest.mark.parametrize("fn, env, method, error, match", [
        (greens.green_scatter, greens.PerfectMirror(), "bogus", ValueError,
         "unknown method 'bogus'"),
        (greens.green_scatter, "halfspace", "exact", TypeError,
         "unknown environment"),
        (greens.green_bulk, None, "bogus", ValueError,
         "unknown method 'bogus'"),
    ], ids=["scatter-method", "scatter-environment", "bulk-method"])
    def test_unknown_method_or_environment(self, fn, env, method, error,
                                           match):
        args = () if env is None else (env,)
        with pytest.raises(error, match=match):
            fn(*args, [0, 0, 0.2 * LAM], [0, 0, 0.3 * LAM], OMEGA,
               method=method)

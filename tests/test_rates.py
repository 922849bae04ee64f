import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from mqret import greens, media, rates
from mqret.core import C, DEBYE, EPS0, GeometryError, dyadic_reciprocity_defect


LAM = 1e-6
OMEGA = 2 * np.pi * C / LAM
D1 = 1.0 * DEBYE
ALPHA = 4 * np.pi * EPS0 * 0.1 * LAM**3
DIELECTRIC = greens.HalfSpace(media.Constant(2.25))
LOSSY_METAL = greens.HalfSpace(media.DrudeLorentz(2.5 * OMEGA, 0.0, 0.2 * OMEGA))
SILICON = greens.HalfSpace(media.Constant(11.68))


def dip(pos, moment):
    return rates.Dipole(position=np.asarray(pos, dtype=float),
                        moment=np.asarray(moment, dtype=complex))


class TestTwoBody:
    def test_isotropic_vacuum_is_forster(self):
        """Isotropic vacuum pipeline reproduces the 1/R^6 reference formula."""
        sep = 0.02 * LAM
        res = rates.rate_isotropic(
            D1, D1, np.array([0.0, 0.0, sep]), np.array([0.0, 0.0, 2 * sep]),
            greens.Vacuum(), OMEGA, method="limits",
        )
        ref = rates.forster_vacuum(sep, D1, D1)
        assert res.gamma == pytest.approx(ref, rel=1e-12, abs=0.0)
        assert res.gamma_normalized == pytest.approx(1.0, rel=1e-12, abs=0.0)

    def test_oriented_zz_vacuum(self):
        """z-aligned dipoles on the z axis: quasi-static rate is 4x the x-x one."""
        sep = 0.01 * LAM
        d_z = dip([0, 0, 0], [0, 0, D1])
        a_z = dip([0, 0, sep], [0, 0, D1])
        d_x = dip([0, 0, 0], [D1, 0, 0])
        a_x = dip([0, 0, sep], [D1, 0, 0])
        env = greens.Vacuum()
        g_zz = rates.rate_oriented(d_z, a_z, env, OMEGA, method="limits").gamma
        g_xx = rates.rate_oriented(d_x, a_x, env, OMEGA, method="limits").gamma
        assert g_zz == pytest.approx(4.0 * g_xx, rel=1e-12, abs=0.0)

    def test_gamma_xx_mirror_assembly(self):
        """Closed-form x-x mirror rate equals the assembled quasi-static rate."""
        z_d, z_a = 0.013 * LAM, 0.029 * LAM
        donor = dip([0, 0, z_d], [D1, 0, 0])
        acceptor = dip([0, 0, z_a], [D1, 0, 0])
        env = greens.PerfectMirror()
        res = rates.rate_oriented(donor, acceptor, env, OMEGA, method="limits")
        closed = rates.gamma_xx_mirror(z_d, z_a, 1.0, D1, D1)
        assert res.gamma == pytest.approx(closed, rel=1e-10, abs=0.0)

    def test_gamma_trans_qd_static_limit(self):
        z_d, z_a = 0.11 * LAM, 0.31 * LAM
        lim = rates.gamma_trans_qd(z_d, z_a, 0.0, D1, D1)
        closed = rates.gamma_xx_mirror(z_d, z_a, 1.0, D1, D1)
        assert lim == pytest.approx(closed, rel=1e-14, abs=0.0)

    def test_gamma0_vacuum_reduces_to_forster(self):
        z_d, z_a = 0.2 * LAM, 0.25 * LAM
        g0 = rates.gamma0(z_d, z_a, 0.0, D1, D1)
        assert g0 == pytest.approx(rates.forster_vacuum(z_a - z_d, D1, D1),
                                   rel=1e-14, abs=0.0)

    def test_forster_scaling(self):
        r = 0.03 * LAM
        assert rates.forster_vacuum(2 * r, D1, D1) == pytest.approx(
            rates.forster_vacuum(r, D1, D1) / 64.0, rel=1e-13, abs=0.0)


class TestThreeBody:
    def setup_method(self):
        self.env = greens.PerfectMirror()
        self.z_d, self.z_a, self.z_m = 0.30 * LAM, 0.45 * LAM, 2.5 * LAM
        self.alpha = 4 * np.pi * EPS0 * 0.1 * LAM**3
        self.med = rates.Mediator(
            position=np.array([0.0, 0.0, self.z_m]),
            polarizability=media.StaticScalar(self.alpha),
        )

    def test_closed_form_matches_pipeline(self):
        """Colinear closed form agrees with the limits-method assembly."""
        res = rates.rate_isotropic(
            D1, D1, np.array([0.0, 0.0, self.z_d]),
            np.array([0.0, 0.0, self.z_a]), self.env, OMEGA,
            mediator=self.med, method="limits",
        )
        closed = rates.rate_colinear_approx(
            self.z_d, self.z_a, self.z_m, self.env, self.alpha, OMEGA, D1, D1)
        assert res.gamma == pytest.approx(closed.gamma, rel=1e-10, abs=0.0)
        assert res.gamma_normalized == pytest.approx(
            closed.gamma_normalized, rel=1e-10, abs=0.0)

    def test_mediator_off_recovers_two_body(self):
        zero_med = rates.Mediator(position=self.med.position,
                                  polarizability=media.StaticScalar(0.0))
        with_m = rates.rate_isotropic(
            D1, D1, np.array([0, 0, self.z_d]), np.array([0, 0, self.z_a]),
            self.env, OMEGA, mediator=zero_med, method="limits")
        without = rates.rate_isotropic(
            D1, D1, np.array([0, 0, self.z_d]), np.array([0, 0, self.z_a]),
            self.env, OMEGA, method="limits")
        assert with_m.gamma == pytest.approx(without.gamma, rel=1e-13, abs=0.0)
        assert with_m.gamma_normalized == pytest.approx(1.0, rel=1e-13, abs=0.0)

    def test_alpha_zero_closed_form(self):
        closed = rates.rate_colinear_approx(
            self.z_d, self.z_a, self.z_m, self.env, 0.0, OMEGA, D1, D1)
        assert closed.gamma_normalized == pytest.approx(1.0, rel=1e-13, abs=0.0)

    def test_donor_acceptor_exchange(self):
        """The isotropic rate is symmetric under swapping donor and acceptor."""
        a = rates.rate_isotropic(
            D1, D1, np.array([0, 0, self.z_d]), np.array([0, 0, self.z_a]),
            self.env, OMEGA, mediator=self.med, method="exact")
        b = rates.rate_isotropic(
            D1, D1, np.array([0, 0, self.z_a]), np.array([0, 0, self.z_d]),
            self.env, OMEGA, mediator=self.med, method="exact")
        assert a.gamma == pytest.approx(b.gamma, rel=1e-10, abs=0.0)

    def test_dipole_magnitude_invariance(self):
        """Gamma/Gamma_0 does not depend on the dipole magnitudes."""
        a = rates.rate_isotropic(
            D1, D1, np.array([0, 0, self.z_d]), np.array([0, 0, self.z_a]),
            self.env, OMEGA, mediator=self.med, method="limits")
        b = rates.rate_isotropic(
            7.3 * D1, 0.4 * D1, np.array([0, 0, self.z_d]),
            np.array([0, 0, self.z_a]), self.env, OMEGA,
            mediator=self.med, method="limits")
        assert a.gamma_normalized == pytest.approx(b.gamma_normalized,
                                                   rel=1e-13, abs=0.0)

    def test_oriented_matrix_elements_reported(self):
        donor = dip([0, 0, self.z_d], [0, 0, D1])
        acceptor = dip([0, 0, self.z_a], [0, 0, D1])
        res = rates.rate_oriented(donor, acceptor, self.env, OMEGA,
                                  mediator=self.med, method="exact")
        assert res.matrix_element_direct is not None
        assert res.matrix_element_indirect is not None
        assert res.gamma > 0.0


class TestCouplingTensors:
    """Oriented, isotropic and normalized rates share one tensor set."""

    OFF_AXIS = [
        (np.array([-0.3, 0.1, 0.2]), np.array([0.25, -0.05, 0.35]),
         np.array([0.7, 0.4, 1.1])),
        (np.array([0.0, 0.0, 0.05]), np.array([0.1, 0.0, 0.12]),
         np.array([-1.2, 0.3, 0.6])),
    ]

    @settings(max_examples=25, deadline=None)
    @given(
        env=st.sampled_from([
            greens.Vacuum(), greens.PerfectMirror(), DIELECTRIC,
            greens.HalfSpace(media.Constant(2.0 + 0.5j)), LOSSY_METAL,
        ]),
        pos=st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0),
                               st.floats(0.05, 1.5)), min_size=3, max_size=3),
    )
    def test_reciprocity_of_coupling_tensor(self, env, pos):
        """F(D, M, A) is the transpose of F(A, M, D), which the isotropic
        rate relies on to replace the trace by a Frobenius norm."""
        r_d, r_a, r_m = (np.array(p) * LAM for p in pos)
        assume(min(np.linalg.norm(r_d - r_a), np.linalg.norm(r_a - r_m),
                   np.linalg.norm(r_m - r_d)) > 0.01 * LAM)
        med = rates.Mediator(r_m, media.StaticScalar(ALPHA))
        f_amd = sum(rates._coupling(env, r_a, r_d, OMEGA, med, "exact")[:2])
        f_dma = sum(rates._coupling(env, r_d, r_a, OMEGA, med, "exact")[:2])
        assert dyadic_reciprocity_defect(f_amd, f_dma) < 1e-10

    # donor, acceptor and mediator a few hundredths of a wavelength above
    # the surface, where the scattering legs weigh most in F
    NEAR_SURFACE = [
        (np.array([0.0, 0.0, 0.02]), np.array([0.03, 0.0, 0.05]),
         np.array([0.3, 0.0, 0.1])),
        (np.array([0.0, 0.0, 0.04]), np.array([0.0, 0.0, 0.07]),
         np.array([0.3, 0.0, 0.3])),
        (np.array([0.0, 0.0, 0.01]), np.array([0.05, 0.02, 0.01]),
         np.array([0.0, 0.1, 0.02])),
    ]

    @pytest.mark.parametrize("env", [DIELECTRIC, LOSSY_METAL, SILICON])
    @pytest.mark.parametrize("geom", OFF_AXIS + NEAR_SURFACE)
    def test_error_estimate_bounds_true_error(self, env, geom):
        """The propagated bound 2 ||dF||/||F|| of the isotropic rate, and
        that of an oriented rate, bound the deviation of an rtol 1e-5 rate
        from an rtol 1e-12 one, over a dielectric, a high-index dielectric
        (eps = 11.68) and the Drude metal with gamma = 0.2 w. The tensors
        stop refining at their shares of the error budget of F, so this is
        what keeps the shares honest."""
        r_d, r_a, r_m = (p * LAM for p in geom)
        med = rates.Mediator(r_m, media.StaticScalar(ALPHA))
        loose, tight = (rates.rate_isotropic(D1, D1, r_d, r_a, env, OMEGA,
                                             mediator=med, method="exact",
                                             rtol=rtol)
                        for rtol in (1e-5, 1e-12))
        true_err = abs(loose.gamma - tight.gamma) / tight.gamma
        assert true_err <= loose.error_estimate
        loose, tight = (rates.rate_oriented(dip(r_d, [D1, 0, 0]),
                                            dip(r_a, [0, D1, D1]), env, OMEGA,
                                            mediator=med, method="exact",
                                            rtol=rtol)
                        for rtol in (1e-5, 1e-12))
        true_err = abs(loose.gamma - tight.gamma) / tight.gamma
        assert true_err <= loose.error_estimate

    @pytest.mark.parametrize("env", [DIELECTRIC, LOSSY_METAL, SILICON])
    @pytest.mark.parametrize("geom", OFF_AXIS + NEAR_SURFACE)
    def test_batched_error_estimates_bound_true_errors(self, env, geom):
        """A batch of mediators, (N, 3), whose legs share one Sommerfeld
        call and whose tolerances are priced row by row: each row's
        estimate at rtol 1e-5 bounds its deviation from the row at rtol
        1e-12."""
        r_d, r_a = geom[0] * LAM, geom[1] * LAM
        r_m = np.array([g[2] for g in self.OFF_AXIS + self.NEAR_SURFACE]
                       + [[1.5, -0.2, 0.05]]) * LAM
        med = rates.Mediator(r_m, media.StaticScalar(ALPHA))
        loose, tight = (rates.rate_isotropic(D1, D1, r_d, r_a, env, OMEGA,
                                             mediator=med, method="exact",
                                             rtol=rtol)
                        for rtol in (1e-5, 1e-12))
        assert loose.gamma.shape == (len(r_m),)
        true_err = np.abs(loose.gamma - tight.gamma) / tight.gamma
        assert np.all(true_err <= loose.error_estimate)

    @pytest.mark.parametrize("eps", [1.0, 1.0 + 1e-7, 1.0001])
    def test_index_matched_half_space_converges(self, eps, monkeypatch):
        """A nearly index-matched half-space scatters almost nothing, and
        one at eps = 1 nothing at all. Each tensor refines only until its
        error is small against F, not against its own vanishing scattering
        part, so a two-mediator rate converges in at most 20 integrand calls
        (at atol 0 every tensor exhausted its 4000 panels) and lies within
        eps - 1 of the vacuum rate, which at eps = 1 it equals."""
        from mqret import quadrature

        quad = quadrature.adaptive_quad_vec
        nodes = []

        def counting(f, *args, **kwargs):
            def integrand(s):
                nodes.append(s.size)
                return f(s)
            return quad(integrand, *args, **kwargs)

        monkeypatch.setattr(quadrature, "adaptive_quad_vec", counting)
        r_d, r_a = np.array([0.0, 0.0, 0.1]) * LAM, np.array([0.3, 0.0, 0.2]) * LAM
        med = rates.Mediator(np.array([[0.5, 0.0, 0.4], [-0.6, 0.2, 0.9]]) * LAM,
                             media.StaticScalar(ALPHA))
        res, vac = (rates.rate_isotropic(D1, D1, r_d, r_a, env, OMEGA,
                                         mediator=med, method="exact")
                    for env in (greens.HalfSpace(media.Constant(eps)),
                                greens.Vacuum()))
        assert len(nodes) <= 20 and sum(nodes) <= 2000
        assert np.all(res.error_estimate <= 1e-8)
        assert np.all(np.abs(res.gamma - vac.gamma) <= (eps - 1.0) * vac.gamma)

    def test_isotropic_is_orientation_average(self):
        """Gamma_iso = (1/9) sum_ij Gamma_oriented(d_D || e_j, d_A || e_i)."""
        r_d, r_a, r_m = (p * LAM for p in self.OFF_AXIS[0])
        med = rates.Mediator(r_m, media.StaticScalar(ALPHA))
        iso = rates.rate_isotropic(D1, D1, r_d, r_a, DIELECTRIC, OMEGA,
                                   mediator=med, method="exact")
        basis = np.eye(3) * D1
        total = sum(rates.rate_oriented(dip(r_d, e_j), dip(r_a, e_i),
                                        DIELECTRIC, OMEGA, mediator=med,
                                        method="exact").gamma
                    for e_i in basis for e_j in basis)
        assert iso.gamma == pytest.approx(total / 9.0, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("env", [greens.PerfectMirror(), DIELECTRIC])
    def test_oriented_batch_equals_loop(self, env):
        """N mediator positions give arrays of length N, matrix elements
        included: over the mirror the rows of a per-position loop, over a
        dielectric, whose batch shares one panel set, the same within the
        summed estimates."""
        r_d, r_a, r_m = (p * LAM for p in self.OFF_AXIS[0])
        positions = np.array([r_m, r_m + [0.2 * LAM, 0.0, 0.3 * LAM], 2 * r_m])
        donor, acceptor = dip(r_d, [D1, 0.0, 0.5 * D1]), dip(r_a, [0.0, D1, D1])

        def rate(pos):
            return rates.rate_oriented(
                donor, acceptor, env, OMEGA, method="exact",
                mediator=rates.Mediator(pos, media.StaticScalar(ALPHA)))

        batch, loop = rate(positions), [rate(pos) for pos in positions]
        keys = ("gamma", "gamma_normalized", "error_estimate",
                "matrix_element_direct", "matrix_element_indirect")
        got = {key: getattr(batch, key) for key in keys}
        ref = {key: np.array([getattr(r, key) for r in loop]) for key in keys}
        assert all(np.shape(v) == (3,) for v in got.values())
        assert np.array_equal(got["matrix_element_direct"],
                              ref["matrix_element_direct"])
        if env is DIELECTRIC:
            est = got["error_estimate"] + ref["error_estimate"]
            total = ref["matrix_element_direct"] - ref["matrix_element_indirect"]
            for key in ("gamma", "gamma_normalized"):
                assert np.all(np.abs(got[key] - ref[key]) <= est * ref[key])
            assert np.all(np.abs(got["matrix_element_indirect"]
                                 - ref["matrix_element_indirect"])
                          <= est * np.abs(total))
        else:
            assert all(np.array_equal(got[key], ref[key]) for key in got)


class TestDirectLeg:
    """A rate evaluates G_AD in a tensor call of its own, or takes it as
    ``direct`` from a caller that holds it, and keeps nothing between
    calls."""

    R_D, R_A, R_M = (np.array([0.1, 0.0, 0.05]) * LAM,
                     np.array([-0.05, 0.1, 0.12]) * LAM,
                     np.array([0.8, -0.2, 0.9]) * LAM)

    def test_no_state_between_rates(self, sommerfeld_geometries):
        """A repeated rate evaluates G_AD alone, then G_AM and G_MD in one
        call, again, and gives the same result."""
        med = rates.Mediator(self.R_M, media.StaticScalar(ALPHA))
        first, again = (rates.rate_isotropic(D1, D1, self.R_D, self.R_A,
                                             DIELECTRIC, OMEGA, mediator=med)
                        for _ in range(2))
        assert again == first
        assert [len(call) for call in sommerfeld_geometries] == [1, 2, 1, 2]
        assert sommerfeld_geometries[0] == [(tuple(self.R_A), tuple(self.R_D))]

    @pytest.mark.parametrize("env", [greens.Vacuum(), greens.PerfectMirror(),
                                     DIELECTRIC, LOSSY_METAL])
    @pytest.mark.parametrize("method", ["exact", "limits"])
    def test_rate_with_direct_equals_rate_without(self, env, method):
        """Bit for bit, without a mediator, with one and with a batch; the
        limits are taken on axis, where they hold."""
        r_d, r_a, r_m = self.R_D, self.R_A, self.R_M
        if method == "limits":
            r_d, r_a, r_m = (r * [0.0, 0.0, 1.0] for r in (r_d, r_a, r_m))
        direct = rates._direct_leg(env, r_a, r_d, OMEGA, method, 1e-9)
        for med in (None, rates.Mediator(r_m, media.StaticScalar(ALPHA)),
                    rates.Mediator(np.array([r_m, 2.0 * r_m]),
                                   media.StaticScalar(ALPHA))):
            got, ref = (rates.rate_isotropic(D1, D1, r_d, r_a, env, OMEGA,
                                             mediator=med, method=method,
                                             direct=d)
                        for d in (direct, None))
            for key in ("gamma", "gamma_normalized", "error_estimate"):
                assert np.array_equal(getattr(got, key), getattr(ref, key))

    def test_direct_leg_from_a_batch_equals_lone(self):
        """G_AD of a mediated batch is the tensor a mediator-free evaluation
        gives, bit for bit: it is always evaluated alone."""
        med = rates.Mediator(np.array([self.R_M, 2.0 * self.R_M]),
                             media.StaticScalar(ALPHA))
        kept = rates._coupling(DIELECTRIC, self.R_A, self.R_D, OMEGA, med)[0]
        lone = rates._coupling(DIELECTRIC, self.R_A, self.R_D, OMEGA)[0]
        assert np.array_equal(kept, lone)


class TestGuards:
    def test_min_separation(self):
        with pytest.raises(GeometryError):
            rates.rate_isotropic(
                D1, D1, np.zeros(3), np.array([0, 0, 1e-5 * LAM]),
                greens.Vacuum(), OMEGA)

    def test_surface_height(self):
        with pytest.raises(GeometryError):
            rates.rate_isotropic(
                D1, D1, np.array([0, 0, -0.1 * LAM]),
                np.array([0, 0, 0.3 * LAM]), greens.PerfectMirror(), OMEGA)

    def test_colinear_order(self):
        with pytest.raises(GeometryError):
            rates.rate_colinear_approx(0.4 * LAM, 0.2 * LAM, 2.0 * LAM,
                                       greens.Vacuum(), 0.0, OMEGA, D1, D1)
        with pytest.raises(GeometryError):
            rates.rate_colinear_approx(0.2 * LAM, 0.4 * LAM, 0.3 * LAM,
                                       greens.Vacuum(), 0.0, OMEGA, D1, D1)

    def test_zero_moment(self):
        with pytest.raises(ValueError):
            dip([0, 0, 0], [0, 0, 0])

    @pytest.mark.parametrize("method", ["auto", "nr", "r"])
    def test_rates_take_exact_or_limits(self, method):
        """Rates take "exact" and "limits" only: "auto" is read as "exact"
        where input is parsed, and "nr" and "r" are tensor methods."""
        r_d, r_a = np.array([0, 0, 0.1 * LAM]), np.array([0, 0, 0.2 * LAM])
        with pytest.raises(ValueError, match="method"):
            rates.rate_isotropic(D1, D1, r_d, r_a, greens.PerfectMirror(),
                                 OMEGA, method=method)
        with pytest.raises(ValueError, match="method"):
            rates.rate_oriented(dip(r_d, [D1, 0, 0]), dip(r_a, [D1, 0, 0]),
                                greens.PerfectMirror(), OMEGA, method=method)

    def test_forster_needs_a_positive_separation(self):
        with pytest.raises(ValueError, match="separation"):
            rates.forster_vacuum(0.0, D1, D1)

    def test_nonpositive_magnitude(self):
        with pytest.raises(ValueError):
            rates.rate_isotropic(
                0.0, D1, np.zeros(3), np.array([0, 0, 0.1 * LAM]),
                greens.Vacuum(), OMEGA)

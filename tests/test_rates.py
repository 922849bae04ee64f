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


def dip(pos, moment, role=None):
    return rates.Dipole(position=np.asarray(pos, dtype=float),
                        moment=np.asarray(moment, dtype=complex), role=role)


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
        g_zz = rates.rate_oriented(d_z, a_z, env, OMEGA,
                                   method="nr", include_phase=False).gamma
        g_xx = rates.rate_oriented(d_x, a_x, env, OMEGA,
                                   method="nr", include_phase=False).gamma
        assert g_zz == pytest.approx(4.0 * g_xx, rel=1e-12, abs=0.0)

    def test_gamma_xx_mirror_assembly(self):
        """Closed-form x-x mirror rate equals the assembled quasi-static rate."""
        z_d, z_a = 0.013 * LAM, 0.029 * LAM
        donor = dip([0, 0, z_d], [D1, 0, 0])
        acceptor = dip([0, 0, z_a], [D1, 0, 0])
        env = greens.PerfectMirror()
        res = rates.rate_oriented(donor, acceptor, env, OMEGA,
                                  method="nr", include_phase=False)
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

    @pytest.mark.parametrize("env", [DIELECTRIC, LOSSY_METAL])
    @pytest.mark.parametrize("geom", OFF_AXIS)
    def test_error_estimate_bounds_true_error(self, env, geom):
        r_d, r_a, r_m = (p * LAM for p in geom)
        med = rates.Mediator(r_m, media.StaticScalar(ALPHA))
        loose, tight = (rates.rate_isotropic(D1, D1, r_d, r_a, env, OMEGA,
                                             mediator=med, method="exact",
                                             rtol=rtol)
                        for rtol in (1e-5, 1e-12))
        true_err = abs(loose.gamma - tight.gamma) / tight.gamma
        assert true_err <= loose.error_estimate

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


class TestDirectLegMemo:
    """G_AD is memoised per donor-acceptor pair; a hit must equal a fresh
    evaluation and a changed input must never hit."""

    R_D, R_A, R_M = (np.array([0.1, 0.0, 0.05]) * LAM,
                     np.array([-0.05, 0.1, 0.12]) * LAM,
                     np.array([0.8, -0.2, 0.9]) * LAM)

    def rate(self, r_d, rtol):
        med = rates.Mediator(self.R_M, media.StaticScalar(ALPHA))
        return rates.rate_isotropic(D1, D1, r_d, self.R_A, DIELECTRIC, OMEGA,
                                    mediator=med, method="exact", rtol=rtol)

    def test_no_stale_hits(self, sommerfeld_geometries):
        def evaluated():
            return sum(len(call) for call in sommerfeld_geometries)

        rates._DIRECT_LEGS.clear()
        first = self.rate(self.R_D, 1e-9)
        assert evaluated() == 3
        assert self.rate(self.R_D, 1e-9) == first  # hit: G_AM, G_MD only
        assert evaluated() == 5
        # a miss evaluates G_AD in the same call as G_AM and G_MD
        assert [len(call) for call in sommerfeld_geometries] == [3, 2]
        moved = self.R_D + np.array([0.01, 0.0, 0.0]) * LAM
        for r_d, rtol in ((moved, 1e-9), (self.R_D, 1e-10)):
            before = evaluated()
            got = self.rate(r_d, rtol)
            assert evaluated() - before == 3
            rates._DIRECT_LEGS.clear()
            assert got == self.rate(r_d, rtol)

    def test_direct_leg_from_a_batch_equals_lone(self):
        """G_AD evaluated beside the mediator legs is the tensor a lone
        evaluation gives, bit for bit."""
        rates._DIRECT_LEGS.clear()
        self.rate(self.R_D, 1e-9)
        (batched, err), = rates._DIRECT_LEGS.values()
        rates._DIRECT_LEGS.clear()
        lone, _, lone_err = rates._coupling(DIELECTRIC, self.R_A, self.R_D,
                                            OMEGA, method="exact")
        assert np.array_equal(batched, lone) and err == lone_err

    def test_cached_tensor_is_read_only(self):
        g_ad = rates._coupling(DIELECTRIC, self.R_A, self.R_D, OMEGA)[0]
        with pytest.raises(ValueError):
            g_ad[0, 0] = 0.0


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

    def test_nonpositive_magnitude(self):
        with pytest.raises(ValueError):
            rates.rate_isotropic(
                0.0, D1, np.zeros(3), np.array([0, 0, 0.1 * LAM]),
                greens.Vacuum(), OMEGA)

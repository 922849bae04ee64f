import numpy as np
import pytest

from mqret import media
from mqret.core import C


class TestPermittivity:
    def test_constant(self):
        assert media.permittivity(media.Constant(2.5 + 0.1j), 1e15) == 2.5 + 0.1j

    def test_drude_lorentz_static(self):
        # omega -> 0: eps -> 1 + omega_p^2 / omega_0^2
        m = media.DrudeLorentz(omega_p=2e15, omega_0=1e15, gamma=1e13)
        assert media.permittivity(m, 0.0) == pytest.approx(5.0)

    def test_drude_lorentz_loss_sign(self):
        m = media.DrudeLorentz(omega_p=2e15, omega_0=1e15, gamma=1e13)
        for w in (0.5e15, 1.5e15, 3e15):
            assert media.permittivity(m, w).imag > 0.0

    def test_perfect_reflector_symbolic(self):
        with pytest.raises(media.SymbolicMaterialError):
            media.permittivity(media.PerfectReflector(), 1e15)


class TestReflection:
    def test_nonretarded_values(self):
        assert media.r_nonretarded(1.0) == 0.0
        assert media.r_nonretarded(3.0) == pytest.approx(0.5)
        # eps -> inf limit tends to 1
        assert media.r_nonretarded(1e9).real == pytest.approx(1.0, abs=1e-8)

    def test_nonretarded_pole(self):
        with pytest.raises(media.SurfaceModeError):
            media.r_nonretarded(-1.0)

    def test_retarded_values(self):
        assert media.r_retarded(1.0) == 0.0
        assert media.r_retarded(4.0) == pytest.approx(-1.0 / 3.0)

    def test_retarded_perfect_limit(self):
        assert media.r_retarded(1e12).real == pytest.approx(-1.0, abs=1e-5)

    def test_fresnel_normal_incidence(self):
        """At k_par = 0 the two polarizations coincide up to sign convention."""
        eps = 11.68 + 0j
        r_s, r_p = media.fresnel(media.Constant(eps), 0.0, 1e15)
        r0 = media.r_retarded(eps)
        assert complex(r_s) == pytest.approx(r0, rel=1e-12)
        assert complex(r_p) == pytest.approx(-r0, rel=1e-12)

    def test_fresnel_perfect_reflector(self):
        r_s, r_p = media.fresnel(media.PerfectReflector(), np.array([0.0, 1e6, 1e8]), 1e15)
        assert np.all(r_s == -1.0)
        assert np.all(r_p == 1.0)

    def test_fresnel_evanescent_unimodular_lossless(self):
        """Evanescent in vacuum but propagating in the medium: |r| = 1."""
        omega = 1e15
        k1 = omega / C
        eps = 2.0
        k_par = 1.2 * k1  # k1 < k_par < sqrt(eps) k1
        r_s, r_p = media.fresnel(media.Constant(eps), k_par, omega)
        assert abs(r_s) == pytest.approx(1.0, rel=1e-9)
        assert abs(r_p) == pytest.approx(1.0, rel=1e-9)

    def test_fresnel_vectorized_matches_scalar(self):
        omega = 2e15
        ks = np.linspace(0.0, 3 * omega / C, 7)
        r_s, r_p = media.fresnel(media.Constant(2.25), ks, omega)
        for i, k in enumerate(ks):
            a, b = media.fresnel(media.Constant(2.25), float(k), omega)
            assert complex(a) == complex(r_s[i])
            assert complex(b) == complex(r_p[i])

    def test_sqrt_branch(self):
        assert media.sqrt_im_pos(-1.0) == 1j
        assert media.sqrt_im_pos(4.0) == 2.0


class TestPolarizability:
    def test_static_scalar(self):
        assert media.polarizability(media.StaticScalar(3e-39), 1e7) == 3e-39

    def test_unknown_model_rejected(self):
        with pytest.raises(TypeError, match="polarizability model"):
            media.polarizability(3e-39, 1e7)

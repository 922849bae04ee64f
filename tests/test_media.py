import warnings

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

    def test_unknown_model_rejected(self):
        with pytest.raises(TypeError, match="permittivity model"):
            media.permittivity(2.25, 1e15)

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
        omega = 1e15
        r_s, r_p = media.fresnel(media.Constant(eps), 0.0, omega / C, omega)
        r0 = media.r_retarded(eps)
        assert complex(r_s) == pytest.approx(r0, rel=1e-12)
        assert complex(r_p) == pytest.approx(-r0, rel=1e-12)

    def test_fresnel_perfect_reflector(self):
        k_par = np.array([0.0, 1e6, 1e8])
        k_z = media.sqrt_im_pos((1e15 / C) ** 2 - k_par**2)
        r_s, r_p = media.fresnel(media.PerfectReflector(), k_par, k_z, 1e15)
        assert np.all(r_s == -1.0)
        assert np.all(r_p == 1.0)

    def test_fresnel_evanescent_unimodular_lossless(self):
        """Evanescent in vacuum but propagating in the medium: |r| = 1."""
        omega = 1e15
        k1 = omega / C
        eps = 2.0
        k_par = 1.2 * k1  # k1 < k_par < sqrt(eps) k1
        k_z = 1j * k1 * np.sqrt(1.2**2 - 1.0)
        r_s, r_p = media.fresnel(media.Constant(eps), k_par, k_z, omega)
        assert abs(r_s) == pytest.approx(1.0, rel=1e-9)
        assert abs(r_p) == pytest.approx(1.0, rel=1e-9)

    def test_fresnel_vectorized_matches_scalar(self):
        omega = 2e15
        ks = np.linspace(0.0, 3 * omega / C, 7)
        kzs = media.sqrt_im_pos((omega / C) ** 2 - ks**2)
        r_s, r_p = media.fresnel(media.Constant(2.25), ks, kzs, omega)
        for i, (k, k_z) in enumerate(zip(ks, kzs)):
            a, b = media.fresnel(media.Constant(2.25), float(k),
                                 complex(k_z), omega)
            assert complex(a) == complex(r_s[i])
            assert complex(b) == complex(r_p[i])

    def test_fresnel_needs_k_z(self):
        """A call without the caller's k_z fails instead of choosing one."""
        with pytest.raises(TypeError):
            media.fresnel(media.Constant(2.25), 0.5e7, 1e15)

    def test_fresnel_brewster(self):
        """At k_par = k1 sqrt(eps / (eps + 1)) r_p vanishes and r_s does
        not, which tells r_s from -r_p, equal at normal incidence."""
        omega, eps = 1e15, 2.25
        k1 = omega / C
        k_par = k1 * np.sqrt(eps / (eps + 1.0))
        k_z = k1 / np.sqrt(eps + 1.0)
        r_s, r_p = media.fresnel(media.Constant(eps), k_par, k_z, omega)
        kz2 = k1 * np.sqrt(eps - eps / (eps + 1.0))
        assert abs(r_p) < 1e-14
        assert complex(r_s) == pytest.approx((k_z - kz2) / (k_z + kz2),
                                             rel=1e-12)
        assert abs(r_s) > 0.3

    @pytest.mark.parametrize("material", [
        media.Constant(2.25), media.Constant(-5.0 + 0.01j),
        media.DrudeLorentz(omega_p=4.7e15, omega_0=0.0, gamma=3.7e14)])
    def test_fresnel_on_a_detour_below_the_real_axis(self, material):
        """k_par runs on a half-ellipse below the real axis, from 0.2 k1 to
        3 k1, past k1 and past k1 sqrt(eps) at eps = 2.25 or the
        surface-plasmon pole of the metals; k_z and k_z2 are continued step
        by step from their Im >= 0 values at the start. The factored forms
        equal the difference forms (k_z - k_z2)/(k_z + k_z2) and (eps k_z -
        k_z2)/(eps k_z + k_z2) of the continued roots, with no warning."""
        omega = 2.0 * np.pi * C / 1e-6
        k1 = omega / C
        eps = media.permittivity(material, omega)
        phi = np.linspace(0.0, np.pi, 2001)
        k_par = k1 * (1.6 - 1.4 * np.cos(phi) - 0.3j * np.sin(phi))

        def continued(square):
            roots = np.sqrt(square + 0j)
            roots[0] = media.sqrt_im_pos(square[0])
            for i in range(1, len(roots)):
                if abs(roots[i] + roots[i - 1]) < abs(roots[i] - roots[i - 1]):
                    roots[i] = -roots[i]
            return roots

        k_z = continued(k1**2 - k_par**2)
        kz2 = continued(eps * k1**2 - k_par**2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r_s, r_p = media.fresnel(material, k_par, k_z, omega)
        want_s = (k_z - kz2) / (k_z + kz2)
        want_p = (eps * k_z - kz2) / (eps * k_z + kz2)
        assert np.all(np.abs(r_p - want_p) <= 1e-12 * np.abs(want_p))
        assert np.all(np.abs(r_s - want_s) <= 1e-12 * np.abs(want_s))

    def test_sqrt_branch(self):
        assert media.sqrt_im_pos(-1.0) == 1j
        assert media.sqrt_im_pos(4.0) == 2.0


class TestPolarizability:
    def test_static_scalar(self):
        assert media.polarizability(media.StaticScalar(3e-39), 1e7) == 3e-39

    def test_unknown_model_rejected(self):
        with pytest.raises(TypeError, match="polarizability model"):
            media.polarizability(3e-39, 1e7)

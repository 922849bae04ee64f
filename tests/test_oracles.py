import numpy as np
import pytest

from mqret import greens, media, oracles
from mqret.core import C


LAM = 1e-6
OMEGA = 2 * np.pi * C / LAM


class TestContourIdentities:
    rho = 0.3 * LAM

    @pytest.mark.parametrize("which", ["plus", "minus"])
    def test_identity_holds(self, which):
        rep = oracles.contour_identity_check(self.rho, OMEGA, which=which)
        assert rep.passed, f"{rep.name}: rel_error={rep.rel_error:.2e}"
        assert rep.rel_error < 1e-3

    def test_pole_ablation_fails(self):
        """Dropping the pole term of the 'minus' identity breaks it at O(1)."""
        rep = oracles.contour_identity_check(self.rho, OMEGA, which="minus",
                                             include_pole=False)
        assert rep.rel_error > 0.5

    def test_bad_which(self):
        with pytest.raises(ValueError):
            oracles.contour_identity_check(self.rho, OMEGA, which="both")


class TestSommerfeldReference:
    def test_independent_integrators_agree(self):
        """Adaptive evaluator vs fixed-grid Simpson reference."""
        r1 = np.array([0.2, 0.1, 0.35]) * LAM
        r2 = np.array([-0.1, 0.3, 0.5]) * LAM
        mat = media.Constant(2.25)
        adaptive, _ = greens.halfspace_scatter_full(r1, r2, OMEGA, mat,
                                                    rtol=1e-10)
        reference, ref_err = oracles.sommerfeld_reference(r1, r2, OMEGA, mat)
        dev = np.max(np.abs(adaptive - reference)) / np.max(np.abs(reference))
        assert dev < max(1e-6, 10 * ref_err)

    def test_mirror_against_image(self):
        r1 = np.array([0.0, 0.0, 0.4]) * LAM
        r2 = np.array([0.15, 0.0, 0.55]) * LAM
        reference, _ = oracles.sommerfeld_reference(
            r1, r2, OMEGA, media.PerfectReflector())
        image = greens.mirror_scatter_exact(r1, r2, OMEGA)
        dev = np.max(np.abs(reference - image)) / np.max(np.abs(image))
        assert dev < 1e-6

    def test_below_surface_rejected(self):
        with pytest.raises(ValueError):
            oracles.sommerfeld_reference([0, 0, -LAM], [0, 0, LAM], OMEGA,
                                         media.Constant(2.0))


class TestLimitScan:
    def test_monotone_pass(self):
        rep = oracles.limit_scan(
            evaluator=lambda s: np.array([np.exp(s)]),
            limit=lambda s: np.array([1.0 + s]),
            scales=[1.0, 0.1, 0.01],
        )
        assert rep.passed

    def test_non_monotone_fail(self):
        rep = oracles.limit_scan(
            evaluator=lambda s: np.array([1.0 + (s - 0.05) ** 2]),
            limit=lambda s: np.array([1.0]),
            scales=[0.1, 0.05, 0.01],
        )
        assert not rep.passed

    def test_identical_functions(self):
        rep = oracles.limit_scan(
            evaluator=lambda s: np.array([s]),
            limit=lambda s: np.array([s]),
            scales=[1.0, 0.1],
        )
        assert rep.passed


class TestBattery:
    def test_run_verification_all_pass(self):
        reports = oracles.run_verification()
        names = [r.name for r in reports]
        assert len(set(names)) == len(names)
        for rep in reports:
            assert rep.passed, f"{rep.name}: rel_error={rep.rel_error:.2e}"

    def test_report_serializes(self):
        rep = oracles.OracleReport(name="x", rel_error=0.0, tolerance=1.0,
                                   passed=True)
        d = rep.to_dict()
        assert d["name"] == "x"
        assert d["passed"] is True

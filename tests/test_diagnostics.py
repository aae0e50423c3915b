import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import block_patterns
from fishervi.diagnostics import (
    ReferenceSamples,
    compare,
    load_reference_csv,
    marginal_stats,
    median_heuristic_bandwidth,
    mmd_mstar,
    mmd_sq_u,
    rbf_kernel,
)
from fishervi.linalg import CholFactor, build_dense_pattern


def mmd_bruteforce(x_v, x_g, h):
    """O(m^2) double loop over the displayed four-kernel U-statistic."""
    m = x_v.shape[0]

    def k(a, b):
        return math.exp(-float(np.sum((a - b) ** 2)) / (2 * h * h))

    total = 0.0
    for i in range(m):
        for j in range(m):
            if i == j:
                continue
            total += (k(x_v[i], x_v[j]) + k(x_g[i], x_g[j])
                      - k(x_v[i], x_g[j]) - k(x_v[j], x_g[i]))
    return total / (m * (m - 1))


class TestMmd:
    def test_identical_sets_give_offset_mstar(self, rng):
        x = rng.standard_normal((200, 3))
        assert mmd_sq_u(x, x, 1.0) == pytest.approx(0.0, abs=1e-14)
        assert mmd_mstar(x, x, 1.0) == pytest.approx(-math.log(1e-5), abs=1e-9)

    def test_bruteforce_oracle_m50(self, rng):
        x_v = rng.standard_normal((50, 2))
        x_g = rng.standard_normal((50, 2)) + 0.3
        h = 1.2
        assert mmd_sq_u(x_v, x_g, h) == pytest.approx(mmd_bruteforce(x_v, x_g, h),
                                                      abs=1e-12)

    def test_far_separated_clouds(self):
        # two 2-point clouds separated far beyond the bandwidth: the
        # within-set kernels survive, the cross kernels vanish
        x_v = np.array([[0.0], [0.1]])
        x_g = np.array([[100.0], [100.1]])
        h = 0.5
        k_within = math.exp(-0.01 / (2 * h * h))
        expected = (2 * k_within + 2 * k_within) / (2 * 1)
        # the vectorized kernel computes ||x-y||^2 by expansion, which loses
        # a few trailing digits at coordinates ~100
        assert mmd_sq_u(x_v, x_g, h) == pytest.approx(expected, abs=1e-9)

    def test_symmetry(self, rng):
        x = rng.standard_normal((40, 2))
        y = rng.standard_normal((40, 2)) * 1.4
        assert mmd_sq_u(x, y, 0.8) == pytest.approx(mmd_sq_u(y, x, 0.8), abs=1e-14)

    def test_mstar_monotone_in_mmd(self):
        vals = np.linspace(0.0, 1.0, 10)
        mstars = [-math.log(v + 1e-5) for v in vals]
        assert all(a > b for a, b in zip(mstars, mstars[1:]))

    def test_sample_count_validation(self, rng):
        with pytest.raises(ValueError):
            mmd_sq_u(rng.standard_normal((3, 1)), rng.standard_normal((4, 1)), 1.0)
        with pytest.raises(ValueError):
            mmd_sq_u(np.zeros((1, 1)), np.zeros((1, 1)), 1.0)

    def test_kernel_values(self):
        x = np.array([[0.0, 0.0]])
        y = np.array([[3.0, 4.0]])  # distance 5
        np.testing.assert_allclose(rbf_kernel(x, y, 2.0), [[math.exp(-25.0 / 8.0)]])


class TestMarginalStats:
    def test_constant_samples_guarded(self):
        ref = ReferenceSamples(np.full((100, 2), 3.5))
        mu, mode, sd = marginal_stats(ref)
        np.testing.assert_allclose(mu, 3.5)
        np.testing.assert_allclose(mode, 3.5)
        np.testing.assert_allclose(sd, 0.0)

    def test_standard_normal_mode_near_zero(self):
        # KDE argmax is noisy at m = 20000; the median over seeds is stable
        modes = []
        for seed in (0, 1, 2):
            ref = ReferenceSamples(
                np.random.default_rng(seed).standard_normal((20_000, 1)))
            _, mode, _ = marginal_stats(ref)
            modes.append(mode[0])
        assert abs(np.median(modes)) < 0.05

    def test_bimodal_taller_peak_wins(self, rng):
        # mixture with a taller left mode at -2 (70% weight, same spread)
        left = rng.normal(-2.0, 0.4, size=14_000)
        right = rng.normal(2.0, 0.4, size=6_000)
        ref = ReferenceSamples(np.concatenate([left, right])[:, None])
        _, mode, _ = marginal_stats(ref)
        assert abs(mode[0] + 2.0) < 0.2


class TestCompare:
    def _fit_and_ref(self, rng, m_ref=3000):
        lamb = np.array([[1.2, 0.3], [0.3, 0.9]])
        mu = np.array([0.5, -0.4])
        chol_cov = np.linalg.cholesky(np.linalg.inv(lamb))
        ref = ReferenceSamples(mu + rng.standard_normal((m_ref, 2)) @ chol_cov.T)
        t_chol = np.linalg.cholesky(lamb)
        pattern = build_dense_pattern(2)
        from fishervi.linalg import vech_gather

        factor = CholFactor.from_values(pattern, vech_gather(t_chol, pattern)[0])
        return mu, factor, ref

    def test_matching_fit_scores_well(self, rng):
        mu, factor, ref = self._fit_and_ref(rng)
        report = compare(mu, factor, ref, seed=0, replicates=10, m=500)
        assert np.all(np.abs(report.sd_ratio - 1.0) < 0.1)
        assert np.all(report.mean_diff < 0.1)
        assert report.mstar_values.size == 10
        assert np.all(report.mstar_values > 5.0)

    def test_deterministic_given_seed(self, rng):
        mu, factor, ref = self._fit_and_ref(rng)
        r1 = compare(mu, factor, ref, seed=42, replicates=5, m=300)
        r2 = compare(mu, factor, ref, seed=42, replicates=5, m=300)
        np.testing.assert_array_equal(r1.mstar_values, r2.mstar_values)
        assert r1.to_json() == r2.to_json()

    def test_degenerate_coordinate_flagged(self, rng):
        samples = rng.standard_normal((2000, 2))
        samples[:, 1] = 7.0  # zero-variance coordinate
        ref = ReferenceSamples(samples)
        pattern = build_dense_pattern(2)
        factor = CholFactor.identity(pattern)
        report = compare(np.zeros(2), factor, ref, seed=1, replicates=3, m=200)
        assert report.valid[0] and not report.valid[1]
        assert np.isnan(report.sd_ratio[1])

    def test_replicate_count_honored(self, rng):
        mu, factor, ref = self._fit_and_ref(rng)
        report = compare(mu, factor, ref, seed=3, replicates=7, m=200)
        assert report.replicates == 7
        assert report.mstar_values.size == 7

    def test_needs_enough_reference_draws(self, rng):
        mu, factor, ref = self._fit_and_ref(rng, m_ref=100)
        with pytest.raises(ValueError):
            compare(mu, factor, ref, seed=0, replicates=2, m=500)

    def test_underflowed_factor_raises_its_own_error(self, rng):
        # T T^t underflows to a singular matrix here; compare checks the
        # factor's diagonal once at entry and names the cause
        pattern = build_dense_pattern(3)
        values = np.zeros(pattern.nnz)
        values[pattern.diag_slots] = [1e-310, 1.0, 1.0]
        factor = CholFactor.from_values(pattern, values)
        ref = ReferenceSamples(rng.standard_normal((10, 3)))
        with pytest.raises(ValueError, match="factor diagonal below"):
            compare(np.zeros(3), factor, ref, seed=0, replicates=1, m=5)

    @settings(max_examples=60)
    @given(pattern=block_patterns(), seed=st.integers(0, 2**32 - 1))
    def test_sd_ratio_matches_dense_inverse(self, pattern, seed):
        # q_sd from solves with T against sqrt(diag((T T^t)^{-1}))
        rng = np.random.default_rng(seed)
        values = rng.standard_normal(pattern.nnz) * 0.2
        values[pattern.diag_slots] = 1.0 + rng.random(pattern.diag_slots.size)
        factor = CholFactor.from_values(pattern, values)
        ref = ReferenceSamples(rng.standard_normal((3, pattern.dim)))
        report = compare(np.zeros(pattern.dim), factor, ref, seed=0, replicates=1, m=2)
        q_sd = np.sqrt(np.diag(np.linalg.inv(factor.as_dense() @ factor.as_dense().T)))
        sd_star = ref.samples.std(axis=0, ddof=1)
        np.testing.assert_allclose(report.sd_ratio, q_sd / sd_star, rtol=1e-12, atol=0)


class TestReferenceIo:
    def test_csv_roundtrip(self, tmp_path, rng):
        path = tmp_path / "ref.csv"
        data = rng.standard_normal((50, 3))
        with open(path, "w") as fh:
            fh.write("a,b,c\n")
            for row in data:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
        ref = load_reference_csv(path)
        assert ref.columns == ["a", "b", "c"]
        np.testing.assert_allclose(ref.samples, data)

    def test_ragged_row_names_path_and_line(self, tmp_path):
        path = tmp_path / "ref.csv"
        path.write_text("a,b\n1.0,2.0\n3.0\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: line 3 has 1 fields, the header has 2")):
            load_reference_csv(path)

    @pytest.mark.parametrize("cell", ["x", "nan", "-inf", "1e999"])
    def test_bad_or_non_finite_cell_names_its_line(self, cell, tmp_path):
        path = tmp_path / "ref.csv"
        path.write_text(f"a,b\n1.0,2.0\n\n3.0, {cell}\n")
        with pytest.raises(ValueError) as exc:
            load_reference_csv(path)
        assert str(exc.value) == f"{path}: line 4: {cell!r} is not a finite number"

    def test_repeated_header_name_is_named(self, tmp_path):
        path = tmp_path / "ref.csv"
        path.write_text("a,b,a\n1.0,2.0,3.0\n")
        with pytest.raises(ValueError) as exc:
            load_reference_csv(path)
        assert str(exc.value) == f"{path}: column 'a' is repeated in the header"

    def test_median_heuristic_positive(self, rng):
        assert median_heuristic_bandwidth(rng.standard_normal((60, 2))) > 0

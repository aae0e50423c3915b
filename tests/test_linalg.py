import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import block_patterns
from fishervi.linalg import (
    SINGULAR_TOL,
    STAR_DIAG_FLOOR,
    CholFactor,
    DiagScaler,
    build_dense_pattern,
    build_pattern,
    slot_products,
    vech_gather,
    vech_scatter,
)


def positions(pattern):
    return set(zip(pattern.rows.tolist(), pattern.cols.tolist()))


class TestBuildPattern:
    def test_two_blocks_one_global(self):
        p = build_pattern(2, [1, 1], 1, 0)
        assert positions(p) == {(0, 0), (1, 1), (2, 0), (2, 1), (2, 2)}
        assert p.dim == 3

    def test_markov_order_one_adds_subdiagonal(self):
        # enumerating the conditional-independence pairs by hand for l=1 adds
        # (1,0) and (2,1) to the l=0 set
        p0 = build_pattern(3, [1, 1, 1], 1, 0)
        p1 = build_pattern(3, [1, 1, 1], 1, 1)
        assert positions(p1) - positions(p0) == {(1, 0), (2, 1)}

    def test_single_block_no_global_is_dense_triangle(self):
        p = build_pattern(1, [2], 0, 0)
        assert positions(p) == {(0, 0), (1, 0), (1, 1)}

    def test_dense_pattern(self):
        p = build_dense_pattern(3)
        assert p.nnz == 6
        assert np.all(p.rows >= p.cols)

    def test_column_major_ordering(self):
        p = build_pattern(3, [2, 1, 2], 3, 1)
        order = np.lexsort((p.rows, p.cols))
        assert np.array_equal(order, np.arange(p.nnz))

    def test_rejects_markov_order_ge_n_blocks(self):
        with pytest.raises(ValueError):
            build_pattern(2, [1, 1], 1, 2)

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            build_pattern(2, [1, 0], 1, 0)
        with pytest.raises(ValueError):
            build_pattern(2, [1, 1], -1, 0)

    def test_descriptor_roundtrip(self):
        from fishervi.linalg import SparsityPattern

        for p in (build_pattern(3, [2, 1, 2], 2, 1), build_dense_pattern(4)):
            q = SparsityPattern.from_descriptor(p.descriptor())
            assert positions(p) == positions(q)

    @pytest.mark.parametrize("desc, expected", [
        # descriptors as earlier versions wrote them, with the stored kind
        ({"kind": "dense", "n_blocks": 1, "block_dims": [4], "global_dim": 0,
          "markov_order": 0, "dim": 4}, build_dense_pattern(4)),
        ({"kind": "blocks", "n_blocks": 3, "block_dims": [2, 1, 2], "global_dim": 2,
          "markov_order": 1, "dim": 7}, build_pattern(3, [2, 1, 2], 2, 1)),
    ])
    def test_descriptor_forms_load_to_same_pattern(self, desc, expected):
        from fishervi.linalg import SparsityPattern

        q = SparsityPattern.from_descriptor(desc)
        assert q.descriptor() == desc == expected.descriptor()
        for got, want in ((q.rows, expected.rows), (q.cols, expected.cols),
                          (q.band_layout[2], expected.band_layout[2])):
            assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_descriptor_kind(self, d):
        # derived: "dense" for one block and no global rows
        assert build_dense_pattern(d).descriptor()["kind"] == "dense"
        assert build_pattern(1, [d], 1, 0).descriptor()["kind"] == "blocks"
        assert build_pattern(2, [d, 1], 0, 1).descriptor()["kind"] == "blocks"


class TestSolves:
    def test_identity(self):
        f = CholFactor.identity(build_dense_pattern(2))
        b = np.array([3.0, -1.0])
        np.testing.assert_allclose(f.solve_lower(b), b)
        np.testing.assert_allclose(f.solve_upper_transpose(b), b)

    def test_forward_substitution_hand(self):
        # T = [[2,0],[1,1]], b = (2,3): x1 = 1, x2 = 3 - 1 = 2
        f = CholFactor.from_values(build_dense_pattern(2), np.array([2.0, 1.0, 1.0]))
        np.testing.assert_allclose(f.solve_lower(np.array([2.0, 3.0])), [1.0, 2.0])

    def test_back_substitution_hand(self):
        # T^t x = (2,3): x2 = 3, 2 x1 + x2 = 2 so x1 = -0.5
        f = CholFactor.from_values(build_dense_pattern(2), np.array([2.0, 1.0, 1.0]))
        np.testing.assert_allclose(f.solve_upper_transpose(np.array([2.0, 3.0])),
                                   [-0.5, 3.0])

    def test_singular_factor_detected(self):
        # a diagonal clamped at exp(STAR_DIAG_FLOOR) is exactly SINGULAR_TOL and
        # solves; a diagonal below it (reachable through from_values) computes
        # through to a non-finite solution, with no exception
        p = build_dense_pattern(2)
        star = np.array([-800.0, 0.5, 0.0])  # diag slots are 0 and 2
        f = CholFactor.from_star(p, star)
        assert f.diag[0] == SINGULAR_TOL == np.exp(STAR_DIAG_FLOOR)
        assert np.all(np.isfinite(f.solve_lower(np.ones(2))))
        assert np.all(np.isfinite(f.solve_upper_transpose(np.ones(2))))
        g = CholFactor.from_values(p, np.array([1e-310, 0.5, 1.0]))
        assert not np.all(np.isfinite(g.solve_lower(np.ones(2))))
        assert not np.all(np.isfinite(g.solve_upper_transpose(np.ones(2))))

    @settings(max_examples=60)
    @given(pattern=block_patterns(), data=st.data())
    def test_from_star_diagonal_never_below_singular_tol(self, pattern, data):
        # the invariant that lets solves skip a singularity check: every factor
        # a fit builds comes from from_star, whose diagonal is clamped
        entry = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                          st.just(-np.inf))
        star = np.array(data.draw(st.lists(entry, min_size=pattern.nnz,
                                           max_size=pattern.nnz)), dtype=float)
        with np.errstate(over="ignore"):
            f = CholFactor.from_star(pattern, star)
        assert f.diag.min() >= SINGULAR_TOL

    def test_solve_roundtrip_random_sparse(self, rng):
        # recover x from T x for a block pattern with d up to 200
        p = build_pattern(40, [4] * 40, 10, 2)
        assert p.dim == 170
        values = rng.standard_normal(p.nnz) * 0.3
        values[p.diag_slots] = 0.5 + rng.random(p.diag_slots.size)
        f = CholFactor.from_values(p, values)
        x = rng.standard_normal(p.dim)
        b = f.as_dense() @ x
        rel = np.linalg.norm(f.solve_lower(b) - x) / np.linalg.norm(x)
        assert rel < 1e-10
        bt = f.as_dense().T @ x
        rel_t = np.linalg.norm(f.solve_upper_transpose(bt) - x) / np.linalg.norm(x)
        assert rel_t < 1e-10

    def test_banded_solve_large_pattern(self, rng):
        p = build_pattern(150, [3] * 150, 4, 1)
        assert p.dim == 454
        values = rng.standard_normal(p.nnz) * 0.2
        values[p.diag_slots] = 1.0 + rng.random(p.diag_slots.size)
        f = CholFactor.from_values(p, values)
        x = rng.standard_normal(p.dim)
        np.testing.assert_allclose(f.solve_lower(f.matvec(x)), x, atol=1e-9)
        np.testing.assert_allclose(f.solve_upper_transpose(f.rmatvec(x)), x, atol=1e-9)

    def test_matrix_rhs(self, rng):
        p = build_dense_pattern(5)
        values = rng.standard_normal(p.nnz)
        values[p.diag_slots] = 1.0 + rng.random(5)
        f = CholFactor.from_values(p, values)
        b = rng.standard_normal((5, 3))
        np.testing.assert_allclose(f.as_dense() @ f.solve_lower(b), b, atol=1e-12)


class TestBandTailSolver:
    @settings(max_examples=200)
    @given(pattern=st.one_of(block_patterns(), st.integers(1, 8).map(build_dense_pattern)),
           n_rhs=st.sampled_from([None, 1, 3]),
           seed=st.integers(0, 2**32 - 1))
    def test_products_and_solves_match_dense(self, pattern, n_rhs, seed):
        rng = np.random.default_rng(seed)
        values = rng.standard_normal(pattern.nnz) * 0.2
        values[pattern.diag_slots] = 1.0 + rng.random(pattern.diag_slots.size)
        f = CholFactor.from_values(pattern, values)
        t = f.as_dense()
        shape = (pattern.dim,) if n_rhs is None else (pattern.dim, n_rhs)
        x = rng.standard_normal(shape)
        tx, ttx = f.matvec(x), f.rmatvec(x)
        assert tx.shape == shape and ttx.shape == shape
        np.testing.assert_allclose(tx, t @ x, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(ttx, t.T @ x, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(f.solve_lower(tx), x, rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(f.solve_upper_transpose(ttx), x, rtol=1e-9, atol=1e-9)


class TestSlotProducts:
    @settings(max_examples=200)
    @given(pattern=st.one_of(block_patterns(), st.integers(1, 8).map(build_dense_pattern)),
           m=st.integers(1, 12), order=st.sampled_from("CF"),
           seed=st.integers(0, 2**32 - 1))
    @example(pattern=build_pattern(3, [2, 3, 2], 0, 1), m=12, order="C", seed=0)
    def test_matches_dense_outer_product(self, pattern, m, order, seed):
        # blocks of dim >= 2 leave band positions outside the pattern
        rng = np.random.default_rng(seed)
        x = np.asarray(rng.standard_normal((pattern.dim, m)), order=order)
        y = np.asarray(rng.standard_normal((pattern.dim, m)), order=order)
        np.testing.assert_allclose(slot_products(x, y, pattern),
                                   (x @ y.T)[pattern.rows, pattern.cols],
                                   rtol=1e-12, atol=1e-13 * m)


class TestPrecisionSparsity:
    def test_banded_precision_zero_pattern(self, rng):
        # Omega = T T^t must vanish exactly between local blocks farther
        # apart than the Markov order (dense-multiplication check, d <= 30)
        for ell in (0, 1, 2):
            p = build_pattern(6, [2, 1, 2, 1, 2, 1], 3, ell)
            assert p.dim <= 30
            values = rng.standard_normal(p.nnz)
            values[p.diag_slots] = 1.0 + rng.random(p.diag_slots.size)
            f = CholFactor.from_values(p, values)
            omega = f.as_dense() @ f.as_dense().T
            offsets = np.concatenate([[0], np.cumsum([2, 1, 2, 1, 2, 1])])
            for a in range(6):
                for b in range(6):
                    if abs(a - b) > ell:
                        blk = omega[offsets[a]:offsets[a + 1], offsets[b]:offsets[b + 1]]
                        assert np.all(blk == 0.0)


class TestVech:
    def test_gather_identity(self):
        vec, dropped = vech_gather(np.eye(2), build_dense_pattern(2))
        np.testing.assert_allclose(vec, [1.0, 0.0, 1.0])
        assert dropped == 0

    def test_scatter_inverse(self):
        p = build_dense_pattern(2)
        np.testing.assert_allclose(vech_scatter(np.array([1.0, 0.0, 1.0]), p), np.eye(2))

    def test_gather_drops_off_pattern_and_counts(self):
        # 3x3 block-diagonal pattern; a nonzero in the (2,0) hole is dropped
        p = build_pattern(3, [1, 1, 1], 0, 0)
        m = np.diag([1.0, 2.0, 3.0])
        m[2, 0] = 9.0
        vec, dropped = vech_gather(m, p)
        np.testing.assert_allclose(vec, [1.0, 2.0, 3.0])
        assert dropped == 1

    def test_length_mismatch(self):
        p = build_dense_pattern(2)
        with pytest.raises(ValueError):
            vech_scatter(np.ones(2), p)
        with pytest.raises(ValueError):
            vech_gather(np.eye(3), p)


class TestStarParameterization:
    def test_roundtrip_exact_to_rounding(self, rng):
        p = build_pattern(3, [2, 2, 2], 2, 1)
        star = rng.standard_normal(p.nnz)
        f = CholFactor.from_star(p, star)
        f2 = CholFactor.from_values(p, f.values)
        # off-diagonal slots are copied verbatim; the diagonal goes through
        # log(exp(.)) and is exact up to floating rounding
        off = np.setdiff1d(np.arange(p.nnz), p.diag_slots)
        np.testing.assert_array_equal(f2.star_values[off], f.star_values[off])
        np.testing.assert_allclose(f2.star_values, f.star_values, rtol=1e-14, atol=1e-15)

    def test_positive_diagonal_enforced(self):
        p = build_dense_pattern(2)
        with pytest.raises(ValueError):
            CholFactor.from_values(p, np.array([1.0, 0.3, -2.0]))

    def test_diag_scaler_chain_rule(self, rng):
        # grad_{T*} f = D grad_T f, checked against finite differences of a
        # scalar function of the factor entries
        p = build_pattern(2, [2, 1], 1, 1)
        star = rng.standard_normal(p.nnz) * 0.5
        f = CholFactor.from_star(p, star)
        c = rng.standard_normal(p.nnz)

        def func_of_values(values):
            return float(c @ values ** 2 + np.sin(values).sum())

        grad_values = 2.0 * c * f.values + np.cos(f.values)
        grad_star = DiagScaler.from_factor(f).apply(grad_values)

        fd = np.zeros(p.nnz)
        h = 1e-7
        for k in range(p.nnz):
            sp = star.copy()
            sp[k] += h
            sm = star.copy()
            sm[k] -= h
            fd[k] = (func_of_values(CholFactor.from_star(p, sp).values)
                     - func_of_values(CholFactor.from_star(p, sm).values)) / (2 * h)
        np.testing.assert_allclose(grad_star, fd, atol=1e-6)

    def test_diag_scaler_twice_is_square(self, rng):
        p = build_dense_pattern(3)
        f = CholFactor.from_star(p, rng.standard_normal(p.nnz))
        d = DiagScaler.from_factor(f)
        g = rng.standard_normal(p.nnz)
        np.testing.assert_allclose(d.apply(d.apply(g)), g * d.apply(np.ones(p.nnz)) ** 2)

    def test_log_det(self, rng):
        p = build_dense_pattern(4)
        values = rng.standard_normal(p.nnz)
        values[p.diag_slots] = 0.5 + rng.random(4)
        f = CholFactor.from_values(p, values)
        sign, logdet = np.linalg.slogdet(f.as_dense())
        assert sign == 1.0
        np.testing.assert_allclose(f.log_det, logdet, rtol=1e-12)

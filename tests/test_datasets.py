import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fishervi.datasets import (
    load_csv_design,
    load_csv_matrix,
    load_epilepsy,
    load_libsvm,
    load_polypharmacy,
    load_returns,
    load_toenail,
)
from oracles import (
    csv_design_reference,
    epilepsy_reference,
    polypharmacy_reference,
    toenail_reference,
)


def write(path, text):
    path.write_text(text)
    return path


class TestCsvDesign:
    def test_toy_table_hand_encoded(self, tmp_path):
        # 4-row table: one numeric, one 3-level categorical; reference level
        # is the lexicographic first ("a"), so two dummies plus intercept
        p = write(tmp_path / "toy.csv",
                  "y,x1,color\n1,2.0,a\n0,4.0,b\n1,6.0,c\n0,8.0,b\n")
        d = load_csv_design(p, response="y")
        assert d.info.column_names == ["intercept", "x1", "color=b", "color=c"]
        x1 = np.array([2.0, 4.0, 6.0, 8.0])
        std = (x1 - 5.0) / x1.std()
        np.testing.assert_allclose(d.X[:, 1], std)
        np.testing.assert_allclose(d.X[:, 2], [0, 1, 0, 1])
        np.testing.assert_allclose(d.X[:, 3], [0, 0, 1, 0])
        np.testing.assert_allclose(d.y, [1, 0, 1, 0])
        assert d.info.numeric_stats["x1"] == (5.0, pytest.approx(x1.std()))

    def test_constant_column_rejected(self, tmp_path):
        p = write(tmp_path / "c.csv", "y,x\n1,3\n0,3\n1,3\n")
        with pytest.raises(ValueError, match="constant"):
            load_csv_design(p, response="y")

    def test_credit_shaped_file_gives_49_columns(self, tmp_path, rng):
        # 7 numeric attributes plus 13 categoricals with the level counts of
        # the classic credit-scoring data: 1 + 7 + sum(levels - 1) = 49
        level_counts = [4, 5, 10, 5, 5, 4, 3, 4, 3, 3, 4, 2, 2]
        n = 300
        header = ["y"] + [f"num{i}" for i in range(7)] + \
                 [f"cat{i}" for i in range(13)]
        lines = [",".join(header)]
        for k in range(n):
            row = [str(int(rng.random() < 0.5))]
            row += [f"{rng.standard_normal():.5f}" for _ in range(7)]
            for lc in level_counts:
                # cycle guarantees every level appears
                row.append(f"v{(k + lc) % lc}")
            lines.append(",".join(row))
        p = write(tmp_path / "credit.csv", "\n".join(lines) + "\n")
        d = load_csv_design(p, response="y")
        assert d.X.shape == (n, 49)

    def test_loading_twice_is_identical(self, tmp_path):
        p = write(tmp_path / "t.csv", "y,x\n1,0.5\n0,1.5\n1,2.5\n")
        d1 = load_csv_design(p, response="y")
        d2 = load_csv_design(p, response="y")
        np.testing.assert_array_equal(d1.X, d2.X)
        np.testing.assert_array_equal(d1.y, d2.y)

    @pytest.mark.parametrize("row, width", [("1,2.0", 2), ("1,2.0,a,9", 4)])
    def test_ragged_row_names_path_line_and_widths(self, tmp_path, row, width):
        # a short row used to escape as IndexError; a long one lost its extra cells
        p = write(tmp_path / "r.csv", f"y,x,c\n1,0.5,a\n\n{row}\n0,1.5,b\n")
        with pytest.raises(ValueError) as exc:
            load_csv_design(p, response="y")
        assert str(exc.value) == f"{p}: line 4 has {width} fields, the header has 3"

    @pytest.mark.parametrize("header, name", [("y,x,x", "x"), ("y,x,y", "y"),
                                              ("y, x,z,x ", "x")])
    def test_repeated_header_name_is_named(self, tmp_path, header, name):
        # the column dict kept only the last copy, so `y,x,x` gave two
        # identical columns and a rank-deficient X
        width = header.count(",") + 1
        rows = "".join(",".join(str(i + j) for j in range(width)) + "\n" for i in range(2))
        p = write(tmp_path / "d.csv", f"{header}\n{rows}")
        with pytest.raises(ValueError) as exc:
            load_csv_design(p, response="y")
        assert str(exc.value) == f"{p}: column {name!r} is repeated in the header"

    @pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "-inf", " Infinity ", "1e999"])
    @pytest.mark.parametrize("column", ["x", "y"])
    def test_non_finite_cell_names_column_and_line(self, tmp_path, cell, column):
        rows = [["1", "0.5"], ["0", "1.5"], ["1", "2.5"]]
        rows[1][column == "x"] = f'"{cell}"'
        p = write(tmp_path / "n.csv", "y,x\n" + "".join(",".join(r) + "\n" for r in rows))
        with pytest.raises(ValueError) as exc:
            load_csv_design(p, response="y")
        assert str(exc.value) == (f"{p}: column {column!r} has the non-finite value "
                                  f"{cell.strip()!r} at line 3")

    def test_empty_file_has_no_data_rows(self, tmp_path):
        p = write(tmp_path / "e.csv", "")
        with pytest.raises(ValueError, match="no data rows"):
            load_csv_design(p, response="y")

    @settings(max_examples=200)
    @given(st.data())
    def test_matches_two_pass_reference(self, tmp_path_factory, data):
        # finite numbers in the spellings `float` accepts, and labels that
        # look numeric, are padded, quoted or empty
        n = data.draw(st.integers(2, 6), label="rows")
        number = st.one_of(
            st.floats(-1e12, 1e12).map(repr),
            st.floats(-1e12, 1e12).map(lambda v: f"{v:.3E}"),
            st.integers(-10 ** 7, 10 ** 7).map(lambda v: f"{v:_}"),
            st.sampled_from(["-0.0", "+1.5", ".5", "7.", "1e-3", "2E+2"]),
        )
        label = st.sampled_from(["a", " a", "b ", "1", " 2.5 ", "1e3", "", "x y", "a,b", 'q"t'])

        def cell(strategy):
            text = data.draw(strategy)
            pad = data.draw(st.sampled_from(["{}", " {}", "{} ", "\t{} "]))
            text = pad.format(text)
            if "," in text or '"' in text or data.draw(st.booleans()):
                text = '"' + text.replace('"', '""') + '"'
            return text

        kinds = data.draw(st.lists(st.sampled_from(["num", "cat"]), min_size=1, max_size=4),
                          label="columns")
        y_at = data.draw(st.integers(0, len(kinds)), label="response position")
        names = [f"c{j}" for j in range(len(kinds))]
        names.insert(y_at, "y")
        kinds.insert(y_at, "num")
        body = [",".join(cell(number if kind == "num" else label) for kind in kinds)
                for _ in range(n)]
        text = ",".join(names) + "\n" + "\n".join(body) + "\n"
        p = tmp_path_factory.mktemp("csv") / "d.csv"
        p.write_text(text)
        intercept = data.draw(st.booleans(), label="intercept")
        try:
            want = csv_design_reference(p, "y", intercept)
        except (ValueError, RuntimeWarning) as exc:  # e.g. a constant column
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                load_csv_design(p, "y", intercept)
            return
        got = load_csv_design(p, "y", intercept)
        assert got.X.shape == want.X.shape and got.X.tobytes() == want.X.tobytes()
        assert got.y.tobytes() == want.y.tobytes()
        assert got.info == want.info

    def test_glmm_recipes_reject_ragged_rows(self, tmp_path):
        p = write(tmp_path / "toe.csv", "id,y,trt,time\n1,0,1,0\n1,1,1\n")
        with pytest.raises(ValueError, match="line 3 has 3 fields, the header has 4"):
            load_toenail(p)


class TestCsvMatrix:
    def test_shapes_and_blank_lines(self, tmp_path):
        p = write(tmp_path / "m.csv", "\n1, 2.5,-3\n\n4e-1,5,6\n\n")
        m = load_csv_matrix(p)
        np.testing.assert_array_equal(m, [[1.0, 2.5, -3.0], [0.4, 5.0, 6.0]])
        assert load_csv_matrix(write(tmp_path / "one.csv", "7\n")).shape == (1, 1)

    @pytest.mark.parametrize("text", ["1\n2\n3\n", "1,2,3\n", "\n1,2,3\n\n", "1\n\n2\n3"])
    def test_vector_from_a_row_or_a_column(self, tmp_path, text):
        v = load_csv_matrix(write(tmp_path / "v.csv", text), vector=True)
        np.testing.assert_array_equal(v, [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("text, message", [
        ("1,2\n3\n", "line 2 has 1 fields, line 1 has 2"),
        ("\n1,2\n\n3,4,5\n", "line 4 has 3 fields, line 2 has 2"),
        ("1,2\n3,x\n", "line 2: 'x' is not a finite number"),
        ("1,2\n3, nan \n", "line 2: 'nan' is not a finite number"),
        ("1,2\n3,1e999\n", "line 2: '1e999' is not a finite number"),
        ("# a comment\n1\n", "line 1: '# a comment' is not a finite number"),
        ("", "no data rows"),
    ])
    def test_bad_file_names_path_and_line(self, tmp_path, text, message):
        p = write(tmp_path / "bad.csv", text)
        with pytest.raises(ValueError) as exc:
            load_csv_matrix(p)
        assert str(exc.value) == f"{p}: {message}"

    def test_vector_needs_one_row_or_column(self, tmp_path):
        p = write(tmp_path / "m.csv", "1,2\n3,4\n5,6\n")
        with pytest.raises(ValueError) as exc:
            load_csv_matrix(p, vector=True)
        assert str(exc.value) == f"{p}: expected a single row or column, got 3 x 2"


class TestLibsvm:
    def test_single_feature_line(self, tmp_path):
        p = write(tmp_path / "a.svm", "+1 3:1\n")
        x, y = load_libsvm(p)
        np.testing.assert_allclose(x.toarray(), [[0.0, 0.0, 1.0]])
        np.testing.assert_allclose(y, [1.0])

    def test_empty_feature_list_zero_row(self, tmp_path):
        p = write(tmp_path / "b.svm", "-1 2:0.5\n+1\n")
        x, y = load_libsvm(p)
        np.testing.assert_allclose(x.toarray(), [[0.0, 0.5], [0.0, 0.0]])
        np.testing.assert_allclose(y, [0.0, 1.0])

    def test_duplicate_index_error(self, tmp_path):
        p = write(tmp_path / "c.svm", "+1 1:1 1:2\n")
        with pytest.raises(ValueError, match="duplicate"):
            load_libsvm(p)

    def test_label_mapping_and_validation(self, tmp_path):
        p = write(tmp_path / "d.svm", "-1 1:1\n+1 2:1\n")
        _, y = load_libsvm(p)
        np.testing.assert_allclose(y, [0.0, 1.0])
        bad = write(tmp_path / "e.svm", "2 1:1\n")
        with pytest.raises(ValueError, match="label"):
            load_libsvm(bad)

    @pytest.mark.parametrize("line, message", [
        ("+1 3", "{p}:2: expected index:value, got '3'"),
        ("+1 1:1 a:1", "{p}:2: expected index:value, got 'a:1'"),
        ("+1 1.5:1", "{p}:2: expected index:value, got '1.5:1'"),
        ("x 1:1", "{p}: line 2: 'x' is not a finite number"),
        ("+1 1:x", "{p}: line 2: 'x' is not a finite number"),
        ("+1 1:nan", "{p}: line 2: 'nan' is not a finite number"),
        ("+1 2:-inf", "{p}: line 2: '-inf' is not a finite number"),
        ("+1 1:", "{p}: line 2: '' is not a finite number"),
    ])
    def test_malformed_token_names_path_and_line(self, tmp_path, line, message):
        # these read "not enough values to unpack" or "could not convert",
        # with no path or line; a non-finite value was kept
        p = write(tmp_path / "f.svm", f"-1 1:1\n{line}\n")
        with pytest.raises(ValueError) as exc:
            load_libsvm(p)
        assert str(exc.value) == message.format(p=p)


class TestReturns:
    def test_constant_series_all_zeros(self, tmp_path):
        p = write(tmp_path / "r.csv", "5.0\n5.0\n5.0\n5.0\n")
        np.testing.assert_allclose(load_returns(p), np.zeros(3), atol=1e-14)

    def test_hand_arithmetic(self, tmp_path):
        p = write(tmp_path / "r.csv", f"1.0\n{math.e}\n{math.e ** 2}\n")
        np.testing.assert_allclose(load_returns(p), [0.0, 0.0], atol=1e-10)

    def test_mean_corrected(self, tmp_path, rng):
        rates = np.exp(np.cumsum(rng.standard_normal(30) * 0.01)) + 1.0
        p = write(tmp_path / "r.csv", "\n".join(str(v) for v in rates) + "\n")
        y = load_returns(p)
        assert y.size == 29
        assert abs(y.mean()) < 1e-10

    @pytest.mark.parametrize("rate", ["nan", "inf", "1e999", "x"])
    def test_non_finite_rate_names_its_line(self, rate, tmp_path):
        p = write(tmp_path / "r.csv", f"# rates\n1.0\n2.0\n2024-01-03,{rate}\n")
        with pytest.raises(ValueError) as exc:
            load_returns(p)
        assert str(exc.value) == f"{p}: line 4: {rate!r} is not a finite number"

    def test_nonpositive_rate_error(self, tmp_path):
        p = write(tmp_path / "r.csv", "1.0\n-2.0\n3.0\n")
        with pytest.raises(ValueError, match="nonpositive"):
            load_returns(p)


class TestGlmmRecipes:
    def test_epilepsy_models(self, tmp_path):
        rows = ["id,y,visit,base,trt,age"]
        for pid, trt, age, base in ((1, 1, 30, 8), (2, 0, 25, 12)):
            for visit in range(1, 5):
                rows.append(f"{pid},{visit},{visit},{base},{trt},{age}")
        p = write(tmp_path / "epi.csv", "\n".join(rows) + "\n")

        d1 = load_epilepsy(p, "epi1")
        assert d1.family == "poisson-log"
        assert len(d1.X_blocks) == 2
        assert d1.X_blocks[0].shape == (4, 6)
        assert d1.Z_blocks[0].shape == (4, 1)
        # Base = log(base/4); Age centered within the file; V4 flags visit 4
        np.testing.assert_allclose(d1.X_blocks[0][:, 1], math.log(2.0))
        log_ages = np.log([30.0] * 4 + [25.0] * 4)
        np.testing.assert_allclose(d1.X_blocks[0][0, 3],
                                   math.log(30.0) - log_ages.mean())
        np.testing.assert_allclose(d1.X_blocks[0][:, 5], [0, 0, 0, 1])

        d2 = load_epilepsy(p, "epi2")
        assert d2.X_blocks[0].shape == (4, 6)
        np.testing.assert_allclose(d2.X_blocks[0][:, 5], [-0.3, -0.1, 0.1, 0.3])
        np.testing.assert_allclose(d2.Z_blocks[0][:, 1], [-0.3, -0.1, 0.1, 0.3])

    def test_toenail_design(self, tmp_path):
        rows = ["id,y,trt,time", "1,0,1,0", "1,1,1,4", "2,0,0,0", "2,1,0,8"]
        p = write(tmp_path / "toe.csv", "\n".join(rows) + "\n")
        d = load_toenail(p)
        assert d.family == "bernoulli-logit"
        times = np.array([0.0, 4.0, 0.0, 8.0])
        t_std = (times - 3.0) / times.std()
        np.testing.assert_allclose(d.X_blocks[0][:, 2], t_std[:2])
        np.testing.assert_allclose(d.X_blocks[0][:, 3], 1.0 * t_std[:2])
        np.testing.assert_allclose(d.X_blocks[1][:, 3], 0.0 * t_std[2:])

    def test_polypharmacy_mhv_coding(self, tmp_path):
        rows = ["id,y,gender,race,age,mhv,inptmhv",
                "1,0,1,0,20,0,0", "1,1,1,0,20,3,1",
                "2,0,0,1,40,8,0", "2,1,0,1,40,20,0"]
        p = write(tmp_path / "poly.csv", "\n".join(rows) + "\n")
        d = load_polypharmacy(p)
        x = np.vstack(d.X_blocks)
        np.testing.assert_allclose(x[0, 3], math.log(2.0), atol=1e-12)  # age 20
        np.testing.assert_allclose(x[2, 3], math.log(4.0), atol=1e-12)  # age 40
        np.testing.assert_allclose(x[0, 4:7], [0, 0, 0])   # mhv = 0
        np.testing.assert_allclose(x[1, 4:7], [1, 0, 0])   # 1 <= mhv <= 5
        np.testing.assert_allclose(x[2, 4:7], [0, 1, 0])   # 6 <= mhv <= 14
        np.testing.assert_allclose(x[3, 4:7], [0, 0, 1])   # mhv >= 15
        np.testing.assert_allclose(x[:, 7], [0, 1, 0, 0])

    def test_recipes_feed_glmm_model(self, tmp_path, rng):
        from fishervi.targets import GlmmModel

        rows = ["id,y,trt,time"]
        for pid in range(1, 6):
            for j in range(3):
                rows.append(f"{pid},{int(rng.random() < 0.5)},{pid % 2},{j}")
        p = write(tmp_path / "toe.csv", "\n".join(rows) + "\n")
        d = load_toenail(p)
        model = GlmmModel(d.family, d.X_blocks, d.Z_blocks, d.y_blocks)
        assert model.dim == 5 * 1 + 4 + 1
        theta = rng.standard_normal(model.dim) * 0.2
        assert np.isfinite(model.log_h(theta))

    @pytest.mark.parametrize("loader, header", [
        (load_epilepsy, "id,y,visit,base,trt,age"),
        (load_toenail, "id,y,trt,time"),
        (load_polypharmacy, "id,y,gender,race,age,mhv,inptmhv"),
    ], ids=["epilepsy", "toenail", "polypharmacy"])
    def test_missing_column_is_named(self, tmp_path, loader, header):
        # a missing column escaped as KeyError
        names = header.split(",")
        for drop in names:
            kept = [n for n in names if n != drop]
            p = write(tmp_path / f"no_{drop}.csv",
                      ",".join(kept) + "\n" + ",".join("1" for _ in kept) + "\n")
            with pytest.raises(ValueError) as exc:
                loader(p)
            assert str(exc.value) == f"{p}: missing column {drop!r}"

    @pytest.mark.parametrize("loader, header, row", [
        (load_epilepsy, "id,y,visit,base,trt,age", "2,3,1,8,{},30"),
        (load_toenail, "id,y,trt,time", "2,1,0,{}"),
        (load_polypharmacy, "id,y,gender,race,age,mhv,inptmhv", "2,0,1,{},40,3,0"),
    ], ids=["epilepsy", "toenail", "polypharmacy"])
    @pytest.mark.parametrize("cell", ["x", "nan", " inf", "1e999", ""])
    def test_bad_cell_names_path_and_line(self, tmp_path, loader, header, row, cell):
        # 'x' read "could not convert string to float" with no path or line;
        # a nan time made the whole toenail t column NaN
        good = {load_epilepsy: "1,2,1,8,1,30", load_toenail: "1,0,1,4",
                load_polypharmacy: "1,1,0,1,20,0,1"}[loader]
        p = write(tmp_path / "bad.csv", f"{header}\n{good}\n{row.format(cell)}\n")
        with pytest.raises(ValueError) as exc:
            loader(p)
        assert str(exc.value) == f"{p}: line 3: {cell.strip()!r} is not a finite number"

    @pytest.mark.parametrize("column, value, domain", [
        ("visit", "5", "1, 2, 3 or 4"), ("visit", " 0", "1, 2, 3 or 4"),
        ("visit", "2.5", "1, 2, 3 or 4"), ("base", "0", "positive"),
        ("base", "-4", "positive"), ("age", "0", "positive"), ("age", "-30", "positive"),
    ])
    def test_epilepsy_domains(self, tmp_path, column, value, domain):
        # visit 5 escaped as KeyError, base or age <= 0 as "math domain error"
        cells = {"id": "2", "y": "1", "visit": "2", "base": "8", "trt": "0", "age": "30"}
        cells[column] = value
        p = write(tmp_path / "epi.csv", "id,y,visit,base,trt,age\n1,2,1,8,1,30\n"
                  + ",".join(cells.values()) + "\n")
        for model in ("epi1", "epi2"):
            with pytest.raises(ValueError) as exc:
                load_epilepsy(p, model)
            assert str(exc.value) == (f"{p}: line 3: {column} must be {domain}, "
                                      f"got {value.strip()!r}")

    @pytest.mark.parametrize("age", ["0", "-20"])
    def test_polypharmacy_age_must_be_positive(self, tmp_path, age):
        p = write(tmp_path / "poly.csv", "id,y,gender,race,age,mhv,inptmhv\n"
                  f"1,0,1,0,20,0,0\n1,1,1,0,{age},3,1\n")
        with pytest.raises(ValueError) as exc:
            load_polypharmacy(p)
        assert str(exc.value) == f"{p}: line 3: age must be positive, got {age!r}"

    @pytest.mark.parametrize("second", ["5", "{k}"])
    def test_toenail_repeated_header_is_named(self, tmp_path, second):
        # a constant second `time` read "column 'time' is constant", and a
        # varying one silently replaced the first
        p = write(tmp_path / "toe.csv", "id,y,trt,time,time\n" + "".join(
            f"{k % 2},{k % 2},1,{k},{second.format(k=k + 1)}\n" for k in range(4)))
        with pytest.raises(ValueError) as exc:
            load_toenail(p)
        assert str(exc.value) == f"{p}: column 'time' is repeated in the header"

    @pytest.mark.parametrize("times", [("4", "4", "4"), ("0.1", "0.1", "0.1")])
    def test_toenail_constant_time_rejected(self, tmp_path, times):
        # a constant time divided by a zero (or rounding-sized) sd
        p = write(tmp_path / "toe.csv", "id,y,trt,time\n" + "".join(
            f"{k % 2},{k % 2},1,{t}\n" for k, t in enumerate(times)))
        with pytest.raises(ValueError) as exc:
            load_toenail(p)
        assert str(exc.value) == f"{p}: column 'time' is constant"


def _cell(data, strategy):
    return data.draw(st.sampled_from(["{}", " {}", "{} "])).format(data.draw(strategy))


def _ints(lo, hi):
    return st.integers(lo, hi).map(str)


def _numbers(lo, hi):
    return st.one_of(st.integers(lo, hi).map(str), st.floats(lo, hi).map(repr))


EPILEPSY_COLUMNS = {"y": _ints(0, 30), "visit": _ints(1, 4), "base": _numbers(1, 150),
                    "trt": _ints(0, 1), "age": _numbers(16, 60)}
# recipe: (loader, row-loop reference, column -> cell text strategy)
RECIPES = {
    "epi1": (lambda p: load_epilepsy(p, "epi1"), lambda p: epilepsy_reference(p, "epi1"),
             EPILEPSY_COLUMNS),
    "epi2": (lambda p: load_epilepsy(p, "epi2"), lambda p: epilepsy_reference(p, "epi2"),
             EPILEPSY_COLUMNS),
    "toenail": (load_toenail, toenail_reference,
                {"y": _ints(0, 1), "trt": _ints(0, 1), "time": _numbers(0, 12)}),
    "polypharmacy": (load_polypharmacy, polypharmacy_reference,
                     {"y": _ints(0, 1), "gender": _ints(0, 1), "race": _ints(0, 1),
                      "age": _numbers(20, 90), "mhv": _numbers(0, 30),
                      "inptmhv": _ints(0, 1)}),
}


class TestGlmmRecipesMatchRowLoop:
    @pytest.mark.parametrize("recipe", sorted(RECIPES))
    @settings(max_examples=60)
    @given(data=st.data())
    def test_matches_row_loop_reference(self, tmp_path_factory, recipe, data):
        # interleaved subjects whose raw ids differ only by padding, 1-6 rows
        # each, and the columns in any order
        load, reference, columns = RECIPES[recipe]
        ids = data.draw(st.lists(st.sampled_from(["1", "2", " 2", "10", "a", "007", "7"]),
                                 min_size=1, max_size=5, unique=True), label="ids")
        rows = [[sid] + [_cell(data, s) for s in columns.values()]
                for sid in ids for _ in range(data.draw(st.integers(1, 6)))]
        rows = data.draw(st.permutations(rows), label="row order")
        order = data.draw(st.permutations(range(len(columns) + 1)), label="column order")
        header = ["id", *columns]
        text = "".join(",".join(r[j] for j in order) + "\n" for r in [header, *rows])
        p = tmp_path_factory.mktemp("panel") / "panel.csv"
        p.write_text(text)
        if recipe == "toenail" and len({float(r[-1]) for r in rows}) == 1:
            with pytest.raises(ValueError, match="column 'time' is constant"):
                load(p)
            return
        got, want = load(p), reference(p)
        assert (got.family, got.column_names) == (want.family, want.column_names)
        assert len(got.X_blocks) == len(got.Z_blocks) == len(got.y_blocks) == len(want.X_blocks)
        for name in ("X_blocks", "Z_blocks", "y_blocks"):
            assert [b.shape for b in getattr(got, name)] == [b.shape for b in getattr(want, name)]
        for g, w in zip(got.y_blocks + got.Z_blocks, want.y_blocks + want.Z_blocks):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
        for g, w in zip(got.X_blocks, want.X_blocks):
            # numpy's log and mean round differently from math.log and sum
            np.testing.assert_allclose(g, w, rtol=0, atol=1e-14)

import csv
import io
import math
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from cohortsim.curriculum import (
    Course, CurriculumError, CurriculumGraph, Cycle, default_curriculum,
)
from cohortsim.engine import run_realisation
from cohortsim import featurelab
from cohortsim.featurelab import (
    FeatureCatalog, FeatureError, FeatureSpec, MacroSeries, StudentRecord, annualised_inflation,
    build_feature_view, build_feature_views, csv_id_cells, cumulative_inflation,
    default_feature_catalog, feature_matrix_csv_chunks, ifc_weighted_strike_index,
    inflation_volatility_24m, load_macro_series, load_student_records, make_cohort_folds,
    strike_lag, student_records_from_log,
)
from cohortsim.scenario import ScenarioSpec


def series(inflation=(), first_month=0, strikes=(), first_semester=1):
    return MacroSeries(monthly_inflation=tuple(inflation), first_month=first_month,
                       strike_intensity=tuple(strikes), first_semester=first_semester)


def mini_graph():
    return CurriculumGraph([
        Course(id="b1", name="b1", cycle=Cycle.BASIC, scheduled_semester=1, ifc=0.8),
        Course(id="b2", name="b2", cycle=Cycle.BASIC, scheduled_semester=1, ifc=0.4),
        Course(id="adv", name="adv", cycle=Cycle.ADVANCED, scheduled_semester=5, ifc=0.9),
    ])


class TestInflationVolatility:
    def test_constant_series_has_zero_volatility(self):
        s = series(inflation=[2.0] * 24, first_month=0)
        assert inflation_volatility_24m(s, 24) == 0.0

    def test_alternating_series(self):
        s = series(inflation=[1.0, 3.0] * 12, first_month=0)
        # sample SD with n-1 denominator: sqrt(24 / 23)
        assert inflation_volatility_24m(s, 24) == pytest.approx(math.sqrt(24 / 23), abs=1e-12)

    def test_insufficient_history_is_an_error(self):
        s = series(inflation=[1.0] * 23, first_month=1)
        with pytest.raises(FeatureError):
            inflation_volatility_24m(s, 24)


class TestStrikeLag:
    def test_worked_example(self):
        s = series(strikes=[0.0, 0.1, 0.3], first_semester=1)
        assert strike_lag(s, semester=3, lag=2) == pytest.approx(0.1, abs=1e-12)

    def test_lag_one_is_most_recent(self):
        s = series(strikes=[0.0, 0.1, 0.3], first_semester=1)
        assert strike_lag(s, semester=3, lag=1) == pytest.approx(0.3)
        assert strike_lag(s, semester=3, lag=3) == pytest.approx(0.0)

    def test_lag_zero_disallowed(self):
        s = series(strikes=[0.1], first_semester=1)
        with pytest.raises(FeatureError):
            strike_lag(s, semester=1, lag=0)

    def test_all_zero_series(self):
        s = series(strikes=[0.0] * 6, first_semester=1)
        for t in range(3, 7):
            for k in (1, 2, 3):
                assert strike_lag(s, t, k) == 0.0

    def test_reaching_before_coverage_is_an_error(self):
        s = series(strikes=[0.1, 0.2], first_semester=3)
        with pytest.raises(FeatureError):
            strike_lag(s, semester=3, lag=2)


class TestIfcWeightedStrikeIndex:
    def test_no_strikes(self):
        s = series(strikes=[0.0, 0.0], first_semester=1)
        assert ifc_weighted_strike_index([("b1", 1)], mini_graph(), s) == 0.0

    def test_single_taking(self):
        s = series(strikes=[0.2], first_semester=1)
        value = ifc_weighted_strike_index([("b1", 1)], mini_graph(), s)
        assert value == pytest.approx(0.16, abs=1e-12)

    def test_retakes_contribute_per_taking(self):
        s = series(strikes=[0.1, 0.3], first_semester=1)
        value = ifc_weighted_strike_index([("b1", 1), ("b1", 2)], mini_graph(), s)
        assert value == pytest.approx(0.8 * 0.1 + 0.8 * 0.3, abs=1e-12)

    def test_advanced_cycle_excluded(self):
        s = series(strikes=[0.5] * 6, first_semester=1)
        assert ifc_weighted_strike_index([("adv", 5)], mini_graph(), s) == 0.0

    def test_missing_ifc_is_an_error(self):
        graph = CurriculumGraph([Course(id="raw", name="raw", cycle=Cycle.BASIC,
                                        scheduled_semester=1)])
        s = series(strikes=[0.1], first_semester=1)
        with pytest.raises(FeatureError, match="IFC"):
            ifc_weighted_strike_index([("raw", 1)], graph, s)

    @given(st.lists(st.tuples(st.sampled_from(["b1", "b2"]), st.integers(1, 4)), max_size=8),
           st.lists(st.tuples(st.sampled_from(["b1", "b2"]), st.integers(1, 4)), max_size=8))
    def test_additive_over_disjoint_segments(self, first, second):
        s = series(strikes=[0.1, 0.2, 0.3, 0.05], first_semester=1)
        g = mini_graph()
        combined = ifc_weighted_strike_index(list(first) + list(second), g, s)
        split = (ifc_weighted_strike_index(first, g, s)
                 + ifc_weighted_strike_index(second, g, s))
        assert combined == pytest.approx(split, abs=1e-9)


class TestInflationAggregates:
    def test_annualised_compounding(self):
        s = series(inflation=[1.0] * 12, first_month=0)
        expected = (1.01 ** 12 - 1.0) * 100.0
        assert annualised_inflation(s, 12) == pytest.approx(expected, abs=1e-12)

    def test_cumulative_compounding(self):
        s = series(inflation=[2.0, 3.0], first_month=0)
        expected = (1.02 * 1.03 - 1.0) * 100.0
        assert cumulative_inflation(s, 0, 2) == pytest.approx(expected, abs=1e-12)


def full_series():
    # 24 months of history before entry at month 24, plus 6 semesters of follow-up
    inflation = [2.0 + 0.1 * (m % 5) for m in range(24 + 40)]
    strikes = [0.0, 0.10, 0.30, 0.05, 0.0, 0.2]
    return series(inflation=inflation, first_month=0, strikes=strikes, first_semester=1)


def student(takings=()):
    return StudentRecord(student_id="s1", entry_month=24, entry_semester=1,
                         takings=tuple(takings))


class TestBuildFeatureView:
    def test_entry_view_has_only_entry_features(self):
        catalog = default_feature_catalog()
        matrix = build_feature_view(catalog, [student()], 0, full_series(), mini_graph())
        assert set(matrix.columns) == {"MACRO_inflacion_entrada",
                                       "MACRO_inflacion_volatilidad_24m"}

    def test_lag_two_available_at_t2_but_not_lag_three(self):
        catalog = default_feature_catalog()
        matrix = build_feature_view(catalog, [student()], 2, full_series(), mini_graph())
        assert "MACRO_paros_lag_sem_2" in matrix.columns
        assert "MACRO_paros_lag_sem_3" not in matrix.columns

    def test_all_lags_present_at_t3(self):
        catalog = default_feature_catalog()
        matrix = build_feature_view(catalog, [student()], 3, full_series(), mini_graph())
        for lag in (1, 2, 3):
            assert f"MACRO_paros_lag_sem_{lag}" in matrix.columns

    def test_structural_absence_over_catalog_grid(self):
        # leakage property: exhaustive over catalog x prediction-time grid
        catalog = default_feature_catalog()
        for t in range(0, 5):
            matrix = build_feature_view(catalog, [student()], t, full_series(), mini_graph())
            expected = {f.name for f in catalog.features if f.available_from <= t}
            assert set(matrix.columns) == expected
            for f in catalog.features:
                assert matrix.availability[f.name] == (f.available_from <= t)

    def test_lag_values_align_with_series(self):
        catalog = default_feature_catalog()
        matrix = build_feature_view(catalog, [student()], 3, full_series(), mini_graph())
        row = dict(zip(matrix.columns, matrix.rows[0]))
        # observed semesters 1..3 have intensities 0.0, 0.10, 0.30
        assert row["MACRO_paros_lag_sem_1"] == pytest.approx(0.30)
        assert row["MACRO_paros_lag_sem_2"] == pytest.approx(0.10)
        assert row["MACRO_paros_lag_sem_3"] == pytest.approx(0.0)
        assert row["MACRO_paros_acum_ciclo"] == pytest.approx(0.40)

    def test_interaction_is_volatility_times_cumulative_exposure(self):
        catalog = default_feature_catalog()
        s = full_series()
        matrix = build_feature_view(catalog, [student()], 2, s, mini_graph())
        row = dict(zip(matrix.columns, matrix.rows[0]))
        expected = inflation_volatility_24m(s, 24) * (0.0 + 0.10)
        assert row["MACRO_inflacion_x_paros"] == pytest.approx(expected, abs=1e-12)

    def test_ifc_index_counts_only_observed_takings(self):
        catalog = default_feature_catalog()
        s = full_series()
        record = student(takings=[("b1", 1), ("b1", 2), ("b1", 4)])
        matrix = build_feature_view(catalog, [record], 2, s, mini_graph())
        row = dict(zip(matrix.columns, matrix.rows[0]))
        # the semester-4 taking lies beyond prediction time t=2
        assert row["MACRO_IFC_pond_paros_basico"] == pytest.approx(
            0.8 * 0.0 + 0.8 * 0.10, abs=1e-12)

    def test_basico_vs_superior_split(self):
        catalog = default_feature_catalog()
        s = full_series()
        matrix = build_feature_view(catalog, [student()], 6, s, mini_graph())
        row = dict(zip(matrix.columns, matrix.rows[0]))
        basic_mean = (0.0 + 0.10 + 0.30 + 0.05) / 4
        advanced_mean = (0.0 + 0.2) / 2
        assert row["MACRO_paros_basico_vs_superior"] == pytest.approx(
            basic_mean - advanced_mean, abs=1e-12)

    def test_catalog_has_each_macro_feature_once(self):
        names = default_feature_catalog().names()
        assert len(names) == 11
        assert len(set(names)) == 11


def recomputed_row(student, t, s, graph):
    """One student's full catalog row at time t, straight from the scalar functions."""
    entry_m, entry_s = student.entry_month, student.entry_semester
    at_entry = annualised_inflation(s, entry_m)
    now = annualised_inflation(s, entry_m + 6 * t)
    exposure = sum(s.strike_at(k) for k in range(entry_s, entry_s + t))
    basic = [s.strike_at(k) for k in range(entry_s, entry_s + min(t, 4))]
    advanced = [s.strike_at(k) for k in range(entry_s + 4, entry_s + t)]
    row = {
        "MACRO_inflacion_entrada": at_entry,
        "MACRO_inflacion_volatilidad_24m": inflation_volatility_24m(s, entry_m),
        "MACRO_inflacion_acum_entrada": cumulative_inflation(s, entry_m, 6 * t),
        "MACRO_inflacion_pct_cambio": (now - at_entry) / at_entry if at_entry != 0.0 else 0.0,
        "MACRO_paros_acum_ciclo": exposure,
        "MACRO_paros_basico_vs_superior":
            (sum(basic) / len(basic) if basic else 0.0)
            - (sum(advanced) / len(advanced) if advanced else 0.0),
        "MACRO_IFC_pond_paros_basico": ifc_weighted_strike_index(
            [(c, k) for c, k in student.takings if k < entry_s + t], graph, s),
        "MACRO_inflacion_x_paros": inflation_volatility_24m(s, entry_m) * exposure,
    }
    for lag in (1, 2, 3):
        if lag <= t:
            row[f"MACRO_paros_lag_sem_{lag}"] = strike_lag(s, entry_s + t - 1, lag)
    return row


@st.composite
def feature_inputs(draw):
    """Series, students and a time; entry months and semesters are drawn apart,
    so students share both, one or neither."""
    rate = st.one_of(st.just(0.0), st.floats(-1.0, 6.0, allow_nan=False))
    inflation = draw(st.lists(rate, min_size=96, max_size=96))
    strikes = draw(st.lists(st.floats(0.0, 1.0), min_size=13, max_size=13))
    people = draw(st.lists(st.tuples(
        st.sampled_from([24, 25, 30, 54]), st.sampled_from([1, 2, 6]),
        st.lists(st.tuples(st.sampled_from(["b1", "b2", "adv"]), st.integers(0, 7)),
                 max_size=6)), min_size=1, max_size=10))
    students = [StudentRecord(student_id=f"s{i}", entry_month=month, entry_semester=semester,
                              takings=tuple((c, semester + k) for c, k in takings))
                for i, (month, semester, takings) in enumerate(people)]
    return (series(inflation=inflation, strikes=strikes, first_semester=1), students,
            draw(st.integers(0, 7)))


class TestViewMatchesScalarRecomputation:
    @settings(max_examples=60, deadline=None)
    @given(feature_inputs())
    def test_every_cell_bit_for_bit(self, inputs):
        s, students, t = inputs
        catalog = default_feature_catalog()
        graph = mini_graph()
        matrix = build_feature_view(catalog, students, t, s, graph)
        assert matrix.columns == tuple(f.name for f in catalog.available_at(t))
        assert matrix.student_ids == tuple(r.student_id for r in students)
        for record, row in zip(students, matrix.rows, strict=True):
            expected = recomputed_row(record, t, s, graph)
            assert [v.hex() for v in row] == [expected[c].hex() for c in matrix.columns]


def csv_bytes(header, rows):
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode()


def float_row_bytes(matrix):
    """The CSV of a view written from its float rows, cell by cell."""
    return csv_bytes(("student_id",) + matrix.columns,
                     ((sid,) + row for sid, row in zip(matrix.student_ids, matrix.rows)))


def text_bytes(matrix, id_cells=None):
    return "".join(feature_matrix_csv_chunks(matrix, id_cells)).encode()


#: Ids csv.writer must quote, or writes differently alone on a line.
AWKWARD_IDS = ("a,b", 'say "hi"', "two\nlines", "cr\rhere", " lead", "trail ", "", "x-1", "é")


class TestFeatureMatrixCsvChunks:
    @settings(max_examples=60, deadline=None)
    @given(feature_inputs())
    def test_same_bytes_as_float_rows(self, inputs):
        s, students, t = inputs
        matrix = build_feature_view(default_feature_catalog(), students, t, s, mini_graph())
        assert text_bytes(matrix) == float_row_bytes(matrix)

    @settings(max_examples=40, deadline=None)
    @given(feature_inputs(), st.lists(st.sampled_from(AWKWARD_IDS), min_size=1, unique=True),
           st.integers(1, 3))
    def test_awkward_ids_and_chunks_give_the_float_row_bytes(self, inputs, ids, chunk_rows):
        s, students, t = inputs
        students = [replace(record, student_id=sid) for record, sid in zip(students, ids)]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(featurelab, "CSV_CHUNK_ROWS", chunk_rows)
            for catalog in (default_feature_catalog(), late_catalog()):
                matrix = build_feature_view(catalog, students, t, s, mini_graph())
                assert text_bytes(matrix) == float_row_bytes(matrix)
                assert text_bytes(matrix, csv_id_cells(ids)) == float_row_bytes(matrix)

    def test_empty_id_alone_on_a_line_is_quoted(self):
        students = [StudentRecord("", 24, 1), StudentRecord("a", 24, 1)]
        matrix = build_feature_view(late_catalog(), students, 0, full_series(), mini_graph())
        assert matrix.columns == ()
        assert text_bytes(matrix) == float_row_bytes(matrix) == b'student_id\r\n""\r\na\r\n'
        with_column = build_feature_view(late_catalog(), students, 1, full_series(), mini_graph())
        assert text_bytes(with_column).splitlines()[1].startswith(b",")

    def test_chunks_are_bounded(self, monkeypatch):
        monkeypatch.setattr(featurelab, "CSV_CHUNK_ROWS", 2)
        students = [StudentRecord(f"s{i}", 24, 1, takings=(("b1", 1),)) for i in range(5)]
        matrix = build_feature_view(default_feature_catalog(), students, 1, full_series(),
                                    mini_graph())
        chunks = list(feature_matrix_csv_chunks(matrix))
        assert [chunk.count("\r\n") for chunk in chunks] == [1, 2, 2, 1]
        assert "".join(chunks).encode() == float_row_bytes(matrix)

    def test_negative_zero_kept_for_a_shared_entry_date(self):
        # Constant deflation: the annualised rate at entry is negative and
        # unchanged a semester later, so pct_cambio is 0.0 / negative = -0.0
        # for both students of the first entry date.  The third student's
        # entry date has constant inflation and a +0.0, which equals -0.0 but
        # is written differently, so text cached by value would be wrong.
        inflation = [-1.0] * 40 + [2.0] * 40
        s = series(inflation=inflation, strikes=[0.1] * 12, first_semester=1)
        students = [StudentRecord("a", 24, 1, takings=(("b1", 1),)),
                    StudentRecord("b", 24, 1, takings=(("b2", 1), ("adv", 1))),
                    StudentRecord("c", 66, 8, takings=(("b1", 8),))]
        matrix = build_feature_view(default_feature_catalog(), students, 1, s, mini_graph())
        pct = matrix.columns.index("MACRO_inflacion_pct_cambio")
        assert [math.copysign(1.0, row[pct]) for row in matrix.rows] == [-1.0, -1.0, 1.0]
        text = text_bytes(matrix)
        assert text == float_row_bytes(matrix)
        cells = [line.split(",")[pct + 1] for line in text.decode().splitlines()[1:]]
        assert cells == ["-0.0", "-0.0", "0.0"]

    def test_mismatched_students_rejected(self):
        students = [student(), StudentRecord("s2", 24, 1)]
        matrix = build_feature_view(default_feature_catalog(), students, 1, full_series(),
                                    mini_graph())
        for wrong in (students[:1], [StudentRecord("s3", 24, 1)]):
            with pytest.raises(FeatureError, match="prediction time 1: no id cell for student"):
                text_bytes(matrix, csv_id_cells(r.student_id for r in wrong))
        # id cells are looked up by id, so their order does not matter
        reordered = csv_id_cells(r.student_id for r in students[::-1] + [StudentRecord("s3", 1, 1)])
        assert text_bytes(matrix, reordered) == float_row_bytes(matrix)


def late_catalog():
    """A catalog with no feature at t = 0, so the t = 0 view has only the id column."""
    return FeatureCatalog((FeatureSpec("MACRO_paros_acum_ciclo", "N4", 1, ""),
                           FeatureSpec("MACRO_IFC_pond_paros_basico", "N4", 1, "")))


def signed_graph():
    """Basic courses with positive, negative and zero IFC, plus an advanced course."""
    return CurriculumGraph([
        Course(id="b1", name="b1", cycle=Cycle.BASIC, scheduled_semester=1, ifc=0.8),
        Course(id="b2", name="b2", cycle=Cycle.BASIC, scheduled_semester=1, ifc=-1.3),
        Course(id="b3", name="b3", cycle=Cycle.BASIC, scheduled_semester=2, ifc=0.0),
        Course(id="adv", name="adv", cycle=Cycle.ADVANCED, scheduled_semester=5, ifc=0.9),
    ])


def folded_ifc(takings, horizon, graph, s):
    """The IFC index as a left fold over the takings in file order, zero products included."""
    total = 0.0
    for course_id, semester in takings:
        course = graph.course(course_id)
        if semester < horizon and course.cycle is Cycle.BASIC:
            total += course.ifc * s.strike_at(semester)
    return total


class TestIfcScanOverTimes:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.sampled_from([0.0, 0.0, 0.07, 0.1, 0.3, 1.0]), min_size=16, max_size=16),
           st.lists(st.tuples(st.sampled_from([1, 2, 5]), st.lists(st.tuples(
               st.sampled_from(["b1", "b2", "b3", "adv"]), st.integers(0, 10)), max_size=12)),
               min_size=1, max_size=6),
           st.lists(st.integers(0, 9), min_size=1, max_size=9, unique=True))
    def test_each_view_matches_a_left_fold(self, strikes, people, times):
        # Takings come in any order, repeat, and reach past every horizon.
        s = series(inflation=[2.0] * 160, strikes=strikes, first_semester=1)
        students = [StudentRecord(f"s{i}", 24 + 6 * (entry - 1), entry,
                                  takings=tuple((c, entry + k) for c, k in takings))
                    for i, (entry, takings) in enumerate(people)]
        graph = signed_graph()
        views = build_feature_views(default_feature_catalog(), students, times, s, graph)
        assert [view.prediction_time for view in views] == times
        for view in views:
            if view.prediction_time == 0:
                assert view.ifc is None
                continue
            expected = [folded_ifc(r.takings, r.entry_semester + view.prediction_time, graph, s)
                        for r in students]
            assert [v.hex() for v in view.ifc] == [v.hex() for v in expected]
            alone = build_feature_view(default_feature_catalog(), students,
                                       view.prediction_time, s, graph)
            assert alone == view

    def test_unbounded_horizon_is_the_whole_fold(self):
        s = series(strikes=[0.1, 0.0, 0.3, 0.05], first_semester=1)
        takings = [("b2", 3), ("b1", 1), ("adv", 9), ("b3", 2), ("b1", 3), ("b2", 1)]
        assert (ifc_weighted_strike_index(takings, signed_graph(), s).hex()
                == folded_ifc(takings, math.inf, signed_graph(), s).hex())

    def test_each_taking_course_is_looked_up_once(self):
        class CountedId(str):
            lookups = 0

            def __hash__(self):
                CountedId.lookups += 1
                return str.__hash__(self)

        graph = default_curriculum()
        takings = tuple((CountedId(c.id), c.scheduled_semester + k % 2)
                        for k, c in enumerate(graph.courses))
        students = [StudentRecord(f"s{i}", 24, 1, takings=takings) for i in range(20)]
        s = series(inflation=[2.0] * 120, strikes=[0.1] * 16, first_semester=1)
        read = sum(1 for r in students for _, k in r.takings if k < r.entry_semester + 7)
        for times in ((7,), range(8)):
            CountedId.lookups = 0
            build_feature_views(default_feature_catalog(), students, times, s, graph)
            assert CountedId.lookups == read


class TestViewIfcErrors:
    def view(self, takings, graph=None, t=1):
        return build_feature_view(default_feature_catalog(), [student(takings)], t,
                                  full_series(), graph or mini_graph())

    def test_unknown_course(self):
        with pytest.raises(CurriculumError, match="unknown course 'zz'"):
            self.view([("b1", 1), ("zz", 1)])

    def test_takings_past_the_horizon_are_not_read(self):
        matrix = self.view([("b1", 2), ("zz", 3), ("raw", 4), ("b1", 9)], t=2)
        assert matrix.rows[0][matrix.columns.index("MACRO_IFC_pond_paros_basico")] == 0.8 * 0.10

    def test_basic_course_without_ifc(self):
        graph = CurriculumGraph([Course(id="raw", name="raw", cycle=Cycle.BASIC,
                                        scheduled_semester=1)])
        with pytest.raises(FeatureError, match=r"^prediction time 1, student 's1': "
                                               r"course 'raw' has no standardised IFC$"):
            self.view([("raw", 1)], graph)

    def test_missing_strike_semester(self):
        with pytest.raises(FeatureError, match=r"^prediction time 2, student 's1': "
                                               r"no strike data for semester 0$"):
            self.view([("b1", 1), ("b1", 0)], t=2)

    def test_advanced_taking_outside_strike_data_is_accepted(self):
        matrix = self.view([("adv", 0), ("b1", 2)], t=2)
        assert matrix.rows[0][matrix.columns.index("MACRO_IFC_pond_paros_basico")] == 0.8 * 0.10

    def test_graph_lookups_do_not_grow_with_takings(self, monkeypatch):
        graph = default_curriculum()
        calls = []
        lookup = CurriculumGraph.course

        def counted(self, course_id):
            calls.append(course_id)
            return lookup(self, course_id)

        monkeypatch.setattr(CurriculumGraph, "course", counted)
        takings = tuple((c.id, 1 + k % 12) for k, c in enumerate(graph.courses))
        students = [StudentRecord(f"s{i}", 24, 1, takings=takings) for i in range(200)]
        strikes = series(inflation=[2.0] * 96, strikes=[0.1] * 13, first_semester=1)
        build_feature_view(default_feature_catalog(), students, 7, strikes, graph)
        assert 200 * len(takings) > len(graph)
        assert len(calls) <= len(graph)


class TestCohortFolds:
    def test_first_fold(self):
        folds = make_cohort_folds(range(2004, 2020))
        assert folds[0].train_years == tuple(range(2004, 2011))
        assert folds[0].test_years == (2011, 2012)

    def test_last_fold(self):
        folds = make_cohort_folds(range(2004, 2020))
        assert folds[4].train_years == tuple(range(2004, 2019))
        assert folds[4].test_years == (2019,)

    def test_temporal_ordering_and_disjointness(self):
        for fold in make_cohort_folds(range(2004, 2020)):
            assert max(fold.train_years) < min(fold.test_years)
            assert not set(fold.train_years) & set(fold.test_years)

    def test_missing_years_rejected(self):
        with pytest.raises(FeatureError, match="missing"):
            make_cohort_folds(range(2005, 2020))

    def test_unexpected_years_rejected(self):
        with pytest.raises(FeatureError, match="outside"):
            make_cohort_folds(range(2004, 2021))


class TestAdaptersAndIo:
    def test_records_from_simulated_log(self):
        spec = ScenarioSpec(n_agents=5, n_realisations=1, horizon=2)
        log = run_realisation(spec, 0, record_rows=True)
        records = student_records_from_log(log, entry_month=24, entry_semester=7)
        assert len(records) == 5
        for record in records:
            for course_id, semester in record.takings:
                assert semester in (7, 8)

    def test_records_require_recorded_rows(self):
        spec = ScenarioSpec(n_agents=2, n_realisations=1, horizon=1)
        log = run_realisation(spec, 0, record_rows=False)
        with pytest.raises(FeatureError):
            student_records_from_log(log, 24, 1)

    def test_csv_round_trip(self, tmp_path):
        inflation = tmp_path / "inflation.csv"
        inflation.write_text("month,inflation\n" + "\n".join(
            f"{m},{1.5 + 0.1 * (m % 3)}" for m in range(30)) + "\n")
        strikes = tmp_path / "strikes.csv"
        strikes.write_text("semester,strike_intensity\n1,0.0\n2,0.15\n3,0.05\n")
        students = tmp_path / "students.csv"
        students.write_text("student_id,entry_month,entry_semester\nst1,24,1\n")
        takings = tmp_path / "takings.csv"
        takings.write_text("student_id,course_id,semester\nst1,b1,1\nst1,b1,2\n")
        series = load_macro_series(inflation, strikes)
        records = load_student_records(students, takings)
        assert series.strike_at(2) == 0.15
        assert records[0].takings == (("b1", 1), ("b1", 2))

    def test_duplicate_student_id_rejected(self, tmp_path):
        students = tmp_path / "students.csv"
        students.write_text("student_id,entry_month,entry_semester\n"
                            "st1,24,1\nst2,24,1\nst1,30,2\n")
        with pytest.raises(FeatureError, match=r"students.csv:4: duplicate student_id 'st1'"):
            load_student_records(students)

    def test_taking_of_unlisted_student_rejected(self, tmp_path):
        students = tmp_path / "students.csv"
        students.write_text("student_id,entry_month,entry_semester\nst1,24,1\n")
        takings = tmp_path / "takings.csv"
        takings.write_text("student_id,course_id,semester\nst1,b1,1\nst9,b1,2\n")
        with pytest.raises(FeatureError, match=r"takings.csv:3: student_id 'st9' is not in"):
            load_student_records(students, takings)

    @pytest.mark.parametrize("name, text, line", [
        ("students.csv", "student_id,entry_month,entry_semester\nst1,24,1\nst2,24\n", 3),
        ("students.csv", "student_id,entry_month,entry_semester\nst1,x,1\n", 2),
        ("students.csv", "student_id,entry_month,entry_semester,cohort_year\nst1,24,1,y\n", 2),
        ("takings.csv", "student_id,course_id,semester\nst1,b1\n", 2),
        ("takings.csv", "student_id,course_id,semester\nst1,b1,1\nst1,b1,z\n", 3),
    ])
    def test_malformed_rows_name_file_and_line(self, tmp_path, name, text, line):
        (tmp_path / "students.csv").write_text("student_id,entry_month,entry_semester\nst1,24,1\n")
        (tmp_path / "takings.csv").write_text("student_id,course_id,semester\n")
        (tmp_path / name).write_text(text)
        with pytest.raises(FeatureError, match=rf"{name}:{line}: malformed row"):
            load_student_records(tmp_path / "students.csv", tmp_path / "takings.csv")

    def test_optional_cohort_year_and_column_order(self, tmp_path):
        students = tmp_path / "students.csv"
        students.write_text("entry_semester,cohort_year,student_id,entry_month\n"
                            "1,2004,st1,24\n2,,st2,30\n")
        takings = tmp_path / "takings.csv"
        takings.write_text("semester,course_id,student_id\n2,b1,st2\n\n1,b2,st2\n")
        records = load_student_records(students, takings)
        assert records == [
            StudentRecord("st1", 24, 1, 2004, ()),
            StudentRecord("st2", 30, 2, None, (("b1", 2), ("b2", 1))),
        ]

    def test_gappy_series_rejected(self, tmp_path):
        inflation = tmp_path / "inflation.csv"
        inflation.write_text("month,inflation\n0,1.0\n2,1.0\n")
        strikes = tmp_path / "strikes.csv"
        strikes.write_text("semester,strike_intensity\n1,0.0\n")
        with pytest.raises(FeatureError, match="contiguous"):
            load_macro_series(inflation, strikes)

    def test_intensity_bounds_enforced(self):
        with pytest.raises(FeatureError):
            series(strikes=[1.4], first_semester=1)

"""Leak-aware macro feature construction and cohort validation folds.

Builds the macro-level feature family (inflation exposure, lagged strike
intensity, strike-weighted curriculum friction, and their interactions) from
a macro time series plus enrolment records, under a strict availability rule:
a feature enters a per-semester view only if its required history exists at
that prediction time.  Unavailable cells are structurally absent from the
emitted matrix, never null-filled.  Availability is monotone: entry-time
features remain usable at every later prediction time.

Time axes: monthly inflation uses an absolute month index; strike intensity
uses an absolute semester index; one semester spans six months.  Prediction
time ``t`` counts completed semesters since entry (0 = at entry).

Cost: every feature but the strike-weighted IFC index is a function of the
entry month, the entry semester and ``t`` alone, so ``build_feature_view``
evaluates those once per distinct entry date and only the IFC index per
student.  A view costs O(entry dates x features + takings), not
O(students x features).  Each feature still has one definition
(``_feature_value`` over the scalar helpers), so the values are the same bits
a per-student evaluation gives.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .curriculum import CurriculumGraph, Cycle
from .engine import TrajectoryLog
from .population import agent_id

MONTHS_PER_SEMESTER = 6
BASIC_CYCLE_SEMESTERS = 4
#: The one catalog feature that reads a student's takings; the others depend
#: only on the entry date and the prediction time.
IFC_FEATURE = "MACRO_IFC_pond_paros_basico"


class FeatureError(ValueError):
    """Insufficient history or malformed feature inputs."""


@dataclass(frozen=True)
class MacroSeries:
    """Monthly inflation plus per-semester strike intensity, gapless by construction."""

    monthly_inflation: tuple[float, ...]  # percent per month
    first_month: int  # absolute index of monthly_inflation[0]
    strike_intensity: tuple[float, ...]  # fraction of instructional days lost
    first_semester: int  # absolute index of strike_intensity[0]

    def __post_init__(self) -> None:
        for v in self.strike_intensity:
            if not 0.0 <= v <= 1.0:
                raise FeatureError(f"strike intensity {v} outside [0, 1]")

    def inflation_at(self, month: int) -> float:
        offset = month - self.first_month
        if not 0 <= offset < len(self.monthly_inflation):
            raise FeatureError(f"no inflation data for month {month}")
        return self.monthly_inflation[offset]

    def strike_at(self, semester: int) -> float:
        offset = semester - self.first_semester
        if not 0 <= offset < len(self.strike_intensity):
            raise FeatureError(f"no strike data for semester {semester}")
        return self.strike_intensity[offset]


def inflation_volatility_24m(series: MacroSeries, entry_month: int) -> float:
    """Sample standard deviation of the 24 monthly rates preceding entry.

    Requires the full 24-month window; missing history is an error rather
    than a silent truncation.
    """
    window = [series.inflation_at(m) for m in range(entry_month - 24, entry_month)]
    mean = sum(window) / 24
    return math.sqrt(sum((x - mean) ** 2 for x in window) / 23)


def annualised_inflation(series: MacroSeries, month: int) -> float:
    """Trailing-12-month compounded inflation rate (percent) at a month."""
    factor = 1.0
    for m in range(month - 12, month):
        factor *= 1.0 + series.inflation_at(m) / 100.0
    return (factor - 1.0) * 100.0


def cumulative_inflation(series: MacroSeries, start_month: int, n_months: int) -> float:
    """Compounded inflation (percent) over ``n_months`` from a start month."""
    factor = 1.0
    for m in range(start_month, start_month + n_months):
        factor *= 1.0 + series.inflation_at(m) / 100.0
    return (factor - 1.0) * 100.0


def strike_lag(series: MacroSeries, semester: int, lag: int) -> float:
    """Strike intensity of the ``lag``-th most recent semester observed by
    the end of ``semester`` (lag 1 = the semester just completed)."""
    if lag not in (1, 2, 3):
        raise FeatureError("lag must be 1, 2 or 3")
    return series.strike_at(semester - lag + 1)


def ifc_weighted_strike_index(takings: Iterable[tuple[str, int]], graph: CurriculumGraph,
                              series: MacroSeries) -> float:
    """Sum of basic-cycle course friction weighted by strike exposure.

    Each taking (course id, absolute semester) contributes ifc * intensity of
    the semester it was taken; repeated takings of one course contribute per
    taking.  Advanced-cycle courses are excluded.
    """
    total = 0.0
    for course_id, semester in takings:
        course = graph.course(course_id)
        if course.cycle is not Cycle.BASIC:
            continue
        if course.ifc is None:
            raise FeatureError(f"course {course_id!r} has no standardised IFC")
        total += course.ifc * series.strike_at(semester)
    return total


# ---------------------------------------------------------------------------
# Feature catalog and per-semester views
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FeatureSpec:
    name: str
    level: str  # N1..N4 in the multilevel taxonomy
    available_from: int  # earliest prediction time t (0 = at entry); monotone
    description: str


@dataclass(frozen=True)
class FeatureCatalog:
    features: tuple[FeatureSpec, ...]

    def __post_init__(self) -> None:
        names = [f.name for f in self.features]
        if len(names) != len(set(names)):
            raise FeatureError("duplicate feature names in catalog")
        for f in self.features:
            if f.available_from < 0:
                raise FeatureError(f"{f.name}: available_from must be >= 0")

    def available_at(self, t: int) -> tuple[FeatureSpec, ...]:
        return tuple(f for f in self.features if f.available_from <= t)

    def names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.features)


def default_feature_catalog() -> FeatureCatalog:
    """The eleven macro features with their availability rules.

    Only the two entry-time inflation measures exist at t = 0; strike lags
    appear once enough semesters have been observed; everything else needs at
    least one completed semester.  Entry-time features are read as staying
    available at all later prediction times (monotone availability), even
    though they are not newly observed after entry.
    """
    f = FeatureSpec
    return FeatureCatalog((
        f("MACRO_inflacion_entrada", "N4", 0,
          "annualised (trailing 12-month compounded) inflation rate at entry"),
        f("MACRO_inflacion_volatilidad_24m", "N4", 0,
          "sample SD of monthly inflation over the 24 months before entry"),
        f("MACRO_inflacion_acum_entrada", "N4", 1,
          "compounded inflation from entry through the last completed semester"),
        f("MACRO_inflacion_pct_cambio", "N4", 1,
          "relative change of the annualised inflation rate since entry"),
        f("MACRO_paros_lag_sem_1", "N4", 1, "strike intensity, most recent semester"),
        f("MACRO_paros_lag_sem_2", "N4", 2, "strike intensity, two semesters back"),
        f("MACRO_paros_lag_sem_3", "N4", 3, "strike intensity, three semesters back"),
        f("MACRO_paros_acum_ciclo", "N4", 1, "cumulative strike intensity since entry"),
        f("MACRO_paros_basico_vs_superior", "N4", 1,
          "mean strike intensity during the student's basic-cycle semesters minus "
          "the mean during advanced-cycle semesters observed so far"),
        f("MACRO_IFC_pond_paros_basico", "N4", 1,
          "basic-cycle course friction weighted by strike exposure when taken"),
        f("MACRO_inflacion_x_paros", "N4", 1,
          "entry inflation volatility times cumulative strike exposure"),
    ))


@dataclass(frozen=True)
class StudentRecord:
    """Enrolment record of one student on the absolute time axes."""

    student_id: str
    entry_month: int  # month the first semester starts
    entry_semester: int  # absolute semester index of the first semester
    cohort_year: int | None = None
    takings: tuple[tuple[str, int], ...] = ()  # (course id, absolute semester)


@dataclass(frozen=True)
class FeatureMatrix:
    """Student-by-feature values at one prediction time.

    Only features available at ``prediction_time`` appear as columns; the
    ``availability`` map records the full catalog mask for the sidecar.
    """

    prediction_time: int
    student_ids: tuple[str, ...]
    columns: tuple[str, ...]
    rows: tuple[tuple[float, ...], ...]
    availability: dict[str, bool]


def _feature_value(name: str, student: StudentRecord, t: int, series: MacroSeries,
                   graph: CurriculumGraph) -> float:
    entry_m = student.entry_month
    entry_s = student.entry_semester
    if name == "MACRO_inflacion_entrada":
        return annualised_inflation(series, entry_m)
    if name == "MACRO_inflacion_volatilidad_24m":
        return inflation_volatility_24m(series, entry_m)
    if name == "MACRO_inflacion_acum_entrada":
        return cumulative_inflation(series, entry_m, MONTHS_PER_SEMESTER * t)
    if name == "MACRO_inflacion_pct_cambio":
        at_entry = annualised_inflation(series, entry_m)
        now = annualised_inflation(series, entry_m + MONTHS_PER_SEMESTER * t)
        return (now - at_entry) / at_entry if at_entry != 0.0 else 0.0
    if name.startswith("MACRO_paros_lag_sem_"):
        lag = int(name.rsplit("_", 1)[1])
        return strike_lag(series, entry_s + t - 1, lag)
    if name == "MACRO_paros_acum_ciclo":
        return sum(series.strike_at(s) for s in range(entry_s, entry_s + t))
    if name == "MACRO_paros_basico_vs_superior":
        basic = [series.strike_at(s) for s in range(entry_s, entry_s + min(t, BASIC_CYCLE_SEMESTERS))]
        advanced = [series.strike_at(s) for s in range(entry_s + BASIC_CYCLE_SEMESTERS, entry_s + t)]
        basic_mean = sum(basic) / len(basic) if basic else 0.0
        advanced_mean = sum(advanced) / len(advanced) if advanced else 0.0
        return basic_mean - advanced_mean
    if name == IFC_FEATURE:
        horizon = entry_s + t
        observed = [(c, s) for c, s in student.takings if s < horizon]
        return ifc_weighted_strike_index(observed, graph, series)
    if name == "MACRO_inflacion_x_paros":
        vol = inflation_volatility_24m(series, entry_m)
        acum = sum(series.strike_at(s) for s in range(entry_s, entry_s + t))
        return vol * acum
    raise FeatureError(f"no computation defined for feature {name!r}")


def build_feature_view(catalog: FeatureCatalog, students: Sequence[StudentRecord],
                       prediction_time: int, series: MacroSeries,
                       graph: CurriculumGraph) -> FeatureMatrix:
    """Matrix of exactly the features whose availability admits this time.

    Cumulative features cover [entry, prediction_time); the leak guarantee is
    structural: a feature whose rule requires later data has no column.
    """
    if prediction_time < 0:
        raise FeatureError("prediction_time must be >= 0")
    available = catalog.available_at(prediction_time)
    columns = tuple(f.name for f in available)
    # Every column but the IFC index depends only on the entry date, so that
    # part of the row is computed once per (entry month, entry semester).
    entry_columns = tuple(name for name in columns if name != IFC_FEATURE)
    ifc_at = columns.index(IFC_FEATURE) if IFC_FEATURE in columns else None
    by_entry: dict[tuple[int, int], tuple[float, ...]] = {}
    rows = []
    try:
        for student in students:
            key = (student.entry_month, student.entry_semester)
            shared = by_entry.get(key)
            if shared is None:
                shared = by_entry[key] = tuple(
                    _feature_value(name, student, prediction_time, series, graph)
                    for name in entry_columns)
            if ifc_at is None:
                rows.append(shared)
            else:
                ifc = _feature_value(IFC_FEATURE, student, prediction_time, series, graph)
                rows.append(shared[:ifc_at] + (ifc,) + shared[ifc_at:])
    except FeatureError as exc:
        raise FeatureError(f"prediction time {prediction_time}, "
                           f"student {student.student_id!r}: {exc}") from None
    return FeatureMatrix(
        prediction_time=prediction_time,
        student_ids=tuple(s.student_id for s in students),
        columns=columns,
        rows=tuple(rows),
        availability={f.name: f.available_from <= prediction_time for f in catalog.features},
    )


def check_history(catalog: FeatureCatalog, students: Sequence[StudentRecord],
                  times: Iterable[int], series: MacroSeries, graph: CurriculumGraph) -> None:
    """Raise the ``FeatureError`` that ``build_feature_view`` would raise at
    any of ``times``, without building the views.

    A caller that writes one view at a time checks first, so that missing
    history fails before anything is written.  The entry-date features are
    evaluated once per distinct entry date and time.  The IFC index reads
    strike data only for observed takings, so it is evaluated only for
    students with a taking in a semester the strike series lacks.
    """
    times = sorted(times)
    firsts: dict[tuple[int, int], StudentRecord] = {}
    for student in students:
        firsts.setdefault((student.entry_month, student.entry_semester), student)
    entry_dates = [replace(student, takings=()) for student in firsts.values()]
    for t in times:
        build_feature_view(catalog, entry_dates, t, series, graph)
    ifc_times = [t for t in times
                 if any(f.name == IFC_FEATURE for f in catalog.available_at(t))]
    known = range(series.first_semester, series.first_semester + len(series.strike_intensity))
    gaps = {semester for student in students for _, semester in student.takings}.difference(known)
    if not ifc_times or not gaps:
        return
    for student in students:
        horizon = student.entry_semester + ifc_times[-1]
        for _, semester in student.takings:
            if semester in gaps and semester < horizon:
                first = next(t for t in ifc_times if semester < student.entry_semester + t)
                build_feature_view(catalog, (student,), first, series, graph)


# ---------------------------------------------------------------------------
# Cohort-based cross-validation folds
# ---------------------------------------------------------------------------

FOLD_YEAR_RANGE = tuple(range(2004, 2020))

_FOLD_LAYOUT = (
    (range(2004, 2011), (2011, 2012)),
    (range(2004, 2013), (2013, 2014)),
    (range(2004, 2015), (2015, 2016)),
    (range(2004, 2017), (2017, 2018)),
    (range(2004, 2019), (2019,)),
)


@dataclass(frozen=True)
class CohortFold:
    index: int
    train_years: tuple[int, ...]
    test_years: tuple[int, ...]


def make_cohort_folds(cohort_years: Iterable[int]) -> tuple[CohortFold, ...]:
    """The five expanding-window folds over entry cohorts 2004-2019.

    Every test cohort postdates every training cohort in its fold.  The full
    2004-2019 range must be present, with no years outside it.
    """
    years = set(int(y) for y in cohort_years)
    missing = sorted(set(FOLD_YEAR_RANGE) - years)
    extra = sorted(years - set(FOLD_YEAR_RANGE))
    if missing:
        raise FeatureError(f"cohort years missing from 2004-2019 range: {missing}")
    if extra:
        raise FeatureError(f"cohort years outside the 2004-2019 fold design: {extra}")
    return tuple(
        CohortFold(index=i + 1, train_years=tuple(train), test_years=tuple(test))
        for i, (train, test) in enumerate(_FOLD_LAYOUT)
    )


# ---------------------------------------------------------------------------
# Adapters and CSV interfaces
# ---------------------------------------------------------------------------

def student_records_from_log(log: TrajectoryLog, entry_month: int, entry_semester: int,
                             cohort_year: int | None = None) -> list[StudentRecord]:
    """Derive enrolment records from a recorded trajectory log.

    Simulation semester s maps to absolute semester ``entry_semester + s - 1``;
    every attempted course becomes one taking.
    """
    if not log.semesters:
        raise FeatureError("trajectory log has no per-semester rows; rerun with recording on")
    takings: dict[str, list[tuple[str, int]]] = {}
    for rows in log.semesters:
        for agent, semester, _status, _gpa, _rho, attempted, _failed in rows:
            absolute = entry_semester + semester - 1
            takings.setdefault(agent, []).extend((cid, absolute) for cid in attempted)
    return [
        StudentRecord(student_id=agent, entry_month=entry_month,
                      entry_semester=entry_semester, cohort_year=cohort_year,
                      takings=tuple(takings.get(agent, ())))
        for agent in map(agent_id, range(log.n_agents))
    ]


def load_macro_series(inflation_csv: str | Path, strikes_csv: str | Path) -> MacroSeries:
    """Read (month, inflation) and (semester, strike_intensity) CSV files.

    Indices must be contiguous integers in ascending order.
    """
    def read(path: Path, key: str, value: str) -> tuple[int, list[float]]:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or key not in reader.fieldnames or value not in reader.fieldnames:
                raise FeatureError(f"{path}: expected columns ({key}, {value})")
            pairs = []
            for line, row in enumerate(reader, start=2):
                try:
                    pairs.append((int(row[key]), float(row[value])))
                except (TypeError, ValueError):
                    raise FeatureError(f"{path}:{line}: malformed row") from None
        if not pairs:
            raise FeatureError(f"{path}: no data rows")
        indices = [i for i, _ in pairs]
        if indices != list(range(indices[0], indices[0] + len(indices))):
            raise FeatureError(f"{path}: {key} indices must be contiguous and ascending")
        return indices[0], [v for _, v in pairs]

    first_month, inflation = read(Path(inflation_csv), "month", "inflation")
    first_semester, strikes = read(Path(strikes_csv), "semester", "strike_intensity")
    return MacroSeries(monthly_inflation=tuple(inflation), first_month=first_month,
                       strike_intensity=tuple(strikes), first_semester=first_semester)


def _column_indices(path: str | Path, reader, required: Sequence[str]) -> dict[str, int]:
    """Column name -> index from a CSV header that must hold ``required``."""
    header = next(reader, None)
    if header is None or not set(required) <= set(header):
        raise FeatureError(f"{path}: expected columns {sorted(required)}")
    return {name: i for i, name in enumerate(header)}


def load_student_records(students_csv: str | Path,
                         takings_csv: str | Path | None = None) -> list[StudentRecord]:
    """Read student records, optionally joined with per-taking rows.

    ``students_csv`` columns: student_id, entry_month, entry_semester
    [, cohort_year]; ``takings_csv`` columns: student_id, course_id, semester.
    Student ids must be unique, and every taking must name a listed student.
    """
    entries: dict[str, tuple[int, int, int | None]] = {}
    with open(students_csv, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        col = _column_indices(students_csv, reader,
                              ("student_id", "entry_month", "entry_semester"))
        id_at, month_at, semester_at = col["student_id"], col["entry_month"], col["entry_semester"]
        year_at = col.get("cohort_year")
        for row in reader:
            if not row:
                continue
            try:
                student_id = row[id_at]
                year = row[year_at] if year_at is not None and year_at < len(row) else ""
                entry = (int(row[month_at]), int(row[semester_at]), int(year) if year else None)
            except (IndexError, ValueError):
                raise FeatureError(f"{students_csv}:{reader.line_num}: malformed row") from None
            if student_id in entries:
                raise FeatureError(f"{students_csv}:{reader.line_num}: "
                                   f"duplicate student_id {student_id!r}")
            entries[student_id] = entry
    takings: dict[str, list[tuple[str, int]]] = {student_id: [] for student_id in entries}
    if takings_csv is not None:
        with open(takings_csv, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            col = _column_indices(takings_csv, reader, ("student_id", "course_id", "semester"))
            id_at, course_at, semester_at = col["student_id"], col["course_id"], col["semester"]
            for row in reader:
                if not row:
                    continue
                try:
                    student_id, taking = row[id_at], (row[course_at], int(row[semester_at]))
                except (IndexError, ValueError):
                    raise FeatureError(f"{takings_csv}:{reader.line_num}: malformed row") from None
                try:
                    takings[student_id].append(taking)
                except KeyError:
                    raise FeatureError(f"{takings_csv}:{reader.line_num}: student_id "
                                       f"{student_id!r} is not in {students_csv}") from None
    return [
        StudentRecord(student_id=student_id, entry_month=month, entry_semester=semester,
                      cohort_year=year, takings=tuple(takings[student_id]))
        for student_id, (month, semester, year) in entries.items()
    ]


def feature_matrix_csv_rows(matrix: FeatureMatrix) -> tuple[tuple[str, ...], list[tuple]]:
    header = ("student_id",) + matrix.columns
    rows = [(sid,) + row for sid, row in zip(matrix.student_ids, matrix.rows)]
    return header, rows


MASK_CSV_HEADER = ("feature", "level", "available_from", "available")


def availability_mask_rows(catalog: FeatureCatalog, matrix: FeatureMatrix) -> list[tuple]:
    return [
        (f.name, f.level, f.available_from, matrix.availability[f.name])
        for f in catalog.features
    ]

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
O(students x features).  The IFC index is one loop (``_ifc_index``, also
behind ``ifc_weighted_strike_index``) that reads each course's IFC from a map
of the basic-cycle courses built once per view, so a view makes no
per-taking course lookup.  ``feature_matrix_csv_rows`` splits the text the
same way: the entry-date cells are formatted once per entry date, the IFC
cell per student, and rows are yielded lazily to the CSV writer.  Each
feature has one definition (``_entry_feature_value`` over the scalar helpers,
and ``_ifc_index``), so the values are the same bits a per-student
evaluation gives.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

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


def _strike_intensity_problem(value: float) -> str | None:
    """Why ``value`` cannot be a strike intensity, or ``None`` if it can."""
    return None if 0.0 <= value <= 1.0 else f"strike intensity {value} outside [0, 1]"


@dataclass(frozen=True)
class MacroSeries:
    """Monthly inflation plus per-semester strike intensity, gapless by construction."""

    monthly_inflation: tuple[float, ...]  # percent per month
    first_month: int  # absolute index of monthly_inflation[0]
    strike_intensity: tuple[float, ...]  # fraction of instructional days lost
    first_semester: int  # absolute index of strike_intensity[0]

    def __post_init__(self) -> None:
        for v in self.strike_intensity:
            message = _strike_intensity_problem(v)
            if message:
                raise FeatureError(message)

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
    return _ifc_index(takings, math.inf, _basic_friction(graph), graph, series)


def _basic_friction(graph: CurriculumGraph) -> dict[str, float | None]:
    """Course id -> standardised IFC (``None`` if unset) of every basic-cycle course."""
    return {course.id: course.ifc for course in graph.by_cycle(Cycle.BASIC)}


def _ifc_index(takings: Iterable[tuple[str, int]], horizon: float,
               friction: Mapping[str, float | None], graph: CurriculumGraph,
               series: MacroSeries) -> float:
    """The IFC index over the takings before semester ``horizon``, in input order.

    ``friction`` is ``_basic_friction(graph)``, built once by the caller.  An
    unknown course, a basic course without IFC and a taken semester without
    strike data raise the errors ``graph.course``, this module and
    ``series.strike_at`` raise.
    """
    strikes = series.strike_intensity
    first, n_semesters = series.first_semester, len(series.strike_intensity)
    total = 0.0
    for course_id, semester in takings:
        if semester >= horizon:
            continue
        if course_id not in friction:
            if course_id not in graph:
                graph.course(course_id)  # raises the unknown-course CurriculumError
            continue
        ifc = friction[course_id]
        if ifc is None:
            raise FeatureError(f"course {course_id!r} has no standardised IFC")
        offset = semester - first
        if not 0 <= offset < n_semesters:
            series.strike_at(semester)  # raises the missing-semester FeatureError
        total += ifc * strikes[offset]
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


def _entry_feature_value(name: str, student: StudentRecord, t: int,
                         series: MacroSeries) -> float:
    """One entry-date feature: a function of the entry month, the entry
    semester and ``t`` alone (every catalog feature but the IFC index)."""
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
    friction = _basic_friction(graph)
    by_entry: dict[tuple[int, int], tuple[float, ...]] = {}
    rows = []
    try:
        for student in students:
            key = (student.entry_month, student.entry_semester)
            shared = by_entry.get(key)
            if shared is None:
                shared = by_entry[key] = tuple(
                    _entry_feature_value(name, student, prediction_time, series)
                    for name in entry_columns)
            if ifc_at is None:
                rows.append(shared)
            else:
                ifc = _ifc_index(student.takings, student.entry_semester + prediction_time,
                                 friction, graph, series)
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

    Indices must be contiguous integers in ascending order.  Inflation rates
    must be finite and strike intensities within [0, 1]; a bad value is
    reported with its file and line.
    """
    def read(path: Path, key: str, value: str,
             problem: Callable[[float], str | None]) -> tuple[int, list[float]]:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or key not in reader.fieldnames or value not in reader.fieldnames:
                raise FeatureError(f"{path}: expected columns ({key}, {value})")
            pairs = []
            for line, row in enumerate(reader, start=2):
                try:
                    index, number = int(row[key]), float(row[value])
                except (TypeError, ValueError):
                    raise FeatureError(f"{path}:{line}: malformed row") from None
                message = problem(number)
                if message:
                    raise FeatureError(f"{path}:{line}: {message}")
                pairs.append((index, number))
        if not pairs:
            raise FeatureError(f"{path}: no data rows")
        indices = [i for i, _ in pairs]
        if indices != list(range(indices[0], indices[0] + len(indices))):
            raise FeatureError(f"{path}: {key} indices must be contiguous and ascending")
        return indices[0], [v for _, v in pairs]

    first_month, inflation = read(
        Path(inflation_csv), "month", "inflation",
        lambda v: None if math.isfinite(v) else f"inflation {v} is not a finite number")
    first_semester, strikes = read(Path(strikes_csv), "semester", "strike_intensity",
                                   _strike_intensity_problem)
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
            # One string object per distinct course id, not one per taking.
            course_ids: dict[str, str] = {}
            for row in reader:
                if not row:
                    continue
                try:
                    student_id, course_id = row[id_at], row[course_at]
                    semester = int(row[semester_at])
                except (IndexError, ValueError):
                    raise FeatureError(f"{takings_csv}:{reader.line_num}: malformed row") from None
                taking = (course_ids.setdefault(course_id, course_id), semester)
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


def feature_matrix_csv_rows(matrix: FeatureMatrix, students: Sequence[StudentRecord],
                            ) -> tuple[tuple[str, ...], Iterator[tuple[str, ...]]]:
    """Header and lazily formatted rows of a view built from ``students``.

    The cells are ``repr`` of the values, the text ``csv.writer`` gives a
    float.  The entry-date cells of a row are formatted once per (entry
    month, entry semester), which holds because ``build_feature_view`` gives
    them the same values for every student of one entry date; only the IFC
    cell is formatted per student.
    """
    if matrix.student_ids != tuple(s.student_id for s in students):
        raise FeatureError(f"prediction time {matrix.prediction_time}: the students "
                           "are not the ones the matrix was built from")
    header = ("student_id",) + matrix.columns
    ifc_at = matrix.columns.index(IFC_FEATURE) if IFC_FEATURE in matrix.columns else None

    def rows() -> Iterator[tuple[str, ...]]:
        texts: dict[tuple[int, int], tuple[tuple[str, ...], tuple[str, ...]]] = {}
        for student, row in zip(students, matrix.rows):
            key = (student.entry_month, student.entry_semester)
            text = texts.get(key)
            if text is None:
                cells = tuple(map(repr, row))
                text = texts[key] = ((cells, ()) if ifc_at is None
                                     else (cells[:ifc_at], cells[ifc_at + 1:]))
            head, tail = text
            if ifc_at is None:
                yield (student.student_id,) + head
            else:
                yield (student.student_id,) + head + (repr(row[ifc_at]),) + tail

    return header, rows()


MASK_CSV_HEADER = ("feature", "level", "available_from", "available")


def availability_mask_rows(catalog: FeatureCatalog, matrix: FeatureMatrix) -> list[tuple]:
    return [
        (f.name, f.level, f.available_from, matrix.availability[f.name])
        for f in catalog.features
    ]

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
entry month, the entry semester and ``t`` alone, so ``build_feature_views``
evaluates those once per distinct entry date and time.  The IFC index is one
scan of each student's takings in input order (``_ifc_totals``) for all
requested times at once: a basic-cycle taking's ``ifc * intensity`` is
computed once and added to the total of every time whose horizon is past the
taking's semester, so each time's total is the same left fold a one-time
scan gives.  The scan reads each course from a map built once per call, so
it looks up each taking's course once, not once per view.  A view holds its
entry-date values per entry date and its IFC column as an ``array``, never
one tuple per row.  ``feature_matrix_csv_chunks`` writes the text from
parts formatted once: the id cell per student (``csv_id_cells``, shared by
every view of a call), the entry-date cells per entry date, and only the IFC
cell per row, in chunks of a bounded number of lines.  Each feature has one
definition (``_entry_feature_value`` over the scalar helpers, and
``_ifc_totals``), so the values are the same bits a per-student evaluation
gives.
"""

from __future__ import annotations

import csv
import io
import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .curriculum import BASIC_CYCLE_LAST_SEMESTER, CurriculumGraph, Cycle
from .engine import TrajectoryLog
from .population import agent_id

MONTHS_PER_SEMESTER = 6
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
    return cumulative_inflation(series, month - 12, 12)


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
    return _ifc_totals(takings, (math.inf,), _course_friction(graph), graph, series)[0]


def _course_friction(graph: CurriculumGraph) -> dict[str, float | None]:
    """Course id -> standardised IFC of every basic-cycle course that has one,
    and ``None`` for every advanced-cycle course, which the index skips.  A
    basic course without IFC is left out, so reading it fails."""
    return {course.id: course.ifc if course.cycle is Cycle.BASIC else None
            for course in graph.courses
            if course.cycle is not Cycle.BASIC or course.ifc is not None}


def _ifc_totals(takings: Iterable[tuple[str, int]], horizons: Sequence[float],
                friction: Mapping[str, float | None], graph: CurriculumGraph,
                series: MacroSeries) -> list[float]:
    """The IFC index over the takings before each of the ascending ``horizons``.

    One pass in input order: a basic-cycle taking's ``ifc * intensity`` is
    computed once and added to the total of every horizon past its semester,
    so each total is the left fold from 0.0 of its own takings' products.  A
    zero product is not added: a total starts at +0.0 and can never become
    -0.0, so adding +0.0 or -0.0 would leave it unchanged.

    ``friction`` is ``_course_friction(graph)``, built once by the caller.
    The first taking before the last horizon that cannot be read raises: an
    unknown course (``graph.course``'s ``CurriculumError``), a basic course
    without IFC, or a semester without strike data (``series.strike_at``'s
    ``FeatureError``).
    """
    strikes = series.strike_intensity
    first, n_semesters = series.first_semester, len(strikes)
    last, count = horizons[-1], len(horizons)
    totals = [0.0] * count
    for course_id, semester in takings:
        if semester >= last:
            continue
        try:
            ifc = friction[course_id]
        except KeyError:
            graph.course(course_id)  # raises the unknown-course CurriculumError
            # a known course left out of the map is a basic course without IFC
            raise FeatureError(f"course {course_id!r} has no standardised IFC") from None
        if ifc is None:
            continue
        offset = semester - first
        if not 0 <= offset < n_semesters:
            series.strike_at(semester)  # raises the missing-semester FeatureError
        product = ifc * strikes[offset]
        if product:
            for j in range(bisect_right(horizons, semester), count):
                totals[j] += product
    return totals


def _ifc_columns(students: Sequence[StudentRecord], times: Sequence[int],
                 graph: CurriculumGraph, series: MacroSeries) -> list[array]:
    """The IFC column at each of the ascending ``times``, one scan per student.

    An error names the student and the earliest time whose view fails.
    """
    friction = _course_friction(graph)
    columns = [array("d") for _ in times]
    for student in students:
        horizons = [student.entry_semester + t for t in times]
        try:
            totals = _ifc_totals(student.takings, horizons, friction, graph, series)
        except FeatureError:
            # The last horizon's view fails; the first one-time view that
            # fails names the error.
            for t, horizon in zip(times, horizons):
                try:
                    _ifc_totals(student.takings, (horizon,), friction, graph, series)
                except FeatureError as exc:
                    raise FeatureError(f"prediction time {t}, "
                                       f"student {student.student_id!r}: {exc}") from None
            raise
        for column, total in zip(columns, totals):
            column.append(total)
    return columns


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
    Every column but the IFC index is a function of the entry date, so the
    values are held per entry date: ``entry_values[k]`` are entry date
    ``k``'s values in column order without the IFC column, and student ``i``
    has entry date ``entry_of[i]``.  ``ifc`` is the IFC column, or ``None``
    when the index is not available.  ``rows`` expands them per student.
    """

    prediction_time: int
    student_ids: tuple[str, ...]
    columns: tuple[str, ...]
    availability: dict[str, bool]
    entry_of: Sequence[int]
    entry_values: tuple[tuple[float, ...], ...]
    ifc: Sequence[float] | None

    @property
    def rows(self) -> tuple[tuple[float, ...], ...]:
        if self.ifc is None:
            return tuple(self.entry_values[k] for k in self.entry_of)
        at = self.columns.index(IFC_FEATURE)
        return tuple(self.entry_values[k][:at] + (value,) + self.entry_values[k][at:]
                     for k, value in zip(self.entry_of, self.ifc))


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
        advanced_s = entry_s + BASIC_CYCLE_LAST_SEMESTER  # the advanced cycle's first semester
        basic = [series.strike_at(s) for s in range(entry_s, min(entry_s + t, advanced_s))]
        advanced = [series.strike_at(s) for s in range(advanced_s, entry_s + t)]
        basic_mean = sum(basic) / len(basic) if basic else 0.0
        advanced_mean = sum(advanced) / len(advanced) if advanced else 0.0
        return basic_mean - advanced_mean
    if name == "MACRO_inflacion_x_paros":
        vol = inflation_volatility_24m(series, entry_m)
        acum = sum(series.strike_at(s) for s in range(entry_s, entry_s + t))
        return vol * acum
    raise FeatureError(f"no computation defined for feature {name!r}")


def build_feature_views(catalog: FeatureCatalog, students: Sequence[StudentRecord],
                        times: Iterable[int], series: MacroSeries,
                        graph: CurriculumGraph) -> list[FeatureMatrix]:
    """The view at each of ``times``, in that order, from one scan of the takings.

    Each view holds exactly the features whose availability admits its time.
    Cumulative features cover [entry, prediction time); the leak guarantee is
    structural: a feature whose rule requires later data has no column.

    Every error is raised before any view is returned, naming the time and
    the student: first a missing history of the entry-date features (the
    earliest failing time, then the first failing entry date in student
    order), then a taking the IFC index cannot read (the first failing
    student, at the earliest time whose view fails).
    """
    times = list(times)
    if any(t < 0 for t in times):
        raise FeatureError("prediction_time must be >= 0")
    dates: dict[tuple[int, int], int] = {}
    firsts: list[StudentRecord] = []  # the first student of each entry date
    entry_of = array("i")
    for student in students:
        k = dates.setdefault((student.entry_month, student.entry_semester), len(firsts))
        if k == len(firsts):
            firsts.append(student)
        entry_of.append(k)
    distinct = sorted(set(times))
    entry_values: dict[int, tuple[tuple[float, ...], ...]] = {}
    for t in distinct:
        names = [f.name for f in catalog.available_at(t) if f.name != IFC_FEATURE]
        values = []
        for student in firsts:
            try:
                values.append(tuple(_entry_feature_value(name, student, t, series)
                                    for name in names))
            except FeatureError as exc:
                raise FeatureError(f"prediction time {t}, student {student.student_id!r}: "
                                   f"{exc}") from None
        entry_values[t] = tuple(values)
    ifc_times = [t for t in distinct
                 if any(f.name == IFC_FEATURE for f in catalog.available_at(t))]
    ifc = {}
    if ifc_times:
        ifc = dict(zip(ifc_times, _ifc_columns(students, ifc_times, graph, series)))
    student_ids = tuple(s.student_id for s in students)
    return [
        FeatureMatrix(
            prediction_time=t,
            student_ids=student_ids,
            columns=tuple(f.name for f in catalog.available_at(t)),
            availability={f.name: f.available_from <= t for f in catalog.features},
            entry_of=entry_of,
            entry_values=entry_values[t],
            ifc=ifc.get(t),
        )
        for t in times
    ]


def build_feature_view(catalog: FeatureCatalog, students: Sequence[StudentRecord],
                       prediction_time: int, series: MacroSeries,
                       graph: CurriculumGraph) -> FeatureMatrix:
    """The view at one prediction time (``build_feature_views``' one-time case)."""
    return build_feature_views(catalog, students, (prediction_time,), series, graph)[0]


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
    record = log.semesters
    if record is None:
        raise FeatureError("trajectory log has no per-semester rows; rerun with recording on")
    takings: list[list[tuple[str, int]]] = [[] for _ in range(log.n_agents)]
    semesters = (entry_semester - 1 + record.semester).tolist()
    for agent, when, slots in zip(record.agent.tolist(), semesters, record.slots.tolist()):
        takings[agent].extend((record.course_ids[c], when) for c in slots if c >= 0)
    return [
        StudentRecord(student_id=agent_id(agent), entry_month=entry_month,
                      entry_semester=entry_semester, cohort_year=cohort_year,
                      takings=tuple(taken))
        for agent, taken in enumerate(takings)
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


#: Lines per chunk of ``feature_matrix_csv_chunks``; bounds the text held at once.
CSV_CHUNK_ROWS = 4096


def _csv_line(fields: Sequence) -> str:
    """One line as ``csv.writer`` writes it."""
    buf = io.StringIO()
    csv.writer(buf).writerow(fields)
    return buf.getvalue()


def csv_id_cells(student_ids: Iterable[str]) -> dict[str, str]:
    """Student id -> its cell as ``csv.writer`` writes it inside a row.

    A view's id cells do not depend on the view, so a caller writing several
    views of one student set formats them once.
    """
    # An alphanumeric id is never quoted; any other id is written by csv.writer
    # beside an empty field, which it writes as nothing after the comma.
    return {sid: sid if sid.isalnum() else _csv_line((sid, ""))[:-3] for sid in student_ids}


def feature_matrix_csv_chunks(matrix: FeatureMatrix,
                              id_cells: Mapping[str, str] | None = None) -> Iterator[str]:
    """The CSV text of a view: the header line, then the rows in chunks of
    at most ``CSV_CHUNK_ROWS`` lines.

    The text is the bytes ``csv.writer`` writes for the header and the float
    rows, assembled from parts formatted once: a value's cell is its
    ``repr``, the entry-date cells are formatted once per entry date, the id
    cell once per student (``id_cells``, from ``csv_id_cells``; built here
    when not given) and only the IFC cell per row.
    """
    cells = csv_id_cells(matrix.student_ids) if id_cells is None else id_cells
    yield _csv_line(("student_id",) + matrix.columns)
    ids, entry_of = matrix.student_ids, matrix.entry_of
    try:
        if not matrix.columns:  # csv.writer quotes a lone empty field
            lines = ((cells[sid] or '""') + "\r\n" for sid in ids)
        elif matrix.ifc is None:
            rests = ["".join(f",{v!r}" for v in values) + "\r\n"
                     for values in matrix.entry_values]
            lines = (cells[sid] + rests[k] for sid, k in zip(ids, entry_of))
        else:
            at = matrix.columns.index(IFC_FEATURE)
            heads = ["".join(f",{v!r}" for v in values[:at]) + ","
                     for values in matrix.entry_values]
            tails = ["".join(f",{v!r}" for v in values[at:]) + "\r\n"
                     for values in matrix.entry_values]
            lines = (f"{cells[sid]}{heads[k]}{value!r}{tails[k]}"
                     for sid, k, value in zip(ids, entry_of, matrix.ifc))
        while chunk := "".join(islice(lines, CSV_CHUNK_ROWS)):
            yield chunk
    except KeyError as exc:
        raise FeatureError(f"prediction time {matrix.prediction_time}: "
                           f"no id cell for student {exc.args[0]!r}") from None


MASK_CSV_HEADER = ("feature", "level", "available_from", "available")


def availability_mask_rows(catalog: FeatureCatalog, matrix: FeatureMatrix) -> list[tuple]:
    return [
        (f.name, f.level, f.available_from, matrix.availability[f.name])
        for f in catalog.features
    ]

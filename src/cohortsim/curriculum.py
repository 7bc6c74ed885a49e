"""Prerequisite curriculum graph and per-course instructional friction.

The curriculum is a DAG of courses split into a foundational cycle
(semesters 1-4) and an advanced cycle (semesters 5-12).  Each course carries
historical failure and retake statistics from which an instructional friction
coefficient (IFC) is computed: a weighted blend of failure rate, normalised
prerequisite in-degree and retake rate, standardised within each cycle so that
values lie in [0, 1] with mean 0.5.

Graphs are immutable after construction and safe to share across parallel
simulation workers.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping, Sequence


class Cycle(str, Enum):
    BASIC = "basic"
    ADVANCED = "advanced"


class CurriculumError(ValueError):
    """Invalid curriculum data (unknown course, malformed document, ...)."""


@dataclass(frozen=True)
class Course:
    """One course in the curriculum with its friction statistics.

    ``ifc_raw`` is the unstandardised weighted blend; ``ifc`` is the
    within-cycle standardised value.  Both are ``None`` until computed.
    """

    id: str
    name: str
    cycle: Cycle
    scheduled_semester: int
    prerequisites: frozenset[str] = frozenset()
    base_fail_rate: float = 0.0
    retake_rate: float = 0.0
    ifc_raw: float | None = None
    ifc: float | None = None

    def __post_init__(self) -> None:
        if not self.id:
            raise CurriculumError("course id must be non-empty")
        if not 0.0 <= self.base_fail_rate <= 1.0:
            raise CurriculumError(f"course {self.id}: base_fail_rate must be in [0, 1]")
        if not 0.0 <= self.retake_rate <= 1.0:
            raise CurriculumError(f"course {self.id}: retake_rate must be in [0, 1]")
        if not 1 <= self.scheduled_semester <= 12:
            raise CurriculumError(f"course {self.id}: scheduled_semester must be in 1..12")


@dataclass(frozen=True)
class IFCWeights:
    """Blend weights for the friction coefficient; must sum to 1."""

    w1: float = 0.5  # instructional difficulty (failure rate)
    w2: float = 0.3  # structural dependency (normalised in-degree)
    w3: float = 0.2  # repeat behaviour (retake rate)

    def __post_init__(self) -> None:
        if min(self.w1, self.w2, self.w3) < 0.0:
            raise CurriculumError("IFC weights must be non-negative")
        if abs(self.w1 + self.w2 + self.w3 - 1.0) > 1e-9:
            raise CurriculumError("IFC weights must sum to 1")


@dataclass(frozen=True)
class GraphViolation:
    """One violated graph invariant; violations are data, not exceptions."""

    kind: str  # "cycle" | "dangling-prerequisite" | "semester-order" | "cycle-semester"
    course_id: str
    detail: str


class CurriculumGraph:
    """Immutable course collection with prerequisite edges.

    ``max_in_degree`` is the largest direct prerequisite count observed in the
    whole graph (at least 1 so the in-degree normalisation is well defined).
    ``ifc_weights`` are the friction blend weights the graph came with; they
    travel with it into its JSON form.  Two graphs are equal when their
    ordered courses and weights are.
    """

    def __init__(self, courses: Iterable[Course], ifc_weights: IFCWeights = IFCWeights()):
        ordered = sorted(courses, key=lambda c: (c.scheduled_semester, c.id))
        self._by_id: dict[str, Course] = {}
        for course in ordered:
            if course.id in self._by_id:
                raise CurriculumError(f"duplicate course id {course.id!r}")
            self._by_id[course.id] = course
        self.courses: tuple[Course, ...] = tuple(ordered)
        self.max_in_degree: int = max([len(c.prerequisites) for c in ordered] or [0]) or 1
        self.ifc_weights = ifc_weights

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CurriculumGraph):
            return NotImplemented
        return (self.courses, self.ifc_weights) == (other.courses, other.ifc_weights)

    def __hash__(self) -> int:
        return hash((self.courses, self.ifc_weights))

    def __len__(self) -> int:
        return len(self.courses)

    def __contains__(self, course_id: str) -> bool:
        return course_id in self._by_id

    def course(self, course_id: str) -> Course:
        try:
            return self._by_id[course_id]
        except KeyError:
            raise CurriculumError(f"unknown course {course_id!r}") from None

    def by_cycle(self, cycle: Cycle) -> tuple[Course, ...]:
        return tuple(c for c in self.courses if c.cycle == cycle)

    def replace_courses(self, updated: Iterable[Course]) -> "CurriculumGraph":
        return CurriculumGraph(updated, self.ifc_weights)


def topological_order(graph: CurriculumGraph) -> list[str]:
    """Kahn's algorithm; raises if the prerequisite relation has a cycle."""
    pending = {c.id: set(c.prerequisites) for c in graph.courses}
    dependents: dict[str, list[str]] = {c.id: [] for c in graph.courses}
    for course in graph.courses:
        for pre in course.prerequisites:
            if pre in dependents:
                dependents[pre].append(course.id)
    ready = sorted(cid for cid, pre in pending.items() if not pre)
    order: list[str] = []
    while ready:
        cid = ready.pop(0)
        order.append(cid)
        for dep in dependents[cid]:
            pending[dep].discard(cid)
            if not pending[dep] and dep not in order and dep not in ready:
                ready.append(dep)
        ready.sort()
    if len(order) != len(graph):
        raise CurriculumError("prerequisite relation contains a cycle")
    return order


def validate_graph(graph: CurriculumGraph) -> list[GraphViolation]:
    """Collect every violated graph invariant; an empty list means ok.

    Checks: dangling prerequisite ids, prerequisite cycles, semester ordering
    (a course must be scheduled strictly after each prerequisite) and
    cycle/semester consistency (basic <= 4, advanced >= 5).
    """
    violations: list[GraphViolation] = []
    for course in graph.courses:
        for pre in sorted(course.prerequisites):
            if pre not in graph:
                violations.append(GraphViolation(
                    "dangling-prerequisite", course.id,
                    f"prerequisite {pre!r} does not exist"))
            else:
                pre_course = graph.course(pre)
                if pre_course.scheduled_semester >= course.scheduled_semester:
                    violations.append(GraphViolation(
                        "semester-order", course.id,
                        f"scheduled semester {course.scheduled_semester} is not after "
                        f"prerequisite {pre!r} (semester {pre_course.scheduled_semester})"))
        if course.cycle == Cycle.BASIC and course.scheduled_semester > 4:
            violations.append(GraphViolation(
                "cycle-semester", course.id,
                f"basic-cycle course scheduled in semester {course.scheduled_semester} > 4"))
        if course.cycle == Cycle.ADVANCED and course.scheduled_semester < 5:
            violations.append(GraphViolation(
                "cycle-semester", course.id,
                f"advanced-cycle course scheduled in semester {course.scheduled_semester} < 5"))
    try:
        only_known = [replace(c, prerequisites=frozenset(p for p in c.prerequisites if p in graph))
                      for c in graph.courses]
        topological_order(CurriculumGraph(only_known))
    except CurriculumError:
        violations.append(GraphViolation("cycle", "*", "prerequisite relation contains a cycle"))
    return violations


def compute_ifc_raw(course: Course, graph: CurriculumGraph) -> float:
    """Blend of failure rate, normalised in-degree and retake rate, by ``graph.ifc_weights``.

    The in-degree is normalised by the graph-wide maximum, so the result lies
    in [0, 1].
    """
    if course.id not in graph:
        raise CurriculumError(f"course {course.id!r} is not part of the graph")
    weights = graph.ifc_weights
    complexity = len(course.prerequisites) / graph.max_in_degree
    return weights.w1 * course.base_fail_rate + weights.w2 * complexity + weights.w3 * course.retake_rate


def with_raw_ifc(graph: CurriculumGraph) -> CurriculumGraph:
    """Return a copy of the graph with ``ifc_raw`` computed for every course."""
    return graph.replace_courses(
        replace(c, ifc_raw=compute_ifc_raw(c, graph)) for c in graph.courses
    )


def standardise_ifc_within_cycle(graph: CurriculumGraph) -> CurriculumGraph:
    """Standardise raw IFC values within each cycle to [0, 1] with mean 0.5.

    Half-range scaling: ``0.5 + 0.5 * (raw - mean) / (max - min)`` (clipped to
    [0, 1] for float safety; z-scoring would satisfy neither the bounds nor
    the mean).  A cycle whose raw values are all identical degenerates to 0.5
    for every course.  Exactly idempotent on its own output.

    A subnormal spread would lose bits in the mean and the division, so such
    raws are first scaled by a power of two (exact) until the spread is in
    [0.5, 1); normal spreads are used unscaled.
    """
    updated: dict[str, Course] = {c.id: c for c in graph.courses}
    for cycle in (Cycle.BASIC, Cycle.ADVANCED):
        members = [c for c in graph.courses if c.cycle == cycle]
        if not members:
            continue
        for c in members:
            if c.ifc_raw is None:
                raise CurriculumError(f"course {c.id!r} has no ifc_raw; compute it first")
        raws = [c.ifc_raw for c in members]
        spread = max(raws) - min(raws)
        if 0.0 < spread < sys.float_info.min:
            shift = -math.frexp(spread)[1]
            raws = [math.ldexp(r, shift) for r in raws]
            spread = max(raws) - min(raws)
        mean = sum(raws) / len(raws)
        for c, raw in zip(members, raws):
            if spread == 0.0:
                value = 0.5
            else:
                value = 0.5 + 0.5 * (raw - mean) / spread
            updated[c.id] = replace(c, ifc=min(1.0, max(0.0, value)))
    return graph.replace_courses(updated.values())


def standardised_ifc(graph: CurriculumGraph) -> CurriculumGraph:
    """Compute raw IFC for all courses, then standardise within each cycle."""
    return standardise_ifc_within_cycle(with_raw_ifc(graph))


def apply_curriculum_redesign(graph: CurriculumGraph, factor: float) -> CurriculumGraph:
    """Scale basic-cycle failure rates and friction by a redesign factor <= 1."""
    if not 0.0 < factor <= 1.0:
        raise CurriculumError("curriculum redesign factor must be in (0, 1]")
    if factor == 1.0:
        return graph
    updated = []
    for c in graph.courses:
        if c.cycle == Cycle.BASIC:
            updated.append(replace(
                c,
                base_fail_rate=c.base_fail_rate * factor,
                ifc=None if c.ifc is None else c.ifc * factor,
                ifc_raw=None if c.ifc_raw is None else c.ifc_raw * factor,
            ))
        else:
            updated.append(c)
    return graph.replace_courses(updated)


# ---------------------------------------------------------------------------
# Default synthetic curriculum
#
# 40 courses for a generic Argentine public engineering programme: 16 in the
# foundational cycle (semesters 1-4) and 24 in the advanced cycle (5-12).
# Análisis Matemático I and Física I act as first-semester gateways with high
# failure rates and three direct dependents each, so early friction cascades
# through the prerequisite chains.
# ---------------------------------------------------------------------------

_B = Cycle.BASIC
_A = Cycle.ADVANCED

_DEFAULT_COURSES: tuple[tuple[str, str, Cycle, int, tuple[str, ...], float, float], ...] = (
    # id, name, cycle, semester, prerequisites, fail rate, retake rate
    ("alg1", "Álgebra y Geometría Analítica", _B, 1, (), 0.24, 0.18),
    ("am1", "Análisis Matemático I", _B, 1, (), 0.45, 0.35),
    ("fis1", "Física I", _B, 1, (), 0.40, 0.30),
    ("iin1", "Introducción a la Ingeniería", _B, 1, (), 0.08, 0.05),
    ("am2", "Análisis Matemático II", _B, 2, ("am1",), 0.30, 0.24),
    ("fis2", "Física II", _B, 2, ("fis1", "am1"), 0.28, 0.22),
    ("qui1", "Química General", _B, 2, (), 0.20, 0.15),
    ("rep1", "Sistemas de Representación", _B, 2, (), 0.12, 0.08),
    ("am3", "Análisis Matemático III", _B, 3, ("am2", "alg1"), 0.26, 0.20),
    ("fis3", "Física III", _B, 3, ("fis2", "fis1"), 0.24, 0.18),
    ("est1", "Probabilidad y Estadística", _B, 3, ("am1",), 0.22, 0.16),
    ("pro1", "Fundamentos de Programación", _B, 3, (), 0.16, 0.10),
    ("mec1", "Mecánica Racional", _B, 4, ("am2", "fis1", "fis2"), 0.26, 0.20),
    ("qui2", "Química Aplicada", _B, 4, ("qui1",), 0.18, 0.12),
    ("num1", "Cálculo Numérico", _B, 4, ("am3", "pro1"), 0.21, 0.15),
    ("ing2", "Inglés Técnico", _B, 4, ("iin1",), 0.06, 0.04),
    ("ter1", "Termodinámica", _A, 5, ("fis2", "am3"), 0.28, 0.20),
    ("mat1", "Ciencia de Materiales", _A, 5, ("qui2",), 0.20, 0.14),
    ("ele1", "Electrotecnia I", _A, 5, ("fis3", "am3"), 0.26, 0.18),
    ("mfl1", "Mecánica de los Fluidos", _A, 6, ("mec1", "am3"), 0.25, 0.18),
    ("ele2", "Electrónica General", _A, 6, ("ele1",), 0.22, 0.15),
    ("str1", "Estructuras I", _A, 6, ("mec1",), 0.24, 0.16),
    ("ctr1", "Sistemas de Control", _A, 7, ("ele2", "num1"), 0.22, 0.15),
    ("ter2", "Máquinas Térmicas", _A, 7, ("ter1",), 0.20, 0.14),
    ("hid1", "Hidráulica General", _A, 7, ("mfl1",), 0.20, 0.13),
    ("ind1", "Ingeniería Industrial", _A, 8, ("est1",), 0.18, 0.12),
    ("mec2", "Mecanismos y Elementos de Máquinas", _A, 8, ("mec1", "mat1"), 0.20, 0.13),
    ("ele3", "Sistemas de Potencia", _A, 8, ("ele2",), 0.22, 0.14),
    ("pro2", "Informática Aplicada", _A, 9, ("pro1", "num1"), 0.17, 0.10),
    ("org1", "Organización Industrial", _A, 9, ("ind1",), 0.14, 0.08),
    ("san1", "Ingeniería Sanitaria", _A, 9, ("hid1",), 0.18, 0.11),
    ("pry1", "Formulación y Evaluación de Proyectos", _A, 10, ("org1",), 0.15, 0.09),
    ("ctr2", "Automatización Industrial", _A, 10, ("ctr1",), 0.19, 0.12),
    ("amb1", "Ingeniería Ambiental", _A, 10, ("qui2", "san1"), 0.16, 0.10),
    ("eco1", "Economía para Ingenieros", _A, 11, ("org1",), 0.13, 0.07),
    ("leg1", "Legislación y Ética Profesional", _A, 11, (), 0.10, 0.05),
    ("prs1", "Práctica Profesional Supervisada", _A, 11, ("pry1",), 0.12, 0.06),
    ("pfi1", "Proyecto Final de Ingeniería", _A, 12, ("pry1", "ctr1"), 0.17, 0.09),
    ("ges1", "Gestión de la Calidad", _A, 12, ("org1",), 0.11, 0.06),
    ("seg1", "Higiene y Seguridad en el Trabajo", _A, 12, ("leg1",), 0.09, 0.05),
)


def default_curriculum(weights: IFCWeights = IFCWeights()) -> CurriculumGraph:
    """Build the default 40-course synthetic curriculum with IFC computed."""
    courses = [
        Course(id=i, name=n, cycle=cy, scheduled_semester=s,
               prerequisites=frozenset(pre), base_fail_rate=f, retake_rate=r)
        for i, n, cy, s, pre, f, r in _DEFAULT_COURSES
    ]
    return standardised_ifc(CurriculumGraph(courses, weights))


# ---------------------------------------------------------------------------
# JSON interface
# ---------------------------------------------------------------------------

def curriculum_from_dict(doc: Mapping, *, path: str = "curriculum") -> CurriculumGraph:
    """Parse the curriculum JSON document; errors carry the offending field path."""
    if not isinstance(doc, Mapping):
        raise CurriculumError(f"{path}: expected an object")
    raw_courses = doc.get("courses")
    if not isinstance(raw_courses, Sequence) or isinstance(raw_courses, (str, bytes)):
        raise CurriculumError(f"{path}.courses: expected an array of course objects")
    weights_doc = doc.get("ifc_weights", {})
    if not isinstance(weights_doc, Mapping):
        raise CurriculumError(f"{path}.ifc_weights: expected an object")
    try:
        weights = IFCWeights(
            w1=float(weights_doc.get("w1", 0.5)),
            w2=float(weights_doc.get("w2", 0.3)),
            w3=float(weights_doc.get("w3", 0.2)),
        )
    except (TypeError, ValueError) as exc:
        raise CurriculumError(f"{path}.ifc_weights: {exc}") from None
    courses = []
    for i, entry in enumerate(raw_courses):
        where = f"{path}.courses[{i}]"
        if not isinstance(entry, Mapping):
            raise CurriculumError(f"{where}: expected an object")
        try:
            cycle = Cycle(str(entry.get("cycle", "")).lower())
        except ValueError:
            raise CurriculumError(f"{where}.cycle: must be 'basic' or 'advanced'") from None
        prereqs = entry.get("prereqs", [])
        if not isinstance(prereqs, Sequence) or isinstance(prereqs, (str, bytes)):
            raise CurriculumError(f"{where}.prereqs: expected an array of course ids")
        try:
            courses.append(Course(
                id=str(entry["id"]),
                name=str(entry.get("name", entry["id"])),
                cycle=cycle,
                scheduled_semester=int(entry["semester"]),
                prerequisites=frozenset(str(p) for p in prereqs),
                base_fail_rate=float(entry["fail_rate"]),
                retake_rate=float(entry["retake_rate"]),
            ))
        except KeyError as exc:
            raise CurriculumError(f"{where}: missing required field {exc.args[0]!r}") from None
        except (TypeError, ValueError) as exc:
            raise CurriculumError(f"{where}: {exc}") from None
    try:
        return CurriculumGraph(courses, weights)
    except CurriculumError as exc:
        raise CurriculumError(f"{path}: {exc}") from None


def load_curriculum(path: str | Path) -> CurriculumGraph:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return curriculum_from_dict(doc, path=str(path))


def curriculum_to_dict(graph: CurriculumGraph) -> dict:
    weights = graph.ifc_weights
    return {
        "courses": [
            {
                "id": c.id,
                "name": c.name,
                "cycle": c.cycle.value,
                "semester": c.scheduled_semester,
                "prereqs": sorted(c.prerequisites),
                "fail_rate": c.base_fail_rate,
                "retake_rate": c.retake_rate,
            }
            for c in graph.courses
        ],
        "ifc_weights": {"w1": weights.w1, "w2": weights.w2, "w3": weights.w3},
    }


def ifc_table_rows(graph: CurriculumGraph) -> list[tuple]:
    """Rows (id, name, cycle, semester, fail, retake, ifc_raw, ifc) for CSV echo."""
    return [
        (c.id, c.name, c.cycle.value, c.scheduled_semester,
         c.base_fail_rate, c.retake_rate, c.ifc_raw, c.ifc)
        for c in graph.courses
    ]

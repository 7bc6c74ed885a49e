import math

import pytest
from hypothesis import example, given, strategies as st

from cohortsim.curriculum import (
    Course, CurriculumError, CurriculumGraph, Cycle, IFCWeights,
    apply_curriculum_redesign, compute_ifc_raw, curriculum_from_dict,
    curriculum_to_dict, default_curriculum, standardise_ifc_within_cycle,
    standardised_ifc, topological_order, validate_graph, with_raw_ifc,
)


def course(cid, sem=1, cycle=Cycle.BASIC, prereqs=(), fail=0.0, retake=0.0, **kw):
    return Course(id=cid, name=cid, cycle=cycle, scheduled_semester=sem,
                  prerequisites=frozenset(prereqs), base_fail_rate=fail,
                  retake_rate=retake, **kw)


def graph_with_max_indegree_10():
    feeders = [course(f"f{i}", sem=1) for i in range(10)]
    wide = course("wide", sem=2, prereqs=[f"f{i}" for i in range(10)])
    target = course("target", sem=2, prereqs=["f0", "f1", "f2"], fail=0.5, retake=0.2)
    return CurriculumGraph(feeders + [wide, target])


class TestComputeIfcRaw:
    def test_weighted_sum(self):
        g = graph_with_max_indegree_10()
        # fail 0.5, in-degree 3/10, retake 0.2 with default weights
        assert compute_ifc_raw(g.course("target"), g) == pytest.approx(0.38, abs=1e-12)

    def test_weights_come_from_the_graph(self):
        g = CurriculumGraph(graph_with_max_indegree_10().courses, IFCWeights(1.0, 0.0, 0.0))
        assert compute_ifc_raw(g.course("target"), g) == 0.5

    def test_zero_inputs(self):
        g = CurriculumGraph([course("a")])
        assert compute_ifc_raw(g.course("a"), g) == 0.0

    def test_saturated_inputs(self):
        feeder = course("f", sem=1)
        top = course("top", sem=2, prereqs=["f"], fail=1.0, retake=1.0)
        g = CurriculumGraph([feeder, top])
        assert compute_ifc_raw(g.course("top"), g) == pytest.approx(1.0, abs=1e-12)

    def test_unknown_course(self):
        g = CurriculumGraph([course("a")])
        stray = course("stray")
        with pytest.raises(CurriculumError, match="stray"):
            compute_ifc_raw(stray, g)

    @given(
        f1=st.floats(0, 1), f2=st.floats(0, 1),
        r1=st.floats(0, 1), r2=st.floats(0, 1),
    )
    def test_monotone_in_fail_and_retake(self, f1, f2, r1, r2):
        lo_f, hi_f = sorted([f1, f2])
        lo_r, hi_r = sorted([r1, r2])
        g_lo = CurriculumGraph([course("a", fail=lo_f, retake=lo_r)])
        g_hi = CurriculumGraph([course("a", fail=hi_f, retake=hi_r)])
        assert (compute_ifc_raw(g_lo.course("a"), g_lo)
                <= compute_ifc_raw(g_hi.course("a"), g_hi) + 1e-12)

    def test_monotone_in_degree(self):
        feeders = [course(f"f{i}", sem=1) for i in range(4)]
        narrow = course("narrow", sem=2, prereqs=["f0"])
        wide = course("wide", sem=2, prereqs=["f0", "f1", "f2", "f3"])
        g = CurriculumGraph(feeders + [narrow, wide])
        assert compute_ifc_raw(g.course("narrow"), g) < compute_ifc_raw(g.course("wide"), g)


class TestStandardise:
    def make(self, raws, cycle=Cycle.BASIC):
        return CurriculumGraph([
            course(f"c{i}", cycle=cycle, sem=1 if cycle == Cycle.BASIC else 5, ifc_raw=r)
            for i, r in enumerate(raws)
        ])

    def test_three_point_example(self):
        g = standardise_ifc_within_cycle(self.make([0.2, 0.4, 0.6]))
        values = sorted(c.ifc for c in g.courses)
        assert values == pytest.approx([0.25, 0.5, 0.75], abs=1e-12)

    def test_degenerate_identical(self):
        g = standardise_ifc_within_cycle(self.make([0.3, 0.3]))
        assert all(c.ifc == 0.5 for c in g.courses)

    def test_mean_is_half(self):
        g = standardise_ifc_within_cycle(self.make([0.1, 0.25, 0.3, 0.9]))
        mean = sum(c.ifc for c in g.courses) / len(g)
        assert mean == pytest.approx(0.5, abs=1e-12)

    @given(st.lists(st.floats(0, 5, allow_nan=False), min_size=2, max_size=12))
    @example([0.0, 2.2250738585e-313])
    @example([1e-320, 3e-320, 7e-321])
    def test_bounds_and_mean(self, raws):
        g = standardise_ifc_within_cycle(self.make(raws))
        values = [c.ifc for c in g.courses]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert sum(values) / len(values) == pytest.approx(0.5, abs=1e-9)

    @given(st.lists(st.floats(0, 2, allow_nan=False), min_size=2, max_size=10))
    @example([0.0, 2.2250738585e-313])
    @example([1e-320, 3e-320, 7e-321])
    def test_idempotent(self, raws):
        once = standardise_ifc_within_cycle(self.make(raws))
        rebased = once.replace_courses(
            Course(**{**c.__dict__, "ifc_raw": c.ifc}) for c in once.courses)
        twice = standardise_ifc_within_cycle(rebased)
        for a, b in zip(once.courses, twice.courses):
            assert a.ifc == pytest.approx(b.ifc, abs=1e-12)

    def test_missing_raw_rejected(self):
        g = CurriculumGraph([course("a"), course("b", ifc_raw=0.4)])
        with pytest.raises(CurriculumError, match="ifc_raw"):
            standardise_ifc_within_cycle(g)

    def test_cycles_standardised_separately(self):
        basic = [course("b1", ifc_raw=0.1), course("b2", ifc_raw=0.9)]
        advanced = [course("a1", sem=5, cycle=Cycle.ADVANCED, ifc_raw=0.4),
                    course("a2", sem=5, cycle=Cycle.ADVANCED, ifc_raw=0.6)]
        g = standardise_ifc_within_cycle(CurriculumGraph(basic + advanced))
        # two-course cycles land at 0.25/0.75 regardless of their raw spread
        for cid in ("b1", "a1"):
            assert g.course(cid).ifc == pytest.approx(0.25, abs=1e-12)
        for cid in ("b2", "a2"):
            assert g.course(cid).ifc == pytest.approx(0.75, abs=1e-12)


class TestValidateGraph:
    def test_empty_graph_ok(self):
        assert validate_graph(CurriculumGraph([])) == []

    def test_two_cycle(self):
        g = CurriculumGraph([course("a", sem=1, prereqs=["b"]),
                             course("b", sem=2, prereqs=["a"])])
        kinds = {v.kind for v in validate_graph(g)}
        assert "cycle" in kinds

    def test_semester_ordering_violation(self):
        g = CurriculumGraph([course("early", sem=1, prereqs=["late"]),
                             course("late", sem=2)])
        kinds = {v.kind for v in validate_graph(g)}
        assert "semester-order" in kinds

    def test_dangling_prerequisite(self):
        g = CurriculumGraph([course("a", sem=2, prereqs=["ghost"])])
        violations = validate_graph(g)
        assert any(v.kind == "dangling-prerequisite" and "ghost" in v.detail
                   for v in violations)

    def test_cycle_semester_consistency(self):
        g = CurriculumGraph([course("late-basic", sem=6),
                             course("early-advanced", sem=2, cycle=Cycle.ADVANCED)])
        kinds = [v.kind for v in validate_graph(g)]
        assert kinds.count("cycle-semester") == 2

    def test_topological_order_respects_prerequisites(self):
        g = default_curriculum()
        order = topological_order(g)
        position = {cid: i for i, cid in enumerate(order)}
        for c in g.courses:
            for pre in c.prerequisites:
                assert position[pre] < position[c.id]


class TestDefaultCurriculum:
    def test_shape(self):
        g = default_curriculum()
        assert len(g) == 40
        assert len(g.by_cycle(Cycle.BASIC)) == 16
        assert len(g.by_cycle(Cycle.ADVANCED)) == 24
        assert validate_graph(g) == []

    def test_gateway_courses(self):
        g = default_curriculum()
        am1, fis1 = g.course("am1"), g.course("fis1")
        assert am1.base_fail_rate == 0.45 and fis1.base_fail_rate == 0.40
        for gateway in ("am1", "fis1"):
            dependents = [c.id for c in g.courses if gateway in c.prerequisites]
            assert len(dependents) >= 3

    def test_ifc_computed_and_bounded(self):
        g = default_curriculum()
        for c in g.courses:
            assert c.ifc_raw is not None and c.ifc is not None
            assert 0.0 <= c.ifc <= 1.0
        for cycle in (Cycle.BASIC, Cycle.ADVANCED):
            values = [c.ifc for c in g.by_cycle(cycle)]
            assert sum(values) / len(values) == pytest.approx(0.5, abs=1e-9)

    def test_gateways_have_high_friction(self):
        g = default_curriculum()
        basic_mean = sum(c.ifc for c in g.by_cycle(Cycle.BASIC)) / 16
        assert g.course("am1").ifc > basic_mean
        assert g.course("fis1").ifc > basic_mean


class TestRedesign:
    def test_scales_basic_only(self):
        g = default_curriculum()
        scaled = apply_curriculum_redesign(g, 0.5)
        for before, after in zip(g.courses, scaled.courses):
            if before.cycle is Cycle.BASIC:
                assert after.base_fail_rate == pytest.approx(0.5 * before.base_fail_rate)
                assert after.ifc == pytest.approx(0.5 * before.ifc)
            else:
                assert after.base_fail_rate == before.base_fail_rate
                assert after.ifc == before.ifc

    def test_neutral_factor_is_identity(self):
        g = default_curriculum()
        assert apply_curriculum_redesign(g, 1.0) is g

    def test_invalid_factor(self):
        with pytest.raises(CurriculumError):
            apply_curriculum_redesign(default_curriculum(), 0.0)


class TestJsonInterface:
    def test_round_trip(self):
        g = default_curriculum()
        doc = curriculum_to_dict(g)
        loaded = curriculum_from_dict(doc)
        assert loaded.ifc_weights == IFCWeights()
        assert len(loaded) == len(g)
        restored = standardised_ifc(loaded)
        for a, b in zip(g.courses, restored.courses):
            assert a.id == b.id
            assert a.ifc == pytest.approx(b.ifc, abs=1e-12)

    def test_round_trip_keeps_the_ifc_weights_bit_for_bit(self):
        g = default_curriculum(IFCWeights(0.6, 0.2, 0.2))
        restored = standardised_ifc(curriculum_from_dict(curriculum_to_dict(g)))
        assert restored == g
        assert [(c.ifc_raw.hex(), c.ifc.hex()) for c in restored.courses] == [
            (c.ifc_raw.hex(), c.ifc.hex()) for c in g.courses]

    def test_error_paths_in_messages(self):
        with pytest.raises(CurriculumError, match=r"courses\[0\]\.cycle"):
            curriculum_from_dict({"courses": [{"id": "x", "cycle": "weird",
                                               "semester": 1, "fail_rate": 0, "retake_rate": 0}]})
        with pytest.raises(CurriculumError, match=r"courses\[0\]: missing"):
            curriculum_from_dict({"courses": [{"id": "x", "cycle": "basic"}]})
        with pytest.raises(CurriculumError, match="courses"):
            curriculum_from_dict({"courses": "nope"})

    def test_duplicate_ids_rejected(self):
        with pytest.raises(CurriculumError, match="duplicate"):
            CurriculumGraph([course("a"), course("a")])


class TestCourseValidation:
    def test_probability_bounds(self):
        with pytest.raises(CurriculumError):
            course("bad", fail=1.5)
        with pytest.raises(CurriculumError):
            course("bad", retake=-0.1)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(CurriculumError):
            IFCWeights(0.5, 0.5, 0.5)
        with pytest.raises(CurriculumError):
            IFCWeights(-0.1, 0.9, 0.2)

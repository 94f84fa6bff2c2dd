import random

import pytest

from intsat.model import Bound
from intsat.trail import DECISION, ReasonInfo, Trail, termination_measure
from conftest import lo, up


def fresh_trail(lbs=(0, 0, 0), ubs=(9, 9, 9)):
    return Trail(len(lbs), list(lbs), list(ubs))


class TestPushPop:
    def test_first_entry_has_pos_minus_one(self):
        t = fresh_trail()
        h = t.push(up(0, 1), ReasonInfo.propagated((), 4))
        assert h == 0 and t.entries[0].pos == -1

    def test_pos_chains_to_previous_same_kind(self):
        t = fresh_trail()
        t.push(up(0, 5), ReasonInfo.propagated((), None))
        t.push(lo(1, 3), ReasonInfo.propagated((), None))
        h = t.push(up(0, 2), ReasonInfo.propagated((0,), None))
        assert t.entries[h].pos == 0

    def test_decision_heights_grow(self):
        t = fresh_trail()
        t.push(lo(0, 1), DECISION)
        assert t.decision_heights == [0]
        t.push(lo(1, 1), DECISION)
        assert t.decision_heights == [0, 1]

    def test_push_pop_roundtrip(self):
        t = fresh_trail()
        t.push(lo(0, 3), DECISION)
        assert (t.lb[0], t.ub[0]) == (3, 9)
        t.pop()
        assert (t.lb[0], t.ub[0]) == (0, 9)
        assert t.num_decisions == 0

    def test_pop_restores_previous_of_same_kind(self):
        t = fresh_trail()
        t.push(up(0, 5), ReasonInfo.propagated((), None))
        t.push(up(0, 2), ReasonInfo.propagated((), None))
        t.pop()
        assert t.ub[0] == 5

    def test_pushing_non_fresh_asserts(self):
        t = fresh_trail()
        t.push(lo(0, 3), DECISION)
        with pytest.raises(AssertionError):
            t.push(lo(0, 2), DECISION)  # redundant
        with pytest.raises(AssertionError):
            t.push(up(0, 2), DECISION)  # contradictory

    def test_pop_empty_asserts(self):
        with pytest.raises(AssertionError):
            fresh_trail().pop()


class TestCurrentBounds:
    def test_falls_back_to_initial(self):
        t = fresh_trail()
        assert (t.lb[0], t.ub[0]) == (0, 9)

    def test_after_push(self):
        t = fresh_trail()
        t.push(lo(0, 3), DECISION)
        assert (t.lb[0], t.ub[0]) == (3, 9)


class TestIsFresh:
    def test_strictly_tightening_lower(self):
        assert fresh_trail().is_fresh(lo(0, 3))

    def test_redundant_lower(self):
        t = fresh_trail()
        t.push(lo(0, 3), DECISION)
        assert not t.is_fresh(lo(0, 2))

    def test_contradictory_upper(self):
        t = fresh_trail()
        t.push(lo(0, 3), DECISION)
        assert not t.is_fresh(up(0, 2))

    def test_equal_to_current_is_not_fresh(self):
        t = fresh_trail()
        assert not t.is_fresh(lo(0, 0)) and not t.is_fresh(up(0, 9))
        assert t.is_fresh(up(0, 0))  # defines the variable, still fresh


class TestLevels:
    def test_level_zero_before_any_decision(self):
        t = fresh_trail()
        t.push(lo(0, 1), ReasonInfo.propagated((), None))
        assert t.decision_level_of(0) == 0

    def test_first_decision_starts_level_one(self):
        t = fresh_trail()
        t.push(lo(0, 1), ReasonInfo.propagated((), None))
        t.push(lo(1, 1), DECISION)
        t.push(up(2, 0), ReasonInfo.propagated((1,), None))
        assert t.decision_level_of(1) == 1
        assert t.decision_level_of(2) == 1  # pushed after the decision
        assert t.level_start(0) == 0
        assert t.level_start(1) == 1

    def test_out_of_range(self):
        t = fresh_trail()
        with pytest.raises(IndexError):
            t.decision_level_of(0)
        with pytest.raises(IndexError):
            t.level_start(1)


class TestBoundsVectorInvariant:
    def test_matches_from_scratch_scan(self):
        rng = random.Random(3)
        for _ in range(50):
            n = 4
            t = Trail(n, [-5] * n, [5] * n)
            live = []
            for _ in range(120):
                if live and rng.random() < 0.4:
                    t.pop()
                    live.pop()
                    continue
                var = rng.randrange(n)
                is_lower = rng.random() < 0.5
                lb, ub = t.lb[var], t.ub[var]
                if lb == ub:
                    continue
                value = rng.randint(lb + 1, ub) if is_lower else rng.randint(lb, ub - 1)
                b = Bound(var, is_lower, value)
                t.push(b, DECISION if rng.random() < 0.3 else ReasonInfo.propagated((), None))
                live.append(b)
            for var in range(n):
                lb, ub = -5, 5
                for e in t.entries:
                    if e.bound.var != var:
                        continue
                    if e.bound.is_lower:
                        lb = max(lb, e.bound.value)
                    else:
                        ub = min(ub, e.bound.value)
                assert (t.lb[var], t.ub[var]) == (lb, ub)

    def test_flat_lists_match_the_chains_after_every_step(self):
        rng = random.Random(11)
        for _ in range(40):
            n = 3
            t = Trail(n, [-4] * n, [4] * n)
            for _ in range(80):
                if len(t) and rng.random() < 0.4:
                    t.pop()
                else:
                    var = rng.randrange(n)
                    lb, ub = t.lb[var], t.ub[var]
                    if lb == ub:
                        continue
                    if rng.random() < 0.5:
                        t.push(lo(var, rng.randint(lb + 1, ub)), DECISION)
                    else:
                        t.push(up(var, rng.randint(lb, ub - 1)), DECISION)
                for var in range(n):
                    assert (t.lb[var], t.ub[var]) == t.bounds_at_height(var, len(t))

    def test_pos_chain_enumerates_history(self):
        t = fresh_trail()
        heights = [t.push(lo(0, v), DECISION) for v in (1, 2, 3)]
        t.push(lo(1, 4), DECISION)
        chain = []
        p = t.pl[0]
        while p != -1:
            chain.append(p)
            p = t.entries[p].pos
        assert chain == list(reversed(heights))


class TestTerminationMeasure:
    def test_single_binary_variable(self):
        t = Trail(1, [0], [1])
        assert termination_measure(t, [0], [1]) == (2, 2)
        t.push(lo(0, 1), ReasonInfo.propagated((), None))
        assert termination_measure(t, [0], [1]) == (1, 1)

    def test_fresh_push_strictly_decreases(self):
        rng = random.Random(4)
        for _ in range(40):
            n = 3
            t = Trail(n, [-3] * n, [3] * n)
            prev = termination_measure(t, [-3] * n, [3] * n)
            for _ in range(30):
                var = rng.randrange(n)
                lb, ub = t.lb[var], t.ub[var]
                if lb == ub:
                    continue
                if rng.random() < 0.5:
                    b = Bound(var, True, rng.randint(lb + 1, ub))
                else:
                    b = Bound(var, False, rng.randint(lb, ub - 1))
                t.push(b, DECISION if rng.random() < 0.4 else ReasonInfo.propagated((), None))
                cur = termination_measure(t, [-3] * n, [3] * n)
                assert cur < prev
                prev = cur

    def test_prefix_semantics(self):
        t = Trail(1, [0], [3])
        t.push(lo(0, 1), ReasonInfo.propagated((), None))  # level 0: domain size 3
        t.push(lo(0, 2), DECISION)  # level 1: size 2
        t.push(up(0, 2), ReasonInfo.propagated((), None))  # defined: size 1
        m = termination_measure(t, [0], [3])
        assert m[0] == 3 and m[1] == 1 and len(m) == 4


class TestDump:
    def test_line_format(self):
        t = fresh_trail()
        t.push(up(0, 1), ReasonInfo.propagated((), 4))
        t.push(lo(1, 1), DECISION)
        t.push(up(2, 0), ReasonInfo.propagated((1,), 2))
        lines = t.dump_lines(["x", "y", "z"])
        assert lines[0] == "0 ub x 1 0 reason={} constraint=4"
        assert lines[1] == "1 lb y 1 1 decision constraint=none"
        assert lines[2] == "2 ub z 0 1 reason={1} constraint=2"

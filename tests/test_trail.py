import random

import pytest

from intsat.model import Bound
from intsat.trail import DECISION, ReasonInfo, Trail
from conftest import lo, termination_measure, up


def fresh_trail(lbs=(0, 0, 0), ubs=(9, 9, 9)):
    """A trail over the box, holding its 2n level-0 seeds (6 by default)."""
    return Trail(len(lbs), list(lbs), list(ubs))


class TestSeeds:
    def test_a_fresh_trail_holds_the_box_as_level_zero_seeds(self):
        t = fresh_trail((0, -2, 3), (9, 4, 3))
        assert [e.bound for e in t.entries] == [
            lo(0, 0), up(0, 9), lo(1, -2), up(1, 4), lo(2, 3), up(2, 3)]
        assert all(e.pos == -1 and e.info.reason_set == () and e.info is not DECISION
                   for e in t.entries)
        assert t.pl == [0, 2, 4] and t.pu == [1, 3, 5]
        assert (t.lb, t.ub) == ([0, -2, 3], [9, 4, 3])
        assert t.num_decisions == 0 and t.decision_level_of(5) == 0

    def test_popping_a_seed_asserts(self):
        t = fresh_trail()
        t.push(lo(0, 3), DECISION)
        t.pop()
        with pytest.raises(AssertionError):
            t.pop()

    def test_an_empty_reason_that_is_not_decision_opens_no_level(self):
        t = fresh_trail()
        h = t.push(lo(0, 3), ReasonInfo((), None))
        assert ReasonInfo((), None) == DECISION
        assert t.num_decisions == 0 and t.decision_level_of(h) == 0
        assert t.dump_lines()[h] == "6 lb x0 3 0 reason={} constraint=none"


class TestPushPop:
    def test_first_push_chains_to_the_seed(self):
        t = fresh_trail()
        h = t.push(up(0, 1), ReasonInfo.propagated((), 4))
        assert h == 6 and t.entries[h].pos == 1

    def test_pos_chains_to_previous_same_kind(self):
        t = fresh_trail()
        t.push(up(0, 5), ReasonInfo.propagated((), None))
        t.push(lo(1, 3), ReasonInfo.propagated((), None))
        h = t.push(up(0, 2), ReasonInfo.propagated((6,), None))
        assert t.entries[h].pos == 6

    def test_decision_heights_grow(self):
        t = fresh_trail()
        t.push(lo(0, 1), DECISION)
        assert t.decision_heights == [6]
        t.push(lo(1, 1), DECISION)
        assert t.decision_heights == [6, 7]

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


class TestCurrentBounds:
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
        h = t.push(lo(0, 1), ReasonInfo.propagated((), None))
        assert t.decision_level_of(0) == t.decision_level_of(h) == 0

    def test_first_decision_starts_level_one(self):
        t = fresh_trail()
        t.push(lo(0, 1), ReasonInfo.propagated((), None))
        t.push(lo(1, 1), DECISION)
        t.push(up(2, 0), ReasonInfo.propagated((7,), None))
        assert t.decision_level_of(6) == 0
        assert t.decision_level_of(7) == 1
        assert t.decision_level_of(8) == 1  # pushed after the decision
        assert t.level_start(0) == 0
        assert t.level_start(1) == 7

    def test_out_of_range(self):
        t = fresh_trail()
        with pytest.raises(IndexError):
            t.decision_level_of(6)
        with pytest.raises(IndexError):
            t.decision_level_of(-1)
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
                if len(t) > 2 * n and rng.random() < 0.4:
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
        assert chain == [*reversed(heights), 0]  # ending at the seed


class TestRootBox:
    def test_matches_the_chains_below_the_first_decision(self):
        # pops back to level 0 and pushes there again, so the box must be
        # taken afresh on each descent, before the decision's own bound
        rng = random.Random(17)
        checks = descents = 0
        for _ in range(40):
            n = 4
            t = Trail(n, [-6] * n, [6] * n)
            for _ in range(100):
                if len(t) > 2 * n and rng.random() < 0.35:
                    t.pop()
                else:
                    var = rng.randrange(n)
                    lb, ub = t.lb[var], t.ub[var]
                    if lb == ub:
                        continue
                    decision = rng.random() < 0.3
                    descents += decision and not t.num_decisions
                    b = (lo(var, rng.randint(lb + 1, ub)) if rng.random() < 0.5
                         else up(var, rng.randint(lb, ub - 1)))
                    t.push(b, DECISION if decision else ReasonInfo.propagated((), None))
                if not t.num_decisions:
                    continue
                cutoff, root = t.decision_heights[0], t.root
                for var in range(n):
                    assert (root.lb[var], root.ub[var]) == t.bounds_at_height(var, cutoff)
                    assert root.pl[var] == t.height_of_strongest_below(var, True, cutoff)
                    assert root.pu[var] == t.height_of_strongest_below(var, False, cutoff)
                checks += 1
        assert checks >= 1000 and descents >= 100, (checks, descents)


class TestTerminationMeasure:
    def test_single_binary_variable(self):
        t = Trail(1, [0], [1])
        assert termination_measure(t) == (2, 2)
        t.push(lo(0, 1), ReasonInfo.propagated((), None))
        assert termination_measure(t) == (1, 1)

    def test_fresh_push_strictly_decreases(self):
        rng = random.Random(4)
        for _ in range(40):
            n = 3
            t = Trail(n, [-3] * n, [3] * n)
            prev = termination_measure(t)
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
                cur = termination_measure(t)
                assert cur < prev
                prev = cur

    def test_prefix_semantics(self):
        t = Trail(1, [0], [3])
        t.push(lo(0, 1), ReasonInfo.propagated((), None))  # level 0: domain size 3
        t.push(lo(0, 2), DECISION)  # level 1: size 2
        t.push(up(0, 2), ReasonInfo.propagated((), None))  # defined: size 1
        m = termination_measure(t)
        assert m[0] == 3 and m[1] == 1 and len(m) == 4


class TestDump:
    def test_line_format(self):
        t = fresh_trail()
        t.push(up(0, 1), ReasonInfo.propagated((), 4))
        t.push(lo(1, 1), DECISION)
        t.push(up(2, 0), ReasonInfo.propagated((7,), 2))
        lines = t.dump_lines(["x", "y", "z"])
        assert lines[0] == "0 lb x 0 0 reason={} constraint=none"  # a seed
        assert lines[6] == "6 ub x 1 0 reason={} constraint=4"
        assert lines[7] == "7 lb y 1 1 decision constraint=none"
        assert lines[8] == "8 ub z 0 1 reason={7} constraint=2"

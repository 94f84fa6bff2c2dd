import math
import random

import pytest

from intsat.model import (COEFF_CAP, RHS_CAP, Bound, Constraint, Monomial,
                          Problem, cut, normalize)
from conftest import C, box_points, lo, up


def solution_set(constraint, lbs, ubs):
    return {pt for pt in box_points(lbs, ubs) if constraint.satisfied_by(pt)}


class TestNormalize:
    def test_divides_by_gcd_and_floors(self):
        assert normalize([(1, 22), (2, 8)], 15) == C([(1, 11), (2, 4)], 7)

    def test_already_normalised(self):
        assert normalize([(0, 1), (1, 1)], 1) == C([(0, 1), (1, 1)], 1)

    def test_negative_rhs_floors_toward_minus_infinity(self):
        got = normalize([(0, 6), (1, -4)], -3)
        assert got == C([(0, 3), (1, -2)], -2)
        # the divided constraint keeps exactly the same integer solutions
        box = ([-3, -3], [3, 3])
        assert solution_set(C([(0, 6), (1, -4)], -3), *box) == solution_set(got, *box)

    def test_merges_duplicate_vars_and_drops_zeros(self):
        assert normalize([(0, 2), (0, -2), (1, 3), (2, 0)], 4) == C([(1, 1)], 1)

    def test_all_zero_lhs_is_degenerate(self):
        c = normalize([(0, 1), (0, -1)], -2)
        assert c.is_degenerate() and c.is_contradiction()
        assert normalize([], 3).is_tautology()

    def test_idempotent(self):
        rng = random.Random(7)
        for _ in range(300):
            terms = [(v, rng.randint(-10, 10)) for v in range(rng.randint(1, 4))]
            c = normalize(terms, rng.randint(-10, 10))
            assert normalize(c.monomials, c.rhs) == c

    def test_solution_set_preserved(self):
        rng = random.Random(8)
        for _ in range(300):
            n = rng.randint(1, 3)
            terms = [(v, rng.randint(-10, 10)) for v in range(n)]
            rhs = rng.randint(-10, 10)
            raw = C([(v, c) for v, c in terms if c != 0] or [(0, 1)], rhs)
            norm = normalize(raw.monomials, raw.rhs)
            lbs, ubs = [-5] * n, [5] * n
            assert solution_set(raw, lbs, ubs) == solution_set(norm, lbs, ubs)


class TestCut:
    def test_worked_example(self):
        c1 = C([(0, 4), (1, 4), (2, 2)], 3)
        c2 = C([(0, -10), (1, 1), (2, -1)], 0)
        assert cut(c1, c2, 0) == C([(1, 11), (2, 4)], 7)

    def test_eliminating_z_gives_unit_lower_bound(self):
        c1 = C([(0, 1), (2, 1)], 1)
        c2 = C([(0, -1), (1, -1), (2, -1)], -2)
        assert cut(c1, c2, 2) == C([(1, -1)], -1)  # i.e. 1 <= y

    def test_symmetric_unit_coefficients(self):
        assert cut(C([(0, 1), (1, 1)], 0), C([(0, 1), (1, -1)], 0), 1) == C([(0, 1)], 0)

    def test_same_sign_is_refused(self):
        assert cut(C([(0, 1)], 0), C([(0, 2)], 0), 0) is None
        assert cut(C([(0, 1)], 0), C([(1, -1)], 0), 0) is None

    def test_coefficient_cap_refuses(self):
        big = COEFF_CAP - 1
        c1 = C([(0, big), (1, big)], 0)
        c2 = C([(0, -big + 1), (1, big)], 0)
        assert cut(c1, c2, 0) is None

    def test_soundness_on_random_pairs(self):
        rng = random.Random(9)
        done = 0
        while done < 250:
            n = rng.randint(2, 4)
            t1 = [(v, rng.randint(-5, 5)) for v in range(n)]
            t2 = [(v, rng.randint(-5, 5)) for v in range(n)]
            x = rng.randrange(n)
            c1 = C([(v, c) for v, c in t1 if c != 0] or [(x, 1)], rng.randint(-8, 8))
            c2 = C([(v, c) for v, c in t2 if c != 0] or [(x, -1)], rng.randint(-8, 8))
            r = cut(c1, c2, x)
            if r is None:
                continue
            done += 1
            for pt in box_points([-5] * n, [5] * n):
                if c1.satisfied_by(pt) and c2.satisfied_by(pt):
                    assert r.satisfied_by(pt), (c1, c2, x, r, pt)


def reference_cut(c1, c2, var):
    """The cut as it was computed before the merged version: two dicts,
    then ``normalize``."""
    a = c1.coeff_of(var)
    b = c2.coeff_of(var)
    if a == 0 or b == 0 or (a > 0) == (b > 0):
        return None
    g = math.gcd(a, b)
    m1 = abs(b) // g
    m2 = abs(a) // g
    combined = {}
    for v, c in c1.monomials:
        combined[v] = combined.get(v, 0) + m1 * c
    for v, c in c2.monomials:
        combined[v] = combined.get(v, 0) + m2 * c
    rhs = m1 * c1.rhs + m2 * c2.rhs
    if abs(rhs) > RHS_CAP:
        return None
    for v, c in combined.items():
        if abs(c) > COEFF_CAP:
            return None
    result = normalize(combined.items(), rhs)
    if abs(result.rhs) > COEFF_CAP:
        return None
    assert result.coeff_of(var) == 0
    return result


def refusal_cap(c1, c2, var):
    """Which cap a cut of opposite-sign premises breaks first, or None."""
    a, b = c1.coeff_of(var), c2.coeff_of(var)
    g = math.gcd(a, b)
    m1, m2 = abs(b) // g, abs(a) // g
    if abs(m1 * c1.rhs + m2 * c2.rhs) > RHS_CAP:
        return "rhs"
    raw = {}
    for v, c in c1.monomials:
        raw[v] = raw.get(v, 0) + m1 * c
    for v, c in c2.monomials:
        raw[v] = raw.get(v, 0) + m2 * c
    if any(abs(c) > COEFF_CAP for c in raw.values()):
        return "coeff"
    if abs(normalize(raw.items(), m1 * c1.rhs + m2 * c2.rhs).rhs) > COEFF_CAP:
        return "divided rhs"
    return None


def random_cut_pair(rng):
    """Two rows over up to 8 variables with opposite signs on the returned
    pivot; draws favour shared, cancelling and near-cap terms."""
    kind = rng.choice(["small", "cancel", "opposite", "coeff", "rhs", "divided"])
    n = 8
    pivot = rng.randrange(n)
    mag = {"coeff": lambda: rng.randint(2 ** 28, COEFF_CAP)}.get(
        kind, lambda: rng.randint(1, 9))
    s1 = set(rng.sample(range(n), rng.randint(0, 5))) | {pivot}
    s2 = set(rng.sample(range(n), rng.randint(0, 5))) | {pivot}
    t1 = {v: rng.choice([-1, 1]) * mag() for v in s1}
    a = t1[pivot]
    if kind in ("cancel", "opposite"):
        # c2 is a multiple of -c1 on some (cancel) or all (opposite) terms
        k = rng.randint(1, 3)
        keep = s1 if kind == "opposite" else {v for v in s1 if rng.random() < 0.6}
        t2 = {v: -k * t1[v] for v in keep | {pivot}}
        if kind == "cancel":
            t2.update({v: rng.choice([-1, 1]) * mag() for v in s2 - s1})
    else:
        t2 = {v: rng.choice([-1, 1]) * mag() for v in s2}
        t2[pivot] = -(1 if a > 0 else -1) * mag()
    big = {"rhs": 2 ** 61, "divided": 2 ** 31}.get(kind, 10)
    r1, r2 = rng.randint(-big, big), rng.randint(-big, big)
    return C(t1.items(), r1), C(t2.items(), r2), pivot


class TestCutAgainstReference:
    def test_matches_the_reference_on_random_pairs(self):
        rng = random.Random(47)
        seen = dict.fromkeys(["overlap", "disjoint", "cancel", "tautology",
                              "contradiction", "rhs", "coeff", "divided rhs"], 0)
        for _ in range(3000):
            c1, c2, var = random_cut_pair(rng)
            got, want = cut(c1, c2, var), reference_cut(c1, c2, var)
            assert got == want, (c1, c2, var)
            if got is None:
                seen[refusal_cap(c1, c2, var)] += 1
                continue
            vars1, vars2 = ({m.var for m in c.monomials} for c in (c1, c2))
            shared = vars1 & vars2
            seen["overlap" if len(shared) > 1 else "disjoint"] += 1
            assert all(type(m) is Monomial for m in got.monomials)
            assert [m.var for m in got.monomials] == sorted({m.var for m in got.monomials})
            if len(got.monomials) < len(vars1 | vars2) - 1:
                seen["cancel"] += 1
            if got.is_tautology():
                seen["tautology"] += 1
            elif got.is_contradiction():
                seen["contradiction"] += 1
        assert min(seen.values()) >= 20, seen


class TestNegateBound:
    def test_lower_becomes_upper(self):
        assert lo(1, 1).negated() == up(1, 0)

    def test_upper_becomes_lower(self):
        assert up(0, 0).negated() == lo(0, 1)

    def test_involution(self):
        assert lo(2, 5).negated().negated() == lo(2, 5)

    def test_partition_of_the_integer_line(self):
        rng = random.Random(10)
        for _ in range(200):
            b = Bound(0, rng.random() < 0.5, rng.randint(-50, 50))
            nb = b.negated()
            for v in range(-60, 61):
                assert b.satisfied_by(v) != nb.satisfied_by(v)


class TestEvaluate:
    def test_examples(self):
        assert C([(0, 1), (1, 1)], 1).satisfied_by({0: 0, 1: 1}) is True
        assert C([(0, -1), (1, -1), (2, -1)], -2).satisfied_by({0: 1, 1: 0, 2: 0}) is False
        assert C([(1, 11), (2, 4)], 7).satisfied_by({1: 0, 2: 1}) is True

    def test_degenerate(self):
        assert Constraint((), 0).satisfied_by({}) is True
        assert Constraint((), -1).satisfied_by({}) is False


class TestProblem:
    def test_rejects_empty_domain(self):
        with pytest.raises(ValueError):
            Problem(1, [2], [1])

    def test_rejects_bounds_of_the_wrong_length(self):
        # an error, not an assert, so that python -O rejects them too
        with pytest.raises(ValueError):
            Problem(3, [0, 0], [1, 1, 1])
        with pytest.raises(ValueError):
            Problem(2, [0, 0, 0], [1, 1, 5])

    def test_binary_detection(self):
        p = Problem(2, [0, 0], [1, 2])
        assert p.is_binary(0) and not p.is_binary(1)

    def test_check_solution_includes_box(self):
        p = Problem(1, [0], [3], [normalize([(0, 1)], 2)])
        assert p.check_solution([2]) and not p.check_solution([3])
        assert not p.check_solution([4])

"""Core domain types: variables, bounds, linear constraints, problems.

All arithmetic is exact integer arithmetic.  Coefficients are capped at
2**30 so that every intermediate result of propagation, cuts and
normalisation fits comfortably in 64 bits; operations that would break
the cap refuse to produce a result instead of aborting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat
from typing import Iterable, NamedTuple, Optional

COEFF_CAP = 2 ** 30
RHS_CAP = 2 ** 62
_END = ((math.inf, 0),)  # appended to rows so that a merge needs no index checks
_NEW = tuple.__new__  # makes a Monomial from a pair with no Python frame, unlike _make


class Monomial(NamedTuple):
    var: int
    coeff: int


class Bound(NamedTuple):
    """A one-variable constraint: ``value <= var`` (lower) or ``var <= value``."""

    var: int
    is_lower: bool
    value: int

    def negated(self) -> "Bound":
        # not(k <= x) is x <= k-1; not(x <= k) is k+1 <= x
        if self.is_lower:
            return Bound(self.var, False, self.value - 1)
        return Bound(self.var, True, self.value + 1)

    def satisfied_by(self, value: int) -> bool:
        return self.value <= value if self.is_lower else value <= self.value

    def format(self, names=None) -> str:
        name = names[self.var] if names else f"x{self.var}"
        if self.is_lower:
            return f"{self.value} <= {name}"
        return f"{name} <= {self.value}"

    def __str__(self) -> str:
        return self.format()


@dataclass(frozen=True)
class Constraint:
    """A linear inequality ``sum(coeff * var) <= rhs``.

    Monomials are sorted by variable and duplicate-free.  Use
    :func:`normalize` to build one from raw terms; instances produced by
    it have coefficient gcd 1.  An empty left-hand side means the
    degenerate constraint ``0 <= rhs``.
    """

    monomials: tuple
    rhs: int

    def coeff_of(self, var: int) -> int:
        for m in self.monomials:
            if m.var == var:
                return m.coeff
        return 0

    def is_degenerate(self) -> bool:
        return not self.monomials

    def is_tautology(self) -> bool:
        return not self.monomials and self.rhs >= 0

    def is_contradiction(self) -> bool:
        return not self.monomials and self.rhs < 0

    def satisfied_by(self, values) -> bool:
        """True iff the constraint holds under a full assignment.

        ``values`` is indexable by variable (mapping or sequence).
        """
        total = 0
        for var, coeff in self.monomials:
            total += coeff * values[var]
        return total <= self.rhs

    def format(self, names=None) -> str:
        if not self.monomials:
            return f"0 <= {self.rhs}"
        parts = []
        for var, coeff in self.monomials:
            name = names[var] if names else f"x{var}"
            mag = abs(coeff)
            if parts:
                lead = " + " if coeff > 0 else " - "
            else:
                lead = "" if coeff > 0 else "-"
            parts.append(f"{lead}{mag}*{name}" if mag != 1 else f"{lead}{name}")
        return "".join(parts) + f" <= {self.rhs}"

    def __str__(self) -> str:
        return self.format()


def normalize(monomials: Iterable, rhs: int) -> Constraint:
    """Canonical form: merge terms, sort by var, divide by the gcd.

    Dividing the right-hand side rounds down, which is sound and
    complete over the integers.  An all-zero left-hand side yields the
    degenerate constraint ``0 <= rhs`` with the rhs untouched; callers
    classify it as tautology or contradiction.
    """
    merged = {}
    for m in monomials:
        var, coeff = m
        merged[var] = merged.get(var, 0) + coeff
    terms = [(v, c) for v, c in sorted(merged.items()) if c != 0]
    if not terms:
        return Constraint((), rhs)
    d = 0
    for _, c in terms:
        d = math.gcd(d, c)
    if d > 1:
        terms = [(v, c // d) for v, c in terms]
        rhs = rhs // d  # Python floor division rounds toward -inf
    return Constraint(tuple(map(_NEW, repeat(Monomial), terms)), rhs)


def cut(c1: Constraint, c2: Constraint, var: int) -> Optional[Constraint]:
    """Nonnegative combination of two constraints eliminating ``var``.

    Requires opposite-sign coefficients on ``var``.  The multipliers are
    the minimal pair (|b|/g, |a|/g).  Returns None when the coefficients
    have the same sign or when any coefficient of the result, normalised
    in one merge of the sorted rows, would exceed the cap.  The merge
    raises RuntimeError should ``var`` not cancel, which these
    multipliers rule out.
    """
    a = c1.coeff_of(var)
    b = c2.coeff_of(var)
    if a == 0 or b == 0 or (a > 0) == (b > 0):
        return None
    g = math.gcd(a, b)
    m1 = abs(b) // g
    m2 = abs(a) // g
    rhs = m1 * c1.rhs + m2 * c2.rhs
    if abs(rhs) > RHS_CAP:
        return None
    t1, t2 = c1.monomials + _END, c2.monomials + _END
    i = j = d = 0
    terms = []
    while True:
        (v1, x1), (v2, x2) = t1[i], t2[j]
        if v1 < v2:
            v, c = v1, m1 * x1
            i += 1
        elif v2 < v1:
            v, c = v2, m2 * x2
            j += 1
        elif v1 == math.inf:
            break
        else:
            v, c = v1, m1 * x1 + m2 * x2
            i += 1
            j += 1
            if c == 0:
                continue
            if v == var:
                raise RuntimeError(f"internal error: the cut left x{var} with coefficient {c}")
        if abs(c) > COEFF_CAP:
            return None
        terms.append((v, c))
        d = math.gcd(d, c)
    if d > 1:
        terms = [(v, c // d) for v, c in terms]
        rhs //= d  # Python floor division rounds toward -inf
    if abs(rhs) > COEFF_CAP:
        # learned constraints keep the same cap as coefficients
        return None
    return Constraint(tuple(map(_NEW, repeat(Monomial), terms)), rhs)


@dataclass
class Objective:
    """Sparse linear objective, always minimised.  Integer coefficients.

    The raw value is sum(coeff * value); reports render
    (raw + offset) / scale, which undoes input scaling and constant terms.
    """

    coeffs: dict
    scale: int = 1  # a power of 10
    offset: int = 0

    def value_of(self, values) -> int:
        return sum(c * values[v] for v, c in self.coeffs.items())


@dataclass
class Problem:
    """An integer program: box bounds per variable, constraints, objective."""

    num_vars: int
    initial_lb: list
    initial_ub: list
    constraints: list = field(default_factory=list)
    objective: Optional[Objective] = None
    var_names: Optional[list] = None

    def __post_init__(self):
        if len(self.initial_lb) != self.num_vars or len(self.initial_ub) != self.num_vars:
            raise ValueError(f"initial_lb and initial_ub need {self.num_vars} entries each")
        for lb, ub in zip(self.initial_lb, self.initial_ub):
            if lb > ub:
                raise ValueError(f"empty initial domain [{lb}, {ub}]")

    def name_of(self, var: int) -> str:
        if self.var_names:
            return self.var_names[var]
        return f"x{var}"

    def is_binary(self, var: int) -> bool:
        return self.initial_lb[var] == 0 and self.initial_ub[var] == 1

    def check_solution(self, values) -> bool:
        for var in range(self.num_vars):
            if not self.initial_lb[var] <= values[var] <= self.initial_ub[var]:
                return False
        return all(c.satisfied_by(values) for c in self.constraints)


@dataclass
class Solution:
    values: list

    def __getitem__(self, var: int) -> int:
        return self.values[var]

"""Instance file parsing and solution output.

The format is line-oriented UTF-8 with ``#`` comments:

    var <name> int [<lb>, <ub>]
    min: <term> (+|- <term>)*
    <term> (+|- <term>)* (<=|>=|=) <number>

A term is an optional decimal number (at most 3 fraction digits), an
optional ``*``, and a variable name; or a bare number.  A ``+`` or ``-``
stands between terms.  Every variable must be declared with integer
bounds; a line is a declaration iff it starts with ``var `` and holds
no relation, so a row may start with a variable named ``var``.
``>=`` rows are negated into ``<=`` form, equalities are split in two,
and each row is scaled by the least power of 10 that clears its
decimals before normalisation: a number is read as an integer mantissa
and its count of fraction digits, so no rational arithmetic is needed.
"""

from __future__ import annotations

import re

from .model import COEFF_CAP, Constraint, Objective, Problem, normalize
from .search import (BOUNDED, FEASIBLE, INFEASIBLE, OPTIMAL, TIMELIMIT,
                     SolveOutcome)


class ParseError(ValueError):
    def __init__(self, message, line_no=None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


_VAR_RE = re.compile(
    r"^var\s+([A-Za-z_][A-Za-z0-9_]*)\s+int\s*"
    r"\[\s*(-?\d+)\s*,\s*(-?\d+)\s*\]$")
_NUMBER_RE = re.compile(r"-?\d+(\.\d+)?")
_TERM_RE = re.compile(r"\s*([+-])?\s*(\d+(?:\.\d+)?)?\s*(\*)?\s*"
                      r"([A-Za-z_][A-Za-z0-9_]*)?\s*")
_RELATION_RE = re.compile(r"(<=|>=|=)")


def _decimal(literal: str, line_no: int):
    """(mantissa, fraction digits) of a decimal literal: "-1.25" is (-125, 2)."""
    whole, _, frac = literal.partition(".")
    if len(frac) > 3:
        raise ParseError(f"more than 3 decimal digits in {literal!r}", line_no)
    return int(whole + frac), len(frac)


def _parse_terms(text: str, line_no: int, names: dict):
    """[(var or None, mantissa, fraction digits)], one entry per term."""
    text = text.strip()
    terms = []
    pos = 0
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        sign, number, star, name = m.groups()
        if number is None and name is None:
            raise ParseError(f"expected a term near {text[pos:]!r}"
                             if sign is None else "dangling sign", line_no)
        if terms and sign is None:
            raise ParseError(f"missing '+' or '-' before {text[pos:]!r}", line_no)
        if star is not None and (number is None or name is None):
            raise ParseError("'*' must join a coefficient to a variable", line_no)
        mantissa, digits = _decimal(number, line_no) if number is not None else (1, 0)
        if name is not None and name not in names:
            raise ParseError(
                f"variable {name!r} is not declared; every variable needs "
                f"'var {name} int [lb, ub]' (unbounded input is rejected)", line_no)
        var = names[name] if name is not None else None
        terms.append((var, -mantissa if sign == "-" else mantissa, digits))
        pos = m.end()
    if not terms:
        raise ParseError("empty expression", line_no)
    return terms


def _scale_row(terms, line_no: int):
    """The row times the least power of 10 that clears its decimals, as
    integer (var, coefficient) pairs, the sum of its bare terms and the power."""
    decimals = max(digits for _, _, digits in terms)
    out = []
    const = 0
    for var, mantissa, digits in terms:
        val = mantissa * 10 ** (decimals - digits)
        if var is None:
            const += val
        elif abs(val) > COEFF_CAP:
            raise ParseError(f"coefficient {val} exceeds the cap after scaling", line_no)
        else:
            out.append((var, val))
    return out, const, 10 ** decimals


def parse(text: str) -> Problem:
    names = {}
    lbs, ubs = [], []
    var_names = []
    constraints = []
    objective = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("var ") and not _RELATION_RE.search(line):
            m = _VAR_RE.match(line)
            if m is None:
                raise ParseError("malformed variable declaration "
                                 "(expected: var <name> int [<lb>, <ub>])", line_no)
            name, lb, ub = m.group(1), int(m.group(2)), int(m.group(3))
            if name in names:
                raise ParseError(f"duplicate variable {name!r}", line_no)
            if abs(lb) > COEFF_CAP or abs(ub) > COEFF_CAP:
                raise ParseError("bound magnitude exceeds the cap", line_no)
            if lb > ub:
                raise ParseError(f"empty domain [{lb}, {ub}]", line_no)
            names[name] = len(var_names)
            var_names.append(name)
            lbs.append(lb)
            ubs.append(ub)
            continue
        if line.startswith("min:"):
            if objective is not None:
                raise ParseError("duplicate objective", line_no)
            int_terms, const, scale = _scale_row(_parse_terms(line[4:], line_no, names),
                                                 line_no)
            coeffs = {}
            for var, c in int_terms:
                coeffs[var] = coeffs.get(var, 0) + c
            coeffs = {v: c for v, c in coeffs.items() if c != 0}
            if any(abs(c) > COEFF_CAP for c in coeffs.values()):
                raise ParseError("a merged objective coefficient exceeds the cap", line_no)
            # a constant term shifts the reported value, not the search
            objective = Objective(coeffs, scale, offset=const)
            continue
        m = _RELATION_RE.search(line)
        if m is None:
            raise ParseError("expected a constraint, declaration or objective", line_no)
        relation = m.group(1)
        lhs_text, rhs_text = line[:m.start()], line[m.end():]
        rhs_text = rhs_text.strip()
        if not _NUMBER_RE.fullmatch(rhs_text):
            raise ParseError(f"right-hand side must be a number, got {rhs_text!r}",
                             line_no)
        rhs, digits = _decimal(rhs_text, line_no)
        terms = _parse_terms(lhs_text, line_no, names) + [(None, -rhs, digits)]
        int_terms, const, _ = _scale_row(terms, line_no)
        int_rhs = -const  # lhs - rhs <= 0
        rows = []
        if relation in ("<=", "="):
            rows.append((int_terms, int_rhs))
        if relation in (">=", "="):
            rows.append(([(v, -c) for v, c in int_terms], -int_rhs))
        for row_terms, row_rhs in rows:
            c = normalize(row_terms, row_rhs)
            # each term is within the cap, so only a row whose terms merged can pass it
            if len(c.monomials) < len(row_terms) and any(
                    abs(m.coeff) > COEFF_CAP for m in c.monomials):
                raise ParseError("a merged coefficient exceeds the cap", line_no)
            if c.is_tautology():
                continue
            constraints.append(c)
    problem = Problem(
        num_vars=len(var_names),
        initial_lb=lbs,
        initial_ub=ubs,
        constraints=constraints,
        objective=objective,
        var_names=var_names,
    )
    return problem


def parse_file(path) -> Problem:
    with open(path, "r", encoding="utf-8") as f:
        return parse(f.read())


def format_objective_value(value: int, scale: int) -> str:
    """Exact decimal rendering of value/scale (scale is a power of 10)."""
    if scale == 1:
        return str(value)
    sign = "-" if value < 0 else ""
    q, r = divmod(abs(value), scale)
    digits = len(str(scale)) - 1
    frac = str(r).rjust(digits, "0").rstrip("0")
    return f"{sign}{q}.{frac}" if frac else f"{sign}{q}"


def write_solution(outcome: SolveOutcome, problem: Problem) -> str:
    lines = []
    obj = problem.objective

    def fmt(raw):
        return format_objective_value(raw + obj.offset, obj.scale)

    if outcome.status == INFEASIBLE:
        lines.append("INFEASIBLE")
    elif outcome.status == OPTIMAL:
        lines.append(f"OPTIMAL {fmt(outcome.objective_value)}")
    elif outcome.solution is not None:  # feasible / bounded / timelimit-with-incumbent
        if outcome.objective_value is not None:
            lines.append(f"FEASIBLE {fmt(outcome.objective_value)}")
        else:
            lines.append("FEASIBLE")
    else:
        lines.append("UNKNOWN")
    if outcome.solution is not None:
        for var in range(problem.num_vars):
            lines.append(f"{problem.name_of(var)} = {outcome.solution.values[var]}")
    return "\n".join(lines) + "\n"


def _render_terms(pairs, problem, scale=1) -> str:
    """(var, coefficient) pairs, each coefficient over ``scale``, as a sum of
    terms; a var of None gives a bare number."""
    parts = []
    for v, c in pairs:
        if c == 0:
            continue
        mag = format_objective_value(abs(c), scale)
        if v is not None:
            mag += f"*{problem.name_of(v)}"
        if not parts:
            parts.append(mag if c > 0 else f"-{mag}")
        else:
            parts.append(f"+ {mag}" if c > 0 else f"- {mag}")
    return " ".join(parts) if parts else "0"


def write_problem(problem: Problem) -> str:
    """Render a Problem back into the instance format (round-trip aid)."""
    lines = []
    for v in range(problem.num_vars):
        lines.append(f"var {problem.name_of(v)} int "
                     f"[{problem.initial_lb[v]}, {problem.initial_ub[v]}]")
    obj = problem.objective
    if obj is not None:  # exact decimals, so the reported values survive a reparse
        terms = sorted(obj.coeffs.items()) + [(None, obj.offset)]
        lines.append("min: " + _render_terms(terms, problem, obj.scale))
    for c in problem.constraints:
        lines.append(f"{_render_terms(c.monomials, problem)} <= {c.rhs}")
    return "\n".join(lines) + "\n"

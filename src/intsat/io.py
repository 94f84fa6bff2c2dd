"""Instance file parsing and solution output.

The format is line-oriented UTF-8 with ``#`` comments:

    var <name> int [<lb>, <ub>]
    min: <term> (+|- <term>)*
    <term> (+|- <term>)* (<=|>=|=) <number>

A term is an optional decimal number (at most 3 fraction digits), an
optional ``*``, and a variable name; or a bare number.  Every variable
must be declared with integer bounds.  ``>=`` rows are negated into
``<=`` form, equalities are split in two, and each row is scaled by the
least power of 10 that clears its decimals before normalisation.
"""

from __future__ import annotations

import re
from fractions import Fraction

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
_TOKEN_RE = re.compile(r"\s*(?:(\d+\.\d+|\d+)|([A-Za-z_][A-Za-z0-9_]*)|([+\-*]))")
_RELATION_RE = re.compile(r"(<=|>=|=)")


def _check_decimals(literal: str, line_no: int):
    if "." in literal and len(literal.split(".")[1]) > 3:
        raise ParseError(f"more than 3 decimal digits in {literal!r}", line_no)


def _parse_terms(text: str, line_no: int, names: dict):
    """[(var or None, Fraction coefficient)] plus the max decimal count."""
    text = text.strip()
    terms = []
    decimals = 0
    pos = 0
    sign = 1
    pending_coeff = None
    seen_sign = False
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            raise ParseError(f"cannot parse term near {text[pos:]!r}", line_no)
        pos = m.end()
        number, name, op = m.groups()
        if op in ("+", "-"):
            if pending_coeff is not None:
                terms.append((None, sign * pending_coeff))
                pending_coeff = None
            elif seen_sign:
                raise ParseError("dangling sign", line_no)
            sign = 1 if op == "+" else -1
            seen_sign = True
            continue
        if op == "*":
            if pending_coeff is None:
                raise ParseError("'*' without a coefficient", line_no)
            continue
        if number is not None:
            if pending_coeff is not None:
                raise ParseError("two numbers in a row", line_no)
            _check_decimals(number, line_no)
            if "." in number:
                decimals = max(decimals, len(number.split(".")[1]))
            pending_coeff = Fraction(number)
            continue
        # a variable name
        if name not in names:
            raise ParseError(
                f"variable {name!r} is not declared; every variable needs "
                f"'var {name} int [lb, ub]' (unbounded input is rejected)", line_no)
        coeff = pending_coeff if pending_coeff is not None else Fraction(1)
        terms.append((names[name], sign * coeff))
        pending_coeff = None
        sign = 1
        seen_sign = False
    if pending_coeff is not None:
        terms.append((None, sign * pending_coeff))
    elif seen_sign:
        raise ParseError("dangling sign", line_no)
    if not terms:
        raise ParseError("empty expression", line_no)
    return terms, decimals


def _scale_row(terms, rhs: Fraction, decimals: int, line_no: int):
    """Integer coefficients via the least clearing power of 10 for this row."""
    scale = 10 ** decimals
    out = []
    const = 0
    for var, coeff in terms:
        val = coeff * scale
        assert val.denominator == 1
        if var is None:
            const += int(val)
        else:
            out.append((var, int(val)))
    rhs_int = rhs * scale
    assert rhs_int.denominator == 1
    rhs_int = int(rhs_int) - const
    for _, c in out:
        if abs(c) > COEFF_CAP:
            raise ParseError(f"coefficient {c} exceeds the cap after scaling", line_no)
    return out, rhs_int, scale


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
        if line.startswith("var "):
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
            terms, decimals = _parse_terms(line[4:], line_no, names)
            int_terms, neg_const, scale = _scale_row(terms, Fraction(0), decimals, line_no)
            coeffs = {}
            for var, c in int_terms:
                coeffs[var] = coeffs.get(var, 0) + c
            coeffs = {v: c for v, c in coeffs.items() if c != 0}
            # a constant term shifts the reported value, not the search
            objective = Objective(coeffs, scale, offset=-neg_const)
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
        _check_decimals(rhs_text, line_no)
        terms, decimals = _parse_terms(lhs_text, line_no, names)
        rhs = Fraction(rhs_text)
        if "." in rhs_text:
            decimals = max(decimals, len(rhs_text.split(".")[1]))
        int_terms, int_rhs, _ = _scale_row(terms, rhs, decimals, line_no)
        rows = []
        if relation in ("<=", "="):
            rows.append((int_terms, int_rhs))
        if relation in (">=", "="):
            rows.append(([(v, -c) for v, c in int_terms], -int_rhs))
        for row_terms, row_rhs in rows:
            c = normalize(row_terms, row_rhs)
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


def _render_terms(pairs, problem) -> str:
    parts = []
    for v, c in pairs:
        if c == 0:
            continue
        mag = f"{abs(c)}*{problem.name_of(v)}"
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
    if problem.objective is not None:
        lines.append("min: " + _render_terms(sorted(problem.objective.coeffs.items()),
                                             problem))
    for c in problem.constraints:
        lines.append(f"{_render_terms(c.monomials, problem)} <= {c.rhs}")
    return "\n".join(lines) + "\n"

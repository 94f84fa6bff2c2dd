"""Cut mode's one presolve step: at-most-one rows grow into cliques.

An at-most-one row over binary variables has only +1 and -1 terms and
rhs 1 minus its number of -1 terms.  Read over literal codes, as the
literal tiers read them (``2*v + 1`` for a +v term, the literal "v is
1", and ``2*v`` for a -v term, the literal "v is 0", which enters the row
as ``1 - v``), it says that at most one of its literals is true, so each
pair of them is an edge of the literal conflict graph.  A pair row such
as ``x + y <= 1``, which the binary tier files, is one.

Each such row is extended greedily to a clique of that graph: its
common neighbours are the candidates, taken in code order while they
stay adjacent to every literal taken so far.  A row holds each variable
once, so no literal is adjacent to its complement and no clique holds
both.  Every edge comes from an input row, so a clique's row holds in
every solution, and it implies each row it strictly extends: replacing
those rows by the cliques keeps the 0-1 solution set.  Cutting planes
reason over a whole clique at once, where the pair rows take many
conflicts (pigeonhole is the extreme case; Cook, Coullard & Turan,
1987); MIP presolve merges such rows the same way (Achterberg, Bixby,
Gu, Rothberg & Weninger, INFORMS J. Computing 2020).
"""

from __future__ import annotations

from functools import reduce
from operator import and_

from .model import Constraint


def clique_rows(problem):
    """(cliques, replaced): the distinct cliques the problem's at-most-one
    rows extend to, as rows in order of the first row extending to each,
    leaving out a clique equal to an input row that extends to nothing,
    and the set of input cids that some clique strictly extends.

    A set of codes is an int with bit ``code`` set for each, so the
    neighbours common to a row's literals are one ``&`` per literal."""
    lb0, ub0 = problem.initial_lb, problem.initial_ub
    rows = []  # (cid, codes, their set, number of -v terms) of each at-most-one row
    adjacent = [0] * (2 * problem.num_vars)  # the codes sharing a row with a code, itself too
    terms = adjacent.copy()  # the term of a code in the rows: +v for 2*v + 1, -v for 2*v
    for cid, c in enumerate(problem.constraints):
        monomials = c.monomials
        if len(monomials) < 2:
            continue
        codes = []
        row = negatives = 0
        for term in monomials:
            var, coeff = term
            if lb0[var] or ub0[var] != 1:
                break
            if coeff == 1:
                code = 2 * var + 1
            elif coeff == -1:
                code = 2 * var
                negatives += 1
            else:
                break
            codes.append(code)
            row |= 1 << code
            terms[code] = term
        else:
            if c.rhs == 1 - negatives:
                rows.append((cid, codes, row, negatives))
                for code in codes:
                    adjacent[code] |= row
    extended = {}  # clique -> its codes and -v terms, in order of the first row extending to it
    replaced = set()
    kept = []
    for cid, codes, row, negatives in rows:
        common = reduce(and_, map(adjacent.__getitem__, codes))  # row included
        if common == row:
            kept.append(row)
            continue
        clique = codes.copy()
        candidates = common ^ row
        while candidates:  # in code order, while adjacent to every literal taken
            low = candidates & -candidates
            candidates ^= low
            if common & low:
                code = low.bit_length() - 1
                clique.append(code)
                negatives += not code & 1
                common &= adjacent[code]
        extended.setdefault(common, (clique, negatives))
        replaced.add(cid)
    for row in kept:
        extended.pop(row, None)
    # sorted by variable and with gcd 1, each row is normalised
    return [Constraint(tuple(map(terms.__getitem__, sorted(clique))), 1 - negatives)
            for clique, negatives in extended.values()], replaced

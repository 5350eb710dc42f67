"""Per-variable greedy pass and coverage loop: the reference for lpverify.

rtlab walks the variables of a stability program in runs, between the points
where a new row's lo is reached, and does its exact work once per run.  These
two functions do the same work one variable at a time, with a Fraction
operation for each; the tests hold the run-length passes to them.
"""

from fractions import Fraction

from rtlab.errors import ContractViolationError
from rtlab.exactnum import EQUAL
from rtlab.lpverify import DualCertificate


def _in_cap(lp, idx: int) -> bool:
    return lp.free_cap is not None and lp.free_range[0] <= idx <= lp.free_range[1]


def _rows_by_lo(lp) -> list[int]:
    return sorted(range(len(lp.rows)), key=lambda i: lp.rows[i].lo)


def greedy_oracle(lp):
    """(x*, DualCertificate) from one upward pass over every variable: each
    variable t is charged t/prev(t) to the row attaining U(t), and gets the
    mass U(t) - U(next(t))."""
    dims = lp.dims()
    block = [t for t in dims if _in_cap(lp, t)]
    chain = [t for t in dims if not _in_cap(lp, t)]
    order = _rows_by_lo(lp)
    if block and order and lp.rows[order[0]].lo <= block[-1]:
        raise ContractViolationError("the cap block overlaps a suffix row")
    q = [Fraction(1)] * len(lp.rows)
    u_at = []
    best = None
    nxt = 0
    prev = 1
    for t in chain:
        while nxt < len(order) and lp.rows[order[nxt]].lo <= t:
            if best is None or lp.rows[order[nxt]].coef > lp.rows[best].coef:
                best = order[nxt]
            nxt += 1
        if best is None:
            raise ContractViolationError(
                f"variable e_{t} lies in no row or cap: the program is unbounded")
        q[best] *= Fraction(t, prev)
        u_at.append(1 / lp.rows[best].coef)
        prev = t
    point = {t: u - u_next for t, u, u_next in zip(chain, u_at, u_at[1:] + [Fraction(0)])
             if t > 1 and u != u_next}
    q_cap = None
    if lp.free_cap is not None:
        q_cap = Fraction(block[-1] if block else 1)
        if block:
            point[block[-1]] = lp.free_cap
    return point, DualCertificate(tuple(q), q_cap)


def dual_holds_oracle(lp, dual, value) -> bool:
    """Weak duality checked at every variable: every q >= 1, the product of
    q over the rows (and cap) covering each j is >= j, and the dual objective
    EQUALS value."""
    if len(dual.rows) != len(lp.rows) or (dual.cap is None) != (lp.free_cap is None):
        return False
    if any(q < 1 for q in dual.rows) or (dual.cap is not None and dual.cap < 1):
        return False
    order = _rows_by_lo(lp)
    covered = Fraction(1)
    nxt = 0
    for t in lp.dims():
        while nxt < len(order) and lp.rows[order[nxt]].lo <= t:
            covered *= dual.rows[order[nxt]]
            nxt += 1
        if (covered * dual.cap if _in_cap(lp, t) else covered) < t:
            return False
    return dual.value(lp).compare(value) == EQUAL

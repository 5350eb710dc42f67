"""Exact-rational certification of the stability argument's linear program.

The program lives over edge-class masses e_j (j = index of a color-list
size), normalized so the unit on every right-hand side is 1.  Constraints
are suffix sums c_i * (e_lo + ... + e_{s-1}) <= 1; the objective maximizes
prod j ** e_j, handled multiplicatively as a PowerProduct so rational
points compare exactly and no logarithm ever enters the arithmetic.
Because the rows are nested suffix sums, a greedy pass finds the optimum
and dual multipliers y_i = ln q_i with rational q_i.  Optimality is then
certified by weak duality: the point is feasible in rationals, every
q_i >= 1, each variable j is covered by multipliers whose product is
>= j, and the dual objective prod q_i^(1/coef_i) is EQUAL to the point's
value.  The governing row and the covering product change only where a
row's lo is reached, so both passes walk the variables in runs between
those points: the exact work is O(rows) plus one PowerProduct comparison,
and a variable costs only integer bookkeeping and its JSON entry.  A claimed
point equal to the greedy optimum shares its check; any other point gets its
own row check and one more comparison.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from .errors import ContractViolationError
from .exactnum import EQUAL, PowerProduct
from .thresholds import Regime, bracket_terms, cap_A, cap_index, l_param, regime_params, \
    telescoping_terms, witness_feasible

VARIANT_LOW = "LOW"
VARIANT_MID_HIGH = "MID_HIGH"

_ZERO = Fraction(0)


@dataclass(frozen=True)
class SuffixConstraint:
    """coef * (e_lo + e_{lo+1} + ... + e_{s-1}) <= 1."""

    coef: Fraction
    lo: int


@dataclass(frozen=True)
class StabilityLP:
    k: int
    s: int
    variant: str
    rows: tuple[SuffixConstraint, ...]
    variables: tuple[int, ...]          # objective-bearing indices (>= 2)
    include_e1: bool                    # e_1 participates with objective factor 1
    free_cap: Fraction | None = None    # bound on sum of e_2..e_{s-A(k,2)-1}
    free_range: tuple[int, int] | None = None
    p: int | None = None
    j: int | None = None

    def dims(self) -> tuple[int, ...]:
        return ((1,) if self.include_e1 else ()) + self.variables

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "s": self.s,
            "variant": self.variant,
            "rows": [{"coef": _frac_str(c.coef), "lo": c.lo, "hi": self.s - 1, "bound": "1"}
                     for c in self.rows],
            "variables": list(self.variables),
            "include_e1": self.include_e1,
            "free_cap": _frac_str(self.free_cap) if self.free_cap is not None else None,
            "free_range": list(self.free_range) if self.free_range else None,
            "p": self.p,
            "j": self.j,
        }


def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def build_lp(k: int, s: int, p: int | None = None, j: int | None = None) -> StabilityLP:
    """Assemble the constraint system for (k, s), in the regime
    thresholds.regime_params gives it.

    Row i, for i in [1, top], is (k-i-1)/(k-i) * (e_lo + ... + e_{s-1}) <= 1
    with lo = max(1, s - A(k, k-i)).  LOW (s <= s0) has top = i*, and its
    last row's range can clamp at index 1, in which case e_1 joins the
    instance with objective weight of factor 1.  MID_HIGH has top = k-2,
    where no row clamps, and adds the cap on the low indices the suffix rows
    cannot reach, weighted by the feasible witness pair (p, j), by default
    the L_opt witness.  Either way the top row i is len(rows).
    """
    params = regime_params(k, s)
    low = params.regime is Regime.LOW
    if low:
        if (p, j) != (None, None):
            raise ContractViolationError(
                f"s = {s} is in the LOW range, up to {params.s0}: its program takes no witness")
    elif (p, j) == (None, None):
        p, j = params.l_opt_witness
    elif None in (p, j) or not witness_feasible(k, s, p, j):
        raise ContractViolationError(f"(p, j) = {(p, j)} is no witness for (k, s) = {(k, s)}")
    top = params.i_star if low else k - 2
    rows = tuple(SuffixConstraint(Fraction(k - i - 1, k - i), max(1, s - cap_A(k, k - i)))
                 for i in range(1, top + 1))
    if low:
        lo_min = min(c.lo for c in rows)
        return StabilityLP(k, s, VARIANT_LOW, rows,
                           variables=tuple(range(max(2, lo_min), s)),
                           include_e1=lo_min <= 1)
    return StabilityLP(k, s, VARIANT_MID_HIGH, rows,
                       variables=tuple(range(2, s)),
                       include_e1=False,
                       free_cap=l_param(k, p, j),
                       free_range=(2, cap_index(k, s)),
                       p=p, j=j)


def _telescoped(lp: StabilityLP) -> list[tuple[int, Fraction]]:
    """The telescoping terms through the program's top row; none at s = 2."""
    return [] if lp.s == 2 else telescoping_terms(lp.k, lp.s, len(lp.rows))


def claimed_solution(lp: StabilityLP) -> dict[int, Fraction]:
    """The closed-form optimum: the telescoping terms, plus the cap for MID_HIGH.

    LOW takes the terms through i*; s = 2 has no objective-bearing index, so
    its point is empty with value 1.  MID_HIGH puts the whole cap on the top
    index of the free block: thresholds.bracket_terms, as in case_bases'
    upper bound.
    """
    if lp.free_cap is not None:
        return dict(bracket_terms(lp.k, lp.s, lp.free_cap))
    return dict(_telescoped(lp))


@dataclass(frozen=True)
class DualCertificate:
    """Dual multipliers y = ln q, one per row, plus one for the cap.

    With u_i = 1/coef_i, row i reads S(lo_i) <= u_i, where S(t) is the sum
    of e_j over j >= t.  The dual objective is prod q_i^u_i * q_cap^cap.
    """

    rows: tuple[Fraction, ...]
    cap: Fraction | None = None

    def value(self, lp: StabilityLP) -> PowerProduct:
        factors = []
        for q, c in zip(self.rows, lp.rows):
            u = 1 / c.coef
            factors += [(q.numerator, u), (q.denominator, -u)]
        if self.cap is not None:
            factors += [(self.cap.numerator, lp.free_cap), (self.cap.denominator, -lp.free_cap)]
        return PowerProduct(factors)

    def to_dict(self) -> dict:
        return {"rows": [_frac_str(q) for q in self.rows],
                "cap": _frac_str(self.cap) if self.cap is not None else None}


@dataclass
class LPCertificate:
    lp: StabilityLP
    claimed_point: dict[int, Fraction]
    claimed_value: PowerProduct
    feasible: bool
    tight_rows: tuple[int, ...]
    vertex_max: PowerProduct
    optimal: bool
    argmax_vertex: tuple[Fraction, ...]
    dual: DualCertificate
    sum_of_point: Fraction
    support_sum_expected: Fraction
    support_sum_actual: Fraction
    support_sum_matches: bool
    support: tuple[int, ...] = field(default_factory=tuple)

    def to_json_obj(self) -> dict:
        dims = self.lp.dims()
        return {
            "lp": self.lp.to_dict(),
            "claimed_point": {str(i): _frac_str(v) for i, v in sorted(self.claimed_point.items())},
            "claimed_value_factors": self.claimed_value.factor_list(),
            "feasible": self.feasible,
            "tight_rows": list(self.tight_rows),
            "vertex_max_factors": self.vertex_max.factor_list(),
            "optimal": self.optimal,
            "argmax_vertex": {str(i): _frac_str(v) for i, v in zip(dims, self.argmax_vertex)},
            "dual": self.dual.to_dict(),
            "sum_of_point": _frac_str(self.sum_of_point),
            "support": list(self.support),
            "support_sum_expected": _frac_str(self.support_sum_expected),
            "support_sum_actual": _frac_str(self.support_sum_actual),
            "support_sum_matches": self.support_sum_matches,
        }


def _solve_square(mat, rhs):
    """Gaussian elimination over Fractions; None when singular."""
    n = len(mat)
    a = [row[:] + [rhs[i]] for i, row in enumerate(mat)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        inv = a[col][col]
        a[col] = [x / inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]


def _constraint_matrix(lp: StabilityLP):
    dims = lp.dims()
    rows = []
    bounds = []
    for c in lp.rows:
        rows.append([c.coef if idx >= c.lo else Fraction(0) for idx in dims])
        bounds.append(Fraction(1))
    if lp.free_cap is not None:
        lo, hi = lp.free_range
        rows.append([Fraction(1) if lo <= idx <= hi else Fraction(0) for idx in dims])
        bounds.append(lp.free_cap)
    return dims, rows, bounds


def objective_value(point: dict[int, Fraction]) -> PowerProduct:
    """prod j ** e_j; index 1 contributes factor 1 and drops out."""
    return PowerProduct(tuple((idx, e) for idx, e in point.items() if e != 0))


def enumerate_vertices(lp: StabilityLP):
    """All basic feasible solutions, deduplicated and sorted.

    Every vertex activates some subset of the rows plus enough e_j = 0
    pins; equivalently, pick equally many rows and basic variables and
    solve the square rational system.  Singular systems are counted, never
    silently dropped.  Exponential in the instance size, so certify does not
    use it; it is kept only as the tests' independent oracle and as a span
    of the benchmark's traced run (perfbench/tracing.py).
    """
    dims, rows, bounds = _constraint_matrix(lp)
    d = len(dims)
    nrows = len(rows)
    seen = {}
    degenerate = 0
    zero = tuple(Fraction(0) for _ in range(d))
    seen[zero] = True
    for nr in range(1, min(nrows, d) + 1):
        for rset in combinations(range(nrows), nr):
            for bset in combinations(range(d), nr):
                mat = [[rows[ri][bi] for bi in bset] for ri in rset]
                sol = _solve_square(mat, [bounds[ri] for ri in rset])
                if sol is None:
                    degenerate += 1
                    continue
                if any(x < 0 for x in sol):
                    continue
                full = [Fraction(0)] * d
                for bi, x in zip(bset, sol):
                    full[bi] = x
                if all(sum(row[i] * full[i] for i in range(d)) <= bd
                       for row, bd in zip(rows, bounds)):
                    seen[tuple(full)] = True
    return sorted(seen), degenerate


def _in_cap(lp: StabilityLP, idx: int) -> bool:
    return lp.free_cap is not None and lp.free_range[0] <= idx <= lp.free_range[1]


def _cap_span(lp: StabilityLP, dims: tuple[int, ...]) -> tuple[int, int]:
    """Positions [a, b) of the cap block in the sorted dims; (0, 0) without a cap."""
    if lp.free_cap is None:
        return 0, 0
    return bisect_left(dims, lp.free_range[0]), bisect_right(dims, lp.free_range[1])


def _rows_by_lo(lp: StabilityLP) -> list[int]:
    return sorted(range(len(lp.rows)), key=lambda i: lp.rows[i].lo)


def greedy_optimum(lp: StabilityLP) -> tuple[dict[int, Fraction], DualCertificate]:
    """The optimum x* and a dual certificate for it, from one upward pass.

    The cap block lies below every row, so the variables split into two
    chains.  On the cap chain the whole cap goes to the top index h, and
    q_cap = h.  On the suffix chain the objective is sum_t S(t) ln(t/prev(t)),
    prev(first) = 1, with every weight >= 0; so S(t) = U(t), the least u_i
    over the rows with lo_i <= t, maximizes every term at once, and U never
    increases, so each mass U(t) - U(next(t)) is >= 0.  e_1 has weight 0
    and stays empty, which keeps S(1) = S(2) <= U(1).  Charging t/prev(t)
    to the row attaining U(t) gives q with the same objective value.

    The governing row changes only where a new row's lo is reached, so the
    chain splits into runs between those points.  A run's ratios telescope
    to end/prev(first), charged to its row in one product, and U changes
    only at run ends, so mass sits there alone: O(rows + vars) in all, of
    which only O(rows) is Fraction work.  Nothing here is trusted: certify
    checks both halves exactly.
    """
    dims = lp.dims()
    a, b = _cap_span(lp, dims)
    block, chain = dims[a:b], dims[:a] + dims[b:]
    order = _rows_by_lo(lp)
    if block and order and lp.rows[order[0]].lo <= block[-1]:
        raise ContractViolationError("the cap block overlaps a suffix row")
    runs = []                       # (position of the run's first t in chain, its row)
    for i in order:
        at = bisect_left(chain, lp.rows[i].lo)
        if at == len(chain):
            break
        if not runs or lp.rows[i].coef > lp.rows[runs[-1][1]].coef:
            if runs and runs[-1][0] == at:
                runs.pop()
            runs.append((at, i))
    if chain and (not runs or runs[0][0] > 0):
        raise ContractViolationError(
            f"variable e_{chain[0]} lies in no row or cap: the program is unbounded")
    q = [Fraction(1)] * len(lp.rows)
    u = [1 / lp.rows[i].coef for _, i in runs] + [_ZERO]
    point = {}
    prev = 1
    for n, (_, i) in enumerate(runs):
        end = chain[runs[n + 1][0] - 1] if n + 1 < len(runs) else chain[-1]
        q[i] *= Fraction(end, prev)
        if end > 1 and u[n] != u[n + 1]:
            point[end] = u[n] - u[n + 1]
        prev = end
    q_cap = None
    if lp.free_cap is not None:
        q_cap = Fraction(block[-1] if block else 1)
        if block:
            point[block[-1]] = lp.free_cap
    return point, DualCertificate(tuple(q), q_cap)


def _row_checks(lp: StabilityLP, point: dict[int, Fraction]) -> tuple[bool, tuple[int, ...]]:
    """Exact feasibility of a point and its tight rows (the cap counts last),
    from one downward suffix-sum pass over the point's entries."""
    entries = sorted(point.items(), reverse=True)
    lhs = [_ZERO] * len(lp.rows)
    acc = _ZERO
    n = 0
    for i in _rows_by_lo(lp)[::-1]:
        while n < len(entries) and entries[n][0] >= lp.rows[i].lo:
            acc += entries[n][1]
            n += 1
        lhs[i] = lp.rows[i].coef * acc
    bounds = [Fraction(1)] * len(lp.rows)
    if lp.free_cap is not None:
        lhs.append(sum((v for t, v in point.items() if _in_cap(lp, t)), _ZERO))
        bounds.append(lp.free_cap)
    feasible = all(v >= 0 for v in point.values()) and all(a <= b for a, b in zip(lhs, bounds))
    return feasible, tuple(i for i, (a, b) in enumerate(zip(lhs, bounds)) if a == b)


def dual_holds(lp: StabilityLP, dual: DualCertificate, value: PowerProduct) -> bool:
    """Weak duality: True when dual is feasible and its objective EQUALS value,
    which then bounds every feasible point's objective from above.

    Feasibility: every q >= 1, and for each variable j the product of q over
    the rows (and cap) covering j is >= j.  That product changes only where
    a row's lo is reached and at the ends of the cap block, so each run
    between those points is checked once, at its largest index: one running
    product over the rows sorted by lo keeps this O(rows + vars), of which
    only O(rows) is Fraction work.
    """
    if len(dual.rows) != len(lp.rows) or (dual.cap is None) != (lp.free_cap is None):
        return False
    if any(q < 1 for q in dual.rows) or (dual.cap is not None and dual.cap < 1):
        return False
    dims = lp.dims()
    order = _rows_by_lo(lp)
    a, b = _cap_span(lp, dims)
    cuts = {bisect_left(dims, lp.rows[i].lo) for i in order} | {a, b, len(dims)}
    covered = Fraction(1)
    nxt = 0
    for end in sorted(cuts - {0}):
        t = dims[end - 1]
        while nxt < len(order) and lp.rows[order[nxt]].lo <= t:
            covered *= dual.rows[order[nxt]]
            nxt += 1
        if (covered * dual.cap if a < end <= b else covered) < t:
            return False
    return dual.value(lp).compare(value) == EQUAL


def certify(lp: StabilityLP, point: dict[int, Fraction]) -> LPCertificate:
    """Check the point exactly against the optimum certified by weak duality.

    A point equal to the greedy optimum, zero entries aside, shares that
    optimum's row check and value; any other point gets its own row check
    and one comparison with the optimum.
    """
    dims = lp.dims()
    for idx in point:
        if idx not in dims:
            raise ContractViolationError(f"point index {idx} is not a variable of this instance")
    point = {idx: Fraction(v) for idx, v in point.items()}

    best_point, dual = greedy_optimum(lp)
    best = objective_value(best_point)
    best_feasible, best_tight = _row_checks(lp, best_point)
    if not best_feasible or not dual_holds(lp, dual, best):
        raise ContractViolationError(
            f"the greedy optimum of {lp.variant} (k, s) = {(lp.k, lp.s)} fails its certificate")
    if {idx: v for idx, v in point.items() if v != 0} == best_point:
        feasible, tight, claimed_value, optimal = True, best_tight, best, True
    else:
        feasible, tight = _row_checks(lp, point)
        claimed_value = objective_value(point)
        optimal = feasible and claimed_value.compare(best) == EQUAL

    supp = tuple(idx for idx, _ in _telescoped(lp))
    actual = sum((point[i] for i in supp if i in point), _ZERO)
    expected = Fraction(2)
    return LPCertificate(
        lp=lp, claimed_point=point, claimed_value=claimed_value,
        feasible=feasible, tight_rows=tight,
        vertex_max=best, optimal=optimal,
        argmax_vertex=tuple(best_point.get(idx, _ZERO) for idx in dims), dual=dual,
        sum_of_point=sum(point.values(), _ZERO),
        support_sum_expected=expected, support_sum_actual=actual,
        support_sum_matches=actual == expected, support=supp)


def case_bases(lp: StabilityLP) -> tuple[PowerProduct, PowerProduct]:
    """The two bracketed bounds that differ only in the net weight (L-2 vs L,
    L the cap weight) on the cap index factor (thresholds.bracket_terms)."""
    if lp.free_cap is None:
        raise ContractViolationError("case bases need a MID_HIGH program")
    return (PowerProduct(bracket_terms(lp.k, lp.s, lp.free_cap - 2)),
            PowerProduct(bracket_terms(lp.k, lp.s, lp.free_cap)))


def compare_case_bases(lp: StabilityLP) -> int:
    """Exact ordering of the two bounds; never greater, equal when the head
    factor is 1."""
    lower, upper = case_bases(lp)
    return lower.compare(upper)

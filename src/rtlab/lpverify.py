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
value.  All of it costs O(rows + vars) plus one PowerProduct comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import comb

from .errors import ContractViolationError
from .exactnum import EQUAL, PowerProduct, pp_compare
from .thresholds import b_param, cap_A, i_star, l_param, r0_base, s0, telescoping_terms

VARIANT_LOW = "LOW"
VARIANT_MID_HIGH = "MID_HIGH"


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


def build_lp(k: int, s: int, variant: str = VARIANT_LOW,
             p: int | None = None, j: int | None = None) -> StabilityLP:
    """Assemble the constraint system for (k, s).

    LOW carries one suffix row per i in [1, i*]; the last row's range can
    clamp at index 1, in which case e_1 joins the instance with objective
    weight of factor 1.  MID_HIGH extends the rows through i = k-2 and adds
    the cap on the low indices the suffix rows cannot reach, weighted by
    the feasible witness pair (p, j).
    """
    if k < 4 or not 2 <= s <= comb(k, 2):
        raise ContractViolationError(f"need k >= 4 and 2 <= s <= C(k,2), got {(k, s)}")
    if variant == VARIANT_LOW:
        if s > s0(k):
            raise ContractViolationError(f"s = {s} is beyond s0(k) = {s0(k)}; use MID_HIGH")
        top = i_star(k, s)
        rows = tuple(SuffixConstraint(Fraction(k - i - 1, k - i),
                                      max(1, s - cap_A(k, k - i)))
                     for i in range(1, top + 1))
        lo_min = min(c.lo for c in rows)
        return StabilityLP(k, s, variant, rows,
                           variables=tuple(range(max(2, lo_min), s)),
                           include_e1=lo_min <= 1)
    if variant == VARIANT_MID_HIGH:
        if s <= s0(k):
            raise ContractViolationError(f"s = {s} is within s0(k) = {s0(k)}; use LOW")
        if p is None or j is None:
            raise ContractViolationError("MID_HIGH needs a witness pair (p, j)")
        if b_param(k, p, j) > comb(k, 2) - s + 2:
            raise ContractViolationError(f"(p, j) = {(p, j)} infeasible for (k, s) = {(k, s)}")
        rows = tuple(SuffixConstraint(Fraction(k - i - 1, k - i), s - cap_A(k, k - i))
                     for i in range(1, k - 1))
        return StabilityLP(k, s, variant, rows,
                           variables=tuple(range(2, s)),
                           include_e1=False,
                           free_cap=l_param(k, s, p, j),
                           free_range=(2, s - cap_A(k, 2) - 1),
                           p=p, j=j)
    raise ContractViolationError(f"unknown variant {variant!r}")


def claimed_solution(k: int, s: int, p: int | None = None,
                     j: int | None = None) -> dict[int, Fraction]:
    """The closed-form optimum: the telescoping terms, plus the cap for MID_HIGH.

    LOW (s <= s0) takes the terms through i*; s = 2 has no objective-bearing
    index, so its point is empty with value 1.  MID_HIGH takes the terms
    through k-2 and puts the whole cap l_param(k, s, p, j) on the top index
    s - A(k, 2) - 1 of the free block, which is case_bases' upper bound.
    """
    if k < 4 or not 2 <= s <= comb(k, 2):
        raise ContractViolationError(f"need k >= 4 and 2 <= s <= C(k,2), got {(k, s)}")
    if s <= s0(k):
        return {} if s == 2 else dict(telescoping_terms(k, s, i_star(k, s)))
    if p is None or j is None:
        raise ContractViolationError(
            f"s = {s} is beyond s0(k) = {s0(k)}: the MID_HIGH point needs a witness pair (p, j)")
    point = dict(telescoping_terms(k, s, k - 2))
    point[s - cap_A(k, 2) - 1] = l_param(k, s, p, j)
    return point


def support_indices(k: int, s: int, top_i: int | None = None) -> tuple[int, ...]:
    """Indices carrying mass in the claimed optimum (the telescoping sum)."""
    if s == 2:
        return ()
    top = i_star(k, s) if top_i is None else top_i
    return tuple(idx for idx, _ in telescoping_terms(k, s, top))


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
            factors += [(q.numerator, 1 / c.coef), (q.denominator, -1 / c.coef)]
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
    Nothing here is trusted: certify checks both halves exactly.
    """
    dims = lp.dims()
    block = [t for t in dims if _in_cap(lp, t)]
    chain = [t for t in dims if not _in_cap(lp, t)]
    order = _rows_by_lo(lp)
    if block and order and lp.rows[order[0]].lo <= block[-1]:
        raise ContractViolationError("the cap block overlaps a suffix row")
    q = [Fraction(1)] * len(lp.rows)
    u_at = []                       # U(t) for each t of the chain
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


def _row_checks(lp: StabilityLP, point: dict[int, Fraction]) -> tuple[bool, tuple[int, ...]]:
    """Exact feasibility of a point and its tight rows (the cap counts last),
    from one downward suffix-sum pass over the point's entries."""
    entries = sorted(point.items(), reverse=True)
    lhs = [Fraction(0)] * len(lp.rows)
    acc = Fraction(0)
    n = 0
    for i in _rows_by_lo(lp)[::-1]:
        while n < len(entries) and entries[n][0] >= lp.rows[i].lo:
            acc += entries[n][1]
            n += 1
        lhs[i] = lp.rows[i].coef * acc
    bounds = [Fraction(1)] * len(lp.rows)
    if lp.free_cap is not None:
        lhs.append(sum((v for t, v in point.items() if _in_cap(lp, t)), Fraction(0)))
        bounds.append(lp.free_cap)
    feasible = all(v >= 0 for v in point.values()) and all(a <= b for a, b in zip(lhs, bounds))
    return feasible, tuple(i for i, (a, b) in enumerate(zip(lhs, bounds)) if a == b)


def dual_holds(lp: StabilityLP, dual: DualCertificate, value: PowerProduct) -> bool:
    """Weak duality: True when dual is feasible and its objective EQUALS value,
    which then bounds every feasible point's objective from above.

    Feasibility: every q >= 1, and for each variable j the product of q over
    the rows (and cap) covering j is >= j.  One running product over the rows
    sorted by lo keeps this O(rows + vars).
    """
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
    return pp_compare(dual.value(lp), value) == EQUAL


def certify(lp: StabilityLP, point: dict[int, Fraction]) -> LPCertificate:
    """Check the point exactly against the optimum certified by weak duality."""
    dims = lp.dims()
    for idx in point:
        if idx not in dims:
            raise ContractViolationError(f"point index {idx} is not a variable of this instance")
    point = {idx: Fraction(v) for idx, v in point.items()}
    feasible, tight = _row_checks(lp, point)

    best_point, dual = greedy_optimum(lp)
    best = objective_value(best_point)
    if not _row_checks(lp, best_point)[0] or not dual_holds(lp, dual, best):
        raise ContractViolationError(
            f"the greedy optimum of {lp.variant} (k, s) = {(lp.k, lp.s)} fails its certificate")
    claimed_value = objective_value(point)
    optimal = feasible and pp_compare(claimed_value, best) == EQUAL

    top = i_star(lp.k, lp.s) if lp.variant == VARIANT_LOW else lp.k - 2
    supp = support_indices(lp.k, lp.s, top_i=top)
    actual = sum((point.get(i, Fraction(0)) for i in supp), Fraction(0))
    expected = Fraction(2)
    return LPCertificate(
        lp=lp, claimed_point=point, claimed_value=claimed_value,
        feasible=feasible, tight_rows=tight,
        vertex_max=best, optimal=optimal,
        argmax_vertex=tuple(best_point.get(idx, Fraction(0)) for idx in dims), dual=dual,
        sum_of_point=sum(point.values(), Fraction(0)),
        support_sum_expected=expected, support_sum_actual=actual,
        support_sum_matches=actual == expected, support=supp)


def certify_low(k: int, s: int) -> LPCertificate:
    return certify(build_lp(k, s, VARIANT_LOW), claimed_solution(k, s))


def case_bases(k: int, s: int, p: int, j: int) -> tuple[PowerProduct, PowerProduct]:
    """The two bracketed bounds that differ only in the net weight (L-2 vs L)
    on the factor s - A(k,2) - 1."""
    if s < s0(k):
        raise ContractViolationError(f"case bases need s >= s0(k) = {s0(k)}")
    weight = l_param(k, s, p, j)
    head = s - cap_A(k, 2) - 1
    core = telescoping_terms(k, s, k - 2)
    lower = PowerProduct(core + [(head, weight - 2)])
    upper = PowerProduct(core + [(head, weight)])
    return lower, upper


def compare_case_bases(k: int, s: int, p: int, j: int) -> int:
    """Exact ordering of the two bounds; never greater, equal when the head
    factor is 1."""
    lower, upper = case_bases(k, s, p, j)
    return pp_compare(lower, upper)


def low_base_matches_threshold(k: int, s: int) -> bool:
    """Cross-module identity: the certified LOW optimum equals the r0 bracket."""
    cert = certify_low(k, s)
    base, _ = r0_base(k, s)
    return pp_compare(cert.vertex_max, base) == EQUAL

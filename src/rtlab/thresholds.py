"""Closed-form color-count thresholds for clique-color-capped colorings.

Setting: edges of a graph get one of r colors, and no k-clique may carry
s or more distinct colors.  For r at or above the threshold r0(k, s) the
balanced complete (k-1)-partite graph is the unique n-vertex graph (n
large) maximizing the number of admissible colorings, while for
r <= r1(k, s) the complete graph beats it.  This module evaluates every
quantity in those formulas exactly: Turan numbers, the deletion counts
A(k, j), the regime split s0/s1, the witness indices i*/p*/j*, the bracket
expressions as PowerProducts, and the thresholds themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from math import comb

from .errors import ContractViolationError
from .exactnum import PowerProduct, least_integer_greater, pp_floor, pp_is_integer


class Regime(str, Enum):
    LOW = "LOW"
    MID = "MID"
    HIGH = "HIGH"


#: r0 values for k = 3 come from earlier work on triangle colorings; the
#: closed forms below require k >= 4, so these are shipped as constants.
PRIOR_WORK_R0_K3 = {(3, 2): 2, (3, 3): 4}


def turan_ex(n: int, k: int) -> int:
    """Edge count of the balanced complete (k-1)-partite graph on n vertices.

    This equals the maximum edge count of an n-vertex graph with no
    k-clique.
    """
    if n < 1 or k < 2:
        raise ContractViolationError(f"turan_ex needs n >= 1 and k >= 2, got {(n, k)}")
    q, r = divmod(n, k - 1)
    internal = r * comb(q + 1, 2) + (k - 1 - r) * comb(q, 2)
    return comb(n, 2) - internal


def cap_A(k: int, j: int) -> int:
    """Minimum edges to delete from a complete graph on k vertices to make it j-partite."""
    if k < 3 or not 2 <= j <= k - 1:
        raise ContractViolationError(f"cap_A needs k >= 3 and 2 <= j <= k-1, got {(k, j)}")
    return comb(k, 2) - turan_ex(k, j + 1)


def s0(k: int) -> int:
    return cap_A(k, 2) + 2


def s1(k: int) -> int:
    return comb(k, 2) - k // 2 + 2


def _check_ks(k: int, s: int) -> None:
    if k < 4:
        raise ContractViolationError(
            f"k = {k} is outside formula scope (k >= 4); for k = 3 the known "
            f"values are shipped as prior-work constants")
    if not 2 <= s <= comb(k, 2):
        raise ContractViolationError(f"s must lie in [2, C(k,2)] = [2, {comb(k, 2)}], got {s}")


def b_param(k: int, p: int, j: int) -> int:
    """Cap on the number of within-class edges a k-clique can pick up.

    min of j*C(p,2) (at most p vertices in each of j designated classes)
    and floor(k/p)*C(p,2) + C(k - floor(k/p)*p, 2) (packing bound).
    """
    if not 2 <= p <= k - 1 or not 1 <= j <= k - 1:
        raise ContractViolationError(f"b_param needs 2 <= p <= k-1, 1 <= j <= k-1, got {(k, p, j)}")
    full = k // p
    return min(j * comb(p, 2), full * comb(p, 2) + comb(k - full * p, 2))


def l_param(k: int, s: int, p: int, j: int) -> Fraction:
    """Exponent weight 1 + 2p(k-1)/(j(p-1)) attached to the (p, j) witness."""
    if not 2 <= p <= k - 1 or not 1 <= j <= k - 1:
        raise ContractViolationError(f"l_param needs 2 <= p <= k-1, 1 <= j <= k-1, got {(k, p, j)}")
    return 1 + Fraction(2 * p * (k - 1), j * (p - 1))


def i_star(k: int, s: int) -> int:
    """Least i in [1, k-2] with A(k, k-i) >= s-2 (defined for s <= s0(k))."""
    for i in range(1, k - 1):
        if cap_A(k, k - i) >= s - 2:
            return i
    raise ContractViolationError(f"no witness i exists for (k, s) = {(k, s)}")


def p_star(k: int, s: int) -> int:
    """Largest p in [2, k-1] whose (p, k-1) pair stays feasible at this s."""
    bound = comb(k, 2) - s + 2
    best = None
    for p in range(2, k):
        if b_param(k, p, k - 1) <= bound:
            best = p
    if best is None:
        raise ContractViolationError(f"no witness p exists for (k, s) = {(k, s)}")
    return best


def j_star(k: int, s: int) -> int:
    """Largest j in [1, k-1] whose (2, j) pair stays feasible at this s."""
    bound = comb(k, 2) - s + 2
    best = None
    for j in range(1, k):
        if b_param(k, 2, j) <= bound:
            best = j
    if best is None:
        raise ContractViolationError(f"no witness j exists for (k, s) = {(k, s)}")
    return best


@dataclass(frozen=True)
class RegimeParams:
    s0: int
    s1: int
    regime: Regime
    i_star: int | None = None
    p_star: int | None = None
    j_star: int | None = None


def regime_params(k: int, s: int) -> RegimeParams:
    """Regime split for (k, s) plus the witness index the regime needs."""
    _check_ks(k, s)
    lo, hi = s0(k), s1(k)
    if s <= lo:
        return RegimeParams(lo, hi, Regime.LOW, i_star=i_star(k, s))
    if s <= hi:
        return RegimeParams(lo, hi, Regime.MID, p_star=p_star(k, s))
    return RegimeParams(lo, hi, Regime.HIGH, j_star=j_star(k, s))


def telescoping_terms(k: int, s: int, upto_i: int) -> list[tuple[int, Fraction]]:
    """The (index, mass) list behind the r0 base and the LP's claimed optimum.

    Mass (k-1)/(k-2) at index s-1, then mass 1/((k-i-1)(k-i)) at index
    s - A(k, k-i+1) - 1 for i in [2, upto_i]; the masses telescope to
    (k-upto_i)/(k-upto_i-1).
    """
    terms = [(s - 1, Fraction(k - 1, k - 2))]
    terms.extend((s - cap_A(k, k - i + 1) - 1, Fraction(1, (k - i - 1) * (k - i)))
                 for i in range(2, upto_i + 1))
    return terms


def r0_base(k: int, s: int) -> tuple[PowerProduct, RegimeParams]:
    """The bracketed expression whose least integer above is r0(k, s)."""
    params = regime_params(k, s)
    if params.regime is Regime.LOW:
        return PowerProduct(telescoping_terms(k, s, params.i_star)), params
    if params.regime is Regime.MID:
        weight = l_param(k, s, params.p_star, k - 1)
    else:
        weight = l_param(k, s, 2, params.j_star)
    head = PowerProduct(((s - cap_A(k, 2) - 1, weight),))
    return head * PowerProduct(telescoping_terms(k, s, k - 2)), params


def r0(k: int, s: int) -> int:
    base, _ = r0_base(k, s)
    return least_integer_greater(base)


def _r1_value(k: int, s: int) -> int:
    # ceil((s-1)^((k-1)/(k-2)) - 1): the floor when the power is irrational,
    # one less when it is an exact integer.  s = 2 gives 0 by the same rule.
    x = PowerProduct(((s - 1, Fraction(k - 1, k - 2)),))
    f = pp_floor(x)
    return f - 1 if pp_is_integer(x) else f


def r1(k: int, s: int) -> int:
    """Color count at or below which the complete graph wins (3 <= s <= C(k,2))."""
    if k < 4:
        raise ContractViolationError(f"r1 needs k >= 4, got {k}")
    if not 3 <= s <= comb(k, 2):
        raise ContractViolationError(f"r1 needs 3 <= s <= C(k,2), got s = {s}")
    return _r1_value(k, s)


def l_opt(k: int, s: int) -> tuple[Fraction, tuple[int, int]]:
    """Minimum l_param over all feasible (p, j), by exhaustive scan.

    Ties prefer larger j, then larger p, so the scan lands on the same
    witness as the closed-form shortcuts (j = k-1 in the MID range,
    (2, C(k,2)-s+2) in the HIGH range).
    """
    _check_ks(k, s)
    if s <= s0(k):
        raise ContractViolationError(f"l_opt is defined for s > s0(k) = {s0(k)}, got s = {s}")
    bound = comb(k, 2) - s + 2
    best = None
    for p in range(2, k):
        for j in range(1, k):
            if b_param(k, p, j) > bound:
                continue
            val = l_param(k, s, p, j)
            key = (val, -j, -p)
            if best is None or key < best[0]:
                best = (key, val, (p, j))
    if best is None:
        raise ContractViolationError(f"no feasible (p, j) for (k, s) = {(k, s)}")
    return best[1], best[2]


@dataclass(frozen=True)
class ThresholdReport:
    """Every derived quantity for one (k, s) cell."""

    k: int
    s: int
    s0: int
    s1: int
    regime: Regime
    i_star: int | None
    p_star: int | None
    j_star: int | None
    base: PowerProduct
    r0: int
    r1: int
    l_opt: Fraction | None = None
    l_opt_witness: tuple[int, int] | None = None

    def to_dict(self) -> dict:
        d = {
            "k": self.k,
            "s": self.s,
            "s0": self.s0,
            "s1": self.s1,
            "regime": self.regime.value,
            "i_star": self.i_star,
            "p_star": self.p_star,
            "j_star": self.j_star,
            "base_factors": self.base.factor_list(),
            "r0": str(self.r0),
            "r1": str(self.r1) if self.s >= 3 else "",
        }
        if self.l_opt is not None:
            d["l_opt"] = f"{self.l_opt.numerator}/{self.l_opt.denominator}"
            d["l_opt_witness"] = list(self.l_opt_witness)
        return d


def threshold_report(k: int, s: int) -> ThresholdReport:
    base, params = r0_base(k, s)
    lopt = witness = None
    if params.regime is not Regime.LOW:
        lopt, witness = l_opt(k, s)
    return ThresholdReport(
        k=k, s=s, s0=params.s0, s1=params.s1, regime=params.regime,
        i_star=params.i_star, p_star=params.p_star, j_star=params.j_star,
        base=base, r0=least_integer_greater(base), r1=_r1_value(k, s),
        l_opt=lopt, l_opt_witness=witness)


# -- table emission -----------------------------------------------------------

ASTERISK = "*"      # first s beyond s0
STAR = "★"     # first s beyond s1


@dataclass
class ThresholdTable:
    k_values: tuple[int, ...]
    s_values: tuple[int, ...]
    cells: dict = field(default_factory=dict)  # (k, s) -> ThresholdReport

    def marker(self, k: int, s: int) -> str:
        rep = self.cells.get((k, s))
        if rep is None:
            return ""
        if s == rep.s1 + 1:
            return STAR
        if s == rep.s0 + 1:
            return ASTERISK
        return ""


def emit_tables(k_values, s_values=None) -> ThresholdTable:
    """Grid of reports for each k in k_values and each populated s."""
    k_values = tuple(k_values)
    for k in k_values:
        if k < 4:
            raise ContractViolationError(
                f"k = {k} is outside formula scope; tables start at k = 4")
    max_s = max(comb(k, 2) for k in k_values)
    s_values = tuple(s_values) if s_values is not None else tuple(range(2, max_s + 1))
    table = ThresholdTable(k_values, s_values)
    for k in k_values:
        for s in s_values:
            if 2 <= s <= comb(k, 2):
                table.cells[(k, s)] = threshold_report(k, s)
    return table


def table_markdown(table: ThresholdTable, value: str = "r0") -> str:
    """Paper-style grid; value is "r0" or "r1" (r1 starts at s = 3)."""
    s_vals = [s for s in table.s_values if value == "r0" or s >= 3]
    lines = ["| k\\s | " + " | ".join(str(s) for s in s_vals) + " |",
             "|" + "---|" * (len(s_vals) + 1)]
    for k in table.k_values:
        row = [str(k)]
        for s in s_vals:
            rep = table.cells.get((k, s))
            if rep is None:
                row.append("")
            else:
                row.append(f"{getattr(rep, value)}{table.marker(k, s)}")
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines) + "\n"


def table_csv(table: ThresholdTable) -> str:
    lines = ["k,s,r0,r1,regime"]
    for k in table.k_values:
        for s in table.s_values:
            rep = table.cells.get((k, s))
            if rep is None:
                continue
            r1s = str(rep.r1) if s >= 3 else ""
            lines.append(f"{k},{s},{rep.r0},{r1s},{rep.regime.value}")
    return "\n".join(lines) + "\n"


def table_json_obj(table: ThresholdTable) -> list:
    out = []
    for k in table.k_values:
        for s in table.s_values:
            rep = table.cells.get((k, s))
            if rep is None:
                continue
            d = rep.to_dict()
            d["marker"] = table.marker(k, s)
            out.append(d)
    return out

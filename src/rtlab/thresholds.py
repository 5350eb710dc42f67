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

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import comb

from .errors import ContractViolationError
from .exactnum import PowerProduct, pp_floor, pp_is_integer


class Regime(str, Enum):
    LOW = "LOW"
    MID = "MID"
    HIGH = "HIGH"


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
            f"k = {k} is outside formula scope (k >= 4); the k = 3 values are "
            f"prior-work results on triangle colorings, not computed here")
    if not 2 <= s <= comb(k, 2):
        raise ContractViolationError(f"s must lie in [2, C(k,2)] = [2, {comb(k, 2)}], got {s}")


def cells(k_values: range, s_values: range) -> list[tuple[int, int]]:
    """Every cell (k, s) with k in k_values, s in s_values and
    2 <= s <= C(k, 2), k-major.  A sweep that starts below k = 4 or holds
    no cell is refused."""
    if k_values.start < 4:
        raise ContractViolationError(
            f"k = {k_values.start} is outside formula scope; a sweep starts at k = 4")
    out = [(k, s) for k in k_values for s in s_values if 2 <= s <= comb(k, 2)]
    if not out:
        raise ContractViolationError(
            f"no k in [{k_values.start}, {k_values.stop - 1}] has C(k, 2) >= s for an "
            f"s >= 2 in [{s_values.start}, {s_values.stop - 1}]")
    return out


def b_param(k: int, p: int, j: int) -> int:
    """Cap on the number of within-class edges a k-clique can pick up.

    min of j*C(p,2) (at most p vertices in each of j designated classes)
    and floor(k/p)*C(p,2) + C(k - floor(k/p)*p, 2) (packing bound).
    """
    if not 2 <= p <= k - 1 or not 1 <= j <= k - 1:
        raise ContractViolationError(f"b_param needs 2 <= p <= k-1, 1 <= j <= k-1, got {(k, p, j)}")
    full = k // p
    return min(j * comb(p, 2), full * comb(p, 2) + comb(k - full * p, 2))


def l_param(k: int, p: int, j: int) -> Fraction:
    """Exponent weight 1 + 2p(k-1)/(j(p-1)) attached to the (p, j) witness."""
    if not 2 <= p <= k - 1 or not 1 <= j <= k - 1:
        raise ContractViolationError(f"l_param needs 2 <= p <= k-1, 1 <= j <= k-1, got {(k, p, j)}")
    return 1 + Fraction(2 * p * (k - 1), j * (p - 1))


def witness_feasible(k: int, s: int, p: int, j: int) -> bool:
    """Whether the pair (p, j) may witness the cell (k, s): b(k, p, j) <= C(k,2) - s + 2."""
    return b_param(k, p, j) <= comb(k, 2) - s + 2


@dataclass(frozen=True)
class RegimeParams:
    s0: int
    s1: int
    regime: Regime
    i_star: int | None = None
    p_star: int | None = None
    j_star: int | None = None
    l_opt: Fraction | None = None                   # MID/HIGH bracket weight
    l_opt_witness: tuple[int, int] | None = None    # the (p, j) it is taken at


def regime_params(k: int, s: int) -> RegimeParams:
    """Regime split for (k, s) plus its witness, with L_opt = l_param there.

    LOW: i* is the least i in [1, k-2] with A(k, k-i) >= s-2; i = k-2 always
    qualifies, as A(k, 2) = s0-2.  MID: p* is the largest p in [2, k-1] whose
    (p, k-1) pair is feasible; (2, k-1) is feasible up to s1.  HIGH: j* is the
    largest j in [1, k-1] whose (2, j) pair is feasible; (2, 1) is feasible up
    to C(k, 2).
    """
    _check_ks(k, s)
    lo, hi = s0(k), s1(k)
    if s <= lo:
        i = next(i for i in range(1, k - 1) if cap_A(k, k - i) >= s - 2)
        return RegimeParams(lo, hi, Regime.LOW, i_star=i)
    if s <= hi:
        p, j = max(q for q in range(2, k) if witness_feasible(k, s, q, k - 1)), k - 1
        return RegimeParams(lo, hi, Regime.MID, p_star=p,
                            l_opt=l_param(k, p, j), l_opt_witness=(p, j))
    p, j = 2, max(q for q in range(1, k) if witness_feasible(k, s, 2, q))
    return RegimeParams(lo, hi, Regime.HIGH, j_star=j,
                        l_opt=l_param(k, p, j), l_opt_witness=(p, j))


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


def cap_index(k: int, s: int) -> int:
    """Top index s - A(k, 2) - 1 of the LP's cap block and of the MID/HIGH weight."""
    return s - cap_A(k, 2) - 1


def bracket_terms(k: int, s: int, weight: Fraction) -> list[tuple[int, Fraction]]:
    """The MID/HIGH bracket: the telescoping terms through k-2 plus weight
    at cap_index.  r0 and the LP's claimed point take weight L; the case
    bases take L-2 and L."""
    return telescoping_terms(k, s, k - 2) + [(cap_index(k, s), weight)]


def r0_base(k: int, s: int) -> tuple[PowerProduct, RegimeParams]:
    """The bracketed expression whose least integer above is r0(k, s)."""
    params = regime_params(k, s)
    if params.regime is Regime.LOW:
        return PowerProduct(telescoping_terms(k, s, params.i_star)), params
    return PowerProduct(bracket_terms(k, s, params.l_opt)), params


def r1(k: int, s: int) -> int:
    """Color count at or below which the complete graph wins, for a cell
    threshold_report accepts: ceil((s-1)^((k-1)/(k-2)) - 1), the floor when
    the power is irrational, one less when it is an exact integer.  s = 2
    gives 0 by the same rule; the report prints it blank, as r1 starts at 3."""
    x = PowerProduct(((s - 1, Fraction(k - 1, k - 2)),))
    f = pp_floor(x)
    return f - 1 if pp_is_integer(x) else f


def l_opt(k: int, s: int) -> tuple[Fraction, tuple[int, int]]:
    """Minimum l_param over all feasible (p, j), and the pair attaining it.

    It is attained at the witness regime_params picks: (p*, k-1) in the MID
    range, (2, j*) = (2, C(k,2)-s+2) in the HIGH range.  An exhaustive scan
    that breaks ties toward larger j, then larger p, lands on the same pair
    (tests/test_thresholds.py checks it for k <= 30).
    """
    params = regime_params(k, s)
    if params.regime is Regime.LOW:
        raise ContractViolationError(f"l_opt is defined for s > s0(k) = {params.s0}, got s = {s}")
    return params.l_opt, params.l_opt_witness


ASTERISK = "*"      # first s beyond s0
STAR = "★"     # first s beyond s1


@dataclass(frozen=True)
class ThresholdReport:
    """Every derived quantity for one (k, s) cell."""

    k: int
    s: int
    params: RegimeParams
    base: PowerProduct
    r0: int
    r1: int

    @property
    def marker(self) -> str:
        """STAR on the first s beyond s1, ASTERISK on the first beyond s0."""
        if self.s == self.params.s1 + 1:
            return STAR
        if self.s == self.params.s0 + 1:
            return ASTERISK
        return ""

    def to_dict(self) -> dict:
        p = self.params
        d = {
            "k": self.k,
            "s": self.s,
            "s0": p.s0,
            "s1": p.s1,
            "regime": p.regime.value,
            "i_star": p.i_star,
            "p_star": p.p_star,
            "j_star": p.j_star,
            "base_factors": self.base.factor_list(),
            "r0": str(self.r0),
            "r1": str(self.r1) if self.s >= 3 else "",
        }
        if p.l_opt is not None:
            d["l_opt"] = f"{p.l_opt.numerator}/{p.l_opt.denominator}"
            d["l_opt_witness"] = list(p.l_opt_witness)
        return d


def threshold_report(k: int, s: int) -> ThresholdReport:
    """The one derivation of a cell: its regime and witness, the r0 base,
    r0 = floor(base) + 1 and r1."""
    base, params = r0_base(k, s)
    return ThresholdReport(k, s, params, base, r0=pp_floor(base) + 1, r1=r1(k, s))

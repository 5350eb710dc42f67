"""Exact arithmetic over products of integer powers with rational exponents.

Every ordering decision in this package reduces to comparing two values of
the form prod(b_i ** e_i) with integer bases b_i >= 1 and rational
exponents e_i, that is, to the sign of the quotient's logarithm
sum(e_i * ln b_i).  PowerProduct.compare decides it in three steps, and
none of them builds a big integer:

1. A conservative float screen settles comparisons whose logarithmic gap is
   far wider than float error.
2. EQUAL is decided from exponents.  The quotient's bases are rewritten over
   a pairwise-coprime base by gcd factor refinement (Bach, Driscoll and
   Shallit, J. Algorithms 1993); over such a base the value is 1 exactly
   when every exponent is 0.  With exponent f/d on a coprime base c,
   g = gcd(f, d) and q = d/g, the value is an integer exactly when every f
   is non-negative and every c is a perfect q-th power, which one integer
   root per base decides.  Nothing is factored, so a huge base costs about
   as much as a small one.
3. A strict order comes from a rigorous interval on the logarithm, computed
   with the standard decimal module (its ln is correctly rounded) plus a
   proven error bound.  The precision doubles until the interval excludes 0,
   which must happen because step 2 has ruled out equality.

pp_floor returns an exact integer from step 2.  Otherwise it takes its
candidate N from the logarithm at about log10(x) + 40 digits and accepts N
once the intervals show ln N < ln x < ln(N + 1).

The bit budget caps the working precision of step 3 and of pp_floor, and
the size of an exact integer that pp_floor returns.  Exceeding it raises
ResourceLimitError.

Exponents are plain fractions.Fraction values; a float exponent is rejected.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .errors import ContractViolationError, ResourceLimitError

#: Default ceiling, in bits, on the working precision of a comparison or a
#: floor, and on the size of an exact integer that a floor returns.
DEFAULT_BIT_BUDGET = 1_000_000

#: Decimal digits of the first interval evaluation; each retry doubles them.
_START_DIGITS = 40

LESS, EQUAL, GREATER = -1, 0, 1


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _as_exponent(e) -> Fraction:
    if isinstance(e, float):
        raise ContractViolationError(f"float exponent {e!r} not accepted; pass a Fraction")
    return e if isinstance(e, Fraction) else Fraction(e)


class PowerProduct:
    """Positive real prod(base ** exponent) over integer bases >= 1.

    Canonical form merges equal bases, drops base 1 and zero exponents, and
    sorts factors by base.  Equality and hashing are structural on the
    canonical form; use compare() for the exact ordering of the
    underlying real values (two structurally different products can still be
    equal as reals, e.g. 4**1 and 2**2).
    """

    __slots__ = ("factors",)

    def __init__(self, factors=()):
        acc: dict[int, Fraction] = {}
        for base, exp in factors:
            b = int(base)
            if b != base or b < 1:
                raise ContractViolationError(f"base {base!r} is not an integer >= 1")
            e = _as_exponent(exp)
            if b == 1 or e == 0:
                continue
            acc[b] = acc[b] + e if b in acc else e
        object.__setattr__(self, "factors",
                           tuple(sorted((b, e) for b, e in acc.items() if e != 0)))

    # -- structural identity -----------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, PowerProduct):
            return NotImplemented
        return self.factors == other.factors

    def __hash__(self):
        return hash(self.factors)

    def __repr__(self):
        return f"PowerProduct({self})"

    def __str__(self):
        if not self.factors:
            return "1"
        parts = []
        for b, e in self.factors:
            if e == 1:
                parts.append(str(b))
            elif e.denominator == 1:
                parts.append(f"{b}^{e.numerator}")
            else:
                parts.append(f"{b}^({e.numerator}/{e.denominator})")
        return "*".join(parts)

    def factor_list(self):
        """Factors as [[base, "num/den"], ...] for JSON output."""
        return [[b, f"{e.numerator}/{e.denominator}"] for b, e in self.factors]

    # -- numeric views -----------------------------------------------------------

    def log2(self) -> float:
        """Float estimate of log2(value); exactness never depends on it."""
        return sum(float(e) * math.log2(b) for b, e in self.factors)

    # -- exact comparison ----------------------------------------------------------

    def compare(self, other: "PowerProduct", bit_budget=None) -> int:
        """Exact trichotomy vs another product: -1, 0 or +1."""
        if self.factors == other.factors:
            return EQUAL
        # The quotient's factors, unmerged: each step below holds for any
        # list of factors, and the float screen decides most comparisons
        # before anything is merged.
        diff = self.factors + tuple((b, -e) for b, e in other.factors)

        # Conservative float screen: per-term relative error is a few ulp,
        # so a gap above 1e-9 of the total magnitude is decisive.
        try:
            total = mag = 0.0
            for b, e in diff:
                t = float(e) * math.log2(b)
                total += t
                mag += abs(t)
            if abs(total) > 1e-9 * mag + 1e-9:
                return _sign(total)
        except OverflowError:
            pass

        if not _coprime_base(diff)[0]:
            return EQUAL
        from decimal import localcontext

        budget = DEFAULT_BIT_BUDGET if bit_budget is None else bit_budget
        digits = _START_DIGITS
        while True:
            _check_bits(_digits_to_bits(digits), budget, "comparing", self, "vs", other)
            with localcontext(_decimal_context(digits)):
                sign = _interval_sign(_ln_terms(diff, digits), digits)
            if sign:
                return sign
            digits *= 2


# -- exact tests over a coprime base ---------------------------------------------

def _coprime_base(factors) -> tuple[dict[int, int], int]:
    """Rewrite prod(b ** e) as prod(c ** (x / d)) over pairwise-coprime bases
    c > 1: returns ({c: x}, d) with integers x != 0 and d > 0.

    No x is 0, so the dict is empty exactly when the product equals 1
    (distinct primes divide distinct coprime bases).  Exponents are scaled
    to integers by the lcm d of their denominators, and a base that occurs
    more than once is merged first, in integers.
    """
    d = math.lcm(*(e.denominator for _, e in factors))
    merged: dict[int, int] = {}
    for b, e in factors:
        merged[b] = merged.get(b, 0) + e.numerator * (d // e.denominator)
    work = list(merged.items())
    out: dict[int, int] = {}
    while work:
        b, e = work.pop()
        if b == 1 or e == 0:
            continue
        for c in out:
            g = math.gcd(b, c)
            if g > 1:
                break
        else:
            out[b] = e
            continue
        # b^e * c^f = (b/g)^e * g^(e+f) * (c/g)^f; the product of all bases
        # still to place drops by g > 1 each time, so the loop ends.
        f = out.pop(c)
        work += ((b // g, e), (g, e + f), (c // g, f))
    return out, d


def _iroot(n: int, m: int) -> int:
    """floor(n ** (1/m)) for n >= 1, by integer Newton steps from above."""
    x = 1 << -(-n.bit_length() // m)
    while True:
        y = ((m - 1) * x + n // x ** (m - 1)) // m
        if y >= x:
            return x
        x = y


def _integer_exponents(x: PowerProduct) -> list[tuple[int, int]] | None:
    """[(r, e)] with x == prod(r ** e) and integers e >= 0, or None when x
    is not an integer.

    Over pairwise-coprime bases every prime of a base c occurs in no other
    base, so x is an integer exactly when each c ** (f / d) is.  With
    g = gcd(f, d) and q = d / g, f / g is prime to q, so that holds exactly
    when f >= 0 and c is a perfect q-th power.
    """
    base, d = _coprime_base(x.factors)
    out = []
    for c, f in base.items():
        g = math.gcd(f, d)
        q = d // g
        r = _iroot(c, q)
        if f < 0 or r ** q != c:
            return None
        out.append((r, f // g))
    return out


# -- rigorous logarithm intervals --------------------------------------------------

_BITS_PER_DIGIT = math.log2(10)


def _digits_to_bits(digits: int) -> int:
    return math.ceil(digits * _BITS_PER_DIGIT)


def _check_bits(bits, budget: int, *what) -> None:
    """Raise ResourceLimitError when bits exceed the budget; what names the
    work, and is formatted only then."""
    if bits > budget:
        raise ResourceLimitError(
            f"{' '.join(map(str, what))} needs about {bits} bits; budget is {budget}")


def _decimal_context(digits: int):
    """A decimal context of the given precision.  Every decimal operation
    of this module runs in one, never in the thread's default context."""
    import decimal

    return decimal.Context(prec=digits, rounding=decimal.ROUND_HALF_EVEN,
                           Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)


@functools.lru_cache(maxsize=4096)
def _ln(b: int, digits: int):
    """ln(b) correctly rounded to the given digits (bases recur across calls)."""
    from decimal import Decimal

    return Decimal(b).ln(_decimal_context(digits))


def _ln_terms(factors, digits: int) -> list:
    """e * ln(b) for each factor; runs in a local context of the given digits."""
    return [_ln(b, digits) * e.numerator / e.denominator for b, e in factors]


def _interval_sign(terms, digits: int) -> int:
    """Sign of the exact sum the terms approximate, or 0 when undecided.

    Each term is within 1.6 * eps of its exact value, relative, with
    eps = 10 ** (1 - digits): ln, the multiplication and the division each
    round by half an ulp.  Each of the n additions errs by at most
    eps/2 * sum(|t|).  So the sum is off by at most (n + 2) * eps * sum(|t|);
    the radius uses n + 4 to cover rounding in computing the radius itself.
    Runs in a local context of the given digits; the final comparison is
    exact.
    """
    from decimal import Decimal

    mid, mag = Decimal(0), Decimal(0)
    for t in terms:
        mid += t
        mag += t.copy_abs()
    rad = (mag * (len(terms) + 4)).scaleb(1 - digits)
    if mid.copy_abs() > rad:
        return 1 if mid > 0 else -1
    return 0


def pp_floor(x: PowerProduct, bit_budget=None) -> int:
    """Largest integer N with N <= x, for x > 0.

    An exact integer comes from coprime-base exponents.  Otherwise a
    high-precision logarithm proposes N, and rigorous intervals must show
    ln N < ln x < ln(N + 1), with the precision doubled until they do; the
    result never depends on rounding.
    """
    budget = DEFAULT_BIT_BUDGET if bit_budget is None else bit_budget
    exps = _integer_exponents(x)
    if exps is not None:
        _check_bits(sum(e * r.bit_length() for r, e in exps), budget, "the integer", x)
        return math.prod(r ** e for r, e in exps)
    from decimal import ROUND_FLOOR, Decimal, localcontext

    try:
        lg = x.log2()
    except OverflowError:
        lg = math.inf
    _check_bits(lg, budget, "the floor of", x)
    digits = _START_DIGITS + max(0, math.ceil(lg / _BITS_PER_DIGIT))
    while True:
        _check_bits(_digits_to_bits(digits), budget, "the floor of", x)
        with localcontext(_decimal_context(digits)):
            terms = _ln_terms(x.factors, digits)
            n = int(sum(terms, Decimal(0)).exp().to_integral_value(ROUND_FLOOR))
            if ((n == 0 or _interval_sign(terms + [-Decimal(n).ln()], digits) > 0)
                    and _interval_sign(terms + [-Decimal(n + 1).ln()], digits) < 0):
                return n
        digits *= 2


def pp_is_integer(x: PowerProduct) -> bool:
    """Whether the value of x is an integer, decided from exponents alone."""
    return _integer_exponents(x) is not None


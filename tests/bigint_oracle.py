"""Big-integer reference for PowerProduct comparisons.

Clearing the exponent denominators of a quotient prod(b ** e) turns its
comparison with 1 into one between two big integers, which Python evaluates
exactly.  rtlab decides the same questions from coprime-base exponents and
logarithm intervals; the tests hold it to this slower, independent path.
"""

import math

from rtlab.errors import ResourceLimitError
from rtlab.exactnum import DEFAULT_BIT_BUDGET, PowerProduct


def bigint_compare(a: PowerProduct, b: PowerProduct, bit_budget=None) -> int:
    """Exact ordering of a and b by big integers, under a bit budget."""
    diff = PowerProduct(a.factors + tuple((base, -e) for base, e in b.factors)).factors
    lden = 1
    for _, e in diff:
        lden = math.lcm(lden, e.denominator)
    bits = sum(abs(int(e * lden)) * base.bit_length() for base, e in diff)
    budget = DEFAULT_BIT_BUDGET if bit_budget is None else bit_budget
    if bits > budget:
        raise ResourceLimitError(
            f"comparing {a} vs {b} needs about {bits} bits; budget is {budget}")
    pos = neg = 1
    for base, e in diff:
        ie = int(e * lden)
        if ie > 0:
            pos *= base ** ie
        else:
            neg *= base ** (-ie)
    return (pos > neg) - (pos < neg)

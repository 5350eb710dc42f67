"""PowerProduct arithmetic: exactness, ordering, floor, budgets."""

import time
from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bigint_oracle import bigint_compare
from rtlab.errors import ContractViolationError, ResourceLimitError
from rtlab.exactnum import EQUAL, GREATER, LESS, PowerProduct, pp_floor, pp_is_integer


def pp(*factors):
    return PowerProduct(factors)


class TestCanonicalForm:
    def test_merges_equal_bases(self):
        assert pp((2, Fr(1, 2)), (2, Fr(1, 2))) == pp((2, 1))

    def test_drops_base_one_and_zero_exponent(self):
        assert pp((1, Fr(7, 3)), (5, 0)) == pp()

    def test_sorted_by_base(self):
        x = pp((7, 1), (2, Fr(1, 3)), (5, 2))
        assert [b for b, _ in x.factors] == [2, 5, 7]

    def test_idempotent(self):
        x = pp((6, Fr(2, 4)), (6, Fr(1, 2)))
        assert PowerProduct(x.factors) == x
        assert x == pp((6, 1))

    def test_hash_consistent_with_structural_eq(self):
        assert hash(pp((2, 1))) == hash(pp((2, Fr(1, 2)), (2, Fr(1, 2))))

    def test_rejects_bad_bases_and_float_exponents(self):
        with pytest.raises(ContractViolationError):
            pp((0, 1))
        with pytest.raises(ContractViolationError):
            pp((-3, 1))
        with pytest.raises(ContractViolationError):
            pp((2, 0.5))


class TestCompare:
    def test_sqrt8_below_3(self):
        # 2^3 = 8 < 3^2 = 9
        assert pp((2, Fr(3, 2))).compare(pp((3, 1))) == LESS

    def test_exponent_addition_equal(self):
        assert pp((2, Fr(1, 2)), (2, Fr(1, 2))).compare(pp((2, 1))) == EQUAL

    def test_cleared_denominator_example(self):
        # lcm of denominators is 6: 3^8 * 2 = 13122 < 5^6 = 15625
        assert pp((3, Fr(4, 3)), (2, Fr(1, 6))).compare(pp((5, 1))) == LESS

    def test_antisymmetry_names(self):
        a, b = pp((2, Fr(3, 2))), pp((3, 1))
        assert a.compare(b) == -b.compare(a)

    def test_value_equality_across_forms(self):
        # structurally different, equal as reals
        assert pp((4, 1)) != pp((2, 2))
        assert pp((4, 1)).compare(pp((2, 2))) == EQUAL
        assert pp((4, Fr(1, 2))).compare(pp((2, 1))) == EQUAL
        assert pp((12, Fr(1, 2)), (3, Fr(1, 2))).compare(pp((6, 1))) == EQUAL
        assert bigint_compare(pp((12, Fr(1, 2)), (3, Fr(1, 2))), pp((6, 1))) == EQUAL

    def test_bit_budget(self):
        # the big-integer oracle must trip its budget on these equal values;
        # rtlab decides them from coprime-base exponents with no big integer
        a = pp((2, 10 ** 7))
        b = pp((4, Fr(10 ** 7, 2)))
        with pytest.raises(ResourceLimitError):
            bigint_compare(a, b)
        assert bigint_compare(a, b, bit_budget=4 * 10 ** 7) == EQUAL
        assert a.compare(b, bit_budget=64) == EQUAL

    def test_interval_bit_budget(self):
        # 24727/15601 is a convergent of log2(3): the float screen cannot
        # separate these, so the log interval decides under the budget
        a, b = pp((2, 24727)), pp((3, 15601))
        with pytest.raises(ResourceLimitError):
            a.compare(b, bit_budget=100)
        assert a.compare(b) == GREATER
        assert bigint_compare(a, b) == GREATER

    def test_wide_gap_huge_values_fast(self):
        # decided by the screen; no big integers materialize
        assert pp((2, 10 ** 6)).compare(pp((3, 10 ** 6))) == LESS

    def test_huge_base_fast(self):
        # no factoring: a 133-bit base is refined and compared in milliseconds
        big = 10 ** 40 + 1
        cases = [(pp((big, Fr(1, 2))), pp((10 ** 20, 1)), GREATER),
                 (pp((big, Fr(3, 2))), pp((big ** 3, Fr(1, 2))), EQUAL),
                 (pp((big, 1), (7, Fr(1, 3))), pp((10 ** 40, 1), (7, Fr(1, 3))), GREATER)]
        t0 = time.perf_counter()
        got = [a.compare(b) for a, b, _ in cases]
        elapsed = time.perf_counter() - t0
        assert got == [want for _, _, want in cases]
        assert got == [bigint_compare(a, b) for a, b, _ in cases]
        assert elapsed < 0.1


class TestFloor:
    def test_examples(self):
        assert pp_floor(pp((3, Fr(4, 3)), (2, Fr(1, 6)))) == 4
        assert pp_floor(pp((2, 1))) == 2
        assert pp_floor(pp((14, Fr(5, 4)))) == 27

    def test_least_integer_greater(self):
        assert pp_floor(pp((2, Fr(3, 2)))) + 1 == 3
        assert pp_floor(pp()) + 1 == 2
        assert pp_floor(pp((3, Fr(4, 3)), (2, Fr(1, 6)))) + 1 == 5

    def test_exact_integer_branch(self):
        assert pp_floor(pp((4, Fr(3, 2)))) + 1 == 9   # 4^(3/2) = 8
        assert pp_is_integer(pp((4, Fr(3, 2))))
        assert not pp_is_integer(pp((2, Fr(3, 2))))
        assert pp_floor(pp((8, Fr(4, 3)))) == 16 and pp_is_integer(pp((8, Fr(4, 3))))
        assert pp_floor(pp((12, Fr(1, 2)), (3, Fr(1, 2)))) == 6
        assert not pp_is_integer(pp((12, Fr(1, 2)), (2, Fr(1, 2))))   # 24^(1/2)
        assert pp_floor(pp((4, Fr(1, 3)))) == 1 and not pp_is_integer(pp((4, Fr(1, 3))))
        assert pp_floor(pp((32, Fr(2, 5)))) == 4 and pp_is_integer(pp((32, Fr(2, 5))))
        x = pp((27, Fr(2, 3)), (4, Fr(1, 2)))
        assert pp_floor(x) == 18 and pp_is_integer(x)

    def test_value_below_one(self):
        assert pp_floor(pp((2, -1))) == 0
        assert pp_floor(pp((2, -1))) + 1 == 1


_factor = st.tuples(st.integers(min_value=2, max_value=50),
                    st.fractions(min_value=Fr(-4), max_value=Fr(4), max_denominator=12))
_products = st.lists(_factor, min_size=0, max_size=6).map(PowerProduct)


@settings(max_examples=300, deadline=None)
@given(_products, _products)
def test_compare_agrees_with_256bit_floats(a, b):
    """Where a 256-bit evaluation shows a clear gap, the exact path agrees."""
    import mpmath
    with mpmath.workprec(256):
        la = sum(e * mpmath.log(bb) for bb, e in
                 ((bb, mpmath.mpf(x.numerator) / x.denominator) for bb, x in a.factors))
        lb = sum(e * mpmath.log(bb) for bb, e in
                 ((bb, mpmath.mpf(x.numerator) / x.denominator) for bb, x in b.factors))
        gap = la - lb
        if abs(gap) > mpmath.mpf("1e-30"):
            want = 1 if gap > 0 else -1
            assert a.compare(b) == want
        else:
            assert a.compare(b) == EQUAL


@settings(max_examples=150, deadline=None)
@given(_products)
def test_floor_sandwich(x):
    f = pp_floor(x)
    assert f >= 0
    if f > 0:
        assert pp((f, 1)).compare(x) <= 0
    assert x.compare(pp((f + 1, 1))) == LESS


@settings(max_examples=150, deadline=None)
@given(_products, _products)
def test_compare_antisymmetric(a, b):
    assert a.compare(b) == -b.compare(a)


@settings(max_examples=100, deadline=None)
@given(_products, _products, _products)
def test_equal_transitive(a, b, c):
    if a.compare(b) == EQUAL and b.compare(c) == EQUAL:
        assert a.compare(c) == EQUAL


@settings(max_examples=150, deadline=None)
@given(_products, _products)
def test_agrees_with_bigint_oracle(a, b):
    """compare, pp_floor and pp_is_integer match the big-integer path."""
    budget = 10 ** 8
    assert a.compare(b) == bigint_compare(a, b, bit_budget=budget)
    f = pp_floor(a)
    if f > 0:
        assert bigint_compare(pp((f, 1)), a, bit_budget=budget) <= 0
    assert bigint_compare(a, pp((f + 1, 1)), bit_budget=budget) == LESS
    exact = f >= 1 and bigint_compare(a, pp((f, 1)), bit_budget=budget) == EQUAL
    assert pp_is_integer(a) == exact


@settings(max_examples=150, deadline=None)
@given(_products)
def test_rewritten_bases_stay_equal(x):
    """b^e written as (b^2)^(e/2) is the same real: EQUAL, same floor, same
    integrality."""
    y = PowerProduct((b * b, e / 2) for b, e in x.factors)
    assert x.compare(y) == EQUAL
    assert pp_floor(x) == pp_floor(y)
    assert pp_is_integer(x) == pp_is_integer(y)

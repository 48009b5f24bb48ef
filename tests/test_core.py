import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from trapscan.core import (
    Address,
    AmountRangeError,
    MAX_UINT256,
    PoolInfo,
    TrapType,
    ZERO_ADDRESS,
    amount_mul_div,
)

amounts = st.integers(min_value=0, max_value=MAX_UINT256)


class TestAmountMulDiv:
    def test_fee_example(self):
        assert amount_mul_div(100, 997, 1000) == 99

    def test_zero_numerator(self):
        assert amount_mul_div(0, 997, 1000) == 0

    def test_full_width_intermediate(self):
        # would overflow any fixed 256-bit intermediate
        assert amount_mul_div(2**128, 2**128, 2**128) == 2**128

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            amount_mul_div(1, 1, 0)

    def test_quotient_overflow(self):
        with pytest.raises(AmountRangeError):
            amount_mul_div(MAX_UINT256, MAX_UINT256, 1)

    def test_negative_rejected(self):
        for args in ((-1, 1, 1), (1, -1, 1), (1, 1, -1)):
            with pytest.raises(AmountRangeError):
                amount_mul_div(*args)

    @given(a=amounts, b=amounts, d=st.integers(min_value=1, max_value=MAX_UINT256))
    def test_floor_division_law(self, a, b, d):
        q = amount_mul_div(a, b, d) if (a * b) // d <= MAX_UINT256 else None
        if q is None:
            return
        assert q * d <= a * b < (q + 1) * d
        # arbitrary-precision oracle
        assert q == (Fraction(a) * b / d).__floor__()


class TestAddress:
    def test_roundtrip(self):
        a = Address.from_hex("0x7a250d5630B4cF539739dF2C5dAcb4c659F2488D")
        assert a.hex == "0x7a250d5630b4cf539739df2c5dacb4c659f2488d"
        assert Address.from_hex(a.hex) == a

    def test_exact_length(self):
        for bad in (b"\x00" * 19, b"\x00" * 21, "00" * 20):
            with pytest.raises(ValueError):
                Address(bad)
        with pytest.raises(ValueError):
            Address.from_hex("0xabcd")

    def test_zero(self):
        assert ZERO_ADDRESS.hex == "0x" + "00" * 20

    def test_derive_deterministic(self):
        assert Address.derive("x") == Address.derive("x")
        assert Address.derive("x") != Address.derive("y")

    def test_equal_address_finds_the_same_entry(self):
        a = Address.from_hex("0x7a250d5630B4cF539739dF2C5dAcb4c659F2488D")
        table = {a: "router", (a, ZERO_ADDRESS): "pair"}
        fresh = Address(bytes.fromhex("7a250d5630b4cf539739df2c5dacb4c659f2488d"))
        assert fresh is not a and hash(fresh) == hash(a)
        assert table[fresh] == "router" and table[fresh, Address(b"\x00" * 20)] == "pair"
        assert fresh in {a} and Address.derive("x") not in table

    def test_equality_order_and_repr_unchanged(self):
        lo, hi = Address(b"\x01" * 20), Address(b"\x02" * 20)
        assert lo < hi and sorted([hi, lo]) == [lo, hi] and lo != hi
        assert repr(lo) == "Address(0x" + "01" * 20 + ")"

    def test_hashes_and_equals_its_raw_bytes(self):
        a = Address.derive("x")
        assert type(a.raw) is bytes and len(a.raw) == 20
        assert hash(a) == hash(a.raw) and a == a.raw and a.raw == a
        assert {a.raw: 1}[a] == 1 and a in {a.raw}

    @pytest.mark.parametrize("clone", [
        copy.copy,
        copy.deepcopy,
        *[lambda a, p=p: pickle.loads(pickle.dumps(a, p))
          for p in range(pickle.HIGHEST_PROTOCOL + 1)],
    ])
    def test_copies_stay_addresses(self, clone):
        a = Address.derive("x")
        b = clone(a)
        assert type(b) is Address and b == a and b.hex == a.hex

    def test_immutable(self):
        a = Address.derive("x")
        with pytest.raises(AttributeError):
            a.raw = b"\x00" * 20
        with pytest.raises(AttributeError):
            a.label = "router"

    @given(st.lists(st.binary(min_size=20, max_size=20), max_size=20))
    def test_sorts_by_raw_bytes(self, raws):
        # the ordering of the former dataclass, which compared (raw,) tuples
        assert [a.raw for a in sorted(map(Address, raws))] == sorted(raws)


class TestPoolInfo:
    def test_token_helpers(self):
        x, y = Address.derive("x"), Address.derive("y")
        info = PoolInfo(pool=Address.derive("p"), token_x=x, token_y=y)
        assert info.other_token(x) == y
        assert info.other_token(y) == x
        assert info.has_token(x) and not info.has_token(Address.derive("z"))

    def test_identical_tokens_rejected(self):
        x = Address.derive("x")
        with pytest.raises(ValueError):
            PoolInfo(pool=Address.derive("p"), token_x=x, token_y=x)

    def test_fee_range(self):
        x, y = Address.derive("x"), Address.derive("y")
        with pytest.raises(ValueError):
            PoolInfo(pool=Address.derive("p"), token_x=x, token_y=y, fee_num=5, fee_den=5)


def test_trap_type_has_exactly_four_variants():
    assert {t.value for t in TrapType} == {
        "InvalidBuy", "UnauthorizedTransfer", "CannotSell", "InvalidSell",
    }

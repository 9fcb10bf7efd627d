"""Unit tests for relational domains."""

import datetime as dt

import pytest

from repro.errors import DomainError
from repro.relational.types import (
    BOOL,
    BUILTIN_DOMAINS,
    DATE,
    DATETIME,
    FLOAT,
    INT,
    STR,
    domain_by_name,
)


class TestIntDomain:
    def test_accepts_int(self):
        assert INT.validate(5) == 5

    def test_accepts_none(self):
        assert INT.validate(None) is None

    def test_coerces_integral_float(self):
        assert INT.validate(5.0) == 5

    def test_rejects_fractional_float(self):
        with pytest.raises(DomainError):
            INT.validate(5.5)

    def test_rejects_bool(self):
        with pytest.raises(DomainError):
            INT.validate(True)

    def test_coerces_numeric_string(self):
        assert INT.validate("42") == 42

    def test_rejects_garbage_string(self):
        with pytest.raises(DomainError):
            INT.validate("not a number")


class TestFloatDomain:
    def test_accepts_float(self):
        assert FLOAT.validate(1.5) == 1.5

    def test_accepts_int_member(self):
        # FLOAT admits ints directly (numeric tower).
        assert FLOAT.contains(3)

    def test_rejects_bool(self):
        with pytest.raises(DomainError):
            FLOAT.validate(False)

    def test_coerces_string(self):
        assert FLOAT.validate("2.25") == 2.25

    def test_rejects_nan(self):
        # NaN is unordered: sorting would disagree with any total order.
        assert not FLOAT.contains(float("nan"))
        for value in (float("nan"), "nan", "-NaN"):
            with pytest.raises(DomainError):
                FLOAT.validate(value)
        assert FLOAT.validate(float("inf")) == float("inf")


class TestStrDomain:
    def test_accepts_str(self):
        assert STR.validate("hello") == "hello"

    def test_coerces_int_to_str(self):
        assert STR.validate(7) == "7"


class TestDateDomain:
    def test_accepts_date(self):
        d = dt.date(1991, 10, 24)
        assert DATE.validate(d) == d

    def test_coerces_iso_string(self):
        assert DATE.validate("1991-10-24") == dt.date(1991, 10, 24)

    def test_coerces_datetime_to_date(self):
        assert DATE.validate(dt.datetime(1991, 10, 24, 12, 30)) == dt.date(
            1991, 10, 24
        )

    def test_rejects_bad_string(self):
        with pytest.raises(DomainError):
            DATE.validate("10/24/91")


class TestDatetimeDomain:
    def test_accepts_datetime(self):
        value = dt.datetime(1991, 1, 2, 9, 0)
        assert DATETIME.validate(value) == value

    def test_coerces_date(self):
        assert DATETIME.validate(dt.date(1991, 1, 2)) == dt.datetime(1991, 1, 2)

    def test_coerces_iso_string(self):
        assert DATETIME.validate("1991-01-02T09:00:00") == dt.datetime(
            1991, 1, 2, 9
        )


class TestBoolDomain:
    def test_accepts_bool(self):
        assert BOOL.validate(True) is True

    @pytest.mark.parametrize(
        "literal,expected",
        [("true", True), ("False", False), ("YES", True), ("0", False)],
    )
    def test_coerces_string_literals(self, literal, expected):
        assert BOOL.validate(literal) is expected

    def test_coerces_zero_one(self):
        assert BOOL.validate(1) is True
        assert BOOL.validate(0) is False

    def test_rejects_other_ints(self):
        with pytest.raises(DomainError):
            BOOL.validate(2)

    def test_rejects_garbage(self):
        with pytest.raises(DomainError):
            BOOL.validate("maybe")


class TestDomainLookup:
    def test_by_name(self):
        assert domain_by_name("int") is INT
        assert domain_by_name("DATE") is DATE

    def test_unknown_name(self):
        with pytest.raises(DomainError):
            domain_by_name("DECIMAL")

    def test_all_builtins_resolvable(self):
        for name in BUILTIN_DOMAINS:
            assert domain_by_name(name).name == name

    def test_domain_equality_by_name(self):
        assert INT == domain_by_name("INT")
        assert INT != FLOAT

    def test_domain_hashable(self):
        assert len({INT, FLOAT, INT}) == 2

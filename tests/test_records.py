"""Tests for the package's records: immutable named tuples."""

import pytest

from apsquares import (
    APWindow,
    PAdicSplit,
    PrimeProfile,
    SearchReport,
    SquareOutcome,
    TraceReport,
)

_SPLIT = PAdicSplit(base=5, valuation=2, unit=3)

RECORDS = [
    (APWindow, {"n": 1, "d": 1, "k": 3}),
    (SquareOutcome, {"sum": 5929, "floor_root": 77, "root": 77}),
    (PAdicSplit, {"base": 5, "valuation": 2, "unit": 3}),
    (PrimeProfile, {"p": 7, "residue_mod_12": 7, "legendre3": -1}),
    (
        TraceReport,
        {
            "window": APWindow(n=25, d=1, k=5),
            "prime": 5,
            "n_split": _SPLIT,
            "d_split": PAdicSplit(base=5, valuation=0, unit=1),
            "obstruction": "VALUATION_PARITY",
            "details": {"valuation": 1},
        },
    ),
    (
        SearchReport,
        {
            "windows_checked": 50,
            "solutions": ((18, 1, 77),),
            "sieve_used": False,
        },
    ),
]


@pytest.mark.parametrize("cls, fields", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_records_keep_their_record_semantics(cls, fields):
    record = cls(**fields)
    for name, value in fields.items():
        assert getattr(record, name) == value
    first = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(record, first, fields[first])
    with pytest.raises(AttributeError):
        record.extra = 0
    expected = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(record) == f"{cls.__name__}({expected})"
    assert record == cls(**fields)
    # A record is a tuple: it unpacks, and equals the tuple of its fields.
    assert record == tuple(fields.values())


def test_window_replace_and_make_keep_the_checks():
    window = APWindow(n=1, d=1, k=3)
    assert window._replace(k=4) == APWindow(n=1, d=1, k=4)
    with pytest.raises(ValueError, match="common difference"):
        window._replace(d=0)
    with pytest.raises(ValueError, match="first term"):
        APWindow._make((0, 1, 3))

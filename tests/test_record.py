"""The per-event records are ``__slots__`` value types that behave like
the frozen dataclasses they replace: the same signatures and defaults,
equality and hashing by fields, a dataclass-style ``repr``, pickling."""

import pickle

import pytest

from repro.core.admission import AdmissionDecision
from repro.mobility.models import Transition
from repro.serve.driver import Decision
from repro.serve.events import StreamEvent

#: ``(class, every field by keyword, the defaults, one field changed)``.
CASES = [
    (
        StreamEvent,
        {"t": 1.5, "kind": "arrival", "cell": 3, "conn": 7,
         "traffic": "video", "admitted": True},
        {"cell": -1, "conn": -1, "traffic": "voice", "admitted": None},
        {"conn": 8},
    ),
    (
        Decision,
        {"t": 2.0, "kind": "handoff", "cell": 1, "admitted": False,
         "conn": None, "reserved": 3.25, "used": 40.0},
        {},
        {"reserved": 3.5},
    ),
    (
        AdmissionDecision,
        {"admitted": True, "calculations": 3, "messages": 6},
        {},
        {"messages": 7},
    ),
    (Transition, {"time": 12.0, "next_cell": 4}, {}, {"next_cell": -1}),
]


@pytest.mark.parametrize(
    "cls, fields, defaults, changed", CASES, ids=[case[0].__name__ for case in CASES]
)
def test_record_is_a_value_type(cls, fields, defaults, changed):
    record = cls(**fields)
    assert cls(*fields.values()) == record
    assert tuple(cls.__slots__) == tuple(fields)
    assert not hasattr(record, "__dict__")
    required = {name: value for name, value in fields.items() if name not in defaults}
    bare = cls(*required.values())
    for name in fields:
        assert getattr(bare, name) == defaults.get(name, fields[name])

    equal = cls(**fields)
    assert equal == record and not equal != record
    assert hash(equal) == hash(record)
    assert len({record, equal}) == 1
    other = cls(**{**fields, **changed})
    assert other != record and not other == record
    assert record != tuple(fields.values())
    assert (record == object()) is False

    assert repr(record) == f"{cls.__name__}(" + ", ".join(
        f"{name}={value!r}" for name, value in fields.items()
    ) + ")"
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        loaded = pickle.loads(pickle.dumps(record, protocol))
        assert type(loaded) is cls and loaded == record


def test_stream_event_refuses_an_unknown_kind():
    with pytest.raises(ValueError, match="unknown stream event kind 'teleport'"):
        StreamEvent(t=1.0, kind="teleport")

"""The package's exceptions survive pickling, as ``eval`` sends one from
the process that loads the prediction file."""

import inspect
import pickle

import pytest

from hiergraph import errors

CLASSES = [
    cls
    for _, cls in inspect.getmembers(errors, inspect.isclass)
    if issubclass(cls, BaseException) and cls.__module__ == errors.__name__
]
ARGUMENTS = {
    errors.MalformedRecord: ("doc-1", "record is not an object"),
    errors.ValidationError: ("doc-1", "span_bounds", "e1: end_ix 9 beyond 3 tokens"),
}


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_round_trip(cls):
    exc = cls(*ARGUMENTS.get(cls, ("something went wrong",)))
    copy = pickle.loads(pickle.dumps(exc))
    assert type(copy) is cls
    assert str(copy) == str(exc)
    assert vars(copy) == vars(exc)


def test_messages():
    assert str(errors.MalformedRecord(*ARGUMENTS[errors.MalformedRecord])) == (
        "doc-1: record is not an object"
    )
    exc = errors.ValidationError(*ARGUMENTS[errors.ValidationError])
    assert str(exc) == "doc-1: [span_bounds] e1: end_ix 9 beyond 3 tokens"
    assert (exc.doc_id, exc.rule) == ("doc-1", "span_bounds")

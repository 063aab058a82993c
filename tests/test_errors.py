import inspect
import pickle

import pytest

from nemonsoon import errors

ERRORS = [cls for cls in vars(errors).values()
          if isinstance(cls, type) and issubclass(cls, errors.NemonsoonError)]


@pytest.mark.parametrize("cls", ERRORS, ids=lambda cls: cls.__name__)
def test_error_round_trips_through_pickle(cls):
    """An error raised in a worker process reaches the caller with its
    type, attributes and message."""
    if inspect.isfunction(cls.__init__):  # its own __init__ formats the message
        err = cls(*range(3, 2 + len(inspect.signature(cls.__init__).parameters)))
    else:
        err = cls("a message")
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is cls
    assert (back.args, back.__dict__, str(back)) == (err.args, err.__dict__, str(err))

"""Suite-wide guards against errors that would otherwise only be logged.

An exception raised in an event-loop callback (a future's done-callback,
a ``call_soon`` callback), a task destroyed while pending, or a task
exception nobody retrieved never reaches the test: the loop hands it to
its default exception handler, which logs it and carries on.  The hook
below fails the test during which that handler ran, on any loop and any
thread.  Likewise an exception raised where Python cannot propagate it
(``__del__``, a finalizer) only warns by default; here it is an error.
"""

from __future__ import annotations

import asyncio

import pytest

_default_exception_handler = asyncio.BaseEventLoop.default_exception_handler
_loop_errors: list[str] = []


def _recording_exception_handler(loop, context) -> None:
    exception = context.get("exception")
    _loop_errors.append(context.get("message", "unhandled event-loop error")
                        + (f": {exception!r}" if exception is not None else ""))
    _default_exception_handler(loop, context)


def pytest_configure(config) -> None:
    asyncio.BaseEventLoop.default_exception_handler = _recording_exception_handler
    config.addinivalue_line(
        "filterwarnings", "error::pytest.PytestUnraisableExceptionWarning")


def pytest_unconfigure(config) -> None:
    asyncio.BaseEventLoop.default_exception_handler = _default_exception_handler


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    _loop_errors.clear()
    result = yield
    if _loop_errors:
        pytest.fail("the event loop's exception handler ran:\n  "
                    + "\n  ".join(_loop_errors), pytrace=False)
    return result

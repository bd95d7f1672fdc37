"""The suite-wide guards of ``tests/conftest.py`` fail what they claim to.

Each probe below passes under plain pytest; under the guards the two
that leave an error with the loop or the interpreter must fail.
"""

from __future__ import annotations

import pathlib
import subprocess
import sys

PROBES = '''
import asyncio
import gc


class Unraisable:
    def __del__(self):
        raise RuntimeError("raised in __del__")


def test_unraisable_exception():
    Unraisable()
    gc.collect()


def test_done_callback_raises():
    async def go():
        future = asyncio.get_running_loop().create_future()
        future.add_done_callback(lambda _: 1 / 0)
        future.set_result(None)
        await asyncio.sleep(0)

    asyncio.run(go())


def test_clean_loop():
    asyncio.run(asyncio.sleep(0))
'''


def test_guards_fail_swallowed_loop_errors_and_unraisable_exceptions(tmp_path):
    conftest = pathlib.Path(__file__).with_name("conftest.py")
    (tmp_path / "conftest.py").write_text(conftest.read_text())
    (tmp_path / "test_probes.py").write_text(PROBES)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-rf", str(tmp_path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "2 failed, 1 passed" in result.stdout, result.stdout
    assert "FAILED test_probes.py::test_unraisable_exception" in result.stdout
    assert "FAILED test_probes.py::test_done_callback_raises" in result.stdout
    assert "ZeroDivisionError" in result.stdout

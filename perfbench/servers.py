"""Server processes as users run them: launch, readiness, memory, teardown.

Each server is started as ``python -m repro serve|fleet ... --port 0`` in
its own session (``start_new_session``), so the router and every worker
it spawns share one process group.  That group is the unit this module
measures and tears down:

* stdout is drained on a thread for the server's whole life — ``serve``
  prints an ``adapt:`` line per controller decision, and a reader that
  stops after the ready line would let the pipe fill and stall the
  server;
* ``rss_mb`` sums ``VmHWM`` (peak resident set) over every live member
  of the group;
* :meth:`ServerProcess.stop` signals the whole group (SIGTERM, then
  SIGKILL after a grace period) and waits until no member is left —
  on success and on failure alike.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import threading
import time
from collections import deque

READY_LINE = re.compile(r"serving on http://([^:\s]+):(\d+)")


def group_members(pgid: int) -> list[int]:
    """Live (non-zombie) processes whose process group is ``pgid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                stat = handle.read()
        except OSError:
            continue  # exited while we looked
        # Fields after the parenthesised command: state ppid pgrp ...
        fields = stat.rsplit(")", 1)[1].split()
        if fields[0] != "Z" and int(fields[2]) == pgid:
            members.append(int(entry))
    return members


def peak_rss_mb(pids: list[int]) -> float:
    """Sum of ``VmHWM`` over ``pids`` in MiB (processes that vanished
    meanwhile contribute nothing)."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


class ServerProcess:
    """One server process tree, from launch to a verified-empty group."""

    def __init__(self, argv: list[str], *, cwd: str, env: dict,
                 ready_timeout: float = 120.0) -> None:
        self.argv = list(argv)
        self.cwd = cwd
        self.env = env
        self.ready_timeout = ready_timeout
        self.process: subprocess.Popen | None = None
        self.port: int | None = None
        self.host = "127.0.0.1"
        self.tail: deque[str] = deque(maxlen=20)
        self._ready = threading.Event()
        self._pump: threading.Thread | None = None

    def start(self) -> float:
        """Launch and wait for the ready line; returns seconds to ready."""
        started = time.perf_counter()
        self.process = subprocess.Popen(
            self.argv, cwd=self.cwd, env=self.env, stdout=subprocess.PIPE,
            stdin=subprocess.DEVNULL, text=True, start_new_session=True)
        self._pump = threading.Thread(target=self._drain, daemon=True,
                                      name="perfbench-server-stdout")
        self._pump.start()
        if not self._ready.wait(self.ready_timeout) or self.port is None:
            self.stop()
            raise RuntimeError(
                f"server never printed its ready line: {' '.join(self.argv)}; "
                f"last output: {list(self.tail)}")
        return time.perf_counter() - started

    def _drain(self) -> None:
        for line in self.process.stdout:
            self.tail.append(line.rstrip())
            if self.port is None:
                match = READY_LINE.search(line)
                if match:
                    self.host, self.port = match.group(1), int(match.group(2))
                    self._ready.set()
        self._ready.set()  # EOF: died before (or after) ready

    def members(self) -> list[int]:
        if self.process is None:
            return []
        return group_members(self.process.pid)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.members())

    def stop(self, grace: float = 10.0) -> None:
        """Terminate the whole group and wait until every member is gone."""
        if self.process is None:
            return
        pgid = self.process.pid
        for sig, wait in ((signal.SIGTERM, grace), (signal.SIGKILL, grace)):
            try:
                os.killpg(pgid, sig)
            except ProcessLookupError:
                pass
            deadline = time.monotonic() + wait
            while time.monotonic() < deadline:
                if self.process.poll() is not None and not group_members(pgid):
                    break
                time.sleep(0.02)
            else:
                continue
            break
        self.process.wait(timeout=grace)
        if self._pump is not None:
            self._pump.join(timeout=grace)
        if group_members(pgid):
            raise RuntimeError(f"server process group {pgid} survived SIGKILL")
        self.process.stdout.close()
        self.process = None

"""Launching, probing and stopping the serving processes of one run.

Every process is started through the shipped CLI (``python3 -m repro``,
the module form of ``wilson-tls``) in its own session, so that stopping
a run can reach processes the CLI spawned itself (``serve --shards``
workers). Output is drained by a thread per process; readiness is the
CLI's own banner line followed by ``GET /healthz`` answering 200.
"""

from __future__ import annotations

import http.client
import os
import re
import shlex
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from checks import check_drain

READY_TIMEOUT_SECONDS = 90.0
DRAIN_GRACE_SECONDS = 15.0
_CLOCK_TICK_MS = 1000.0 / os.sysconf("SC_CLK_TCK")

_SERVING = re.compile(r"(?:serving|routing) on http://([\d.]+):(\d+)")
_SHARD_LINE = re.compile(r"^shard (\d+): pid (\d+) on http://([\d.]+):(\d+)")


class BenchError(RuntimeError):
    """A fault that stops the run: no result line is printed."""


@dataclass
class Process:
    """One launched CLI process and everything it printed."""

    role: str
    popen: subprocess.Popen
    lines: List[str] = field(default_factory=list)
    port: int = 0
    #: ``(shard id, pid, port)`` of workers a ``serve --shards`` spawned.
    children: List[Tuple[int, int, int]] = field(default_factory=list)
    _reader: Optional[threading.Thread] = None
    _changed: threading.Condition = field(default_factory=threading.Condition)

    @property
    def pid(self) -> int:
        return self.popen.pid

    def _drain_output(self) -> None:
        assert self.popen.stdout is not None
        for line in self.popen.stdout:
            with self._changed:
                self.lines.append(line.rstrip("\n"))
                self._changed.notify_all()
        with self._changed:
            self._changed.notify_all()

    def wait_for_line(self, pattern: re.Pattern, deadline: float):
        """The first match of *pattern* in the output, waiting for it."""
        seen = 0
        with self._changed:
            while True:
                for line in self.lines[seen:]:
                    match = pattern.search(line)
                    if match:
                        return match
                seen = len(self.lines)
                if self.popen.poll() is not None and (
                    self._reader is None or not self._reader.is_alive()
                ):
                    tail = "\n".join(self.lines[-20:])
                    raise BenchError(
                        f"{self.role} exited with {self.popen.returncode} "
                        f"before printing its banner:\n{tail}"
                    )
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise BenchError(
                        f"{self.role} printed no banner within "
                        f"{READY_TIMEOUT_SECONDS:g}s"
                    )
                self._changed.wait(min(remaining, 0.2))


class Fleet:
    """The processes of one run; :meth:`close` stops every one of them."""

    def __init__(self, checkout: str, tmp_dir: str, launcher: List[str]):
        self.checkout = checkout
        #: How a CLI invocation starts: ``python3 -m repro`` untraced, the
        #: benchmark's traced launcher otherwise.
        self.launcher = launcher
        self.env = {
            **os.environ,
            "PYTHONPATH": os.path.join(checkout, "src"),
            "PYTHONUNBUFFERED": "1",
            "TMPDIR": tmp_dir,
        }
        self.processes: List[Process] = []

    def _spawn(self, role: str, command: List[str]) -> Process:
        shown = ["python3"] + [
            os.path.relpath(arg, self.checkout)
            if arg.startswith(self.checkout + os.sep) else arg
            for arg in command[1:]
        ]
        print(f"launch [{role}]: PYTHONPATH=src {shlex.join(shown)}",
              file=sys.stderr)
        popen = subprocess.Popen(
            command,
            cwd=self.checkout,
            env=self.env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            start_new_session=True,
        )
        process = Process(role=role, popen=popen)
        process._reader = threading.Thread(
            target=process._drain_output, daemon=True
        )
        process._reader.start()
        self.processes.append(process)
        return process

    def run_clis(self, jobs: Sequence[Tuple[str, List[str]]],
                 timeout: float = 300.0) -> None:
        """Run short-lived CLI commands side by side to completion."""
        started = [
            self._spawn(role, [sys.executable, "-m", "repro", *args])
            for role, args in jobs
        ]
        deadline = time.monotonic() + timeout
        for process in started:
            try:
                code = process.popen.wait(
                    timeout=max(0.0, deadline - time.monotonic())
                )
            except subprocess.TimeoutExpired:
                raise BenchError(
                    f"{process.role} did not finish within {timeout:g}s"
                )
            process._reader.join(timeout=10)
            self.processes.remove(process)
            if code != 0:
                raise BenchError(
                    f"{process.role} exited with {code}:\n"
                    + "\n".join(process.lines)
                )

    def start_server(self, role: str, args: Sequence[str]) -> Process:
        """Launch one serving CLI process (``serve`` or ``route``)."""
        return self._spawn(role, [*self.launcher, *args])

    def await_banner(self, process: Process, deadline: float) -> None:
        """Parse the bound port (and spawned shard workers) of *process*."""
        match = process.wait_for_line(_SERVING, deadline)
        process.port = int(match.group(2))
        for line in process.lines:
            shard = _SHARD_LINE.search(line)
            if shard:
                process.children.append(
                    (int(shard.group(1)), int(shard.group(2)),
                     int(shard.group(4)))
                )

    def stop(self, process: Process) -> List[str]:
        """SIGTERM *process*, await it, and return its drain problems.

        A process still running after the grace period is killed along
        with its whole session; that counts as an unclean drain.
        """
        problems: List[str] = []
        if process.popen.poll() is None:
            process.popen.send_signal(signal.SIGTERM)
        try:
            process.popen.wait(timeout=DRAIN_GRACE_SECONDS)
        except subprocess.TimeoutExpired:
            problems.append(
                f"still running {DRAIN_GRACE_SECONDS:g}s after SIGTERM"
            )
        for _, pid, _ in process.children:
            if _alive(pid):
                problems.append(f"worker pid {pid} outlived its router")
        _kill_session(process)
        if process._reader is not None:
            process._reader.join(timeout=10)
        problems += check_drain(process.popen.returncode, process.lines)
        if process in self.processes:
            self.processes.remove(process)
        return [f"{process.role}: {p}" for p in problems]

    def close(self) -> None:
        """Kill whatever is still running; wait for every process."""
        for process in list(self.processes):
            _kill_session(process)
            if process._reader is not None:
                process._reader.join(timeout=10)
        self.processes = []


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state != "Z"


def _kill_session(process: Process) -> None:
    """SIGKILL *process*'s whole session and reap the leader."""
    try:
        os.killpg(process.popen.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    try:
        process.popen.wait(timeout=10)
    except subprocess.TimeoutExpired:
        pass


# -- HTTP ----------------------------------------------------------------------


def http_call(
    port: int,
    method: str,
    path: str,
    body: Optional[bytes] = None,
    timeout: float = 30.0,
) -> Tuple[int, bytes]:
    """One request on a fresh connection; ``(status, body)``."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        headers = {"Content-Type": "application/json"} if body else {}
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def await_healthy(port: int, deadline: float) -> None:
    """Poll ``GET /healthz`` until it answers 200."""
    while True:
        try:
            status, _ = http_call(port, "GET", "/healthz", timeout=5.0)
            if status == 200:
                return
        except OSError:
            pass
        if time.monotonic() > deadline:
            raise BenchError(f"port {port}: /healthz not 200 in time")
        time.sleep(0.02)


# -- /proc ---------------------------------------------------------------------


def cpu_ms(pid: int) -> float:
    """User plus system CPU of *pid* so far, in milliseconds."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    # Fields after the command name start at field 3 (state): utime and
    # stime are fields 14 and 15.
    return (int(fields[11]) + int(fields[12])) * _CLOCK_TICK_MS


def pss_kb(pid: int) -> int:
    """Proportional set size of *pid* in kB (shared pages split)."""
    with open(f"/proc/{pid}/smaps_rollup", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("Pss:"):
                return int(line.split()[1])
    raise BenchError(f"no Pss line for pid {pid}")


def parse_prometheus(text: str) -> Dict[str, float]:
    """Sample name (with labels) -> value of a ``/metrics`` scrape."""
    samples: Dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        try:
            samples[name] = float(value)
        except ValueError:
            continue
    return samples

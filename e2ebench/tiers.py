"""Start and stop the served tiers with the program's own commands.

``repro serve`` and ``repro fleet`` each run in their own process,
spawned here with ``--port 0``; the bound port and the worker pids are
read from the lines the commands already print.  Output goes to a log
file under the run's work directory, so a chatty tier never blocks on a
full pipe.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time
from typing import Dict, List

from host import alive

_SERVE_RE = re.compile(r"^repro\.service listening on [^:]+:(\d+)", re.M)
_GATEWAY_RE = re.compile(r"^repro\.gateway listening on [^:]+:(\d+)", re.M)
_WORKER_RE = re.compile(r"^fleet: worker (\S+) pid=(\d+) port=(\d+) up", re.M)

START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 20.0


class TierError(RuntimeError):
    """A tier failed to start."""


class Tier:
    """One spawned ``repro serve`` or ``repro fleet`` process."""

    def __init__(self, kind: str, argv: List[str], root: str, log_path: str):
        self.kind = kind
        self.log_path = log_path
        env = dict(os.environ)
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        self._log = open(log_path, "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", kind, "--port", "0", *argv],
            cwd=root, env=env, stdout=self._log, stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL,
        )
        self.port = 0
        self.workers: Dict[str, int] = {}

    @property
    def pid(self) -> int:
        return self.proc.pid

    def _text(self) -> str:
        with open(self.log_path, encoding="utf-8", errors="replace") as fh:
            return fh.read()

    def wait_ready(self, expected_workers: int = 0) -> None:
        """Block until the listening line (and every worker line) shows."""
        pattern = _GATEWAY_RE if self.kind == "fleet" else _SERVE_RE
        deadline = time.monotonic() + START_TIMEOUT_S
        while True:
            text = self._text()
            match = pattern.search(text)
            if match is not None:
                self.port = int(match.group(1))
                self.workers = {
                    m.group(1): int(m.group(2))
                    for m in _WORKER_RE.finditer(text)
                }
                if len(self.workers) >= expected_workers:
                    return
            if self.proc.poll() is not None:
                raise TierError(
                    f"repro {self.kind} exited with {self.proc.returncode} "
                    f"before it was ready:\n{text[-2000:]}"
                )
            if time.monotonic() > deadline:
                raise TierError(f"repro {self.kind} not ready in time")
            time.sleep(0.005)

    def stop(self) -> None:
        """SIGTERM (the tiers drain and flush their spans), then reap.

        Worker processes are children of the fleet process; any one still
        alive after the fleet exits is killed so no process outlives the
        run.
        """
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
                try:
                    self.proc.wait(STOP_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait(STOP_TIMEOUT_S)
            deadline = time.monotonic() + STOP_TIMEOUT_S
            for pid in self.workers.values():
                while alive(pid) and time.monotonic() < deadline:
                    time.sleep(0.01)
                if alive(pid):
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
        finally:
            self._log.close()


def start(kind: str, argv: List[str], root: str, log_path: str,
          expected_workers: int = 0) -> Tier:
    tier = Tier(kind, argv, root, log_path)
    try:
        tier.wait_ready(expected_workers)
    except BaseException:
        tier.stop()
        raise
    return tier

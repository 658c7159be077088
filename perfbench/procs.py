"""Child processes of the benchmark: started, read line by line, stopped."""

from __future__ import annotations

import os
import queue
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.pop("REPRO_STORE", None)
    return env


class Child:
    """A subprocess whose stdout lines arrive on a queue.

    ``started`` is the ``perf_counter`` reading taken just before the
    process was created, so callers can time process start to a line.
    """

    def __init__(self, argv: List[str]) -> None:
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
            env=child_env(), cwd=str(ROOT), text=True, bufsize=1,
        )
        self.lines: List[str] = []
        self._queue: "queue.Queue[Optional[str]]" = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            self._queue.put(line.rstrip("\n"))
        self._queue.put(None)

    def expect(self, match: Callable[[str], bool], timeout: float) -> str:
        """Wait for a stdout line ``match`` accepts; raise on EOF/timeout."""
        deadline = time.perf_counter() + timeout
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise TimeoutError(f"{self.proc.args[:3]}: no expected line")
            try:
                line = self._queue.get(timeout=remaining)
            except queue.Empty:
                continue
            if line is None:
                raise RuntimeError(
                    f"{self.proc.args[:3]} exited with {self.proc.wait()}")
            self.lines.append(line)
            if match(line):
                return line

    def finish(self, timeout: float) -> List[str]:
        """Read the remaining lines until the child closes stdout."""
        deadline = time.perf_counter() + timeout
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise TimeoutError(f"{self.proc.args[:3]} did not finish")
            try:
                line = self._queue.get(timeout=remaining)
            except queue.Empty:
                continue
            if line is None:
                return self.lines
            self.lines.append(line)

    def peak_rss_mb(self) -> float:
        """Peak resident set (``VmHWM``) of the still-running child."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not reported")

    def stop(self, timeout: float = 60.0) -> int:
        """SIGTERM (if running), wait, SIGKILL on overrun; returns the code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        self._reader.join(timeout=5)
        return code


def python() -> str:
    return sys.executable

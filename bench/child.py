"""Run one child process to completion and report what it cost.

Standard library only, so that ``run.py`` can use it before ``permest`` or
numpy is imported. The child's exit status is collected with ``os.wait4``,
which also returns that child's own peak resident memory.
"""

from __future__ import annotations

import os
import signal
import subprocess
import time
from dataclasses import dataclass

TIMEOUT_S = 120


@dataclass(frozen=True)
class ChildResult:
    returncode: int
    stdout: bytes
    wall_s: float
    maxrss_kib: int


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout


def env_with_pythonpath(path) -> dict:
    """This process's environment with ``path`` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(path) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, cwd, env, scratch_dir) -> ChildResult:
    """Run ``argv`` with stdout captured and stderr discarded.

    ``wall_s`` spans process creation to reaping. A child still running
    after ``TIMEOUT_S`` is killed and reaped, and reports its signal as a
    negative return code.
    """
    out_path = os.path.join(scratch_dir, "child.stdout")
    with open(out_path, "w+b") as out:
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv,
            cwd=cwd,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=out,
            stderr=subprocess.DEVNULL,
        )
        try:
            signal.alarm(TIMEOUT_S)
            _, status, usage = os.wait4(proc.pid, 0)
        except _Timeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
        # tell Popen the child is reaped, so it never waits on the pid again
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        stdout = out.read()
    return ChildResult(proc.returncode, stdout, wall, usage.ru_maxrss)

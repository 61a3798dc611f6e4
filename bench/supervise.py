"""Run one benchmark process and return only when all it started has ended.

A run starts more than it can wait for itself: the runtime's workers are its
children, but ``multiprocessing``'s resource tracker (started with the first
shared-memory segment) ends only *after* the run's process has exited, and
anything a crashed run leaves behind has no parent left at all.  So every run
is a child of a supervisor that makes itself the *child subreaper*: orphans
are re-parented to it, not to init, and it waits for each of them — killing
what outstays a grace period — before it returns the run's exit status.
"""

from __future__ import annotations

import ctypes
import os
import signal
import subprocess
import sys
import time

from . import ROOT

PR_SET_CHILD_SUBREAPER = 36   # <linux/prctl.h>
GRACE_S = 10.0                # for orphans of a run that ended by itself
INTERRUPT_S = 5.0             # for an interrupted run to clean up after itself


def _children() -> list[int]:
    """Pids whose parent is this process, zombies included."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == me:
            found.append(int(entry))
    return found


def reap(grace_s: float) -> None:
    """Wait for every child, adopted orphans included; kill after the grace."""
    deadline = time.monotonic() + grace_s
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return            # nothing left to wait for
        if pid:
            continue
        if time.monotonic() > deadline:
            # Again on every pass: what a killed process leaves is adopted too.
            for child in _children():
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.002)


def become_subreaper() -> None:
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")


def _terminated(signum, frame):
    sys.exit(128 + signum)    # unwinds through `supervised`'s finally


def supervised(arguments: list[str]) -> int:
    """``python -m bench --child <arguments>``; its exit status, once all
    processes it started (directly or not) have ended."""
    become_subreaper()
    signal.signal(signal.SIGTERM, _terminated)
    sys.stdout.flush()
    child = subprocess.Popen(
        [sys.executable, "-m", "bench", "--child", *arguments], cwd=ROOT)
    try:
        status = child.wait()
        return status if status >= 0 else 128 - status
    finally:
        grace_s = GRACE_S
        if child.poll() is None:      # we are on the way out ourselves
            # Ctrl-C first: the run then closes its runtime, which unlinks
            # the shared-memory segments and removes the store directory.
            child.send_signal(signal.SIGINT)
            try:
                child.wait(INTERRUPT_S)
            except subprocess.TimeoutExpired:
                child.kill()
                child.wait()
            grace_s = 0.0
        reap(grace_s)

"""Process timing with the host's speed factored out.

On a shared host the same work can take 1.6 times as long when neighbours
are busy, in phases that last seconds to minutes. To see the program's own
cost through that, the benchmark runs on one CPU, and while a command runs
it stops the command's process group every ``SLICE_S`` seconds, times a
fixed probe on that CPU, and lets the command go on. Each slice of the
command's run is then scaled by ``REF_PROBE_S`` over the mean of the probes
on either side of it:

    scaled time = sum over slices of  slice wall time * REF_PROBE_S / probe time

which is the time the command would have taken on this CPU at the speed
where the probe takes ``REF_PROBE_S``. The pauses themselves are left out.
"""
from __future__ import annotations

import os
import select
import signal
import subprocess
import time

import numpy as np

SLICE_S = 0.5
# The unit of scaled time: about the probe's time between two slices of a
# command on a 2-core Intel Xeon host (Python 3.11.7, numpy 2.4.6) in its
# fast phase, so that scaled times read close to that host's quiet wall times.
REF_PROBE_S = 0.011
_PROBE_LOOP = 48_000
_PROBE_ARRAY = np.linspace(0.0, 1.0, 80_000)


def probe() -> float:
    """Wall seconds of a fixed mix of interpreted Python and numpy work."""
    start = time.perf_counter()
    total, table = 0, {}
    for i in range(_PROBE_LOOP):
        total += i * i % 7
        table[i & 1023] = total
    a = _PROBE_ARRAY
    for _ in range(4):
        a = np.sort(np.exp(-a) * 0.5 + a)[::-1].copy()
    return time.perf_counter() - start


def pin_to_one_cpu() -> int:
    """Pin this process, and so every process it starts, to one CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def run_scaled(argv: list[str], log_path, env: dict, cwd) -> tuple[int, float, float,
                                                                      os.struct_rusage]:
    """Run ``argv`` to exit: (exit code, wall seconds, scaled seconds, resource usage).

    Wall seconds leave out the pauses for the probe; scaled seconds are
    those slices at the reference speed (see the module docstring).
    """
    wall = scaled = 0.0
    status = None
    before = probe()
    with open(log_path, "ab") as log:
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=cwd,
                                start_new_session=True)
    pidfd = os.pidfd_open(proc.pid)
    try:
        while True:
            start = time.perf_counter()
            exited = bool(select.select([pidfd], [], [], SLICE_S)[0])
            if not exited:
                os.killpg(proc.pid, signal.SIGSTOP)
                # WNOWAIT: an exit found here is reaped below, with its rusage
                info = os.waitid(os.P_PID, proc.pid, os.WSTOPPED | os.WEXITED | os.WNOWAIT)
                exited = info.si_code != os.CLD_STOPPED
            elapsed = time.perf_counter() - start
            after = probe()
            wall += elapsed
            scaled += elapsed * REF_PROBE_S / (0.5 * (before + after))
            before = after
            if exited:
                break
            os.killpg(proc.pid, signal.SIGCONT)
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        os.close(pidfd)
        if status is None:  # interrupted: end the command and wait for it
            for sig in (signal.SIGKILL, signal.SIGCONT):
                try:
                    os.killpg(proc.pid, sig)
                except ProcessLookupError:
                    pass
            os.waitpid(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return proc.returncode, wall, scaled, usage

"""CPU time and resident memory of this process and every process below
it (Ray's raylet, GCS and workers), read from ``/proc``.

CPU time is user + system time of each process plus that of its reaped
children. The kernel leaves out of it the time a process waits for a CPU,
whether to another process or to the hypervisor (steal), so a figure per
CPU second is what the program itself costs, apart from how busy the
machine is.
"""

from __future__ import annotations

import os
import threading

TICKS = os.sysconf("SC_CLK_TCK")


def _stat(pid: str) -> list[str]:
    """The fields of ``/proc/<pid>/stat`` after the command name, so that
    index 1 is the parent pid and 11..14 utime, stime, cutime, cstime."""
    with open(f"/proc/{pid}/stat") as f:
        return f.read().rsplit(")", 1)[1].split()


def tree() -> dict[int, list[str]]:
    """Stat fields of this process and all its descendants, by pid."""
    stats = {}
    for pid in os.listdir("/proc"):
        if pid.isdigit():
            try:
                stats[int(pid)] = _stat(pid)
            except (OSError, IndexError):
                continue
    mine = {os.getpid()}
    grew = True
    while grew:
        grew = False
        for pid, st in stats.items():
            if pid not in mine and int(st[1]) in mine:
                mine.add(pid)
                grew = True
    return {pid: stats[pid] for pid in mine}


def cpu_ticks() -> dict[int, int]:
    """CPU clock ticks used so far, per process of the tree."""
    return {pid: sum(int(x) for x in st[11:15]) for pid, st in tree().items()}


class CpuClock:
    """CPU seconds the process tree used from the clock's creation to
    ``stop``. A process started in between counts from zero; a process
    that ended in between counts through the parent that reaped it."""

    def __init__(self):
        self.t0 = cpu_ticks()

    def stop(self) -> float:
        t1 = cpu_ticks()
        return sum(max(0, v - self.t0.get(pid, 0)) for pid, v in t1.items()) / TICKS


def tree_rss_kb() -> int:
    total = 0
    for pid in tree():
        try:
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmRSS:"):
                        total += int(line.split()[1])
        except OSError:
            continue
    return total


class RssSampler(threading.Thread):
    """Peak of the summed resident memory of the process tree, sampled."""

    def __init__(self, period: float = 0.25):
        super().__init__(daemon=True)
        self.period = period
        self.peak_kb = 0
        self.halt = threading.Event()

    def run(self):
        while not self.halt.is_set():
            self.peak_kb = max(self.peak_kb, tree_rss_kb())
            self.halt.wait(self.period)

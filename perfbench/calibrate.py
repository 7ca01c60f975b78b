"""Host-speed calibration, interleaved with the measured calls.

The benchmark runs on a few cores of a shared host.  Two things about it
change with the neighbours' load, for stretches of seconds to minutes:
the speed of the CPU (the same batch of calls takes 20-50 % more user
time) and the cost of creating files on the root filesystem (the system
time of one ``mkdir`` plus two atomic file writes ranges over 10x).  A
median over one run cannot remove a change that lasts longer than the
run, so runs made a few minutes apart disagree.

So a fixed calibration block, which does not use ``optrap``, runs between
the program's calls: after any call that ends at least ``INTERVAL_S``
after the last block.  A block times slices of interpreter, numpy and
json work, ``SHARE`` of the time since the last block but at least
``BLOCK_SLICES`` of them, then one directory with ``FILE_WRITES``
files written the way the program writes its outputs (temporary file,
then rename).  Over a batch, the mean slice time over ``REF_SLICE_S`` is
the CPU's slowness and the mean file part over ``REF_FILES_S`` the
filesystem's.  :func:`normalise` divides the program's user time by the
first and its system time by the second: the time the same work would
take on the reference host.  A change to the program moves that time; a
change in the neighbours' load moves it much less.  The blocks' own time
is taken out of every measured time.

Run this file to print the current host's slice and file times.
"""

import json
import os
import resource
import statistics
from time import perf_counter

import numpy as np

INTERVAL_S = 0.25
SHARE = 0.02
BLOCK_SLICES = 8
FILE_WRITES = 2
# on a quiet 2-vCPU x86-64 VM with an ext4 root (Python 3.11, numpy 2):
# the host speed that normalised times are quoted at
REF_SLICE_S = 7.0e-4
REF_FILES_S = 1.5e-4
_VEC = np.linspace(0.0, 1.0, 48)
_DOC = {"rows": [{"a": i * 0.5, "b": str(i), "c": [i, i + 1]} for i in range(20)]}
_TEXT = "x" * 2000


def kernel():
    """One slice: interpreter float work, small numpy calls, json and string
    formatting, the kinds of work the program's calls are made of."""
    x, v, h = 1.0, 0.0, 1e-3
    for _ in range(1200):
        a = -x - 0.01 * v
        x += h * v
        v += h * a
    vec = _VEC
    for _ in range(60):
        vec = np.sin(vec) * 0.5 + np.cos(vec) * 0.25
    text = json.dumps(_DOC)
    json.loads(text)
    "".join(f"{r['a']:.9g},{r['b']}\n" for r in _DOC["rows"])
    return x + float(vec[0])


def usage():
    """(wall, user, system) seconds of this process so far."""
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return perf_counter(), ru.ru_utime, ru.ru_stime


def normalise(wall, user, system, cpu_factor, fs_factor):
    """(wall, CPU) seconds at the reference host's speed: user time over the
    CPU's slowness, system time over the filesystem's, the time the process
    was not running as measured."""
    cpu = user / cpu_factor + system / fs_factor
    return cpu + max(0.0, wall - user - system), cpu


class Calibrator:
    """Calibration blocks between calls, and the time they took."""

    def __init__(self):
        self.enabled = False
        self.directory = None      # where the file part writes; None skips it
        self.blocks = 0
        self.slices = 0
        self.slice_s = 0.0         # wall time inside CPU slices
        self.files_s = 0.0         # wall time inside file parts
        self.spent = (0.0, 0.0, 0.0)   # usage() inside blocks
        self._last = 0.0

    def between_calls(self):
        """Run a block if ``INTERVAL_S`` has passed since the last one."""
        since = perf_counter() - self._last
        if self.enabled and since >= INTERVAL_S:
            self.block(min(200, max(BLOCK_SLICES, int(SHARE * since / REF_SLICE_S))))

    def block(self, slices=BLOCK_SLICES):
        u0 = usage()
        for _ in range(slices):
            t0 = perf_counter()
            kernel()
            self.slice_s += perf_counter() - t0
        self.slices += slices
        if self.directory is not None:
            t0 = perf_counter()
            folder = self.directory / f"b{self.blocks}"
            folder.mkdir(parents=True)
            for i in range(FILE_WRITES):
                tmp = folder / f"f{i}.tmp"
                tmp.write_text(_TEXT, encoding="utf-8")
                os.replace(tmp, folder / f"f{i}")
            self.files_s += perf_counter() - t0
        self.blocks += 1
        u1 = usage()
        self.spent = tuple(s + b - a for s, a, b in zip(self.spent, u0, u1))
        self._last = u1[0]

    def mark(self):
        return self.blocks, self.slices, self.slice_s, self.files_s, self.spent

    def factors(self, since, until):
        """(CPU, filesystem) slowness between two marks."""
        blocks, slices = until[0] - since[0], until[1] - since[1]
        if blocks == 0:
            raise RuntimeError("no calibration block ran in a measured interval")
        cpu = (until[2] - since[2]) / slices / REF_SLICE_S
        fs = (until[3] - since[3]) / blocks / REF_FILES_S if self.directory else cpu
        return cpu, fs

    def measure(self, seconds):
        """(CPU, filesystem) slowness from blocks alone for ``seconds``: for
        work that ran without blocks between its calls, such as the set-up."""
        mark, end = self.mark(), perf_counter() + seconds
        while perf_counter() < end:
            self.block()
        return self.factors(mark, self.mark())

    def usage_without_blocks(self):
        """usage() less the time spent inside blocks."""
        return tuple(u - s for u, s in zip(usage(), self.spent))


# the calibrator of the current process; the workloads call it between calls
ACTIVE = Calibrator()


if __name__ == "__main__":
    import tempfile
    from pathlib import Path
    kernel()
    with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parent) as tmp:
        ACTIVE.directory = Path(tmp)
        runs = [ACTIVE.measure(1.0) for _ in range(5)]
    print(f"slice {statistics.median(r[0] for r in runs) * REF_SLICE_S * 1e3:.4f} ms, "
          f"file part {statistics.median(r[1] for r in runs) * REF_FILES_S * 1e3:.4f} ms")

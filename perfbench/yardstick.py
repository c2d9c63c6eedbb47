"""Fixed workloads that gauge the machine's speed of the moment.

The 2-CPU machine this benchmark was built on is shared, and its speed
drifts by up to 2x over minutes: in one set of six 30-second `survey` runs
the interpreter yardstick below took a median 1.8 ms in the first run and
3.6 ms in the fifth, and every operation slowed with it. No statistic
taken inside a run removes a shift that lasts longer than the run.

So the runner times the yardsticks before and after every round and after
every operation, and an operation's time is scaled by `NOMINAL_S / t`,
where `t` is the median yardstick time over the operation's round: the
metrics read as seconds on the machine in the state where the yardstick
takes `NOMINAL_S`. The
yardsticks use only the standard library, never ropscope, so a change to
ropscope moves a scaled time by the same factor as the wall-clock time.

There are two, because the host does not slow everything alike.
`save_snapshot` and `load_snapshot` spend their time copying buffers and
faulting in fresh memory, which slowed by less than interpreted code;
scaled by the interpreter yardstick their spread over runs grew. They are
scaled by the buffer yardstick, which frames pages into a new 256 KiB
buffer (above malloc's mmap threshold, so its memory is new every time)
and slices them back out, the way a snapshot is written and read. Every
other operation runs ropscope's interpreted analysis code and is scaled by
the interpreter yardstick.
"""

from __future__ import annotations

import struct
from time import perf_counter

INTERPRETER = "interpreter"
BUFFER = "buffer"

# Round figures near the yardsticks' times on the machine the benchmark was
# built on, in its faster state; they fix the unit of the scaled times and
# nothing else.
NOMINAL_S = {INTERPRETER: 0.002, BUFFER: 0.0002}

_PAGE = bytes(range(256)) * 16
_FRAME = struct.Struct("<QBBH")


def _interpreter() -> int:
    table: dict[int, int] = {}
    x = 12345
    for _ in range(6000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        k = x & 511
        table[k] = table.get(k, 0) + (x >> 9)
    return sum(sorted(table.values())[::64])


def _buffer() -> int:
    raw = b"".join(_FRAME.pack(i << 12, 5, 1, 0) + _PAGE for i in range(64))
    step = _FRAME.size + len(_PAGE)
    return len([raw[o + _FRAME.size : o + step] for o in range(0, len(raw), step)])


def measure() -> dict[str, float]:
    """One timing of each yardstick, in seconds."""
    t0 = perf_counter()
    _interpreter()
    t1 = perf_counter()
    _buffer()
    t2 = perf_counter()
    return {INTERPRETER: t1 - t0, BUFFER: t2 - t1}

"""Render simulated counter windows as ``perf stat -I -x,`` text.

A collection's samples come in runs that share one ``(time, work)`` pair:
the metrics counted together in one multiplexing slot.  Each run becomes
one perf interval holding an ``instructions`` line (work), a ``cycles``
line (time) and one line per metric.  Values are written with ``repr`` so
the parser reads back the exact doubles that were simulated.
"""

from __future__ import annotations


def intervals(samples) -> list[list]:
    """Group consecutive samples sharing ``(time, work)`` into intervals."""
    groups: list[list] = []
    key = None
    for sample in samples:
        current = (sample.time, sample.work)
        if current != key:
            groups.append([])
            key = current
        groups[-1].append(sample)
    return groups


def render_interval(stamp: float, work: float, time: float, counts) -> str:
    """One interval's lines; ``counts`` is ``[(metric, value), ...]``."""
    head = f"{stamp:.6f},"
    lines = [
        f"{head}{work!r},,instructions,1000000,100.00,,",
        f"{head}{time!r},,cycles,1000000,100.00,,",
    ]
    lines.extend(f"{head}{value!r},,{metric},1000000,100.00,," for metric, value in counts)
    return "\n".join(lines) + "\n"


def render(groups, first_stamp: float = 1.0) -> str:
    """Consecutive intervals, one second apart from ``first_stamp``."""
    return "".join(
        render_interval(
            first_stamp + index,
            group[0].work,
            group[0].time,
            [(s.metric, s.metric_count) for s in group],
        )
        for index, group in enumerate(groups)
    )

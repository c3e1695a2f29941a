"""ROADMAP 5(c)'s measurement: do concurrent shard saves beat a serial loop?

    PYTHONPATH=src python tests/shard_save_pool.py

``ShardedModelStore.save`` through its ``shard-save`` pool against the
same save with the pool swapped for a loop on the calling thread —
every ``fsync`` kept, ``verify() == []`` after each save, sides
alternating, median [min, max] of 5.  Not a test (nothing asserts a
time); the numbers it printed are quoted at ``_SAVE_WORKERS``.
"""

from __future__ import annotations

import statistics
import tempfile
import time
from pathlib import Path

import repro.store.sharded as sharded
from repro.lm import LanguageModel


class _SerialExecutor:
    """Stands in for ``ThreadPoolExecutor``: ``map`` on the calling thread."""

    def __init__(self, **_):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *_):
        pass

    map = staticmethod(map)


def _models(count: int, terms: int = 2000) -> dict[str, LanguageModel]:
    columns = [f"t{i:05d}" for i in range(terms)], range(1, terms + 1), range(2, terms + 2)
    names = [f"db{i:04d}" for i in range(count)]
    return {name: LanguageModel.from_statistics(name, *columns) for name in names}


def _save_ms(executor, models, shards: int, root: Path) -> float:
    pool, sharded.ThreadPoolExecutor = sharded.ThreadPoolExecutor, executor
    try:
        store = sharded.ShardedModelStore(root, num_shards=shards)
        started = time.perf_counter()
        store.save(models, model_epoch=1)
        elapsed = time.perf_counter() - started
    finally:
        sharded.ThreadPoolExecutor = pool
    assert store.verify() == []
    return elapsed * 1000


if __name__ == "__main__":
    sides = {"pooled": sharded.ThreadPoolExecutor, "serial": _SerialExecutor}
    for count, shards in ((8, 4), (64, 16), (64, 64), (512, 64)):
        models, times = _models(count), {side: [] for side in sides}
        for round_ in range(5):
            for side in sorted(sides, reverse=bool(round_ % 2)):
                with tempfile.TemporaryDirectory() as scratch:
                    times[side].append(_save_ms(sides[side], models, shards, Path(scratch) / "s"))
        print(f"{count:4d} models / {shards:2d} shards: " + ", ".join(
            f"{side} {statistics.median(ms):7.1f} [{min(ms):.1f}, {max(ms):.1f}] ms"
            for side, ms in times.items()
        ))

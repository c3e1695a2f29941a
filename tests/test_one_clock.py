"""One clock: only ``obs/clock.py`` reads or waits on the system's time.

Every other module under ``src/repro`` asks a
:class:`~repro.obs.clock.Clock` (a recorder's ``clock``, or a ``clock=``
of its own), so a test can hand it a
:class:`~repro.obs.clock.SimulatedClock` and replay a deadline, a queue
wait or a lease expiry without sleeping.
"""

from __future__ import annotations

import ast

from tests.test_layering import SRC

#: The one module allowed to touch the ``time`` module's clocks.
CLOCK_MODULE = "obs/clock.py"

#: The ``time`` functions that read or wait on real time.
TIME_FUNCTIONS = frozenset({"time", "monotonic", "perf_counter", "sleep"})


def time_reads(source: str, filename: str) -> list[str]:
    """``file:line: time.name`` for each use or import of a real-time function."""
    tree = ast.parse(source)
    modules = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "time"
    }
    found = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and node.attr in TIME_FUNCTIONS
        ):
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module == "time":
            found.extend(
                (node.lineno, alias.name) for alias in node.names if alias.name in TIME_FUNCTIONS
            )
    return [f"{filename}:{line}: time.{name}" for line, name in sorted(found)]


def test_only_the_clock_module_reads_real_time():
    found = [
        read
        for path in sorted(SRC.rglob("*.py"))
        if path.relative_to(SRC).as_posix() != CLOCK_MODULE
        for read in time_reads(path.read_text(), path.relative_to(SRC).as_posix())
    ]
    assert not found, "real-time reads outside the clock module:\n" + "\n".join(found)


def test_the_clock_module_is_where_time_is_read():
    source = (SRC / CLOCK_MODULE).read_text()
    assert {read.split(": ")[1] for read in time_reads(source, CLOCK_MODULE)} == {
        "time.time",
        "time.monotonic",
        "time.sleep",
    }


def test_every_spelling_of_a_time_read_is_seen():
    source = (
        "import time\n"
        "started = time.perf_counter()\n"
        "import time as t\n"
        "t.sleep(1)\n"
        "from time import monotonic, process_time\n"
        "stamp = time.time\n"
        "cpu = time.process_time()\n"
    )
    assert time_reads(source, "serving/frontend.py") == [
        "serving/frontend.py:2: time.perf_counter",
        "serving/frontend.py:4: time.sleep",
        "serving/frontend.py:5: time.monotonic",
        "serving/frontend.py:6: time.time",
    ]

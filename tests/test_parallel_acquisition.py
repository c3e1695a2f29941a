"""Forked acquisition is serial acquisition, only on more cores.

``FederatedSearchService.learn_models`` samples the uniform pool's
initial stage in forked children (``SamplingPool.learn`` over
``repro.utils.fork.fork_map``) when every database is a plain in-process
``DatabaseServer``.  Its referee is the serial ``SamplingPool.run``:
the same model bytes, term order, document and token counts, the same
``QueryCosts`` on every server and the same exception — and every path
that must stay serial does.  No test leaves a child process behind.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
import time
from dataclasses import asdict

import pytest

import repro.sampling.pool as pool_module
from repro.corpus import Corpus, Document
from repro.federation.service import FederatedSearchService
from repro.index import DatabaseServer
from repro.lm.io import pack_language_model
from repro.obs import TraceRecorder
from repro.obs.trace import NULL_RECORDER
from repro.sampling import RandomFromOther, SamplingPool
from repro.sampling.transport import UnreliableServer
from repro.federation.testbed import build_synthetic_federation
from repro.utils import fork
from repro.utils.fork import fork_map, usable_cpus


@pytest.fixture(autouse=True)
def no_child_outlives_the_call():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """The task counts of every ``fork_map`` call the pool makes."""
    calls: list[int] = []

    def spy(function, tasks, fallback=None):
        calls.append(len(tasks))
        return fork_map(function, tasks, fallback)

    monkeypatch.setattr(pool_module, "fork_map", spy)
    return calls


def use_cpus(monkeypatch, count: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def federation(databases: int) -> dict[str, DatabaseServer]:
    return build_synthetic_federation(databases, 0.05, seed=5)


def references(servers):
    return {name: server.actual_language_model() for name, server in servers.items()}


def bootstraps(servers):
    models = references(servers)
    return lambda name: RandomFromOther(models[name])


def observed(models, servers):
    """What acquisition leaves behind: every model in order, every server's meters."""
    return (
        [
            (name, pack_language_model(model), list(model), model.documents_seen,
             model.tokens_seen)
            for name, model in models.items()
        ],
        {name: asdict(server.costs) for name, server in servers.items()},
    )


def serial(databases, factory, total, meters, **options):
    for server in meters.values():
        server.reset_costs()
    models = SamplingPool(databases, factory, **options).run(total).models
    return observed(models, meters)


def learned(databases, factory, total, meters, recorder=NULL_RECORDER, **options):
    for server in meters.values():
        server.reset_costs()
    service = FederatedSearchService(databases, recorder=recorder)
    service.learn_models(factory, total, **options)
    return observed(service.models, meters)


class TestForkedEqualsSerial:
    @pytest.mark.parametrize(("databases", "cpus"), [(2, 2), (3, 2), (8, 3), (8, 8)])
    @pytest.mark.parametrize("seed", [0, 7, 1009])
    def test_models_and_costs(self, monkeypatch, forks, databases, cpus, seed):
        use_cpus(monkeypatch, cpus)
        servers = federation(databases)
        factory = bootstraps(servers)
        total = 25 * databases - 1  # the last database's share is one smaller
        assert learned(servers, factory, total, servers, seed=seed) == serial(
            servers, factory, total, servers, seed=seed
        )
        assert forks == [min(cpus, databases)]

    def test_the_service_installs_models_in_database_order(self, monkeypatch, forks):
        use_cpus(monkeypatch, 3)
        servers = federation(5)
        service = FederatedSearchService(servers)
        service.learn_models(bootstraps(servers), 60, seed=3)
        assert list(service.models) == list(servers)
        assert forks == [3]


class TestSerialPaths:
    def test_a_database_that_exhausts_is_redistributed(self, monkeypatch, forks):
        use_cpus(monkeypatch, 2)
        servers = federation(3)
        words = ["apple", "birch", "cedar", "delta", "ember"]
        tiny = Corpus(
            [Document(doc_id=word, text=f"tiny record {word}") for word in words], name="tiny"
        )
        servers["tiny"] = DatabaseServer(tiny)
        replays = []
        replay = SamplingPool._replay

        def spy(self, *args):
            replays.append(args[0])
            return replay(self, *args)

        monkeypatch.setattr(SamplingPool, "_replay", spy)
        factory = bootstraps(servers)
        forked = learned(servers, factory, 120, servers, seed=4)
        assert forks == [2] and replays == [120]
        assert forked == serial(servers, factory, 120, servers, seed=4)
        documents = {entry[0]: entry[3] for entry in forked[0]}
        assert documents["tiny"] == 5 and sum(documents.values()) == 120

    def test_a_wrapped_database_stays_serial(self, monkeypatch, forks):
        use_cpus(monkeypatch, 2)
        servers = federation(3)
        factory = bootstraps(servers)
        wrapped = dict(servers, db1=UnreliableServer(servers["db1"], seed=2))
        assert learned(wrapped, factory, 60, servers, seed=2) == serial(
            wrapped, factory, 60, servers, seed=2
        )
        assert forks == []

    def test_an_enabled_recorder_stays_serial_with_every_span(self, monkeypatch, forks):
        use_cpus(monkeypatch, 2)
        servers = federation(3)
        factory = bootstraps(servers)
        traced, reference = TraceRecorder(), TraceRecorder()
        forked = learned(servers, factory, 60, servers, recorder=traced, seed=6)
        assert forked == serial(servers, factory, 60, servers, recorder=reference, seed=6)
        assert forks == []

        def tree(recorder):
            return [(s.name, s.parent_id, s.status, s.attributes) for s in recorder.spans]

        assert tree(traced) == tree(reference)
        names = [span.name for span in traced.spans]
        assert names.count("pool_run") == 1 and names.count("sample_run") == 3
        assert all(span.end is not None for span in traced.spans)

    def test_one_usable_cpu_stays_serial(self, monkeypatch, forks):
        use_cpus(monkeypatch, 1)
        assert usable_cpus() == 1
        servers = federation(3)
        factory = bootstraps(servers)
        assert learned(servers, factory, 60, servers, seed=1) == serial(
            servers, factory, 60, servers, seed=1
        )
        assert forks == []

    def test_a_shared_bootstrap_stays_serial(self, monkeypatch, forks):
        use_cpus(monkeypatch, 2)
        servers = federation(3)
        shared = RandomFromOther(references(servers)["db0"])
        assert learned(servers, lambda name: shared, 60, servers) == serial(
            servers, lambda name: shared, 60, servers
        )
        assert forks == []


def failing_federation(failing: str, after: int) -> dict[str, DatabaseServer]:
    """A fresh federation whose ``failing`` engine raises on search number ``after``."""
    servers = federation(3)
    engine = servers[failing].engine
    search, calls = engine.search, [0]

    def search_then_fail(query, n=10):
        calls[0] += 1
        if calls[0] == after:
            raise RuntimeError(f"engine of {failing} broke on search {after}")
        return search(query, n=n)

    engine.search = search_then_fail
    return servers


def outcome(acquire, failing: str):
    servers = failing_federation(failing, after=4)
    with pytest.raises(RuntimeError) as raised:
        acquire(servers, bootstraps(servers), 60, servers, seed=8)
    return str(raised.value), {name: asdict(s.costs) for name, s in servers.items()}


class TestExceptions:
    # With two CPUs db0 and db2 are sampled here, db1 in the child.
    @pytest.mark.parametrize("failing", ["db0", "db1", "db2"])
    def test_a_database_that_raises_gives_the_serial_exception(
        self, monkeypatch, forks, failing
    ):
        use_cpus(monkeypatch, 2)
        message, costs = outcome(learned, failing)
        assert forks == [2]
        assert (message, costs) == outcome(serial, failing)
        assert costs[failing]["errored_queries"] == 1


class TestForkMap:
    def test_tasks_after_the_first_run_in_children(self):
        parent = os.getpid()
        results = fork_map(lambda task: (task * task, os.getpid()), [1, 2, 3])
        assert [square for square, _ in results] == [1, 4, 9]
        assert results[0][1] == parent
        assert parent not in {pid for _, pid in results[1:]}

    def test_a_child_that_raises_has_its_task_run_here(self):
        parent = os.getpid()

        def here_only(task):
            if os.getpid() != parent:
                raise ValueError("children cannot")
            return task

        assert fork_map(here_only, ["a", "b", "c"]) == ["a", "b", "c"]

    def test_a_child_that_dies_or_cannot_pickle_gets_the_fallback(self):
        parent = os.getpid()

        def fragile(task):
            if os.getpid() != parent:
                if task == "die":
                    os.kill(os.getpid(), signal.SIGKILL)
                return lambda: task  # not picklable
            return task

        assert fork_map(fragile, ["here", "die", "lambda"], fallback=str.upper) == [
            "here", "DIE", "LAMBDA",
        ]

    def test_a_short_read_is_not_a_result(self):
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.write(write_fd, (100).to_bytes(8, "little") + b"x" * 10)
            os._exit(0)
        os.close(write_fd)
        assert fork._receive(pid, read_fd) is fork._FAILED

    @pytest.mark.parametrize("announced", [-1, 0, 1])
    def test_a_result_is_exactly_as_long_as_announced(self, announced):
        payload = pickle.dumps(("columns", list(range(100))), pickle.HIGHEST_PROTOCOL)
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.write(write_fd, (len(payload) + announced).to_bytes(8, "little") + payload)
            os._exit(0)
        os.close(write_fd)
        expected = ("columns", list(range(100))) if announced == 0 else fork._FAILED
        assert fork._receive(pid, read_fd) == expected

    def test_bytes_after_the_result_are_not_a_result(self):
        payload = pickle.dumps([1, 2, 3]) + b"trailing"
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.write(write_fd, len(payload).to_bytes(8, "little") + payload)
            os._exit(0)
        os.close(write_fd)
        assert fork._receive(pid, read_fd) is fork._FAILED

    def test_an_interrupt_kills_the_children(self):
        parent = os.getpid()

        def interrupted(task):
            if os.getpid() != parent:
                time.sleep(60)
            raise KeyboardInterrupt

        started = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            fork_map(interrupted, [0, 1, 2])
        assert time.perf_counter() - started < 30

    def test_without_fork_every_task_runs_here(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        assert usable_cpus() == 1
        parent = os.getpid()
        assert fork_map(lambda task: (task, os.getpid()), [1, 2]) == [(1, parent), (2, parent)]

    def test_beside_another_thread_every_task_runs_here(self):
        release = threading.Event()
        waiter = threading.Thread(target=release.wait, args=(30,))
        waiter.start()
        try:
            assert usable_cpus() == 1
            parent = os.getpid()
            assert fork_map(lambda task: os.getpid(), [1, 2]) == [parent, parent]
        finally:
            release.set()
            waiter.join(30)
        assert not waiter.is_alive()

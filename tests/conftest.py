from __future__ import annotations

import os

import pytest

from hiergraph.corpus import load_dataset
from hiergraph.taxonomy import load_taxonomy

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "fixtures")


@pytest.fixture(scope="session")
def tree3():
    return load_taxonomy("radgraph2_depth3")


@pytest.fixture(scope="session")
def tree2():
    return load_taxonomy("radgraph2_depth2")


@pytest.fixture(scope="session")
def tree1():
    return load_taxonomy("radgraph1_depth2")


@pytest.fixture(scope="session")
def small_path():
    return os.path.join(FIXTURE_DIR, "synthetic_small.json")


@pytest.fixture(scope="session")
def small_ds(small_path):
    return load_dataset(small_path)


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children forked, with two CPUs usable."""
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    return pids


def assert_reaped(pids):
    """Each of ``pids`` is gone: no child of this process holds it."""
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)

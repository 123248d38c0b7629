"""Tests for the keyed private-pipe worker pool (repro.exec.workers).

The pool is the package's one process fan-out (suite scheduling and
the speculative II race), so these pin its contract directly: values
come back under their keys, task exceptions re-raise where the caller
waits, cancelled keys are revoked, and a worker that dies fails only
its own key, with a typed error instead of a hang.
"""

import os
import signal
import threading
import time

import pytest

from repro.errors import WorkerDiedError
from repro.exec.workers import Workers

from tests.helpers import deadline


def double(value):
    return 2 * value


def nap(seconds):
    time.sleep(seconds)
    return seconds


def fail(message):
    raise ValueError(message)


def die(_):
    os.kill(os.getpid(), signal.SIGKILL)


def reply_then_die(value):
    threading.Timer(0.05, os.kill, (os.getpid(), signal.SIGKILL)).start()
    return value


def drain(pool):
    finished = {}
    while pool.pending():
        for done in pool.wait():
            finished[done.key] = done
    return finished


class TestWorkers:
    def test_values_come_back_under_their_keys(self):
        with deadline(60), Workers() as pool:
            for key in range(4):
                pool.submit(key, double, key)
            finished = drain(pool)
        assert {key: done.result() for key, done in finished.items()} == {
            0: 0, 1: 2, 2: 4, 3: 6,
        }

    def test_task_exception_reraises_and_the_worker_stays_warm(self):
        with deadline(60), Workers() as pool:
            pool.submit("bad", fail, "injected")
            [done] = pool.wait()
            with pytest.raises(ValueError, match="injected"):
                done.result()
            pool.submit("bad", double, 21)
            assert [done.result() for done in pool.wait()] == [42]

    def test_killed_worker_fails_only_its_key(self):
        with deadline(60), Workers() as pool:
            pool.submit("slow", nap, 0.2)
            pool.submit("victim", die, None)
            pool.submit("fast", double, 5)
            finished = drain(pool)
            assert set(finished) == {"slow", "victim", "fast"}
            with pytest.raises(
                WorkerDiedError,
                match=r"'victim' died without a result \(exit code -9\)",
            ):
                finished["victim"].result()
            assert finished["slow"].result() == 0.2
            assert finished["fast"].result() == 10
            # Two warm workers are left: a third key forks a replacement.
            for key in range(3):
                pool.submit(key, double, key)
            assert {
                key: done.result() for key, done in drain(pool).items()
            } == {0: 0, 1: 2, 2: 4}

    def test_worker_that_dies_idle_is_replaced_on_submit(self):
        with deadline(60), Workers() as pool:
            pool.submit("first", reply_then_die, 1)
            assert [done.result() for done in pool.wait()] == [1]
            time.sleep(0.5)  # the warm worker is dead by now
            pool.submit("second", double, 2)
            assert [done.result() for done in pool.wait()] == [4]

    def test_cancel_revokes_only_in_flight_keys(self):
        with deadline(60), Workers() as pool:
            pool.submit("stuck", nap, 600)
            pool.submit("fast", double, 1)
            assert pool.cancel(["stuck", "never-submitted"]) == 1
            assert pool.pending() == {"fast"}
            assert list(drain(pool)) == ["fast"]
            # A revoked key may be submitted again.
            pool.submit("stuck", double, 3)
            assert [done.result() for done in pool.wait()] == [6]

    def test_misuse_is_rejected(self):
        with Workers() as pool:
            with pytest.raises(ValueError, match="no key is in flight"):
                pool.wait()
            pool.submit("key", nap, 0.1)
            with pytest.raises(ValueError, match="already in flight"):
                pool.submit("key", double, 1)

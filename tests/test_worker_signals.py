"""Collection workers exit with a parent that a signal kills.

A parent killed by SIGTERM runs no finally block, so nothing kills its
workers: they must see their pipe close.  The parent here is a subprocess
that runs a long sssf collection on three forced CPUs, so with two workers,
and prints the PID of each worker as it starts serving.  Two workers show
what one cannot: a later worker must not keep an earlier worker's pipe
open.
"""

import multiprocessing
import os
import select
import signal
import subprocess
import sys
import textwrap
import time

import pytest

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods() or not os.path.isdir("/proc"),
    reason="needs fork() and /proc",
)

PARENT = textwrap.dedent(
    """
    import os
    from sssfactor import engine
    from sssfactor.engine import RunConfig, collect_relations, prepare

    engine._fork_pays = lambda *args: True  # fork before round 0
    os.sched_getaffinity = lambda pid: {0, 1, 2}  # the parent and two workers
    serve = engine._serve

    def announced(*args):
        os.write(1, b"%d\\n" % os.getpid())  # one write: the lines never mix
        return serve(*args)

    engine._serve = announced
    # 60 digits: collection runs for tens of seconds
    n = 369503144638782693794961917939723396921312984817285838723301
    config = RunConfig(algo="sssf", seed=1)
    collect_relations(n, config, *prepare(n, config))
    """
)


def alive(pid: int) -> bool:
    """pid runs and is not a zombie (an orphan's reaper may be slow)."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def test_workers_exit_when_the_parent_is_killed():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    parent = subprocess.Popen([sys.executable, "-c", PARENT], stdout=subprocess.PIPE, env=env)
    workers = []
    try:
        out = b""
        deadline = time.monotonic() + 60
        while out.count(b"\n") < 2:
            ready, _, _ = select.select([parent.stdout], [], [], deadline - time.monotonic())
            assert ready, "the workers did not start"
            chunk = os.read(parent.stdout.fileno(), 100)
            assert chunk, "the parent exited before both workers started"
            out += chunk
        workers = [int(line) for line in out.split()]
        assert len(workers) == 2
        time.sleep(0.5)  # both workers are serving rounds
        parent.send_signal(signal.SIGTERM)
        assert parent.wait(30) == -signal.SIGTERM
        deadline = time.monotonic() + 5
        while any(alive(pid) for pid in workers) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not [pid for pid in workers if alive(pid)]
    finally:
        parent.kill()
        parent.wait()
        parent.stdout.close()
        for pid in workers:
            if alive(pid):
                os.kill(pid, signal.SIGKILL)

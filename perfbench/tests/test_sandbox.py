import os
import subprocess
import sys
import time

import sandbox


def _wait_state(pid, states, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        found = {p: s for p, s, _n in sandbox.descendants(os.getpid())}
        if found.get(pid) in states:
            return True
        time.sleep(0.02)
    return False


def test_running_child_is_found_and_killed():
    proc = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
    try:
        left = sandbox.descendants(os.getpid())
        assert proc.pid in [pid for pid, _s, _n in left]
        sandbox.kill(left)
        assert sandbox.settle(os.getpid(), timeout_s=5.0) == []
    finally:
        proc.kill()
        try:
            proc.wait(5)
        except ChildProcessError:
            pass


def test_zombie_child_is_found_then_reaped():
    pid = os.fork()
    if pid == 0:
        os._exit(0)
    assert _wait_state(pid, {"Z"})
    assert sandbox.settle(os.getpid(), timeout_s=5.0) == []


def test_grandchild_is_a_descendant():
    table = {
        10: (1, "S", "root"),
        11: (10, "S", "child"),
        12: (11, "Z", "grandchild"),
        13: (1, "S", "other"),
    }
    assert sandbox.descendants(10, table) == [(11, "S", "child"), (12, "Z", "grandchild")]


def test_scrub_environment():
    env = {"REPRO_CACHE_DIR": "/x", "REPRO_FAULTS": "{}", "HOME": "/h"}
    assert sorted(sandbox.scrub_environment(env)) == ["REPRO_CACHE_DIR", "REPRO_FAULTS"]
    assert env == {"HOME": "/h"}


def test_echo_reference_samples_and_leaves_nothing():
    import speed

    echo = speed.EchoReference()
    try:
        samples = []
        echo.sample(samples, 3)
        assert len(samples) == 3 and all(s > 0 for s in samples)
        assert speed.echo_factor(samples) > 0
    finally:
        echo.close()
    assert sandbox.settle(os.getpid(), timeout_s=5.0) == []

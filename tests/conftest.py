"""Every test ends within TEST_TIMEOUT_S, or fails; and the fixture that
puts a test's short programs through the replay.

A run that never ends, such as a replay of a segment of no cycles, would
otherwise hang the suite, and tests/mutants.py counts a mutant whose suite
run hangs as not killed. The slowest test takes under 2 s on a 2-core
x86-64.
"""

import signal

import pytest
from encmips import pipeline

TEST_TIMEOUT_S = 60


@pytest.fixture(autouse=True)
def _bounded_time():
    if not hasattr(signal, "SIGALRM"):     # no alarm to set, as on Windows
        yield
        return

    def expire(signum, frame):
        pytest.fail(f"ran past {TEST_TIMEOUT_S} s", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_TIMEOUT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def replay_at_once(monkeypatch):
    """pipeline._HOT_VISITS at 1 for one test, then as it was: a
    configuration's second visit records its segment, so a loop replays
    from its fourth pass. Sizes read from the threshold at import, such as
    test_golden's LONG_ITERATIONS, keep their value."""
    monkeypatch.setattr(pipeline, "_HOT_VISITS", 1)

"""Each kept mutant still applies: its old text occurs once in its file.

Running the mutants takes minutes, so CI does that in its own step
(`python tests/mutants.py`); this keeps the list in step with src/, and
checks that the runner cuts a mutant's run at its timeout.
"""

import subprocess

import pytest

import mutants


def test_mutant_names_are_distinct():
    names = [m.name for m in mutants.MUTANTS]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_each_mutant_old_text_occurs_exactly_once(mutant):
    text = (mutants.ROOT / "src" / mutant.file).read_text()
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old


def test_a_mutant_that_runs_past_the_timeout_is_not_killed(monkeypatch, capsys):
    # the suite's run of a mutant that never ends is cut at TIMEOUT_S,
    # reported and counted as not killed, so the runner exits 1, not hangs
    def fake_run(args, **kwargs):
        if "pytest" not in args:    # where the copy's encmips would import from
            copy = kwargs["env"]["PYTHONPATH"]
            return subprocess.CompletedProcess(args, 0, f"{copy}/encmips/__init__.py\n")
        assert kwargs["timeout"] == mutants.TIMEOUT_S
        raise subprocess.TimeoutExpired(args, kwargs["timeout"])

    monkeypatch.setattr(subprocess, "run", fake_run)
    name = mutants.MUTANTS[0].name
    assert mutants.main([name]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("TIMED OUT") and lines[0].endswith(name)
    assert lines[1] == "0 of 1 mutants killed"

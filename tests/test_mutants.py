"""Each kept mutant still applies: its old text occurs once in its file.

Running the mutants takes minutes, so CI does that in its own step
(`python tests/mutants.py`); this only keeps the list in step with src/.
"""

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

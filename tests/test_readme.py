import re
from pathlib import Path

import worked

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs(capsys):
    # the one python block of README, run on the worked example; the
    # block's own assert compares the pipeline with the oracle
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    exec(blocks[0], {"source_text": worked.CORRECTED, "data_hex_text": worked.DATA_HEX})
    assert capsys.readouterr().out == f"1.3333333333333333 {worked.SUM}\n"

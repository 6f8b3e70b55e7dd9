"""The README's library example runs as printed."""

import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_example() -> str:
    section = README.read_text().split("## Library example", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "no python block under '## Library example'"
    return match.group(1)


def test_library_example_runs(capsys):
    exec(compile(_library_example(), str(README), "exec"), {})
    exact, single, rate = capsys.readouterr().out.split()
    assert abs(float(exact) - 0.983) < 5e-4
    assert single in ("True", "False")
    sigma = math.sqrt(float(exact) * (1 - float(exact)) / 2000)
    assert abs(float(rate) - float(exact)) <= 4 * sigma

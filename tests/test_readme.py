"""The README's library example runs as written."""

import re
import warnings
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    blocks = list(re.finditer(r"```python\n(.*?)```", text, flags=re.DOTALL))
    assert len(blocks) == 1
    # pad with the README lines above the block so line numbers are README's
    source = "\n" * text.count("\n", 0, blocks[0].start(1)) + blocks[0].group(1)
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        exec(compile(source, str(README), "exec"), {})
    reason, _, rest = capsys.readouterr().out.partition(" ")
    assert reason in ("mu<=eps", "max_iters")
    assert "'testerr'" in rest
    config_line = next(i for i, line in enumerate(text.splitlines(), start=1)
                       if "SpgConfig()" in line)
    tau = [w for w in rec if "tau1*tau3" in str(w.message)]
    assert [(w.filename, w.lineno) for w in tau] == [(str(README), config_line)]

"""README's ```python blocks run, in order, in one namespace."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.DOTALL | re.MULTILINE)
    assert blocks, "README has no ```python blocks"
    monkeypatch.chdir(tmp_path)  # the blocks write files, such as model.ckpt
    namespace: dict = {}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i + 1}", "exec"), namespace)

"""README's library example runs as written."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_library_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    # -I ignores PYTHONPATH, so lmss comes from this checkout's src alone
    setup = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r})\n"
    proc = subprocess.run([sys.executable, "-I", "-c", setup + block],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr

import subprocess
import sys
from pathlib import Path

import fuzzseed


def test_import_loads_no_scipy():
    src = str(Path(fuzzseed.__file__).resolve().parents[1])
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import fuzzseed; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    proc = subprocess.run([sys.executable, "-c", probe, src],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"

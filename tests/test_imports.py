import json
import subprocess
import sys
from pathlib import Path

import fuzzseed

SRC = str(Path(fuzzseed.__file__).resolve().parents[1])


def test_import_loads_no_scipy():
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import fuzzseed; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    proc = subprocess.run([sys.executable, "-c", probe, SRC],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_import_and_generate_load_no_numpy_ma(tmp_path):
    # numpy.ma costs about 14 ms of a CLI call's start; np.unique imports it
    gaussian = {"kind": "gaussian_clusters", "k": 3, "size": 20, "sigma": 0.3, "dims": 2,
                "rng_seed": 1}
    specs = []
    for i, spec in enumerate([gaussian, {"kind": "skewed_noise", "base": gaussian,
                                         "rng_seed": 2}]):
        specs.append(tmp_path / f"spec{i}.json")
        specs[-1].write_text(json.dumps(spec))
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import fuzzseed; "
        "from fuzzseed.cli import main; loaded = ['numpy.ma' in sys.modules]\n"
        "for spec in sys.argv[2:]:\n"
        "    assert main(['generate', '--spec', spec, '--out', spec + '.csv']) == 0\n"
        "    loaded.append('numpy.ma' in sys.modules)\n"
        "print(loaded)"
    )
    proc = subprocess.run([sys.executable, "-c", probe, SRC, *map(str, specs)],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines()[-1] == "[False, False, False]"


def test_import_and_seed_load_no_thread_pool(tmp_path):
    # concurrent.futures brings logging and queue into every CLI process;
    # only run_comparison with n_jobs > 1 needs it
    csv_path = tmp_path / "d.csv"
    csv_path.write_text("x,y\n0,0\n0,1\n5,5\n5,6\n")
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import fuzzseed; "
        "from fuzzseed.cli import main; loaded = ['concurrent.futures' in sys.modules]\n"
        "assert main(['seed', '--data', sys.argv[2], '--k', '2', '--method', 'maxmin_linear']) == 0\n"
        "loaded.append('concurrent.futures' in sys.modules)\n"
        "print(loaded)"
    )
    proc = subprocess.run([sys.executable, "-c", probe, SRC, str(csv_path)],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines()[-1] == "[False, False]"

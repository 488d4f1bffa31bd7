"""Cold-import footprint of the ``repro`` package.

``scipy.signal`` alone costs most of a second to import, and the library
needs none of it: the FFT advance runs on ``scipy.fft``.  This pins the
package import free of it, in a fresh interpreter so modules the test
session already loaded cannot mask a regression.
"""

import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_import_repro_does_not_load_scipy_signal():
    env = dict(os.environ, PYTHONPATH="src")
    out = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, repro; print('scipy.signal' in sys.modules)",
        ],
        cwd=REPO,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"

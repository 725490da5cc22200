"""scipy is loaded only by the code that calls it.

``import repro``, the network stack, the engine, the link layer and every
``repro`` command never call scipy, so they must not import it:
importing it costs them more start-up time and memory than the network
stack itself (see "Start-up and footprint" in docs/performance.md).  The
fading channel's Jakes correlation computes Bessel J0 itself, so building,
evolving and sending over an ``IndoorChannel`` load no scipy either.

Each check runs in a fresh interpreter, since this test session has
long since imported scipy.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

SCIPY_FREE_IMPORTS = (
    "repro",
    "repro.net",
    "repro.engine",
    "repro.ratectl",
    "repro.obs",
    "repro.analysis",
    "repro.experiments",
    "repro.cli",
    "repro.phy.code_analysis",
)


def _loaded_scipy(code: str, cwd: Path) -> list:
    """Run ``code`` in a clean interpreter; return the scipy modules it loaded."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    probe = code + (
        "\nimport json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules"
        " if m.split('.')[0] == 'scipy')))\n")
    proc = subprocess.run([sys.executable, "-c", probe], env=env, cwd=str(cwd),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_package_imports_and_help_load_no_scipy(tmp_path):
    code = "\n".join(f"import {name}" for name in SCIPY_FREE_IMPORTS) + (
        "\nfrom repro.cli import main\n"
        "try:\n"
        "    main(['--help'])\n"
        "except SystemExit:\n"
        "    pass\n")
    assert _loaded_scipy(code, tmp_path) == []


def test_net_commands_load_no_scipy(tmp_path):
    code = (
        "from repro.cli import main\n"
        "assert main(['--quiet', 'net', 'run', 'hidden-node',"
        " '--json', 'run.json']) == 0\n"
        "assert main(['--quiet', 'net', 'compare', '--scenario', 'hidden-node',"
        " '--trials', '1', '--json', 'compare.json']) == 0\n")
    assert _loaded_scipy(code, tmp_path) == []
    assert json.loads((tmp_path / "run.json").read_text())
    assert json.loads((tmp_path / "compare.json").read_text())


def test_fading_channel_and_cos_link_load_no_scipy(tmp_path):
    code = (
        "from repro import CosLink, IndoorChannel\n"
        "channel = IndoorChannel.position('A', snr_db=20, seed=0)\n"
        "channel.evolve(1e-3)\n"
        "channel.evolve(0.02)\n"
        "link = CosLink(channel=channel)\n"
        "for _ in range(3):\n"
        "    link.exchange(payload=bytes(range(100)), control_bits=[0, 1, 1, 0])\n")
    assert _loaded_scipy(code, tmp_path) == []

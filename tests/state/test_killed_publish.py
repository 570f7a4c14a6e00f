"""A process SIGKILLed inside ``publish_state_dir`` loses no checkpoint.

The child saves a checkpoint at ``t = 100``, then dies on one of the two
renames of its second save at ``t = 200``: before rotating the old
generation aside (``path`` is intact) or after it (``path`` is missing
and the old generation sits at ``.<name>.old.<pid>``).  Either way the
readers get the first generation back, and it resumes to the
uninterrupted run.
"""

import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.simulation.scenarios import stationary
from repro.simulation.simulator import simulate
from repro.state import inspect_state, restore_simulator, save_checkpoint
from repro.state.format import load_manifest

SRC = str(Path(__file__).resolve().parents[2] / "src")

CHILD = """
import os
import signal
import sys

from repro.simulation.scenarios import stationary
from repro.simulation.simulator import CellularSimulator
from repro.state import save_checkpoint

path, kill_at = sys.argv[1], int(sys.argv[2])
sim = CellularSimulator(stationary(
    "AC3", offered_load=150.0, voice_ratio=0.8, duration=300.0, seed=7
))
real_rename = os.rename
renames = []


def rename(source, target):
    renames.append(source)
    # The first save makes one rename (nothing to rotate aside).
    if len(renames) == 1 + kill_at:
        os.kill(os.getpid(), signal.SIGKILL)
    real_rename(source, target)


os.rename = rename


class TwoSaves:
    due = [100.0, 200.0]

    def beat(self):
        if self.due and sim.engine.now >= self.due[0]:
            self.due.pop(0)
            save_checkpoint(sim, path)


sim.checkpointer = TwoSaves()
sim.run()
"""


def _config():
    return stationary(
        "AC3", offered_load=150.0, voice_ratio=0.8, duration=300.0, seed=7
    )


@pytest.mark.parametrize("kill_at", [1, 2], ids=["rotate", "publish"])
def test_kill_at_either_rename_resumes_the_surviving_generation(
    tmp_path, kill_at
):
    path = tmp_path / "ckpt"
    child = subprocess.run(
        [sys.executable, "-c", CHILD, str(path), str(kill_at)],
        capture_output=True, text=True,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
    )
    assert child.returncode == -signal.SIGKILL, child.stderr
    left = sorted(entry.name for entry in tmp_path.iterdir())
    if kill_at == 1:
        assert left[0].startswith(".ckpt.tmp.") and left[1] == "ckpt"
    else:
        # Neither generation at ``path``: the old one is rotated aside.
        assert [name.split(".")[2] for name in left] == ["old", "tmp"]

    assert 100.0 <= load_manifest(path)["clock"] < 200.0
    assert inspect_state(path, out=lambda _line: None) == 0
    resumed = restore_simulator(path, _config())
    assert resumed.run().metrics_key() == simulate(_config()).metrics_key()

    # The next publish clears what the killed one left behind.
    save_checkpoint(resumed, path)
    assert [entry.name for entry in tmp_path.iterdir()] == ["ckpt"]

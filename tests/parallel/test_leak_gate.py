"""The suite's ``/dev/shm`` leak gate flags only this run's segments.

A segment whose creator (the pid in its ``repro_shm_<pid>_`` name) is
this process, or a process that has exited, is a leak; so is one whose
pid now belongs to a process started after the segment was written.
One held by another live process (a concurrent benchmark run) is not.
"""

import os
import subprocess
import sys
import time

import pytest

from repro.parallel.shm import active_segment_names
from tests.conftest import leaked_segments


@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="no /dev/shm")
def test_gate_flags_own_and_orphaned_segments_only():
    child = subprocess.run(
        [sys.executable, "-c", "import os; print(os.getpid())"],
        capture_output=True, text=True, check=True,
    )
    reused = subprocess.Popen(
        [sys.executable, "-c", "import time; time.sleep(60)"])
    planted = {
        "own": f"repro_shm_{os.getpid()}_gate_probe",
        "exited": f"repro_shm_{int(child.stdout)}_gate_probe",
        "live": f"repro_shm_{os.getppid()}_gate_probe",
        "reused": f"repro_shm_{reused.pid}_gate_probe",
    }
    paths = {key: os.path.join("/dev/shm", name)
             for key, name in planted.items()}
    try:
        for path in paths.values():
            open(path, "wb").close()
        # Written a minute before the process now holding its pid began.
        stamp = time.time() - 60.0
        os.utime(paths["reused"], (stamp, stamp))
        flagged = leaked_segments(active_segment_names())
        assert planted["own"] in flagged
        assert planted["exited"] in flagged
        assert planted["reused"] in flagged
        assert planted["live"] not in flagged
    finally:
        reused.kill()
        reused.wait()
        for path in paths.values():
            os.unlink(path)

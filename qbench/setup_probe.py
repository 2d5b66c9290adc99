"""Set-up probe: a fresh interpreter imports qbound from the given source
tree and runs one untimed warm-up job of the workload, then prints one
JSON line with the phase times, the monotonic clock at the end, and the
file qbound was imported from, which the caller checks is under SRC_DIR.

The caller reads the clock just before starting this process, so the
difference includes interpreter start-up, as every CLI call pays it.

    python3 qbench/setup_probe.py WORKLOAD SRC_DIR
"""

import json
import sys
import time

t_start = time.monotonic()
workload, src = sys.argv[1], sys.argv[2]
sys.path.insert(0, src)
import qbound  # noqa: E402

t_import = time.monotonic()
import campaigns  # noqa: E402

qbound.emit_report(qbound.run_scenario(campaigns.warmup_job(workload)))
t_ready = time.monotonic()
print(json.dumps({"import_s": t_import - t_start, "warmup_s": t_ready - t_import,
                  "ready": t_ready, "qbound_file": qbound.__file__}))

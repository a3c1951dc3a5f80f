"""Set-up probe: a fresh interpreter imports rrfilt (and with it numpy),
loads and validates a workload config, prints ``ready`` and exits.  The
caller times it from process start to that line.

Usage: python3 perfbench/setup_probe.py CONFIG.yaml '{"train_mode": "semi"}'
"""

import dataclasses
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from rrfilt import harness  # noqa: E402

cfg = dataclasses.replace(harness.load_config(sys.argv[1]), **json.loads(sys.argv[2]))
cfg.validate()
print("ready", flush=True)

"""Regenerate perfbench/reference.json, the stored outputs every op is checked against.

    python3 perfbench/make_reference.py                            # every workload
    python3 perfbench/make_reference.py --workload evaluate_brats  # one workload's references

Every chosen workload gets the references of all its input sets, so one
workload's table always comes from a single commit. Run it only when a
workload's inputs or checks change, at a commit whose outputs are trusted:
the references define what a correct output is for later commits.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

from run import BENCH, NAMES, OUT, ROOT, set_thread_env


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=NAMES, action="append")
    args = p.parse_args(argv)
    names = args.workload or list(NAMES)
    set_thread_env()
    sys.path[:0] = [str(ROOT / "src")]
    import workloads

    path = BENCH / "reference.json"
    refs = json.loads(path.read_text()) if path.exists() else {}
    OUT.mkdir(parents=True, exist_ok=True)
    for name in names:
        table = {}
        for input_id in range(workloads.POOL):
            with tempfile.TemporaryDirectory(dir=OUT, prefix="ref-") as tmp:
                table[str(input_id)] = workloads.WORKLOADS[name].reference(input_id, Path(tmp))
            print(f"{name} input set {input_id}: done", flush=True)
        refs[name] = table
        path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

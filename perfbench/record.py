"""Record the reference stdout digest of every input in the CLI workloads' universes.

    python3 perfbench/record.py

Run it only at a commit whose output is known good: the gate then holds
every later commit to byte-identical ``--format json`` output. It refuses
to record an exit code other than 0 or a tree family that is not a greedoid,
since both would contradict the paper (T2) or a verified theorem.
"""

from __future__ import annotations

import json
import sys

from run import BenchError, import_program
from workloads import REFERENCE_PATH, WORKLOADS, digest, run_cli


def main() -> int:
    try:
        lmss = import_program()
    except BenchError as exc:
        print(f"record: {exc}", file=sys.stderr)
        return 2
    reference = {}
    for wl in WORKLOADS.values():
        if not wl.cli:
            continue
        table = {}
        for stratum in wl.universe(lmss):
            for item in stratum:
                rc, out = run_cli(lmss, item.argv)
                if rc != 0 or (wl.name == "check_tree" and json.loads(out)["status"] != "GREEDOID"):
                    print(f"record: {item.key} gave exit code {rc}; not recording", file=sys.stderr)
                    return 1
                table[item.key] = digest(out)
        reference[wl.name] = table
        print(f"{wl.name}: {len(table)} inputs", file=sys.stderr)
    REFERENCE_PATH.write_text(json.dumps(reference, indent=0, sort_keys=True) + "\n", encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Record the SHA-256 of every CLI report any seed can ask for.

    python3 perfbench/record_digests.py

Runs every operation of every workload's fixed list and whole pool once,
checks each output against the oracles, and writes perfbench/digests.json,
keyed by a hash of the argv.  Recording refuses to write if any operation
fails its check.  Run it only when report bytes are meant to change, and
say so in the change that does.
"""

from __future__ import annotations

import json
import os
import sys

import run


def main() -> int:
    run.load_package()
    import workloads

    digests, failures = {}, []
    for wl in workloads.WORKLOADS.values():
        ops = wl.fixed(smoke=False)
        for i in range(wl.POOL):
            ops.extend(wl.item(i, smoke=False))
        for op in ops:
            out = op.call()
            problem = op.check(out)
            if problem:
                failures.append(f"{wl.name} {op.verb} {op.argv}: {problem}")
            elif op.argv is not None:
                digests[run.argv_key(op.argv)] = run.report_digest(out[1])
        print(f"{wl.name}: {len(ops)} operations", file=sys.stderr)
    if failures:
        print("\n".join(failures), file=sys.stderr)
        return 1
    with open(os.path.join(run.HERE, "digests.json"), "w") as fh:
        json.dump(dict(sorted(digests.items())), fh, indent=0)
        fh.write("\n")
    print(f"{len(digests)} report digests", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

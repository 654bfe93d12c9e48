"""Freeze the benchmark's reference digests.

    python3 perfbench/freeze.py

Runs every pool entry of every workload once per distinct reference key
and writes perfbench/reference.json: the digest of its verdicts and its
cost in milliseconds, which only sorts sasaki instances into cost bands.
Finch pool entries are the same spaces under several element orders; all
of them must reproduce one digest.  The file is frozen from a commit whose
verdicts are trusted; regenerating it after a program change would hide
exactly the differences the benchmark is there to catch.
"""
from __future__ import annotations

import json
import sys
import time

import run
from workloads import WORKLOADS, digest, run_instance


def freeze(name: str) -> dict[str, dict[str, object]]:
    wl = WORKLOADS[name]
    prog = run.load_program()
    out: dict[str, dict[str, object]] = {}
    for key, inst in sorted(wl.pool(prog, seed=0).items()):
        t0 = time.perf_counter()
        d = digest(run_instance(prog, inst))
        cost = (time.perf_counter() - t0) * 1000
        entry = out.setdefault(inst.ref, {"digest": d, "cost_ms": round(cost, 3)})
        if entry["digest"] != d:
            raise SystemExit(f"{name}/{key}: digest {d} differs from {entry['digest']}")
        entry["cost_ms"] = min(entry["cost_ms"], round(cost, 3))
    return out


def _format(data: dict[str, dict[str, dict[str, object]]]) -> str:
    """One reference entry per line, so a diff shows which entries moved."""
    blocks = []
    for name, entries in sorted(data.items()):
        rows = ",\n".join(
            f"   {json.dumps(key)}: {json.dumps(entry, sort_keys=True)}"
            for key, entry in sorted(entries.items())
        )
        blocks.append(f"  {json.dumps(name)}: {{\n{rows}\n  }}")
    return '{\n "workloads": {\n' + ",\n".join(blocks) + "\n }\n}\n"


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    data = {}
    for name in sorted(WORKLOADS):
        data[name] = freeze(name)
        print(f"{name}: {len(data[name])} reference entries", file=sys.stderr)
    with open(run.HERE / "reference.json", "w", encoding="utf-8") as fh:
        fh.write(_format(data))
    return 0


if __name__ == "__main__":
    sys.exit(main())

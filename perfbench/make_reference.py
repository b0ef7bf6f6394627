"""Write reference.json: each workload's checked values at its preset seed.

    python3 perfbench/make_reference.py

Run it only when a change is meant to move the exported numbers, and say
so where the change is described; the benchmark compares every run with
the values written here.
"""

import json
import os
import re
import shutil

import workloads


def main():
    out = os.path.join(workloads.ROOT, ".perfbench_out", "reference")
    reference = {}
    for name in workloads.names():
        study = workloads.load(name)
        seed = study.default_seed()
        os.makedirs(out, exist_ok=True)
        try:
            prepared = study.prepare(seed, out)
            result = study.call(prepared, out)
            problems, values = study.observe(prepared, result, out, seed)
        finally:
            shutil.rmtree(out)
        if problems:
            raise SystemExit(f"{name}: {problems}")
        reference[name] = {"seed": seed if study.seeded else None,
                           "realizations": study.realizations, "values": values}
        print(f"{name}: seed {seed}, {sum(len(v) for v in values.values())} value rows")
    # one line per exported row keeps the file readable in a diff
    text = json.dumps(reference, indent=1)
    text = re.sub(r"\[\s+([^\[\]{}]*?)\s+\]",
                  lambda m: "[" + " ".join(m.group(1).split()) + "]", text)
    with open(os.path.join(workloads.HERE, "reference.json"), "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


if __name__ == "__main__":
    main()

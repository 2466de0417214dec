"""Write the stored reference CSVs that run.py checks every call against.

    python3 perfbench/make_reference.py [WORKLOAD ...]

One gzipped CSV per workload, size (full, smoke) and noise-seed variant,
made by the program at the commit that adds them.  Rerun only when a change
is meant to alter the benchmark's answers, and say so in the change.
"""

import gzip
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run


def main(names) -> None:
    cli = run._import_program()
    run.REFERENCE.mkdir(exist_ok=True)
    run.OUT.mkdir(exist_ok=True)
    for name in names or sorted(run.WORKLOADS):
        workload = run.WORKLOADS[name]
        for smoke in (False, True):
            for variant in range(run.VARIANTS):
                cfg, flags, _ = workload.inputs(variant, smoke)
                work = Path(tempfile.mkdtemp(prefix="ref-", dir=run.OUT))
                try:
                    (work / "config.json").write_text(json.dumps(cfg))
                    code = cli.main([workload.command, "--config", str(work / "config.json"),
                                     "--out", str(work / "out")] + flags)
                    if code != 0:
                        sys.exit(f"{name} variant {variant}: volgames exited {code}")
                    data = (work / "out" / workload.output).read_bytes()
                finally:
                    shutil.rmtree(work, ignore_errors=True)
                path = workload.reference(variant, smoke)
                path.write_bytes(gzip.compress(data, compresslevel=9, mtime=0))
                print(f"wrote {path.relative_to(run.ROOT)} ({len(data)} bytes of CSV)")


if __name__ == "__main__":
    main(sys.argv[1:])

#!/usr/bin/env python3
"""Builds and runs the repo benchmark.

    python3 perfbench/run.py --workload <analytics|oltp_explore|rack_openloop>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source tree. The simulator libraries and the
perfbench driver are built from source into .bench_build/perfbench (an
incremental no-op once built), then the driver runs as a child process (so
its peak RSS is its own) with stdout passed through. Its last stdout line
is the JSON result; see perfbench/README.md. The metrics it names, with
their units, must be exactly BENCHMARK.json's list for the --trace mode
(end_to_end for 0, per_layer for 1), or the run fails.
"""

import fcntl
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
SOURCE_DIRS = ("src", "bench", "perfbench")


def fail(msg, code=2):
    print(f"perfbench/run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def source_revision():
    """A digest of every source file the benchmark builds from; the tree is
    not necessarily a git checkout."""
    h = hashlib.sha256()
    for d in SOURCE_DIRS:
        for p in sorted((ROOT / d).rglob("*")):
            if p.is_file() and p.suffix in (".cc", ".h", ".txt", ".py"):
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return "tree-sha256:" + h.hexdigest()[:16]


def build():
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD.parent / "perfbench-build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", jobs])
    with open(BUILD.parent / "perfbench-build.lock", "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed; full log in {log_path}", 1)
    return BUILD / "perfbench"


def main(argv):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no simulator sources at {ROOT / 'src'}; run from a full tree")
    opts = dict(zip(argv[::2], argv[1::2]))
    if len(argv) % 2 or "--workload" not in opts:
        fail("usage: run.py --workload <name> --seed <n> --seconds <s> "
             "--trace <0|1>")
    binary = build()
    args = [str(binary), *argv, "--source-rev", source_revision()]
    if opts.get("--trace") == "1":
        stem = f"{opts['--workload']}-{opts.get('--seed', '1')}"
        if not stem.replace("_", "").replace("-", "").isalnum():
            fail(f"bad workload or seed: {stem}")
        args += ["--spans-out", str(BUILD / f"spans-{stem}.jsonl")]
    sys.stdout.flush()
    child = subprocess.Popen(args, stdout=subprocess.PIPE, text=True)
    last = ""
    try:
        for line in child.stdout:
            sys.stdout.write(line)
            last = line
        code = child.wait()
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    sys.stdout.flush()
    if code == 0:
        check_metrics(last, "per_layer" if opts.get("--trace") == "1"
                      else "end_to_end")
    sys.exit(code)


def check_metrics(result_line, section):
    """Fails unless the result names exactly BENCHMARK.json's metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = [(m["name"], m["unit"]) for m in spec[section]]
    got = [(name, m["unit"])
           for name, m in json.loads(result_line)["metrics"].items()]
    if got != want:
        fail(f"the result's metrics differ from BENCHMARK.json {section}: "
             f"missing {sorted(set(want) - set(got))}, "
             f"extra {sorted(set(got) - set(want))}", 1)


if __name__ == "__main__":
    main(sys.argv[1:])

#!/usr/bin/env python3
"""Build the load generator from source and run one workload.

    python3 perfbench/run.py --workload batch_find --seed 1 --seconds 40 --trace 0

Run from the repository root.  The load generator, gtl_perfbench
(perfbench/src, built by perfbench/CMakeLists.txt together with the
repository's libraries and gtl_serve), goes to $CARGO_TARGET_DIR/perfbench,
default .bench_build/perfbench; every run gets a fresh work directory under
it for design files, sockets, manifests and server logs, removed afterwards.
A traced run (--trace 1) also writes its spans to
<build>/spans/<workload>.jsonl (the latest traced run of each workload).

The last line of standard output is the result JSON; the lines before it
give every metric with its unit and sample count.  Exit code 0 means every
output was checked and correct.  See perfbench/README.md.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("batch_find", "serve_tiny", "serve_churn")
# gtl_perfbench must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(msg, code=2):
    sys.stderr.write("perfbench: " + msg + "\n")
    sys.exit(code)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build(bdir):
    """Configure once, then (re)build gtl_perfbench and the daemon."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no repository sources next to perfbench/ (need ../CMakeLists.txt "
             "and ../src); run from a full checkout")
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    cache = os.path.join(bdir, "CMakeCache.txt")
    steps, configure = [], None
    if not os.path.isfile(cache):
        configure = ["cmake", "-S", HERE, "-B", bdir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", bdir, "-j", jobs,
                  "--target", "gtl_perfbench", "gtl_serve_tool"])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                rc = 1
                log.write(str(e) + "\n")
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    tail = f.read()[-4000:]
                # A failed configure must not leave a cache that skips it.
                if cmd is configure and os.path.exists(cache):
                    os.remove(cache)
                fail("build failed: " + " ".join(cmd) + "\n" + tail)
    return (os.path.join(bdir, "gtl_perfbench"),
            os.path.join(bdir, "gtl", "tools", "gtl_serve"))


def source_rev():
    """The git revision, or a digest of the source tree outside git."""
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
        lines = out.stdout.split()
        # Only this checkout's own repository counts, not an enclosing one.
        if (out.returncode == 0 and len(lines) == 2
                and os.path.realpath(lines[0]) == os.path.realpath(ROOT)):
            return lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "cmake", "include", "src", "tools",
                "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else [
            os.path.join(d, f) for d, _, fs in os.walk(path)
            if "__pycache__" not in d for f in fs]
        for name in sorted(files):
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt-reference", action="store_true",
                    help="self-test: corrupt the reference so the run fails")
    args = ap.parse_args()

    bdir = build_dir()
    perfbench_bin, server_bin = build(bdir)
    runs = os.path.join(bdir, "runs")
    os.makedirs(runs, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix="%s-%d-" % (args.workload, args.seed),
                               dir=runs)
    span_file = os.path.join(bdir, "spans", args.workload + ".jsonl")
    cmd = [perfbench_bin, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--server-bin", server_bin, "--span-file", span_file,
           "--source-rev", source_rev()]
    if args.corrupt_reference:
        cmd.append("--corrupt-reference")
    sys.stdout.flush()
    # Own process group: a timeout takes gtl_perfbench and its gtl_serve.
    proc = subprocess.Popen(cmd, cwd=run_dir, start_new_session=True)
    try:
        rc = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        rc = None
    finally:
        # Anything left in the group (a server orphaned by a crash) goes too.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        shutil.rmtree(run_dir, ignore_errors=True)
    if rc is None:
        fail("gtl_perfbench exceeded %d s" % RUN_TIMEOUT_S, 1)
    if rc != 0:
        sys.stderr.write("perfbench: gtl_perfbench exited with %d\n" % rc)
    sys.exit(0 if rc == 0 else 1)


if __name__ == "__main__":
    main()

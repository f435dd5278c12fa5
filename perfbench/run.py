#!/usr/bin/env python3
"""Run one workload of the meta-blocking benchmark and print its result line.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first run in a checkout compiles the program and the harness with the
stand-alone sbt build in this directory (offline); later runs reuse the
classpath until a source file changes. Each run then starts one JVM with a
single-process Spark driver, local[N] with N = the number of usable cores.
Everything the run writes goes under $CARGO_TARGET_DIR (default
.bench_build) in the checkout. The last line on standard output is the JSON
result; build and Spark logs go to standard error.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PROGRAM_SOURCES = [
    os.path.join(ROOT, "src", "main", "scala"),
    os.path.join(ROOT, "src", "test", "scala", "repro", "SparkSpec.scala"),
]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
# Fixed, so results do not depend on the core count; SparkSpec's default of
# 64 mostly adds task scheduling on inputs of this size.
SHUFFLE_PARTITIONS = "8"
# Fixed driver heap: the inputs need about 100 MB, and a fixed size keeps GC
# behaviour the same on every machine.
DRIVER_MEM = "2g"
# The throughput collector: in three repeat runs of dirty-d4k-rcnp at one seed
# it made the driver-side LocalSweep rate steadier than the default G1
# (750k-790k pairs/s against 590k-730k). The op has not been compared with G1.
JAVA_GC = "-XX:+UseParallelGC"

# The module options spark-submit passes to a JDK 17 driver.
JAVA_MODULE_OPTIONS = [
    "-XX:+IgnoreUnrecognizedVMOptions",
    "--add-modules=jdk.incubator.vector",
    "--add-opens=java.base/java.lang=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.invoke=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.reflect=ALL-UNNAMED",
    "--add-opens=java.base/java.io=ALL-UNNAMED",
    "--add-opens=java.base/java.net=ALL-UNNAMED",
    "--add-opens=java.base/java.nio=ALL-UNNAMED",
    "--add-opens=java.base/java.util=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent.atomic=ALL-UNNAMED",
    "--add-opens=java.base/jdk.internal.ref=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.cs=ALL-UNNAMED",
    "--add-opens=java.base/sun.security.action=ALL-UNNAMED",
    "--add-opens=java.base/sun.util.calendar=ALL-UNNAMED",
    "-Djdk.reflect.useDirectMethodHandle=false",
    "-Dio.netty.tryReflectionSetAccessible=true",
]


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def source_files():
    dirs = PROGRAM_SOURCES + [
        os.path.join(HERE, "src", "main"),
        os.path.join(HERE, "build.sbt"),
        os.path.join(HERE, "project", "build.properties"),
    ]
    for d in dirs:
        if os.path.isfile(d):
            yield d
        for base, subdirs, files in os.walk(d):
            subdirs.sort()
            for f in sorted(files):
                yield os.path.join(base, f)


def stamp():
    h = hashlib.sha256()
    for path in source_files():
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def run_child(cmd, cwd, env, timeout):
    """Run cmd in its own process group; on timeout kill the group and wait."""
    p = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
                         stderr=None, text=True, start_new_session=True)
    try:
        out, _ = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        log(f"timed out after {timeout} s: {' '.join(cmd[:3])} ...")
        return 124, ""
    except BaseException:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        raise
    return p.returncode, out


def build(out_dir):
    """Compile with sbt unless the recorded stamp matches; return the classpath."""
    cp_file = os.path.join(out_dir, "classpath.txt")
    stamp_file = os.path.join(out_dir, "stamp.txt")
    want = stamp()
    if os.path.exists(cp_file) and os.path.exists(stamp_file):
        with open(stamp_file) as f:
            if f.read().strip() == want:
                with open(cp_file) as g:
                    return g.read().strip()
    log("building the program and the harness with sbt (offline)")
    env = dict(os.environ)
    env["COURSIER_MODE"] = "offline"
    env.setdefault("SBT_OPTS", "-Dsbt.override.build.repos=true "
                   "-Dsbt.repository.config=" + os.path.expanduser("~/.sbt/repositories") +
                   " -Dsbt.offline=true -Xmx2g")
    code, out = run_child(["sbt", "--batch", "-Dsbt.log.noformat=true", "benchClasspath"],
                          HERE, env, BUILD_TIMEOUT_S)
    sys.stderr.write(out)
    built = os.path.join(HERE, "target", "classpath.txt")
    if code != 0 or not os.path.exists(built):
        log(f"build failed (exit {code})")
        sys.exit(code or 1)
    with open(built) as f:
        cp = f.read().strip()
    os.makedirs(out_dir, exist_ok=True)
    with open(cp_file, "w") as f:
        f.write(cp)
    with open(stamp_file, "w") as f:
        f.write(want)
    return cp


def main():
    # A terminated run stops its JVM too (run_child kills the process group).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    missing = [p for p in PROGRAM_SOURCES if not os.path.exists(p)]
    if missing:
        log("the program's sources are missing (run from a full checkout): " + ", ".join(missing))
        sys.exit(2)

    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    out_dir = os.path.join(build_root, "perfbench")
    cp = build(out_dir)

    local = os.path.join(build_root, "spark-local")
    tmp = os.path.join(build_root, "tmp")
    os.makedirs(local, exist_ok=True)
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env["SPARK_MASTER"] = f"local[{len(os.sched_getaffinity(0))}]"
    env["SPARK_LOCAL_DIRS"] = local
    env["SPARK_SHUFFLE_PARTITIONS"] = SHUFFLE_PARTITIONS
    env["SPARK_DRIVER_MEM"] = DRIVER_MEM
    cmd = (["java", f"-Xms{DRIVER_MEM}", f"-Xmx{DRIVER_MEM}", JAVA_GC] + JAVA_MODULE_OPTIONS +
           ["-Dspark.driver.host=127.0.0.1", "-Dspark.ui.enabled=false",
            f"-Djava.io.tmpdir={tmp}", "-cp", cp, "perfbench.Main",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", args.trace,
            "--out", os.path.join(out_dir, "spans")])
    code, out = run_child(cmd, ROOT, env, RUN_TIMEOUT_S)
    lines = out.rstrip("\n").split("\n") if out.strip() else []
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    if code != 0 or not lines:
        log(f"benchmark exited with {code}")
        sys.exit(code or 1)
    json.loads(lines[-1])  # the result line must be one JSON object
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()

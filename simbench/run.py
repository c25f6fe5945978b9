#!/usr/bin/env python3
"""Run the SimPush query benchmark on one workload.

    python3 simbench/run.py --workload twitter-fine --seed 1 --seconds 20 --trace 0

Run from the root of a checkout of the repository. The first call builds the
benchmark (and the repository's root project, which it depends on) with sbt;
later calls reuse the build while no source is newer than it. Everything the
benchmark writes stays in the checkout: build output in the sbt `target`
directories, results, Spark scratch space and cached ground truth in
`simbench/out`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The exit code is 0 only when
every answer passed the correctness gate.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
CLASSPATH = os.path.join(BENCH, "target", "classpath.txt")
OUT = os.path.join(BENCH, "out")
MAIN = "repro.simbench.Bench"

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
# Pinned so that runs are comparable; the largest workload needs well under 1 GB.
HEAP = "3g"

# Spark's Java 17 module opens, as in the root build.
JVM_FLAGS = [
    "-XX:+IgnoreUnrecognizedVMOptions",
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
    "-Djdk.reflect.useDirectMethodHandleAccessor=false",
]


def fail(msg, code=2):
    print(f"simbench: {msg}", file=sys.stderr)
    sys.exit(code)


def sources():
    """Every file whose change requires a rebuild."""
    roots = [os.path.join(ROOT, "src", "main"), os.path.join(ROOT, "jobs"), os.path.join(ROOT, "project"),
             os.path.join(BENCH, "src", "main"), os.path.join(BENCH, "project")]
    files = [os.path.join(ROOT, "build.sbt"), os.path.join(BENCH, "build.sbt")]
    for r in roots:
        for d, dirs, fs in os.walk(r):
            dirs[:] = [x for x in dirs if x != "target"]
            files += [os.path.join(d, f) for f in fs]
    return sorted(f for f in files if os.path.isfile(f))


def source_digest(files):
    h = hashlib.sha256()
    for f in files:
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()[:16]


def run_child(cmd, timeout, stdout, cwd, env):
    """Run `cmd` in its own process group; kill the whole group on timeout or
    interrupt, and always wait for it to end."""
    p = subprocess.Popen(cmd, cwd=cwd, stdout=stdout, stderr=sys.stderr, start_new_session=True,
                         env=dict(os.environ, **env))
    try:
        out, _ = p.communicate(timeout=timeout)
        return p.returncode, out
    except BaseException:
        try:
            os.killpg(p.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        p.wait()
        raise



def build(files):
    stamp_ok = os.path.isfile(CLASSPATH) and os.path.getmtime(CLASSPATH) >= max(os.path.getmtime(f) for f in files)
    if stamp_ok:
        return
    sbt_opts = (os.environ.get("SBT_OPTS", "") + " -Dsbt.server.autostart=false").strip()
    t0 = time.time()
    code, _ = run_child(["sbt", "--batch", "-Dsbt.log.noformat=true", "writeClasspath"],
                        BUILD_TIMEOUT_S, sys.stderr, BENCH, {"SBT_OPTS": sbt_opts})
    if code != 0 or not os.path.isfile(CLASSPATH):
        fail(f"build failed (sbt exit {code})", 3)
    print(f"simbench: built in {time.time() - t0:.0f}s", file=sys.stderr)


def git_sha():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    a = ap.parse_args()
    if a.seconds < 1:
        fail("--seconds must be at least 1")
    for need in ("build.sbt", os.path.join("src", "main", "scala")):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"{need} not found next to {os.path.basename(BENCH)}/: run from a checkout of the repository")

    files = sources()
    build(files)
    with open(CLASSPATH) as fh:
        cp = fh.read().strip()
    os.makedirs(OUT, exist_ok=True)
    tmp = os.path.join(OUT, "tmp")
    local = os.path.join(OUT, "spark-local")
    for d in (tmp, local):
        os.makedirs(d, exist_ok=True)
    env = {"SIMBENCH_GIT_SHA": git_sha(), "SIMBENCH_SOURCE_DIGEST": source_digest(files), "SPARK_LOCAL_DIRS": local}
    cmd = ["java", f"-Xmx{HEAP}", f"-Djava.io.tmpdir={tmp}", "-Dspark.ui.enabled=false", *JVM_FLAGS,
           "-cp", cp, MAIN, "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", a.trace, "--out", OUT]
    code, out = run_child(cmd, RUN_TIMEOUT_S, subprocess.PIPE, ROOT, env)
    text = out.decode()
    sys.stdout.write(text)
    sys.stdout.flush()
    lines = text.strip().splitlines()
    if code == 0 and not (lines and lines[-1].startswith("{")):
        fail("benchmark printed no result line", 4)
    sys.exit(code)


if __name__ == "__main__":
    main()

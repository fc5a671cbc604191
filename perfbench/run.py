#!/usr/bin/env python3
"""Build the repository benchmark from source and run it.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

perfbench/ is a Go module of its own that uses the repository's module
through a replace directive. This script builds it into .bench_build/ at
the checkout root, with the Go build cache and every other file the
toolchain writes kept there too, and then runs it with the same arguments.
Traced runs (--trace 1) also write their host spans as trace-event JSON to
.bench_build/spans/. The benchmark's standard output passes through
unchanged; its last line is the JSON result.

GOGC is pinned to 200 and recorded in the result's meta. On a 2-CPU host
the collector's background work competes with other load on the second
CPU. At the default of 100 the small live heaps of the single-engine
workloads are collected every few milliseconds and host times spread
widely from run to run; at 400 the peak resident memory follows the
collector's timing and spreads instead.
"""

import hashlib
import os
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def run(cmd, cwd, env, timeout, stdout=None):
    """Run cmd in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=stdout, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: {cmd[0]} timed out after {timeout} s", file=sys.stderr)
        return 124
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def revision(root):
    """The git commit when the checkout is a repository, else a digest of
    the Go sources and module files the benchmark is built from."""
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            if out.returncode == 0:
                return "git:" + out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src:" + h.hexdigest()[:16]


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, ".bench_build")
    home = os.path.join(build, "home")
    tmp = os.path.join(build, "tmp")
    for d in (build, home, tmp, os.path.join(build, "spans")):
        os.makedirs(d, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "HOME": home,
        "XDG_CONFIG_HOME": os.path.join(home, ".config"),
        "XDG_CACHE_HOME": os.path.join(home, ".cache"),
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOMODCACHE": os.path.join(build, "gopath", "pkg", "mod"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "GOFLAGS": "",
        "GOENV": "off",
        "GOGC": "200",
    })
    binary = os.path.join(build, "perfbench")
    code = run(["go", "build", "-o", binary, "."], here, env, BUILD_TIMEOUT_S,
               stdout=sys.stderr)
    if code != 0:
        print(f"perfbench: build failed (exit {code})", file=sys.stderr)
        return code if code > 0 else 1

    args = sys.argv[1:]
    args += ["--commit", revision(root)]
    if flag_value(args, "--trace") == "1":
        workload = flag_value(args, "--workload") or "unknown"
        seed = flag_value(args, "--seed") or "1"
        args += ["--spans", os.path.join(build, "spans", f"{workload}-seed{seed}.json")]
    sys.stdout.flush()
    code = run([binary] + args, root, env, RUN_TIMEOUT_S)
    return code if code >= 0 else 1


def flag_value(args, name):
    """The value of --name v or --name=v, or None."""
    for i, a in enumerate(args):
        if a == name and i + 1 < len(args):
            return args[i + 1]
        if a.startswith(name + "="):
            return a[len(name) + 1:]
    return None


if __name__ == "__main__":
    sys.exit(main())

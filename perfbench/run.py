#!/usr/bin/env python3
"""Build the Cayman benchmark runner from source and run one workload.

Run from the root of a Cayman checkout:

    python3 perfbench/run.py --workload suite --seed 1 --seconds 15 --trace 0

Workloads: suite, fleet, serve, verify (see perfbench/README.md). The
last line of standard output is one JSON object with the keys
"correct", "attempted", "failed" and "metrics".

The build uses dune's default build directory (_build) and no shared
dune cache; scratch files go to .perfbench-work/ and are removed at the
end. Worker domains (CAYMAN_JOBS) and the serve workload's daemon pool
are pinned to 1 (the traced run adds a cycle at 2 to check that the
job count changes no result). Exits non-zero without a result when the
current directory is not a Cayman checkout or the build fails.
"""

import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("suite", "fleet", "serve", "verify")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def parse(argv):
    opts = {}
    it = iter(argv)
    for flag in it:
        if flag not in ("--workload", "--seed", "--seconds", "--trace"):
            raise ValueError(f"unknown argument {flag}")
        opts[flag[2:]] = next(it)
    if set(opts) != {"workload", "seed", "seconds", "trace"}:
        raise ValueError("need --workload, --seed, --seconds and --trace")
    if opts["workload"] not in WORKLOADS:
        raise ValueError(f"unknown workload {opts['workload']}")
    int(opts["seed"]), float(opts["seconds"])
    if opts["trace"] not in ("0", "1"):
        raise ValueError("--trace takes 0 or 1")
    return opts


def main(argv):
    try:
        opts = parse(argv)
    except (ValueError, StopIteration) as e:
        return fail(f"{e}\nusage: run.py --workload {'|'.join(WORKLOADS)} "
                    "--seed N --seconds S --trace 0|1")
    root = os.getcwd()
    needed = ["dune-project", "lib", "bin/cayman_cli.ml", "perfbench/dune"]
    missing = [p for p in needed if not os.path.exists(os.path.join(root, p))]
    if missing:
        return fail(f"not a Cayman checkout (missing {', '.join(missing)})")
    work = os.path.join(root, ".perfbench-work")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    # One worker: a second domain would stop with the first at every
    # minor collection and wait for it whenever the host preempts it.
    jobs = "1"
    # Caches of dune and of the program stay inside the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled", CAYMAN_JOBS=jobs,
               XDG_CACHE_HOME=os.path.join(work, "xdg-cache"))
    for var in ("CAYMAN_CACHE_DIR", "CAYMAN_INTERP", "CAYMAN_FUEL",
                "CAYMAN_CACHE_MAX_MB"):
        env.pop(var, None)
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/bench.exe",
             "./bin/cayman_cli.exe"],
            env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        shutil.rmtree(work, ignore_errors=True)
        return fail(f"build failed: {e}")
    if build.returncode != 0:
        shutil.rmtree(work, ignore_errors=True)
        return fail("build failed")
    exe = os.path.join(root, "_build", "default", "perfbench", "bench.exe")
    cli = os.path.join(root, "_build", "default", "bin", "cayman_cli.exe")
    cmd = [exe, "--workload", opts["workload"], "--seed", opts["seed"],
           "--seconds", opts["seconds"], "--trace", opts["trace"],
           "--work", work, "--cli", cli]
    # A timed run keeps to one CPU, the serve daemon included: the host
    # probe then measures the CPU that does the work, whichever of the
    # host's cores it sits on (perfbench/README.md).
    pin = None
    if opts["trace"] == "0" and hasattr(os, "sched_setaffinity"):
        cpu = min(os.sched_getaffinity(0))
        pin = lambda: os.sched_setaffinity(0, {cpu})
    # A session of its own, so the serve daemon and anything else the
    # benchmark starts can be stopped as one group whatever happens.
    proc = subprocess.Popen(cmd, env=env, start_new_session=True,
                            preexec_fn=pin)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        code = fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        shutil.rmtree(work, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

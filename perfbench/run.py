#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <kv_hot|ledger_2pc|dsm_spill|all> \
        --seed <n> --seconds <s> --trace <0|1> [--trace-out <dir>]

The arguments go to the benchmark binary unchanged. The build goes to
$CARGO_TARGET_DIR, or to .bench_build at the repository root when that is
unset. Cargo's output goes to stderr, so the last line on stdout is the
benchmark's JSON result. The exit code is the build's when the build fails,
and the benchmark's otherwise.

The benchmark runs on one CPU, with address-space randomisation off and
with one malloc arena:

- A request hands work between the program's threads many times. A
  hand-off to another CPU costs a cross-CPU wake-up whose price depends on
  what else the host runs.
- A random layout moves the figures from one run to the next by itself.
- With several arenas, which threads happened to contend for the allocator
  decides the peak memory, which then spreads by a quarter between runs.
  On one CPU, more arenas buy nothing.
"""

import ctypes
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    exe = os.path.join(target, "release", "clouds-perfbench")
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    env["MALLOC_ARENA_MAX"] = "1"
    return subprocess.run([exe] + sys.argv[1:], env=env, preexec_fn=fixed_layout).returncode


ADDR_NO_RANDOMIZE = 0x0040000


def fixed_layout() -> None:
    """Turn address-space randomisation off for the program about to start."""
    libc = ctypes.CDLL(None, use_errno=True)
    persona = libc.personality(0xFFFFFFFF)
    if persona != -1:
        libc.personality(persona | ADDR_NO_RANDOMIZE)


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) that
depends on the repository's crates by path. It is built in release mode
into CARGO_TARGET_DIR (perfbench/target when unset). Cargo's output goes
to standard error, so the last line of standard output is the result
line of the benchmark binary. The exit code is the binary's, or 1 when
the build fails.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def revision():
    """The git revision, or a digest of the source tree when the checkout
    is not a git repository."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "rev-parse", "--short=12", "HEAD"],
                cwd=ROOT, capture_output=True, text=True, timeout=30,
            )
            if out.returncode == 0 and out.stdout.strip():
                return "git:" + out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    sources = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for top in ("src", "crates", "perfbench/src"):
        sources += sorted(p for p in (ROOT / top).rglob("*") if p.is_file())
    for path in sources:
        if path.is_file() and "target" not in path.relative_to(ROOT).parts:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "tree:" + digest.hexdigest()[:12]


def main():
    env = dict(os.environ)
    target = pathlib.Path(env.get("CARGO_TARGET_DIR") or HERE / "target")
    if not target.is_absolute():
        target = ROOT / target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    env["QCS_BENCH_REV"] = revision()
    try:
        run = subprocess.run(
            [str(target / "release" / "qcs-perfbench"), *sys.argv[1:]],
            cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())

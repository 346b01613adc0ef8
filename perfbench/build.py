"""Builds the simulator from source into the checkout and records the
provenance every result carries."""

import os
import platform
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
OUT_DIR = ROOT / ".bench_build" / "out"


class BenchError(Exception):
    """A refusal or failure that ends the run without a result."""


def _run(cmd, **kw):
    return subprocess.run(cmd, capture_output=True, text=True, **kw)


def require_sources():
    """The benchmark builds the program from the checkout's sources; a
    directory holding only the benchmark has nothing to measure."""
    for rel in ("src/CMakeLists.txt", "examples/dtexld.cpp",
                "scripts/run_report.py"):
        if not (ROOT / rel).is_file():
            raise BenchError(f"missing {rel}: run from a full checkout")


def cache_value(key, build_dir=BUILD_DIR):
    cache = build_dir / "CMakeCache.txt"
    if not cache.is_file():
        return None
    for line in cache.read_text().splitlines():
        m = re.match(rf"^{re.escape(key)}:[A-Z]+=(.*)$", line)
        if m:
            return m.group(1)
    return None


def build(jobs=None):
    """Configure (Release) on first use, then build incrementally.
    Returns the directory holding the binaries."""
    require_sources()
    jobs = jobs or max(1, min(4, os.cpu_count() or 1))
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        r = _run(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                  "-DCMAKE_BUILD_TYPE=Release"])
        if r.returncode != 0:
            sys.stderr.write(r.stdout + r.stderr)
            raise BenchError("cmake configure failed")
    r = _run(["cmake", "--build", str(BUILD_DIR), "-j", str(jobs)])
    if r.returncode != 0:
        sys.stderr.write(r.stdout[-8000:] + r.stderr[-8000:])
        raise BenchError("build failed")
    check_release(BUILD_DIR)
    return BUILD_DIR


def check_release(build_dir):
    """Refuse anything but an optimized Release build: an empty
    CMAKE_BUILD_TYPE adds no optimization flags at all."""
    bt = cache_value("CMAKE_BUILD_TYPE", build_dir)
    if bt != "Release":
        raise BenchError(f"refusing non-Release build in {build_dir} "
                         f"(CMAKE_BUILD_TYPE={bt!r})")


def provenance(build_dir, seed):
    """Host and build facts recorded with every result."""
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    compiler = cache_value("CMAKE_CXX_COMPILER", build_dir) or "c++"
    cv = _run([compiler, "--version"])
    version = _run([str(build_dir / "dtexld"), "--version"]).stdout.strip()
    m = re.search(r"simd (\S+?),", version)
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "compiler": cv.stdout.splitlines()[0] if cv.stdout else compiler,
        "simd_backend": m.group(1) if m else "unknown",
        "version": version,
        "build_type": cache_value("CMAKE_BUILD_TYPE", build_dir),
        "platform": platform.platform(),
        "seed": seed,
    }

"""Run one afp benchmark workload and print its metrics.

    python3 bench/run.py --workload train_desk --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the package is imported from ./src.
--trace 0 prints the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer metrics of a traced run. The last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}; the exit code is 0
only when every correctness check passed. --workload all runs every workload,
each in its own process, and prints their metrics under "<workload>.<name>".
"""

import argparse
import os
import sys

# Pin BLAS to one thread before numpy is imported, so every run uses the same
# thread count whatever the machine's core count.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import json
import platform
import shutil
import subprocess
import traceback

import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(np),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def _blas_threads(np):
    """Thread count reported by the OpenBLAS bundled with numpy, else the pinned value."""
    import ctypes
    import glob

    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs", "libscipy_openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return int(BLAS_THREADS)


def _print_result(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"failed_frac {failed / attempted if attempted else 1.0:.6g} ratio")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": float(v), "unit": u} for name, (v, u) in metrics.items()},
            }
        )
    )


def run_one(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "afp", "__init__.py")):
        print(f"afp sources not found under {SRC}: run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    afp = workloads.load_afp()
    if not os.path.abspath(afp.training.__file__).startswith(SRC + os.sep):
        print(f"imported afp from {afp.training.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    spec = _spec()
    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    wl = workloads.Workload(afp, args.workload, args.seed, workdir)
    print(json.dumps({"env": _environment(args.seed)}))
    try:
        if args.trace:
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            trace_path = os.path.join(ROOT, ".bench_out", f"trace_{args.workload}.npz")
            metrics, info = workloads.run_traced(wl, args.seconds, trace_path, units)
        else:
            metrics, info = workloads.run_untraced(wl, args.seconds)
    except Exception:  # the boundary of the run: report the failure as a result
        traceback.print_exc()
        wl.checks.expect(False, "the workload ran to completion")
        metrics, info = {}, {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:  # another run still has its work directory there
            pass
    print(json.dumps({"info": info, "items": wl.items}))
    for what in wl.checks.failures:
        print(f"FAILED: {what}", file=sys.stderr)
    _print_result(wl.failed == 0, wl.attempted, wl.failed, metrics)
    return 0 if wl.failed == 0 else 1


def run_all(args) -> int:
    merged, attempted, failed, correct = {}, 0, 0, True
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed)]
        cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        correct = correct and result["correct"] and proc.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, entry in result["metrics"].items():
            merged[f"{name}.{metric}"] = (entry["value"], entry["unit"])
    print("== all")
    _print_result(correct, attempted, failed, merged)
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS) + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())

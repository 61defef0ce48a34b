#!/usr/bin/env python3
"""The repository benchmark: builds the program from source, runs one
workload for a fixed measuring time, checks every output against the
benchmark's own references, and prints one JSON result as the last line.

    python3 perfbench/run.py --workload pow_sw --seed 1 --seconds 20 --trace 0

Each round is one perfbench_driver process with a fresh, empty JIT cache
directory: it sets the workload up, runs the workload's fixed job, and
checks the outputs. Rounds repeat until --seconds have passed (at least
MIN_ROUNDS of them), and every metric is the median over the rounds.
With --trace 1 the rounds alternate between untraced and traced ones, a
layer pass follows, and the per-layer metrics are printed instead; see
README.md. Everything the run writes stays under .bench_build/ in the
checkout, and the per-round cache directories are removed.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD, "perfbench_driver")

WORKLOADS = ("pow_sw", "stream_sw", "pow_jit", "edit_fabric")
MIN_ROUNDS = 3
# The run must end within 180 s of the build; no round starts after
# DEADLINE_S - 60 once the minimum rounds are in.
DEADLINE_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ticks_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "verilog.parse_s": "s",
    "verilog.elaborate_s": "s",
    "ir.wrapper_s": "s",
    "sim.tick_ns": "ns",
    "runtime.tick_ns": "ns",
    "runtime.overhead_ns": "ns",
    "runtime.iterations_per_tick": "count",
    "runtime.eval_s": "s",
    "runtime.fifo_push_ns": "ns/byte",
    "runtime.to_jit_s": "s",
    "runtime.to_fabric_s": "s",
    "runtime.compile_adopt_ratio": "ratio",
    "jit.adopt_ratio": "ratio",
    "jit.codegen_s": "s",
    "jit.cxx_s": "s",
    "jit.load_s": "s",
    "jit.kernel_cycle_ns": "ns",
    "fpga.synth_s": "s",
    "fpga.techmap_s": "s",
    "fpga.place_s": "s",
    "fpga.timing_s": "s",
    "fpga.anneal_moves": "count",
    "fpga.bitstream_cycle_ns": "ns",
    "service.compile_s": "s",
    "service.cache_hit_s": "s",
    "telemetry.histogram_record_ns": "ns",
    "telemetry.mutex_lock_ns": "ns",
    "process.cpu_s": "s",
    "trace.overhead_s": "s",
}

# The standalone engine cycle that runtime.overhead_ns subtracts, by the
# tier each workload's job runs on.
ENGINE_CYCLE = {
    "pow_sw": "sim.tick_ns",
    "stream_sw": "sim.tick_ns",
    "pow_jit": "jit.kernel_cycle_ns",
    "edit_fabric": "fpga.bitstream_cycle_ns",
}


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    """Configures and builds perfbench_driver (a no-op when up to date)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/ next to perfbench/: the benchmark builds the program "
             "from the repository's sources", 2)
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)  # compiler temporaries stay inside
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench_driver",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT,
                               cwd=ROOT, env=env) != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed (log: %s)" % log_path)


def run_driver(args, cache_dir, deadline):
    """Runs perfbench_driver with \p cache_dir as its JIT cache (None for
    commands that build no kernel); returns its JSON result."""
    env = dict(os.environ)
    tmp = os.path.join(BUILD, "tmp")
    if cache_dir is not None:
        env["CASCADE_JIT_CACHE_DIR"] = cache_dir
    env["CASCADE_CRASH_DIR"] = tmp
    env["TMPDIR"] = tmp
    timeout = max(5.0, deadline - time.monotonic())
    proc = subprocess.Popen([DRIVER] + args, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=env,
                            cwd=BUILD, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("perfbench_driver %s timed out" % " ".join(args))
    lines = [l for l in out.splitlines() if l.strip()]
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(err[-4000:])
        fail("perfbench_driver %s printed no result (exit %d)"
             % (" ".join(args), proc.returncode))
    if proc.returncode != 0:
        sys.stderr.write(err[-4000:])
        fail("perfbench_driver %s failed: %s"
             % (" ".join(args), result.get("error", "exit %d"
                                            % proc.returncode)))
    return result


def fresh_dir(name):
    path = os.path.join(BUILD, "jit", "%d-%s" % (os.getpid(), name))
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def run_round(workload, seed, index, trace, deadline):
    cache = fresh_dir("r%d" % index)
    args = ["round", "--workload", workload, "--seed", str(seed),
            "--trace", "1" if trace else "0"]
    if trace:
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        args += ["--spans", os.path.join(
            spans, "%s-seed%d-round%d.json" % (workload, seed, index))]
    try:
        return run_driver(args, cache, deadline)
    finally:
        shutil.rmtree(cache, ignore_errors=True)


def run_layers(workload, seed, deadline):
    """The layer pass, then a warm reload of its JIT kernel in a second
    process that has never loaded it."""
    cache = fresh_dir("layers")
    spans = os.path.join(BUILD, "spans")
    os.makedirs(spans, exist_ok=True)
    base = ["layers", "--workload", workload, "--seed", str(seed)]
    try:
        cold = run_driver(base + ["--phase", "cold", "--spans", os.path.join(
            spans, "%s-seed%d-layers.json" % (workload, seed))], cache,
            deadline)
        warm = run_driver(base + ["--phase", "warm"], cache, deadline)
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    cold.update(warm)
    return cold


def median(values):
    return statistics.median(values) if values else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=45)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if a.seed < 0:
        fail("--seed must be a non-negative integer", 2)

    build()
    # The first run in a checkout builds; the 180 s limit is for the run.
    deadline = time.monotonic() + DEADLINE_S
    host = run_driver(["host"], None, deadline)

    measure_start = time.monotonic()
    rounds = []
    index = 0
    while True:
        elapsed = time.monotonic() - measure_start
        traced = sum(1 for r in rounds if r["traced"])
        enough = (len(rounds) >= MIN_ROUNDS if not a.trace
                  else traced >= 1 and len(rounds) - traced >= 1)
        if enough and elapsed >= a.seconds:
            break
        if enough and time.monotonic() > deadline - 60:
            break
        trace_this = bool(a.trace) and index % 2 == 1
        r = run_round(a.workload, a.seed, index, trace_this, deadline)
        r["traced"] = trace_this
        rounds.append(r)
        index += 1

    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    untraced = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]

    def pooled(rs, m):
        """Every job's value of m, or every round's for per-round ones."""
        return [v for r in rs for v in r["samples"].get(m, [r.get(m)])]

    samples = {m: pooled(untraced, m) for m in END_TO_END}

    if a.trace:
        layers = run_layers(a.workload, a.seed, deadline)
        values = dict(layers)
        # The job's own numbers win over the layer pass's sessions.
        for name in PER_LAYER:
            got = [r[name] for r in traced if name in r]
            if got:
                values[name] = median(got)
        values["runtime.overhead_ns"] = (
            values["runtime.tick_ns"] - values[ENGINE_CYCLE[a.workload]])
        values["trace.overhead_s"] = (median(pooled(traced, "wall_s")) -
                                      median(samples["wall_s"]))
        missing = [n for n in PER_LAYER if n not in values]
        if missing:
            fail("per-layer metrics missing: " + ", ".join(missing))
        metrics = {n: {"value": values[n], "unit": u}
                   for n, u in PER_LAYER.items()}
        if a.workload != "edit_fabric":
            # On the tick workloads, runtime.tick_ns and the untraced
            # rate should agree within the tracing overhead.
            print(json.dumps({"tick_ns_check": {
                "traced_runtime_tick_ns": values["runtime.tick_ns"],
                "untraced_ns_per_tick":
                    1e9 / median(samples["ticks_per_s"]),
                "trace_overhead_s": values["trace.overhead_s"]}}))
    else:
        metrics = {n: {"value": median(samples[n]), "unit": u}
                   for n, u in END_TO_END.items()}

    print(json.dumps({
        "workload": a.workload, "seed": a.seed, "trace": a.trace,
        "host": host, "rounds": len(rounds),
        "transitions": [r["transitions"] for r in rounds],
        "samples": samples,
        "reference": {n: median([r[n] for r in untraced if n in r])
                      for n in ("timeline_ticks_per_s",)
                      if any(n in r for r in untraced)},
        "errors": [e for r in rounds for e in r["errors"]][:8],
        "measured_s": round(time.monotonic() - measure_start, 3)}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()

"""hccr benchmark: one workload, one process, one closed-loop caller.

    python3 perfbench/run.py --workload train-small --seed 0 --seconds 10 --trace 0

Builds nothing: it imports hccr from the checkout's own src/ and refuses
to run without it. Set-up (glyphs, GNT file, model files) runs seven times
and reports its median. The timed loop then calls `hccr.cli.main` with the
workload's command line, exactly as a user types it, until the commands
have taken --seconds (at least one command). Each command's output goes
through the workload's gates. hccr runs on the BLAS thread count it finds;
the benchmark reads it and never changes it for hccr.
Every end-to-end time is in host-normalised seconds (see hostspeed.py);
the measured ones are printed beside them in `details`.

--trace 0 prints the end-to-end metrics. --trace 1 runs the command once
untraced and once with every public hccr function wrapped in a span (see
tracing.py), and prints the per-layer metrics. Either way the last
stdout line is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from hostspeed import HostSpeed, openblas
from tracing import COMPUTED, LAYERS, Tracer, layer_metrics
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 7
WINDOW_EDGE = 3         # reference samples before and after each timed span


@dataclass
class Call:
    start: float
    seconds: float
    rows: int
    kept: object


@dataclass
class Command:
    code: int = None
    start: float = 0.0
    seconds: float = 0.0
    stdout: str = ""
    stderr: str = ""
    calls: list = field(default_factory=list)


def import_hccr():
    """The six hccr modules from this checkout's src/; exits 1 without them."""
    if not (SRC / "hccr" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'hccr'} not found; run from a checkout of the repo")
    sys.path.insert(0, str(SRC))
    import hccr
    if Path(hccr.__file__).resolve().parent != SRC / "hccr":
        sys.exit(f"error: imported hccr from {hccr.__file__}, not {SRC}")
    modules = {}
    for layer in LAYERS:
        modules[layer] = __import__(f"hccr.{layer}", fromlist=[layer])
    return modules


class Probe:
    """Times each call of one train_eval function where callers look it up."""

    def __init__(self, module, name, keep):
        self.module, self.name, self.keep = module, name, keep
        self._original = None

    def install(self, calls, speed=None):
        """Append a Call to `calls` for each call until `uninstall`.

        With a HostSpeed, a reference sample follows any call that ends
        its sampling interval, outside the call's own time.
        """
        self._original = original = getattr(self.module, self.name)
        clock = time.perf_counter

        def timed(*args, **kwargs):
            start = clock()
            result = original(*args, **kwargs)
            seconds = clock() - start
            calls.append(Call(start, seconds, len(args[2]),
                              self.keep(len(calls), args, result)))
            if speed is not None:
                speed.due()
            return result
        setattr(self.module, self.name, timed)

    def uninstall(self):
        setattr(self.module, self.name, self._original)


def run_command(hccr, argv, probe, tracer=None, run=0, speed=None):
    """One `hccr` invocation through cli.main, stdout and stderr captured."""
    command = Command()
    out, err = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.install(run)
    probe.install(command.calls, speed)
    command.start = start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            command.code = hccr["cli"].main(argv)
    except SystemExit as stop:
        command.code = stop.code if isinstance(stop.code, int) else 1
    except Exception:
        command.code = -1
        err.write(traceback.format_exc())
    finally:
        command.seconds = time.perf_counter() - start
        probe.uninstall()
        if tracer is not None:
            tracer.uninstall()
    command.stdout, command.stderr = out.getvalue(), err.getvalue()
    return command


def percentile(values, q):
    """Linear-interpolated percentile, q in [0, 100]."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def blas_threads():
    """Live OpenBLAS thread count via the library numpy bundles, or None."""
    lib = openblas()
    return lib.scipy_openblas_get_num_threads64_() if lib else None


def cpu_model():
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or None


def git_commit():
    """HEAD of the checkout when it is itself a git work tree, else None."""
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"], capture_output=True,
                             text=True, timeout=10, check=True).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return None
    return top[1] if Path(top[0]).resolve() == ROOT else None


def code_digest():
    """Digest of the program and the benchmark sources."""
    digest = hashlib.sha256()
    for path in sorted([*(SRC / "hccr").glob("*.py"),
                        *Path(__file__).parent.glob("*.py")]):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def environment(args):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {"nproc": os.cpu_count(),
           "affinity": sorted(os.sched_getaffinity(0)),
           "cpu_model": cpu_model(),
           "python": platform.python_version(),
           "numpy": np.__version__,
           "blas": f"{blas.get('name')} {blas.get('version')}",
           "blas_threads": blas_threads(),
           "git_commit": git_commit(),
           "code_sha256": code_digest(),
           "workload": args.workload,
           "seed": args.seed,
           "seconds": args.seconds,
           "trace": args.trace}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if var in os.environ:
            env[var] = os.environ[var]
    return env


def passes(workload, errors):
    """Print each gate error to stderr; True when there are none."""
    for error in errors:
        print(f"gate {workload.name}: {error}", file=sys.stderr)
    return not errors


def measure(hccr, workload, probe, seconds, speed):
    """Closed loop of commands until they have taken `seconds`; gates each.

    Returns the commands, one pass/fail per command, and the peak RSS,
    read before the one-off gate on the first command runs.
    """
    commands, ok, spent = [], [], 0.0
    while not commands or spent < seconds:
        speed.sample(WINDOW_EDGE)
        command = run_command(hccr, workload.argv(), probe, speed=speed)
        speed.sample(WINDOW_EDGE)
        spent += command.seconds
        commands.append(command)
        ok.append(passes(workload, workload.check(command)))
        if len(commands) > 1:       # only the first feeds the one-off gate
            for call in command.calls:
                call.kept = None
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ok[0] = ok[0] and passes(workload, workload.check_once(commands[0]))
    return commands, ok, peak_rss_mib


def end_to_end(hccr, workload, probe, seconds, speed, setup):
    """End-to-end metrics in reference time; `details` has the measured ones."""
    commands, ok, peak_rss_mib = measure(hccr, workload, probe, seconds, speed)
    passed = sum(ok)
    setup_s = [speed.normalise(*span) for span in setup]
    spans = [speed.normalise(c.start, c.start + c.seconds) for c in commands]
    calls = [speed.normalise(call.start, call.start + call.seconds)
             for c in commands for call in c.calls]
    call_ms = [1e3 * normalised for _, normalised in calls]
    measured_ms = [1e3 * measured for measured, _ in calls]
    items_per_s = statistics.median(workload.items(c) / normalised
                                    for c, (_, normalised) in zip(commands, spans))
    metrics = {"setup_s": statistics.median(s for _, s in setup_s),
               "peak_rss_mib": peak_rss_mib,
               "passed_share": passed / len(commands),
               "items_per_s": items_per_s,
               "call_ms_p50": percentile(call_ms, 50),
               "call_ms_p80": percentile(call_ms, 80)}
    measured = {
        "setup_s": [s for s, _ in setup_s],
        workload.item_metric: statistics.median(
            workload.items(c) / s for c, (s, _) in zip(commands, spans)),
        **{f"{workload.call_metric}_p{q}": percentile(measured_ms, q)
           for q in (50, 80, 95)}}
    details = {workload.item_metric: items_per_s,
               **{f"{workload.call_metric}_p{q}": percentile(call_ms, q)
                  for q in (50, 80, 95)},
               "commands": len(commands), "timed_calls": len(call_ms),
               "setup_s": [s for _, s in setup_s],
               "host_speed": speed.speed(),
               "reference_samples": len(speed.samples),
               "measured": measured, **workload.details(commands)}
    return len(commands), passed, metrics, details


def repeats(workload, metrics):
    """Whether the computed counts match an earlier traced run of this code.

    The first traced run of a workload in a checkout records them; later
    runs, whatever their seed, must reproduce them exactly, because the
    workloads' tensor shapes do not depend on the seed.
    """
    computed = {name: metrics[name] for name in COMPUTED}
    record = OUT / f"computed-{workload.name}-{code_digest()}.json"
    if not record.exists():
        record.write_text(json.dumps(computed))
        return True
    before = json.loads(record.read_text())
    for name in COMPUTED:
        if before.get(name) != computed[name]:
            print(f"trace: computed {name} was {before.get(name)}, now "
                  f"{computed[name]}", file=sys.stderr)
    return before == computed


def per_layer(hccr, workload, probe):
    """One untraced command, then one traced; per-layer metrics of the latter."""
    untraced = run_command(hccr, workload.argv(), probe)
    ok = passes(workload, workload.check(untraced)
                or workload.check_once(untraced))
    tracer = Tracer(hccr, hccr["tensor_core"].Tape)
    traced = run_command(hccr, workload.argv(), probe, tracer, run=1)
    metrics = layer_metrics(tracer.spans, 1, traced.seconds)
    metrics["trace.overhead_share"] = traced.seconds / untraced.seconds
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{workload.name}-seed{workload.seed}.jsonl.gz")
    ok_traced = passes(workload, workload.check(traced)) and repeats(workload, metrics)
    details = {"layer_share": {layer: metrics[f"{layer}.self_ms"]
                               / metrics["trace.wall_ms"] for layer in LAYERS},
               "untraced_s": untraced.seconds, "traced_s": traced.seconds}
    return 2, ok + ok_traced, metrics, details


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    speed = HostSpeed()             # before hccr can touch the BLAS threads
    hccr = import_hccr()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](hccr, work, args.seed)
        speed.sample(WINDOW_EDGE)
        setup = []
        for _ in range(1 if args.trace else SETUP_REPEATS):
            start = time.perf_counter()
            workload.setup()
            setup.append((start, time.perf_counter()))
            speed.sample(WINDOW_EDGE)
        probe = Probe(hccr["train_eval"], workload.timed, workload.keep)
        if args.trace:
            attempted, passed, values, details = per_layer(hccr, workload, probe)
            listed = spec["per_layer"]
        else:
            attempted, passed, values, details = end_to_end(
                hccr, workload, probe, args.seconds, speed, setup)
            listed = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"environment": environment(args)}))
    print(json.dumps({"details": details}))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in listed}
    failed = attempted - passed
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

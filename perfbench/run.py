"""c4td benchmark: the ``c4`` commands a user runs, timed end to end.

    python3 perfbench/run.py --workload desk_pair --seed 0 --seconds 28 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. Each workload is a closed loop with one client: one ``c4``
command at a time in one child process, BLAS threads set to 1 in the
child's environment before it starts. Inputs come from ``--seed`` through
``c4 gen-data``, outside every timed metric. Times are scaled to a quiet
host by ``perfbench/reference.py``. Every command's output is checked, and
the last line of stdout is the JSON result.

With ``--trace 1`` the untraced unit of work runs for half the time, then
once more with every command run in-process under ``perfbench/tracer.py``;
the result carries the per-layer metrics of that traced run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TRACER = HERE / "tracer.py"

sys.path.insert(0, str(HERE))
import tracer  # noqa: E402  (the benchmark's own modules, next to this file)
from reference import REF_S  # noqa: E402

# A whole run must end within 180 s; children get what is left of this.
DEADLINE_S = 170.0
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# setup_s is the median of this many set-ups, taken in the first repeats;
# later repeats run the unit of work only, so a run holds more of them
SETUP_REPEATS = 3
E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# The acceptance gate's shape: N=2000 (50 trajectories, 3 modes), hidden
# (16, 16), batch 256, K=5, probe 512, Adam 3e-2, EMA 0.05, lambda 0.1.
_GATE_TRAIN = {"hidden": [16, 16], "batch_size": 256, "n_clusters": 5,
               "probe_size": 512, "refresh_period": 200, "optimizer": "adam",
               "learning_rate": 0.03, "ema_rate": 0.05, "penalty_weight": 0.1}


@dataclass(frozen=True)
class Workload:
    """One set of inputs; ``commands`` are the labels of its unit of work."""

    commands: tuple[str, ...]
    n_trajectories: int = 50
    train: dict = field(default_factory=dict)


# Why each workload exists, and which layers it loads, is in BENCHMARK.json.
WORKLOADS = {
    "desk_pair": Workload(("c4", "baseline"), 50, {
        **_GATE_TRAIN, "steps": 600, "eval_every": 5000, "eval_episodes": 8,
        "check_identities": False}),
    # em_tol=0 runs every fit to its iteration cap (10 cold, 3 warm), so the
    # EM work in a run does not depend on how fast the seed's data converges
    "em_refresh": Workload(("c4",), 250, {
        **_GATE_TRAIN, "steps": 300, "refresh_period": 25, "n_clusters": 8,
        "probe_size": 2048, "em_tol": 0.0, "em_max_iters": 10, "em_warm_iters": 3,
        "evaluate": False, "check_identities": False}),
    "checked_eval": Workload(("c4",), 50, {
        **_GATE_TRAIN, "steps": 600, "eval_every": 200, "eval_episodes": 8}),
    "verify_all": Workload(("verify",)),
}


@dataclass
class Child:
    wall_s: float
    returncode: int
    peak_rss_mb: float
    stdout: str
    stderr: str


class Runner:
    """Starts ``c4`` children one at a time and counts the failed ones."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.attempted = 0
        self.failures: list[tuple[int, str]] = []  # (command number, reason)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        for var in BLAS_VARS:
            self.env[var] = "1"

    def fail(self, what: str) -> None:
        """Marks the command started last as failed."""
        self.failures.append((self.attempted, what))

    @property
    def failed(self) -> int:
        return len({number for number, _ in self.failures})

    def run(self, label: str, argv: list[str], env: dict | None = None) -> Child:
        """One child to completion; wall time from start to reaping."""
        self.attempted += 1
        out_path, err_path = WORK / "child.out", WORK / "child.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT,
                                    env=self.env if env is None else env)
            watchdog = threading.Timer(max(1.0, self.time_left()), proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        child = Child(wall, proc.returncode, usage.ru_maxrss / 1024.0,
                      out_path.read_text(encoding="utf-8", errors="replace"),
                      err_path.read_text(encoding="utf-8", errors="replace"))
        if child.returncode != 0:
            self.fail(f"{label}: exit {child.returncode}: {child.stderr.strip()[-300:]}")
        return child

    def time_left(self) -> float:
        return self.deadline - time.monotonic()


C4 = [sys.executable, "-m", "c4td.cli"]


def c4(*args: str) -> list[str]:
    return [*C4, *args]


def traced(run_id: str, spans: Path, c4_argv: list[str]) -> list[str]:
    """The same ``c4`` command, run in-process under the tracer."""
    return [sys.executable, str(TRACER), "--spans", str(spans), "--run-id", run_id,
            "--", *c4_argv[len(C4):]]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_metrics_csv(runner: Runner, path: Path, steps: int) -> dict:
    """Row count and finiteness of one metrics CSV; returns its final row."""
    if not path.is_file():
        runner.fail(f"{path.name} missing")
        return {}
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines:
        runner.fail(f"{path} is empty")
        return {}
    header, rows = lines[0].split(","), [line.split(",") for line in lines[1:]]
    if len(rows) != steps:
        runner.fail(f"{path}: {len(rows)} rows, expected {steps}")
    for row in rows:
        try:
            finite = len(row) == len(header) and all(
                cell == "" or math.isfinite(float(cell)) for cell in row)
        except ValueError:
            finite = False
        if not finite:
            runner.fail(f"{path}: malformed or non-finite row {row}")
            break
    return dict(zip(header, rows[-1])) if rows else {}


class WorkloadRun:
    """Inputs, commands and checks of one workload at one seed."""

    def __init__(self, name: str, seed: int, runner: Runner):
        self.name, self.seed, self.runner = name, seed, runner
        self.workload = WORKLOADS[name]
        self.dir = WORK / name
        self.config = self.dir / "run.json"
        self.hashes: dict[str, dict[str, str]] = {}
        self.finals: dict[str, dict] = {}

    def prepare(self) -> None:
        """Write the config and generate the dataset; nothing here is timed."""
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        cfg = {"out_dir": str(self.dir / "out"), "dataset": str(self.dir / "data.jsonl"),
               "env": {"n_modes": 3},
               "data": {"n_trajectories": self.workload.n_trajectories, "seed": self.seed},
               "train": {**self.workload.train, "seed": self.seed}}
        self.config.write_text(json.dumps(cfg, indent=1), encoding="utf-8")
        if self.is_verify:
            # fills the bytecode cache the train workloads fill through gen-data
            self.runner.run("warmup", c4("verify", "--help"))
        else:
            self.runner.run("gen-data", c4("gen-data", "--config", str(self.config),
                                           "--out", cfg["dataset"]))

    @property
    def is_verify(self) -> bool:
        return self.workload.commands == ("verify",)

    @property
    def steps(self) -> int:
        return int(self.workload.train.get("steps", 0))

    def argv(self, label: str, out_dir: Path, steps: int | None = None) -> list[str]:
        if label == "verify":
            return c4("verify", "--suite", "all", "--seed", str(self.seed))
        argv = c4("train", "--config", str(self.config), "--set", f"out_dir={out_dir}")
        if steps is not None:
            argv += ["--set", f"train.steps={steps}"]
        return argv + (["--baseline"] if label == "baseline" else [])

    def setup(self, label: str) -> Child:
        """The unit's command with no measured work, in a fresh process."""
        if label == "verify":
            return self.runner.run("setup-verify", c4("verify", "--help"))
        out_dir = self.dir / f"setup-{label}"
        child = self.runner.run(f"setup-{label}", self.argv(label, out_dir, steps=0))
        self.check(label, out_dir, child, steps=0, key=None)
        return child

    def unit(self, label: str, out_dir: Path, argv: list[str] | None = None) -> Child:
        """One measured command; its outputs are checked and hashed."""
        child = self.runner.run(label, argv or self.argv(label, out_dir))
        self.check(label, out_dir, child, steps=self.steps, key=label)
        return child

    def check(self, label: str, out_dir: Path, child: Child, steps: int,
              key: str | None) -> None:
        """Checks one command's outputs; with ``key``, also that they repeat."""
        if child.returncode != 0:
            return
        if label == "verify":
            # the tracer's stdout carries the same report as the CLI's
            try:
                passed = json.loads(child.stdout).get("passed")
            except json.JSONDecodeError:
                passed = None
            if passed is not True:
                self.runner.fail(f"verify --seed {self.seed} did not pass")
            digest = {"report": hashlib.sha256(child.stdout.encode()).hexdigest()}
        else:
            suffix = "_baseline" if label == "baseline" else ""
            metrics = out_dir / f"metrics{suffix}.csv"
            critic = out_dir / f"critic{suffix}.json"
            final = check_metrics_csv(self.runner, metrics, steps)
            if key is None:
                return
            if not critic.is_file():
                self.runner.fail(f"{critic} missing")
                return
            digest = {"metrics": sha256(metrics), "critic": sha256(critic)}
            self.finals.setdefault(key, final)
        if key not in self.hashes:
            self.hashes[key] = digest
        elif digest != self.hashes[key]:
            self.runner.fail(f"{label} at {out_dir}: outputs differ from the first repeat")


def median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


class QuietClock:
    """Scales wall times to a quiet host with the reference kernel.

    The kernel runs in a child that stays up, once before the first command
    and once after every command, so each command sits between two kernel
    runs; its wall time is scaled by ``REF_S`` over the mean of those two.
    """

    def __init__(self, runner: Runner):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "reference.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, cwd=ROOT, env=runner.env)
        self.refs = [self.reference()]

    def reference(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"reference kernel exited with {self.proc.wait()}")
        return float(line)

    def scaled(self, child: Child) -> float:
        self.refs.append(self.reference())
        return child.wall_s * REF_S / statistics.mean(self.refs[-2:])

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def measure(job: WorkloadRun, clock: QuietClock, seconds: float) -> dict:
    """Units of work, after a set-up in the first repeats, for ``seconds``."""
    runner = job.runner
    labels = job.workload.commands
    setups = {label: [] for label in labels}
    units = {label: [] for label in labels}
    unit_raw, unit_quiet, rss = [], [], []
    start = time.monotonic()
    repeat = 0
    # stop before a repeat that would run past ``seconds``; two at least,
    # so the outputs of two repeats can be compared
    while repeat < 2 or (time.monotonic() - start) * (repeat + 1) / repeat <= seconds:
        # one repeat even after a failure, so every metric is a number
        if repeat and (runner.failed or runner.time_left() < 20.0):
            break
        walls, scaled, peaks = [], [], []
        for label in labels:
            if repeat < SETUP_REPEATS:
                setups[label].append(clock.scaled(job.setup(label)))
            child = job.unit(label, job.dir / f"rep{repeat}")
            units[label].append(clock.scaled(child))
            walls.append(child.wall_s)
            scaled.append(units[label][-1])
            peaks.append(child.peak_rss_mb)
        unit_raw.append(sum(walls))
        unit_quiet.append(sum(scaled))
        rss.append(max(peaks))
        repeat += 1
    return {"repeats": repeat, "setups": setups, "units": units, "unit_raw": unit_raw,
            "unit_quiet": unit_quiet, "rss": rss}


def e2e_metrics(job: WorkloadRun, m: dict) -> tuple[dict, list[tuple]]:
    """BENCHMARK.json's end-to-end metrics, plus the per-command lines to print."""
    labels = job.workload.commands
    setups, units = m["setups"], m["units"]
    metrics = {"wall_s": (median(m["unit_quiet"]), E2E_UNITS["wall_s"]),
               "setup_s": (median(setups[labels[0]]), E2E_UNITS["setup_s"]),
               "peak_rss_mb": (median(m["rss"]), E2E_UNITS["peak_rss_mb"])}
    lines = []
    note = f"median of {m['repeats']}"
    if job.is_verify:
        lines.append(("verify_wall_s", median(units["verify"]), "s", note))
    else:
        for label in labels:
            loop = median(units[label]) - median(setups[label])
            if loop > 0:
                lines.append((f"{label}_steps_per_s", job.steps / loop, "1/s", note))
        if job.name == "desk_pair":
            lines.insert(0, ("pair_wall_s", metrics["wall_s"][0], "s", note))
            c4_final, base_final = job.finals.get("c4"), job.finals.get("baseline")
            if c4_final and base_final:
                same = "final row, same in every repeat"
                lines.append(("tr_n_ratio", float(c4_final["tr_n_sample_convention"])
                              / float(base_final["tr_n_sample_convention"]), "ratio", same))
                lines.append(("return_gap", float(c4_final["eval_return"])
                              - float(base_final["eval_return"]), "return", same))
    return metrics, lines


def probe_threads(runner: Runner) -> dict:
    """Versions, BLAS build and thread counts of two children.

    One child gets the BLAS variables this benchmark sets; the other only
    C4_THREADS=1, which the CLI turns into BLAS variables after numpy has
    loaded, so its BLAS pool keeps its default size.
    """
    code = ("import json, platform, numpy as np\n"
            "from c4td import cli\n"
            "cli._apply_thread_cap()\n"
            "a = np.ones((256, 256)); a @ a\n"
            "blas = np.show_config(mode='dicts')['Build Dependencies']['blas']\n"
            "threads = [l.split()[1] for l in open('/proc/self/status')"
            " if l.startswith('Threads:')]\n"
            "print(json.dumps({'python': platform.python_version(),"
            " 'numpy': np.__version__,"
            " 'blas': f\"{blas.get('name')} {blas.get('version')}\","
            " 'child_threads': int(threads[0]) if threads else None}))\n")
    pinned = runner.run("probe", [sys.executable, "-c", code])
    env = {k: v for k, v in runner.env.items() if k not in BLAS_VARS}
    env["C4_THREADS"] = "1"
    capped = runner.run("probe-c4-threads", [sys.executable, "-c", code], env=env)
    info = json.loads(pinned.stdout) if pinned.returncode == 0 else {}
    return {"nproc": os.cpu_count(), **info,
            "child_threads_c4_threads_only":
                json.loads(capped.stdout).get("child_threads") if capped.returncode == 0 else None}


def traced_unit(job: WorkloadRun, clock: QuietClock) -> tuple[list[dict], dict, float]:
    """The unit of work once more, each command in-process under the tracer.

    Returns the spans, each command's raw wall time, and the unit's wall
    time scaled to a quiet host as ``measure`` scales it.
    """
    spans, walls, quiet = [], {}, 0.0
    out_dir = job.dir / "traced"
    for label in job.workload.commands:
        spans_path = job.dir / f"spans-{label}.json"
        argv = traced(label, spans_path, job.argv(label, out_dir))
        child = job.unit(label, out_dir, argv)
        walls[label] = child.wall_s
        quiet += clock.scaled(child)
        if child.returncode == 0:
            spans.extend(json.loads(spans_path.read_text(encoding="utf-8")))
    return spans, walls, quiet


def trace_report(name: str, spans: list[dict], walls: dict[str, float]) -> list[str]:
    """Per-command phase shares, checking each workload loads its layer.

    Shares are of the command's training time, its ``train.loop`` span.
    """
    lines = []
    for label, wall in walls.items():
        totals = tracer.SpanTotals([sp for sp in spans if sp["run"] == label])
        gmm_calls = sum(n for key, n in totals.calls.items() if key.startswith("gmm."))
        training = totals.total_s["train.loop"]
        if not training:
            lines.append(f"# traced {label}: wall {wall:.4g} s; gmm calls {gmm_calls}")
            continue
        share = {phase: totals.total_s[f"train.{phase}"] / training
                 for phase in ("refresh", "eval", "identity_check")}
        lines.append(f"# traced {label}: wall {wall:.4g} s, training {training:.4g} s; "
                     + ", ".join(f"{k} share {v:.3f}" for k, v in share.items())
                     + f"; gmm calls {gmm_calls}")
        expect = {
            ("em_refresh", "c4"): share["refresh"] > 0.5 and share["identity_check"] == 0,
            ("checked_eval", "c4"): share["eval"] + share["identity_check"] > 0.5,
            ("desk_pair", "c4"): share["identity_check"] == 0,
            ("desk_pair", "baseline"): gmm_calls == 0 and share["identity_check"] == 0,
        }
        if (name, label) in expect:
            verdict = "as chosen" if expect[(name, label)] else "DIFFERS from the choice"
            lines.append(f"# layer load of {name}/{label}: {verdict}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "c4td" / "cli.py").is_file():
        print(f"error: no c4td sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    runner = Runner(time.monotonic() + DEADLINE_S)
    WORK.mkdir(exist_ok=True)
    print("# environment " + json.dumps(probe_threads(runner), sort_keys=True))
    job = WorkloadRun(args.workload, args.seed, runner)
    job.prepare()
    clock = QuietClock(runner)
    try:
        m = measure(job, clock, args.seconds / 2 if args.trace else args.seconds)
        metrics, lines = e2e_metrics(job, m)
        print(f"# workload {args.workload} seed {args.seed}: {m['repeats']} repeats, "
              "closed loop, 1 client; times scaled to a quiet host by the reference kernel")
        for name, value, unit, note in lines:
            print(f"{name} {value:.6g} {unit} ({note})")
        print("# unit wall s, raw: " + " ".join(f"{w:.4f}" for w in m["unit_raw"])
              + "; scaled: " + " ".join(f"{w:.4f}" for w in m["unit_quiet"]))
        if args.trace:
            untraced_failed = runner.failed
            spans, walls, traced_quiet = traced_unit(job, clock)
            metrics = tracer.layer_metrics(spans)
            metrics["trace.overhead_s"] = (traced_quiet - median(m["unit_quiet"]), "s")
            for line in trace_report(args.workload, spans, walls):
                print(line)
            if runner.failed > untraced_failed:
                print("# the traced run failed or its outputs differ from the untraced run's")
        print("# reference kernel s: " + " ".join(f"{r:.4f}" for r in clock.refs))
    finally:
        clock.close()
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"failed_share {runner.failed / max(1, runner.attempted):.6g} share "
          f"({runner.failed} of {runner.attempted} commands)")
    for _, failure in runner.failures:
        print(f"# failed: {failure}")
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

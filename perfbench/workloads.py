"""The four gated workloads: input generation, the closed loop, output checks.

Commands and set-ups are timed by a Clock, which also reports each time at
a reference machine speed (see Clock); the gated timings use the latter.

Each workload runs one client in a closed loop: the next command starts only
after the previous one returned. A command is one call of the pipeline entry
point on a freshly built collection (`run_benchmark` or `all_pairs_soft`, so
oracle builds and row caches are paid every time, as every real invocation
pays them), or one `python -m corrsync` process on cli20.

The shape geometry of every workload is fixed (GEOMETRY_SEED); the run seed
draws the map corruption and the CLI pair list. Chain counts depend only on
the geometry, so a workload keeps the chain structure it was chosen for on
every seed, and run-to-run spread measures the code rather than the draw.

rows12 is the exception: its Frechet cost grows with the square of each
row's support, which depends on which pairs are corrupted (at 1000 points
the sum over rows of support size squared varied 1.8x over seeds 0-4). So
its corruption is fixed too, and the seed only reorders the shapes, which
changes iteration and tie-break order but not the work.
"""

from __future__ import annotations

import gc
import json
import math
import os
import resource
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import corrsync.benchmark as cb
import corrsync.collection as cc
import corrsync.soft as cs
from corrsync.errors import CorrsyncError

GEOMETRY_SEED = 0
AMPLITUDE = 0.10
CORRUPTION = 0.25
LAM = 0.978
# set-up samples per run: the set-up before the commands, then batches after
# them, each batch repeating the set-up until it lasts SETUP_BATCH_S
SETUP_SAMPLES = 5
SETUP_BATCH_S = 0.3
# wall time of reference_unit_s() on a machine the gated timings are rescaled to
REF_UNIT_NOMINAL_S = 0.005
REF_UNITS = 10  # reference loops between two timed intervals
PROBE_EVERY_S = 0.25  # a reference loop this often inside a timed interval
CLI_TIMEOUT_S = 150
HERE = os.path.dirname(os.path.abspath(__file__))


@dataclass(frozen=True)
class Spec:
    kind: str  # "benchmark" | "rows" | "cli"
    shapes: int
    points: int
    beta: float = 1.0
    to_mean: bool = False
    fixed_corruption: bool = False  # seed reorders shapes instead of corrupting
    cli_pairs: int = 2  # distinct pairs the cli workload cycles through
    min_cmds: int = 1  # commands run even when the time is already up


WORKLOADS = {
    "corrupt20": Spec("benchmark", 20, 2000),
    "hub60": Spec("benchmark", 60, 200, to_mean=True),
    "rows12": Spec("rows", 12, 500, beta=5.0, fixed_corruption=True),
    # three pairs, so the first pair always runs twice and its bytes are compared
    "cli20": Spec("cli", 20, 2000, min_cmds=6),
}

# tiny variants with the same code paths, for the smoke test
TINY = {
    "corrupt20": Spec("benchmark", 5, 60),
    "hub60": Spec("benchmark", 6, 60, to_mean=True),
    "rows12": Spec("rows", 5, 60, beta=5.0, fixed_corruption=True),
    "cli20": Spec("cli", 5, 60, cli_pairs=1, min_cmds=2),
}


@dataclass
class Inputs:
    shapes: list
    D: np.ndarray
    maps: dict
    beta: float
    manifest: str | None = None
    pairs: list = field(default_factory=list)

    def collection(self) -> cc.ShapeCollection:
        return cc.ShapeCollection(shapes=self.shapes, D=self.D, maps=self.maps, beta=self.beta)


def reference_unit_s() -> float:
    """Wall time of a fixed loop that never calls corrsync: the machine's current speed.

    The 2-vCPU baseline machine runs for tens of seconds at a time about 1.5x
    slower than at others (the vCPU's physical core is shared), and this loop
    slows with the pipeline. Python loops, dict updates and a numpy sort,
    single-threaded, as the pipeline's own work mostly is; about 5 ms.
    """
    t0 = time.perf_counter()
    acc = 0
    for k in range(30_000):
        acc += k * k
    counts: dict[int, int] = {}
    for k in range(10_000):
        counts[k % 977] = counts.get(k % 977, 0) + 1
    acc += int(np.argsort(_REF_ARRAY, kind="stable")[0])
    return time.perf_counter() - t0


_REF_ARRAY = np.arange(100_000, dtype=np.float64)[::-1]


class Clock:
    """Times intervals and rescales them to the reference speed (REF_UNIT_NOMINAL_S).

    The machine's speed is sampled with reference_unit_s(): REF_UNITS loops
    before and after each interval (the after ones are the next interval's
    before), and one loop every PROBE_EVERY_S inside it, from a SIGALRM
    handler. The probes' own time is taken out of the interval. The speed
    factor is REF_UNIT_NOMINAL_S over the mean of all these loops, and a
    time at reference speed is a wall time times that factor.
    """

    def __init__(self) -> None:
        self._bracket()  # the first loops pay one-time costs
        self.before = self._bracket()
        self.probes: list[float] = []

    @staticmethod
    def _bracket() -> list[float]:
        return [reference_unit_s() for _ in range(REF_UNITS)]

    def _probe(self, signum, frame) -> None:
        self.probes.append(reference_unit_s())

    def time(self, fn):
        """Run fn(); returns (wall seconds without the probes, speed factor, its value)."""
        self.probes = []
        previous = signal.signal(signal.SIGALRM, self._probe)
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        try:
            value = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            wall = time.perf_counter() - t0 - math.fsum(self.probes)
            signal.signal(signal.SIGALRM, previous)
        gc.collect()
        after = self._bracket()
        units = self.before + self.probes + after
        self.before = after
        return wall, REF_UNIT_NOMINAL_S / math.fsum(units) * len(units), value


@dataclass
class Result:
    cmd_s: list[float] = field(default_factory=list)  # wall time per command
    ref_cmd_s: list[float] = field(default_factory=list)  # the same at reference speed
    pair_rates: list[float] = field(default_factory=list)  # pairs per reference second, per command
    attempted: int = 0
    failed: int = 0
    quality: dict[str, float] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    outputs: dict[tuple, bytes] = field(default_factory=dict)  # first output per (kind, a, b)


def make_inputs(spec: Spec, seed: int, workdir: str) -> Inputs:
    """Generate a workload's inputs from the seed (the timed set-up step)."""
    synth = cb.synth_collection(
        spec.shapes, spec.points, AMPLITUDE, GEOMETRY_SEED, map_source="truth"
    )
    if spec.fixed_corruption:
        coll = cb.corrupt_maps(synth, CORRUPTION, GEOMETRY_SEED)
        order = np.random.default_rng(seed).permutation(coll.n)
        inputs = Inputs([coll.shapes[i] for i in order], coll.D[np.ix_(order, order)],
                        coll.maps, spec.beta)
    else:
        coll = cb.corrupt_maps(synth, CORRUPTION, seed)
        inputs = Inputs(coll.shapes, coll.D, coll.maps, spec.beta)
    if spec.kind == "cli":
        inputs.manifest = cc.save_collection(coll, os.path.join(workdir, "collection"))
        rng = np.random.default_rng(seed)
        ids = coll.ids
        order = rng.permutation(len(ids) * (len(ids) - 1))[: spec.cli_pairs]
        every = [(a, b) for a in ids for b in ids if a != b]
        inputs.pairs = [every[int(k)] for k in order]
    return inputs


def setup(spec: Spec, seed: int, workdir: str, clock: Clock, tracer=None,
          repeat: int = 1) -> tuple[Inputs, float, float]:
    """Build the inputs `repeat` times; returns the last inputs and the
    per-build time in wall seconds and at reference speed."""

    saved = os.path.join(workdir, "collection")  # cli20's saved collection
    shutil.rmtree(saved, ignore_errors=True)

    def build() -> Inputs:
        for k in range(repeat):
            if k:
                shutil.rmtree(saved, ignore_errors=True)
            if tracer is None:
                inputs = make_inputs(spec, seed, workdir)
            else:
                with tracer.span("bench.setup"):
                    inputs = make_inputs(spec, seed, workdir)
        return inputs

    wall, speed, inputs = clock.time(build)
    return inputs, wall / repeat, wall * speed / repeat


def setup_samples(spec: Spec, seed: int, workdir: str, clock: Clock, first: tuple,
                  tracer=None) -> list[float]:
    """Set-up times at reference speed: the first set-up, then batches.

    `first` is the (wall, reference) time of the set-up before the commands.
    The rest run after the commands, so they leave no allocator fragmentation
    behind for the peak RSS the commands record. A batch repeats the set-up
    until it lasts about SETUP_BATCH_S, so a set-up of a few milliseconds is
    not timed alone; each sample is a batch's mean.
    """
    samples = [first[1]]
    batch = max(1, math.ceil(SETUP_BATCH_S / first[0]))
    while len(samples) < SETUP_SAMPLES:
        samples.append(setup(spec, seed, workdir, clock, tracer, batch)[2])
    return samples


def run(spec: Spec, inputs: Inputs, seconds: float, workdir: str, clock: Clock,
        tracer=None) -> Result:
    runner = {"benchmark": _run_benchmark, "rows": _run_rows, "cli": _run_cli}[spec.kind]
    res = Result()
    runner(spec, inputs, seconds, workdir, clock, tracer, res)
    return res


def _note_peak(res: Result) -> None:
    """Record the process peak after the first command.

    That is what one real invocation holds (set-up plus one pipeline call);
    later commands in the same process add only allocator fragmentation,
    which differs from run to run.
    """
    if len(res.cmd_s) == 1:
        res.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed(clock: Clock, tracer, fn):
    """Run one command; returns (wall s, speed factor, value), in a bench.cmd span when traced."""
    if tracer is None:
        return clock.time(fn)

    def traced():
        with tracer.span("bench.cmd"):
            return fn()

    return clock.time(traced)


def _record(res: Result, wall_s: float, speed: float) -> float:
    """Append a command's wall and reference-speed times; returns the latter."""
    res.cmd_s.append(wall_s)
    res.ref_cmd_s.append(wall_s * speed)
    return wall_s * speed


def _loop(spec: Spec, seconds: float):
    """Yield command numbers until the time is up and min_cmds have run.

    A command starts only if it is expected to end less than half a command
    past the deadline, so a run lasts about `seconds` whatever the command
    length. On cli20 a pair is two commands, and the loop stops between pairs.
    """
    per_pair = 2 if spec.kind == "cli" else 1
    start = time.perf_counter()
    k = 0
    while True:
        elapsed = time.perf_counter() - start
        if k >= spec.min_cmds and k % per_pair == 0 and elapsed + 0.5 * elapsed / k >= seconds:
            return
        yield k
        k += 1


# ---------------------------------------------------------------------------
# library workloads


def _run_benchmark(spec, inputs, seconds, workdir, clock, tracer, res: Result) -> None:
    first = None
    for _ in _loop(spec, seconds):
        n_pairs = spec.shapes - 1 if spec.to_mean else spec.shapes * (spec.shapes - 1)
        res.attempted += n_pairs
        try:
            dt, speed, out = _timed(
                clock, tracer,
                lambda: cb.run_benchmark(
                    inputs.collection(), methods=("direct", "mle"), lams=(LAM,),
                    to_mean=spec.to_mean,
                ),
            )
        except CorrsyncError as exc:
            res.failed += n_pairs
            res.problems.append(f"run_benchmark raised {type(exc).__name__}: {exc}")
            continue
        res.pair_rates.append(len(out.pairs) / _record(res, dt, speed))
        _note_peak(res)
        errors = (out.errors[("direct", None)], out.errors[("mle", LAM)])
        if first is None:
            first = errors
            direct, robust = (float(np.mean(e)) for e in errors)
            res.quality = {"direct_err": direct, "mle_err": robust, "mle_margin": direct - robust}
            if not all(np.isfinite(e).all() for e in errors):
                res.problems.append("non-finite landmark error")
            if not direct - robust > 0:
                res.problems.append(f"mle_margin {direct - robust!r} is not > 0")
        elif not all(np.array_equal(a, b) for a, b in zip(first, errors)):
            res.problems.append("landmark errors differ between commands on the same input")


def _rows_command(inputs: Inputs):
    coll = inputs.collection()
    queries = {s.id: list(range(s.n)) for s in coll.shapes}
    out = cs.all_pairs_soft(coll, lam=LAM, queries=queries)
    errs = []
    for a, b in out.frechet:
        gt = cb.shared_label_pairs(coll.shape(a), coll.shape(b))
        errs.extend(cb.geodesic_errors(out.frechet[(a, b)], gt, coll.oracle(b)))
    return out, np.asarray(errs)


def _check_rows(out, res: Result) -> None:
    for pair, soft in out.soft.items():
        for v, row in soft.rows.items():
            mass = list(row.values())
            total = math.fsum(mass)
            if not all(math.isfinite(m) and m >= 0 for m in mass) or abs(total - 1.0) > 1e-9:
                res.problems.append(f"soft row {pair} vertex {v} sums to {total!r}")
                return


def _run_rows(spec, inputs, seconds, workdir, clock, tracer, res: Result) -> None:
    first = None
    for _ in _loop(spec, seconds):
        n_pairs = spec.shapes * (spec.shapes - 1)
        res.attempted += n_pairs
        try:
            dt, speed, (out, errs) = _timed(clock, tracer, lambda: _rows_command(inputs))
        except CorrsyncError as exc:
            res.failed += n_pairs
            res.problems.append(f"all_pairs_soft raised {type(exc).__name__}: {exc}")
            continue
        res.pair_rates.append(len(out.soft) / _record(res, dt, speed))
        _note_peak(res)
        digest = (sorted(out.mle.items()), sorted(out.frechet.items()), errs.tolist())
        if first is None:
            first = digest
            _check_rows(out, res)
            res.quality = {"frechet_err": float(np.mean(errs))}
            if not np.isfinite(errs).all():
                res.problems.append("non-finite Frechet landmark error")
        elif digest != first:
            res.problems.append("hard maps differ between commands on the same input")
        del out


# ---------------------------------------------------------------------------
# command-line workload


def _check_cli_output(kind: str, text: bytes, n_points: int) -> str | None:
    if kind == "propagate":
        doc = json.loads(text)
        for row in doc["rows"]:
            mass = [m for _, m in row["support"]]
            if not all(math.isfinite(m) and m >= 0 for m in mass):
                return f"non-finite mass in row {row['source_index']}"
            if abs(math.fsum(mass) - 1.0) > 1e-9:
                return f"row {row['source_index']} does not sum to 1"
        return None
    body = [ln for ln in text.decode().splitlines() if not ln.startswith("#")]
    if len(body) != n_points:
        return f"mst map has {len(body)} rows, expected {n_points}"
    return None


def cli_argv(kind: str, manifest: str, a: str, b: str, out: str) -> list[str]:
    common = ["--manifest", manifest, "--source", a, "--target", b, "--out", out, "--quiet"]
    if kind == "propagate":
        return ["propagate", *common]
    return ["baseline", "--method", "mst", *common]


def spawn(cmd: list[str]) -> dict:
    """Run cmd through spawn.py; returns its returncode, wall_s, peak_rss_mb, stderr."""
    proc = subprocess.run(
        [sys.executable, "-S", os.path.join(HERE, "spawn.py"), str(CLI_TIMEOUT_S), *cmd],
        capture_output=True, text=True, timeout=CLI_TIMEOUT_S + 30,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"spawn.py failed: {proc.stderr[-300:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["stderr"] = proc.stderr
    return out


def _time_as_spawned(span: dict, run: dict) -> None:
    # the command's own wall time, without the launcher's start-up
    span["end"] = span["start"] + run["wall_s"]


def _run_cli(spec, inputs, seconds, workdir, clock, tracer, res: Result) -> None:
    py = sys.executable
    if tracer is not None:
        for _ in range(3):
            with tracer.span("cli.start") as span:
                run = spawn([py, "-m", "corrsync", "--version"])
            _time_as_spawned(span, run)
    seen = res.outputs
    spans_path = os.path.join(workdir, "cli-spans.jsonl")
    for k in _loop(spec, seconds):
        kind = "propagate" if k % 2 == 0 else "mst"
        a, b = inputs.pairs[(k // 2) % len(inputs.pairs)]
        out_path = os.path.join(workdir, f"out-{kind}")
        argv = cli_argv(kind, inputs.manifest, a, b, out_path)
        res.attempted += 1
        if tracer is None:
            _, speed, run = clock.time(lambda: spawn([py, "-m", "corrsync", *argv]))
        else:
            def traced():
                with tracer.span("bench.cmd", f"{a}->{b}") as span:
                    run = spawn([py, os.path.join(HERE, "clitrace.py"), spans_path, *argv])
                _time_as_spawned(span, run)
                return span, run

            _, speed, (span, run) = clock.time(traced)
        # the command's own wall time, measured by spawn.py without its start-up
        _record(res, run["wall_s"], speed)
        res.peak_rss_mb = max(res.peak_rss_mb, run["peak_rss_mb"])
        if run["returncode"] != 0:
            res.failed += 1
            res.problems.append(f"{kind} {a}->{b} exited {run['returncode']}: {run['stderr'][-300:]}")
            continue
        with open(out_path, "rb") as fh:
            text = fh.read()
        if tracer is not None:
            span["counts"]["out_bytes"] = len(text)
            with open(spans_path, encoding="utf-8") as fh:
                tracer.adopt([json.loads(line) for line in fh], span)
        key = (kind, a, b)
        if key not in seen:
            seen[key] = text
            problem = _check_cli_output(kind, text, spec.points)
            if problem:
                res.problems.append(f"{kind} {a}->{b}: {problem}")
        elif seen[key] != text:
            res.problems.append(f"{kind} {a}->{b}: output differs between repeats")
        if kind == "mst":
            res.pair_rates.append(1.0 / (res.ref_cmd_s[-2] + res.ref_cmd_s[-1]))

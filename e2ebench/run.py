#!/usr/bin/env python3
"""End-to-end benchmark for `clugp-part`: a file on disk in, an assignment
TSV on disk out. See e2ebench/README.md for the workloads, the metrics and
the layer -> metric -> workload predictions.

    python3 e2ebench/run.py --workload web-clugp --seed 1 --seconds 16 --trace 0
    python3 e2ebench/run.py --workload web-clugp-dist --seed 1 --seconds 16 --trace 1
    python3 e2ebench/run.py --smoke --workload social-hdrf --seed 1 --seconds 1 --trace 0
    python3 e2ebench/run.py --write-manifest        # regenerates BENCHMARK.json

Run from anywhere inside a checkout; the repository root is the parent of
this file's directory. The script builds `clugp-part`, `clugp-pack` and the
helper in e2ebench/tool into $CARGO_TARGET_DIR (default `.bench_build` at
the root), generates the workload's input from --seed, runs the workload as
a closed loop (one `clugp-part` process tree at a time) for --seconds,
validates every output, and prints human-readable lines followed by one
JSON result line. Scratch files live under `.bench_work` at the root and are
removed on exit.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
TOOL_MANIFEST = BENCH_DIR / "tool" / "Cargo.toml"

K = 32
TAU = 1.0
# Relative balance above TAU + BALANCE_SLACK fails the run, so a collapse
# to one partition (balance = k) counts as a failure, not a speed-up.
BALANCE_SLACK = 0.10
# The CLI prints RF and balance with 4 decimals.
PRINT_TOLERANCE = 5.1e-5
SETUP_REPS = 5
MIN_RUNS = 3
# Hard ceilings that keep one invocation well inside 180 seconds.
MAX_RUNS = 200
RUN_TIMEOUT_S = 60.0
LOOP_BUDGET_S = 100.0
SMOKE_SCALE = 0.01
RUN_SECONDS = 16

CLUGP = ["--algo", "clugp", "--threads", "2"]
DIST = ["--workers", "2", "--transport", "unix", "--socket-dir", "socks"]

WORKLOADS = {
    "web-clugp": {
        "kind": "web",
        "args": CLUGP,
        "why": "the paper's pipeline on a packed uk-s-like web crawl (3.2M edges, k=32): "
        "pack decode, CSR, BFS order, the four CLUGP passes, quality and TSV output",
    },
    "social-hdrf": {
        "kind": "social",
        "args": ["--algo", "hdrf", "--order", "random"],
        "why": "the one-pass HDRF comparator on a text BA social graph (2.0M edges): "
        "text parse and baselines dominate, no CLUGP pass or pack decode runs",
    },
    "web-clugp-dist": {
        "kind": "web",
        "args": CLUGP + DIST,
        "why": "the web-clugp run through 2 sequenced AMPC worker processes: relay, "
        "stage shipping and transport dominate; output must equal web-clugp's",
    },
    "web-clugp-relaxed": {
        "kind": "web",
        "args": CLUGP + DIST + ["--ampc-mode", "relaxed"],
        "why": "the same AMPC layer with workers streaming concurrently and reconciling "
        "at epoch barriers; output must repeat exactly from run to run",
    },
}

# name, unit, better, bound (share of the parent's median).
END_TO_END = [
    ("wall_s", "s", "lower", 0.25),
    ("edges_per_s", "1/s", "higher", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.20),
    ("setup_s", "s", "lower", 0.25),
    ("replication_factor", "ratio", "lower", 0.20),
    ("relative_balance", "ratio", "lower", 0.05),
]

VERBS = ["Configure", "StageDone", "ScanResp", "RouteBatch", "StateReqBatch",
         "StateRespBatch", "RouteReply", "TableCast"]

# name, unit. Layers a workload does not run report 0.
PER_LAYER = [
    ("io.text_parse_s", "s"),
    ("pack.encode_s", "s"),
    ("pack.decode_s", "s"),
    ("pack.bytes_per_edge", "B/edge"),
    ("csr.build_s", "s"),
    ("order.s", "s"),
    ("clugp.clustering_s", "s"),
    ("clugp.cluster_graph_s", "s"),
    ("clugp.game_s", "s"),
    ("clugp.transform_s", "s"),
    ("clugp.clusters", "count"),
    ("clugp.splits", "count"),
    ("clugp.migrations", "count"),
    ("clugp.game_moves", "count"),
    ("clugp.reroute_frac", "ratio"),
    ("baselines.hdrf_s", "s"),
    ("metrics.quality_s", "s"),
    ("output.tsv_s", "s"),
    ("output.bytes", "B"),
    ("ampc.pass1_s", "s"),
    ("ampc.pairs_s", "s"),
    ("ampc.transform_s", "s"),
    ("ampc.worker_busy_s", "s"),
    ("ampc.route_wait_s", "s"),
    ("ampc.epoch_barrier_s", "s"),
    ("ampc.decode_stall_s", "s"),
] + [("ampc.bytes." + v, "B") for v in VERBS] + [
    ("ampc.frames", "count"),
    ("ampc.epoch_sync_rounds", "count"),
    ("ampc.retries", "count"),
    ("ampc.engine_tax_x", "x"),
    ("exchange_bytes_per_edge", "B/edge"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_frac", "ratio"),
]

# The coordinator-side layers a distributed run shares with the monolith.
COORDINATOR = ["pack.decode_s", "csr.build_s", "order.s", "metrics.quality_s",
               "output.tsv_s", "output.bytes"]


class BenchError(Exception):
    """A failure of the benchmark itself (build, set-up): no result."""


def manifest():
    return {
        "command": ["python3", "e2ebench/run.py"],
        "paths": ["e2ebench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w["why"]} for n, w in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": d}
                       for n, u, b, d in END_TO_END],
        "per_layer": [{"name": n, "unit": u,
                       "better": "higher" if n == "trace.coverage" else "lower"}
                      for n, u in PER_LAYER],
    }


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def target_dir():
    t = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return t if t.is_absolute() else (ROOT / t)


def build():
    """Builds the shipped binaries and the helper; raises on failure."""
    if not (ROOT / "Cargo.toml").is_file() or not TOOL_MANIFEST.is_file():
        raise BenchError(f"{ROOT} is not a checkout of the repository (no Cargo.toml)")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-q", "-p", "clugp", "--bin",
         "clugp-part", "-p", "clugp-graph", "--bin", "clugp-pack"],
        ["cargo", "build", "--release", "--offline", "-q", "--manifest-path",
         str(TOOL_MANIFEST)],
    ):
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True, timeout=850)
        if r.returncode != 0:
            raise BenchError(f"build failed: {' '.join(cmd)}\n{r.stdout[-4000:]}")
    rel = target_dir() / "release"
    return {"part": rel / "clugp-part", "pack": rel / "clugp-pack",
            "tool": rel / "clugp-e2ebench"}


class Run:
    """One finished process tree: wall time, rusage of the tree, output."""

    def __init__(self, code, wall, cpu, rss_mib, out, err):
        self.code, self.wall, self.cpu, self.rss_mib = code, wall, cpu, rss_mib
        self.out, self.err = out, err


# The process group of the run in flight, killed if the benchmark is stopped.
RUNNING = set()


def execute(argv, cwd):
    """Runs argv to exit and measures it. wait4 reports the rusage of the
    child plus every descendant it waited for, so CPU time and peak RSS
    cover the AMPC worker processes too (clugp-part reaps its workers)."""
    with open(cwd / "stdout.log", "w+") as out, open(cwd / "stderr.log", "w+") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([str(a) for a in argv], cwd=cwd, stdout=out, stderr=err,
                                start_new_session=True)
        RUNNING.add(proc.pid)
        # The watchdog kills the whole process group, workers included.
        timer = threading.Timer(RUN_TIMEOUT_S, kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            RUNNING.discard(proc.pid)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Run(proc.returncode, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0,
                   out.read(), err.read())


def kill_group(pid):
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def stop(signum, _frame):
    """SIGTERM/SIGINT: kill and reap the run in flight, then exit."""
    for pid in list(RUNNING):
        kill_group(pid)
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass  # already reaped by the interrupted wait4
    raise SystemExit(128 + signum)


def tool(bins, cwd, *args):
    r = execute([bins["tool"], *args], cwd)
    if r.code != 0:
        raise BenchError(f"clugp-e2ebench {args[0]} failed: {r.err.strip()}")
    return json.loads(r.out.strip().splitlines()[-1]), r


def printed(run, key):
    """The value of a `key = value` line of clugp-part's stdout, or None."""
    for line in run.out.splitlines():
        name, sep, value = line.partition("=")
        if sep and name.strip() == key and value.split():
            return value.split()[0]
    return None


def net_total(run):
    """The `total` row of --net-stats: bytes sent plus received."""
    for line in run.err.splitlines():
        f = line.split()
        if len(f) == 3 and f[0] == "total":
            return int(f[2])
    raise ValueError("clugp-part printed no --net-stats total")


def median(xs):
    return statistics.median(xs)


class Workload:
    def __init__(self, name, seed, smoke, work, bins):
        self.name, self.seed, self.work, self.bins = name, seed, work, bins
        self.spec = WORKLOADS[name]
        self.scale = SMOKE_SCALE if smoke else 1.0
        self.packed = self.spec["kind"] == "web"

    # -- set-up -----------------------------------------------------------

    def setup(self):
        """Generates the seeded input; packs it for the web workloads.
        setup_s is the median of SETUP_REPS repetitions of the one-time
        ingest: `clugp-pack pack` for packed inputs, the text generation
        for the text workload (which has no ingest step of its own)."""
        gen = ["gen", "--kind", self.spec["kind"], "--seed", str(self.seed),
               "--scale", str(self.scale), "--out", "input.txt"]
        g, grun = tool(self.bins, self.work, *gen)
        self.vertices, self.edges = g["vertices"], g["edges"]
        digest = file_sha256(self.work / "input.txt")
        times = [grun.wall]
        if self.packed:
            times, pack_digests = [], set()
            for _ in range(SETUP_REPS):
                r = execute([self.bins["pack"], "pack", "input.txt", "input.clugpz"], self.work)
                if r.code != 0:
                    raise BenchError(f"clugp-pack pack failed: {r.err.strip()}")
                times.append(r.wall)
                pack_digests.add(file_sha256(self.work / "input.clugpz"))
            if len(pack_digests) != 1:
                raise BenchError("clugp-pack pack is not deterministic")
            self.input = "input.clugpz"
            self.pack_bpe = (self.work / "input.clugpz").stat().st_size / self.edges
        else:
            for _ in range(SETUP_REPS - 1):
                _, grun = tool(self.bins, self.work, *gen)
                times.append(grun.wall)
                if file_sha256(self.work / "input.txt") != digest:
                    raise BenchError("input generation is not deterministic")
            self.input = "input.txt"
            self.pack_bpe = 0.0
        self.setup_s = median(times)
        ms, _ = tool(self.bins, self.work, "multiset", "--input", "input.txt")
        if ms["lines"] != self.edges:
            raise BenchError("generated input has the wrong edge count")
        self.multiset = ms["multiset"]
        print("input " + json.dumps({
            "workload": self.name, "seed": self.seed, "vertices": self.vertices,
            "edges": self.edges, "pack_bytes_per_edge": self.pack_bpe, "input_sha256": digest}))

    # -- one clugp-part run ----------------------------------------------

    def cli(self, extra_args, output, extra=()):
        argv = [self.bins["part"], self.input, "--k", str(K), *extra_args,
                "--output", output, *extra]
        return execute(argv, self.work)

    def check(self, run, output):
        """Validates one run; returns (problems, validator JSON)."""
        if run.code != 0:
            return [f"exit code {run.code}: {run.err.strip()[-300:]}"], None
        v, _ = tool(self.bins, self.work, "validate", "--tsv", output, "--k", str(K))
        problems = []
        if v["lines"] != self.edges:
            problems.append(f"{v['lines']} lines for {self.edges} input edges")
        if v["multiset"] != self.multiset:
            problems.append("edge multiset differs from the input's")
        if not v["ids_ok"]:
            problems.append(f"a partition id is >= k={K}")
        for key, name in (("replication factor", "replication_factor"),
                          ("relative balance", "relative_balance")):
            shown = printed(run, key)
            if shown is None or abs(float(shown) - v[name]) > PRINT_TOLERANCE:
                problems.append(f"printed {key} {shown} != {v[name]} from the TSV")
        if v["relative_balance"] > TAU + BALANCE_SLACK:
            problems.append(f"relative balance {v['relative_balance']} > tau + slack")
        return problems, v

    def checked(self, args, output, extra=()):
        """One run that must pass every check; returns (run, validator JSON)."""
        run = self.cli(args, output, extra)
        problems, v = self.check(run, output)
        if problems:
            raise BenchError(f"{output}: {'; '.join(problems)}")
        return run, v

    # -- measured loop (--trace 0) --------------------------------------

    def measure(self, seconds):
        args = self.spec["args"]
        expect = None
        if self.name == "web-clugp-dist":
            # Byte-identity against the monolith on the same pack.
            expect = self.checked(CLUGP, "ref.tsv")[1]["digest"]
        runs, failed, measured = [], 0, 0.0
        start = time.monotonic()
        while len(runs) + failed < MAX_RUNS and (
                measured < seconds or len(runs) + failed < MIN_RUNS):
            if time.monotonic() - start > LOOP_BUDGET_S:
                break
            run = self.cli(args, "out.tsv")
            measured += run.wall
            problems, v = self.check(run, "out.tsv")
            if v is not None and self.name == "web-clugp-relaxed" and expect is None:
                expect = v["digest"]  # relaxed: every run repeats the first
            if v is not None and expect is not None and v["digest"] != expect:
                problems.append("assignment differs from the expected digest")
            if problems:
                failed += 1
                log(f"run {len(runs) + failed} FAILED: {'; '.join(problems)}")
                continue
            runs.append((run, v))
        return runs, failed

    def report(self, runs, failed):
        attempted = len(runs) + failed
        if not runs:
            raise BenchError(f"all {attempted} runs failed")
        walls = [r.wall for r, _ in runs]
        wall = median(walls)
        values = {
            "wall_s": wall,
            "edges_per_s": self.edges / wall,
            "cpu_s": median([r.cpu for r, _ in runs]),
            "peak_rss_mib": median([r.rss_mib for r, _ in runs]),
            "setup_s": self.setup_s,
            "replication_factor": median([v["replication_factor"] for _, v in runs]),
            "relative_balance": median([v["relative_balance"] for _, v in runs]),
        }
        q = statistics.quantiles(walls, n=4) if len(walls) >= 2 else walls * 3
        print(f"workload {self.name}: {len(runs)} runs ok, {failed} failed, "
              f"failure_rate = {failed / attempted:.4f}")
        print(f"  wall_s median {wall:.4f} (n={len(walls)}, quartiles {q[0]:.4f} "
              f"{q[2]:.4f}, min {min(walls):.4f}, max {max(walls):.4f})")
        for name, unit, _, _ in END_TO_END:
            print(f"  {name:<20} {values[name]:.6g} {unit}")
        metrics = {n: {"value": values[n], "unit": u} for n, u, _, _ in END_TO_END}
        return {"correct": failed == 0, "attempted": attempted, "failed": failed,
                "metrics": metrics}

    # -- traced run (--trace 1) -----------------------------------------

    def traced(self, seconds):
        """Per-layer metrics, as medians over rounds that each make the
        untraced and the traced runs back to back."""
        m = {name: 0.0 for name, _ in PER_LAYER}
        m["pack.bytes_per_edge"] = self.pack_bpe
        if self.packed:
            ing, _ = tool(self.bins, self.work, "ingest", "--input", "input.txt",
                          "--pack", "ingest.clugpz")
            if (ing["packed_edges"] != self.edges or file_sha256(self.work / "ingest.clugpz")
                    != file_sha256(self.work / self.input)):
                raise BenchError("ingest pack differs from clugp-pack's")
            m["io.text_parse_s"] = ing["io.text_parse_s"]
            m["pack.encode_s"] = ing["pack.encode_s"]
        monolith = self.name in ("web-clugp", "social-hdrf")
        rounds = self.repeat(seconds, self.monolith_round if monolith else self.ampc_round)
        for name in rounds[0]:
            if name in m:
                m[name] = median([r[name] for r in rounds])
        untraced = median([r["untraced_wall"] for r in rounds])
        m["trace.overhead_frac"] = median([r["traced_wall"] for r in rounds]) / untraced - 1.0
        mismatches = sum(not r["match"] for r in rounds)
        if not monolith:
            mono = median([r["monolith_wall"] for r in rounds])
            m["ampc.engine_tax_x"] = untraced / mono
            print(f"  engine tax base: web-clugp monolith wall_s {mono:.4f} on this pack")
            if len({r["digest"] for r in rounds}) != 1:
                mismatches = len(rounds)  # the untraced AMPC output must repeat
        print(f"workload {self.name} (traced): {len(rounds)} rounds, "
              f"{mismatches} assignment mismatches against the untraced CLI")
        for name, unit in PER_LAYER:
            print(f"  {name:<28} {m[name]:.6g} {unit}")
        return {"correct": mismatches == 0, "attempted": len(rounds), "failed": mismatches,
                "metrics": {n: {"value": m[n], "unit": u} for n, u in PER_LAYER}}

    def repeat(self, seconds, once):
        out, start = [], time.monotonic()
        while len(out) < 2 or (time.monotonic() - start < seconds and len(out) < 50):
            if time.monotonic() - start > LOOP_BUDGET_S:
                break
            out.append(once(len(out)))
        return out

    @staticmethod
    def alternate(i, steps):
        """Runs the steps forwards on even rounds and backwards on odd ones,
        so no run always follows another (and, say, its output writeback)."""
        order = list(steps) if i % 2 == 0 else list(reversed(steps))
        return {name: steps[name]() for name in order}

    def monolith_round(self, i):
        """The untraced CLI and the helper's re-enactment of its call
        sequence through the public layer functions."""
        algo, order = ("clugp", "bfs") if self.name == "web-clugp" else ("hdrf", "random")
        r = self.alternate(i, {
            "untraced": lambda: self.checked(self.spec["args"], "out.tsv"),
            "traced": lambda: tool(self.bins, self.work, "trace", "--input", self.input,
                                   "--k", str(K), "--algo", algo, "--order", order,
                                   "--threads", "2", "--output", "traced.tsv")[0],
        })
        (run, v), t = r["untraced"], r["traced"]
        if self.packed:
            del t["io.text_parse_s"]  # the ingest's text parse stands for this layer
        t["trace.coverage"] = t["covered_s"] / t["wall_s"]
        t["untraced_wall"], t["traced_wall"] = run.wall, t["wall_s"]
        t["match"] = t["digest"] == v["digest"] and same_quality(t, v)
        return t

    def ampc_round(self, i):
        """The untraced monolith (the engine-tax base), the untraced AMPC
        run, the AMPC run with the CLI's own --trace-out/--metrics-out, and
        a replay of the coordinator-side layers over its assignment."""
        r = self.alternate(i, {
            "mono": lambda: self.checked(CLUGP, "mono.tsv"),
            "untraced": lambda: self.checked(self.spec["args"], "out.tsv", ["--net-stats"]),
            "traced": lambda: self.cli(self.spec["args"], "traced.tsv", [
                "--trace-out", "trace.json", "--metrics-out", "metrics.json"]),
        })
        (mono, vm), (run, v), traced = r["mono"], r["untraced"], r["traced"]
        if traced.code != 0:
            raise BenchError(f"traced run failed: {traced.err.strip()[-300:]}")
        vt, _ = tool(self.bins, self.work, "validate", "--tsv", "traced.tsv", "--k", str(K))
        replay, _ = tool(self.bins, self.work, "trace", "--input", self.input, "--k", str(K),
                         "--algo", "replay", "--assignment", "traced.tsv", "--order", "bfs",
                         "--threads", "2", "--output", "replayed.tsv")
        t = ampc_layers(self.work / "trace.json", self.work / "metrics.json")
        t.update({n: replay[n] for n in COORDINATOR})
        covered = (sum(replay[n] for n in COORDINATOR if n.endswith("_s"))
                   + t["ampc.pass1_s"] + t["ampc.pairs_s"] + t["ampc.transform_s"])
        t["trace.coverage"] = covered / traced.wall
        t["exchange_bytes_per_edge"] = net_total(run) / self.edges
        t["monolith_wall"], t["untraced_wall"], t["traced_wall"] = mono.wall, run.wall, traced.wall
        t["digest"] = v["digest"]
        t["match"] = vt["digest"] == v["digest"] == replay["digest"] and same_quality(
            replay, vt) and (self.name != "web-clugp-dist" or v["digest"] == vm["digest"])
        return t


def same_quality(reenacted, validated):
    """The library's PartitionQuality agrees with the validator's own
    arithmetic on the same assignment."""
    return all(abs(reenacted[n] - validated[n]) < 1e-9
               for n in ("replication_factor", "relative_balance"))


def ampc_layers(trace_path, metrics_path):
    """Per-layer AMPC numbers from the CLI's --trace-out / --metrics-out."""
    metrics = json.loads(metrics_path.read_text())
    events = json.loads(trace_path.read_text())["traceEvents"]
    spans = {}
    for e in events:
        if e.get("ph") == "X":
            spans.setdefault(e["pid"], []).append((e["ts"], e["ts"] + e["dur"], e["name"]))
    busy = route = barrier = 0.0
    for pid, lane in spans.items():
        inner = [(a, b) for a, b, n in lane if n not in ("chunk",) and not n.startswith(
            ("stage:", "pass:"))]
        for a, b, n in lane:
            if n == "route_batch":
                route += b - a
            elif n == "epoch:barrier":
                barrier += b - a
            elif n == "chunk" and pid != 0:
                # Self time: the chunk minus the child spans inside it.
                busy += (b - a) - sum(min(b, y) - max(a, x) for x, y in inner
                                      if x < b and y > a)
    verbs = metrics["bytesByVerb"]
    t = {
        "ampc.pass1_s": metrics["passes"]["pass1Us"] / 1e6,
        "ampc.pairs_s": metrics["passes"]["pairsUs"] / 1e6,
        "ampc.transform_s": metrics["passes"]["transformUs"] / 1e6,
        "ampc.worker_busy_s": busy / 1e6,
        "ampc.route_wait_s": route / 1e6,
        "ampc.epoch_barrier_s": barrier / 1e6,
        "ampc.decode_stall_s": metrics["decodeStallUs"] / 1e6,
        # TraceEvents frames exist only because the run is traced.
        "ampc.frames": sum(v["frames"] for name, v in verbs.items() if name != "TraceEvents"),
        "ampc.epoch_sync_rounds": metrics["epochSyncRounds"],
        "ampc.retries": metrics["retries"],
    }
    for verb in VERBS:
        t["ampc.bytes." + verb] = verbs.get(verb, {}).get("bytes", 0)
    return t


def file_sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help=f"toy-scale inputs (scale {SMOKE_SCALE}) for the benchmark's own tests")
    p.add_argument("--write-manifest", action="store_true",
                   help="write BENCHMARK.json at the repository root and exit")
    a = p.parse_args()
    if a.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(manifest(), indent=2) + "\n")
        return 0
    if a.workload is None:
        p.error("--workload is required")
    work = ROOT / ".bench_work" / f"{a.workload}-{a.seed}-{os.getpid()}"
    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        bins = build()
        work.mkdir(parents=True)
        wl = Workload(a.workload, a.seed, a.smoke, work, bins)
        wl.setup()
        if a.trace:
            result = wl.traced(a.seconds)
        else:
            result = wl.report(*wl.measure(a.seconds))
    except (BenchError, OSError, ValueError, subprocess.SubprocessError) as e:
        log(f"e2ebench: {e}")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".bench_work").rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

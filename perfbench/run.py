"""Benchmark of the malgrange command line: time to a verified verdict.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds ``src/malgrange``.  Every
invocation is one CLI command in a fresh interpreter (``worker.py``), run
as a closed loop: one client, one invocation at a time.  Each output is
checked (``check_output``) and the last line of stdout is one JSON object
with the end-to-end metrics (``--trace 0``) or the per-layer metrics of a
traced run (``--trace 1``).  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import tracing  # noqa: E402

DIGESTS = HERE / "digests.json"
INVOCATION_LIMIT_S = 30.0
# no new input starts after this share of --seconds, so one run stays
# bounded even when the machine is much slower than when it was sized
DEADLINE_FACTOR = 1.6
TRACE_SHARE = 4  # a traced run covers 1/TRACE_SHARE of the untraced inputs
# Times are reported in reference seconds: each invocation's times are
# scaled by REFERENCE_CALIBRATION_S / (its own ``worker.calibrate`` time),
# which cancels the host's speed drift (see README.md)
REFERENCE_CALIBRATION_S = 0.010

_FAILED = re.compile(r"\bfailed\b")


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    session: Optional[Callable[[int], str]]  # input number -> session text
    check: Callable[[str], Optional[str]]    # stdout -> failure or None

    def argv(self, k: int, path: Path) -> List[str]:
        if self.session is None:
            return [self.command, "--all", "--seed", str(k)]
        return [self.command, str(path)]


def _check_verify(out: str) -> Optional[str]:
    lines = out.splitlines()
    if not lines or not re.fullmatch(r"verify: \d+ checks, 0 failures",
                                     lines[-1]):
        return "verify did not end in '0 failures'"
    return None


def _check_torsion(out: str) -> Optional[str]:
    head = re.match(r"torsion M: generators: (\d+)\n", out)
    gens = re.findall(r"^  generator .*: annihilators? (.*)$", out, re.M)
    if not head or len(gens) != int(head.group(1)):
        return "unexpected torsion report"
    if not all(gens):
        return "torsion generator without a nonzero annihilator"
    return None


def _check_analyze(out: str) -> Optional[str]:
    head = re.match(r"analyze S: controllable: no, autonomy: (\d+)\n", out)
    if not head or int(head.group(1)) < 1:
        return "planted autonomy not reported"
    if not out.endswith("  torsion = defect: ok\n"):
        return "torsion = defect not verified"
    return None


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("corpus-verify", "verify", None, _check_verify),
    Workload("torsion-xy", "torsion", inputs.torsion_session,
             _check_torsion),
    Workload("analyze-xyz", "analyze", inputs.analyze_session,
             _check_analyze),
)}


def check_output(w: Workload, code: Optional[int], out: str,
                 digest: Optional[str]) -> Optional[str]:
    """The reason an invocation failed, or None when it passed."""
    if code is None:
        return "time limit exceeded"
    if code != 0:
        return f"exit code {code}"
    if _FAILED.search(out):
        return "a 'failed' verdict"
    reason = w.check(out)
    if reason:
        return reason
    if hashlib.sha256(out.encode()).hexdigest() != digest:
        return "stdout differs from the recorded digest"
    return None


def schedule(costs: Dict[int, int], seed: int, n: int) -> List[int]:
    """n inputs for a run: one per cost stratum, in a seeded order.

    The universe is ranked by its recorded cost and cut into n strata of
    neighbouring cost; the seed picks one input from each.  Every run then
    has the same cost profile, so a heavy-tailed workload's median and tail
    do not jump with the draw.  Past the universe size the strata repeat.
    """
    ranked = sorted(costs, key=lambda k: (costs[k], k))
    rng = random.Random(seed)
    picks: List[int] = []
    while len(picks) < n:
        m = min(n - len(picks), len(ranked))
        picks += [rng.choice(ranked[i * len(ranked) // m:
                                    (i + 1) * len(ranked) // m])
                  for i in range(m)]
    rng.shuffle(picks)
    return picks


def load_digests(name: str) -> Dict[int, Dict]:
    with open(DIGESTS, encoding="utf-8") as fh:
        return {int(k): v for k, v in json.load(fh)[name].items()}


def plain_count(table: Dict[int, Dict], seconds: float) -> int:
    """Inputs in one untraced run: --seconds of work at the recorded pace."""
    mean_s = statistics.fmean(e["wall_s"] for e in table.values())
    return max(1, round(seconds / mean_s))


class Runner:
    """Runs and checks invocations of one workload; owns the work dir."""

    def __init__(self, root: Path, w: Workload, table: Dict[int, Dict]):
        self.src = str(root / "src")
        self.w = w
        self.table = table
        self.work = root / ".perfbench-work"
        # bytecode is cached, as for an installed package, but inside the
        # work dir so the checkout stays clean
        self.env = dict(os.environ, MALGRANGE_COLOR="never",
                        PYTHONPYCACHEPREFIX=str(self.work / "pycache"))
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.attempted = 0
        self.failures: List[str] = []
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir()

    def warm_up(self) -> None:
        """Compile the engine's bytecode before anything is timed."""
        subprocess.run([sys.executable, "-c",
                        f"import sys; sys.path.insert(0, {self.src!r}); "
                        "import malgrange.cli"],
                       env=self.env, check=True, timeout=INVOCATION_LIMIT_S)

    def execute(self, k: int, mode: str,
                ) -> Tuple[Optional[int], str, float, Optional[Dict]]:
        """Run one invocation: (exit code or None on timeout, stdout,
        wall seconds, record or None)."""
        session = self.work / f"input-{k}.mg"
        if self.w.session is not None and not session.exists():
            session.write_text(self.w.session(k), encoding="utf-8")
        record_path = self.work / "record.json"
        record_path.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "worker.py"), mode,
               str(record_path), self.src, "--"] + self.w.argv(k, session)
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, capture_output=True, env=self.env,
                                  timeout=INVOCATION_LIMIT_S)
            code, out = proc.returncode, proc.stdout.decode("utf-8",
                                                            "replace")
        except subprocess.TimeoutExpired:
            code, out = None, ""
        wall = time.perf_counter() - start
        record = None
        if record_path.exists():
            with open(record_path, encoding="utf-8") as fh:
                record = json.load(fh)
        return code, out, wall, record

    def invoke(self, k: int, mode: str) -> Optional[Dict]:
        """One checked invocation; its record, or None when it failed."""
        self.attempted += 1
        code, out, wall, record = self.execute(k, mode)
        reason = check_output(self.w, code, out,
                              self.table[k]["stdout_sha256"])
        if reason is None and record is None:
            reason = "no invocation record"
        if reason is not None:
            self.failures.append(f"{self.w.name} input {k} ({mode}): "
                                 f"{reason}")
            return None
        record["wall_s"] = wall
        record["scale"] = REFERENCE_CALIBRATION_S / record["calibration_s"]
        return record

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def quantile(samples: Sequence[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile, 0 < p < 1.

    The mean of the order statistics weighted by a Beta(p(n+1), (1-p)(n+1))
    distribution (Harrell & Davis, Biometrika 1982).  It draws on every
    sample, so it moves less from run to run than the one order statistic
    at rank p*n; the weights come from the midpoint rule on a fine grid.
    """
    ordered = sorted(samples)
    n = len(ordered)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    steps = 64  # grid points per order statistic
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    density = [math.exp((a - 1) * math.log(u) + (b - 1) * math.log1p(-u)
                        - log_beta)
               for u in ((j + 0.5) / (steps * n) for j in range(steps * n))]
    total = sum(density)
    return sum(x * sum(density[i * steps:(i + 1) * steps]) / total
               for i, x in enumerate(ordered))


def tail_percentile(n: int) -> float:
    """The highest percentile with at least ten of n samples beyond it
    (100 below 11 samples, where the tail is the maximum)."""
    return 100.0 * (n - 10) / n if n > 10 else 100.0


def end_to_end(records: List[Dict], scaled: bool = True) -> Dict:
    """The end-to-end metrics, in reference seconds unless not scaled."""
    def scale(r: Dict) -> float:
        return r["scale"] if scaled else 1.0

    verdicts = [r["run_s"] * scale(r) for r in records]
    walls = sum(r["wall_s"] * scale(r) for r in records)
    pct = tail_percentile(len(verdicts))
    return {
        "verdict_s.p50": (quantile(verdicts, 0.5), "s"),
        "verdict_s.tail": (quantile(verdicts, pct / 100) if pct < 100
                           else max(verdicts), "s"),
        "inputs_per_s": (len(records) / walls, "1/s"),
        "setup_s": (statistics.median(r["setup_s"] * scale(r)
                                      for r in records), "s"),
        "peak_rss_mb": (max(r["maxrss_kb"] for r in records) / 1024, "MB"),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "malgrange" / "__init__.py").is_file():
        print("error: run from a checkout root holding src/malgrange",
              file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    table = load_digests(w.name)
    n = plain_count(table, args.seconds)
    if args.trace:
        n = max(1, n // TRACE_SHARE)
    picks = schedule({k: e["cost"] for k, e in table.items()}, args.seed, n)
    modes = ("plain", "spans", "counts") if args.trace else ("plain",)

    runner = Runner(root, w, table)
    try:
        runner.warm_up()
        done: Dict[str, List[Dict]] = {mode: [] for mode in modes}
        deadline = time.perf_counter() + DEADLINE_FACTOR * args.seconds
        for i, k in enumerate(picks):
            if i and time.perf_counter() > deadline:
                break
            got = {mode: runner.invoke(k, mode) for mode in modes}
            if all(got.values()):
                for mode, record in got.items():
                    done[mode].append(record)
    finally:
        runner.close()

    for line in runner.failures:
        print(f"FAILED {line}", file=sys.stderr)
    plain = done["plain"]
    if not plain:
        print("error: no invocation succeeded", file=sys.stderr)
        return 1
    failed = len(runner.failures)
    print(f"{w.name} seed {args.seed}: {runner.attempted} invocations, "
          f"{failed} failed, error_ratio {failed / runner.attempted:.4f}")
    if args.trace:
        metrics = tracing.layer_metrics(
            done["spans"], [r["counts"] for r in done["counts"]],
            sum(r["run_s"] * r["scale"] for r in plain),
            sum(r["run_s"] * r["scale"] for r in done["spans"]))
    else:
        print(f"verdict_s.tail is p{tail_percentile(len(plain)):.1f} of "
              f"{len(plain)} verdicts")
        metrics = end_to_end(plain)
        for name, (value, unit) in end_to_end(plain, scaled=False).items():
            print(f"wall clock {name} = {value:.6g} {unit}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

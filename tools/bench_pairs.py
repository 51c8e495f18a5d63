"""Compare two checkouts on the benchmark by alternating, paired runs.

    python3 tools/bench_pairs.py PARENT_ROOT CHANGE_ROOT --workload desk_catalog \\
        --seeds 0-9 [--out pairs.json]

For each seed it runs each checkout's own ``bench/run.py`` (end-to-end
mode, ``--trace 0``, the run length that checkout sets) once, back to back: the parent first in even pairs,
the change first in odd ones, so a drift in the machine's load falls on
both sides of a pair alike.  It parses the last JSON line of each run.
For every end-to-end metric in the change's ``BENCHMARK.json`` it then
prints the median and quartiles of each side, the number of pairs in
which the change is better, the median of the paired change/parent
ratios, and whether the rule for claiming a gain holds: the change is
better in at least 9 of 10 pairs, and its median is better than the
parent's by more than the parent's interquartile range.  Every pair run
counts: a pair whose change run errored or is not correct is a loss.
No gain holds when any change run is not correct, or when the change
fails a larger share of its points than the parent.

``--out`` writes the machine details (from the first run's ``# key:
value`` lines), every pair and the summary of each workload as JSON.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

MACHINE_LINE = re.compile(r"^# (\w+): (.*)$")


def parse_seeds(text: str) -> list[int]:
    """'0-9' or '0,3,5-7' -> the listed seeds, in order."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(root: Path, workload: str, seed: int) -> tuple[dict, dict]:
    """One bench/run.py of a checkout -> (run record, machine details)."""
    cmd = [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    machine = dict(m.groups() for m in map(MACHINE_LINE.match, lines) if m)
    result = None
    for line in reversed(lines):
        try:
            result = json.loads(line)
            break
        except ValueError:
            continue
    if done.returncode != 0 or not isinstance(result, dict):
        tail = (done.stderr.strip().splitlines() or ["no output"])[-1]
        return {"error": f"exit {done.returncode}: {tail}"}, machine
    record = {key: result[key] for key in ("correct", "attempted", "failed")}
    record.update((name, m["value"]) for name, m in result["metrics"].items())
    return record, machine


def summarize(pairs: list[dict], metrics: list[tuple[str, str]]) -> dict:
    """Each metric over all pairs run.

    ``metrics`` holds (name, better) with better "lower" or "higher".
    Quartiles are taken over the runs that report the metric, paired
    ratios over the pairs in which both runs do (``compared``).  The
    change wins such a pair when its run is correct and better; ``pairs``
    counts every pair, so an errored or incorrect change run is a loss.  ``void`` names what
    bars any claim (an incorrect change run, a larger failed share), or
    is None.
    """
    void = runs_void(pairs)
    summary = {}
    for name, better in metrics:
        parent = [p["parent"][name] for p in pairs if name in p["parent"]]
        change = [p["change"][name] for p in pairs if name in p["change"]]
        both = [(p["parent"][name], p["change"][name], p["change"]["correct"]) for p in pairs
                if name in p["parent"] and name in p["change"]]
        if not both:
            continue
        sign = 1.0 if better == "lower" else -1.0
        p_q1, p_med, p_q3 = quartiles(parent)
        c_q1, c_med, c_q3 = quartiles(change)
        wins = sum(1 for a, b, correct in both if correct is True and sign * (a - b) > 0)
        summary[name] = {
            "parent_median": p_med, "parent_q1_q3": [p_q1, p_q3],
            "change_median": c_med, "change_q1_q3": [c_q1, c_q3],
            "change_wins": wins, "pairs": len(pairs), "compared": len(both),
            "ratio": c_med / p_med,
            "paired_ratio": statistics.median(b / a for a, b, _ in both),
            "void": void,
            "claim_holds": (void is None and 10 * wins >= 9 * len(pairs)
                            and sign * (p_med - c_med) > p_q3 - p_q1),
        }
    return summary


def runs_void(pairs: list[dict]) -> str | None:
    """Why no gain may be claimed from these pairs, or None."""
    bad = sum(1 for p in pairs if p["change"].get("correct") is not True)
    if bad:
        return f"{bad} change run(s) errored or not correct"
    shares = {}
    for side in ("parent", "change"):
        runs = [p[side] for p in pairs if "attempted" in p[side]]
        attempted = sum(r["attempted"] for r in runs)
        shares[side] = sum(r["failed"] for r in runs) / attempted if attempted else 0.0
    if shares["change"] > shares["parent"]:
        return (f"the change failed {shares['change']:.3g} of its points, "
                f"the parent {shares['parent']:.3g}")
    return None


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), interpolating between order statistics as numpy does."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def report_line(name: str, s: dict) -> str:
    return (f"{name}: parent {s['parent_median']:.4g} "
            f"[{s['parent_q1_q3'][0]:.4g}, {s['parent_q1_q3'][1]:.4g}], "
            f"change {s['change_median']:.4g} "
            f"[{s['change_q1_q3'][0]:.4g}, {s['change_q1_q3'][1]:.4g}], "
            f"change better in {s['change_wins']}/{s['pairs']}, "
            f"paired ratio {s['paired_ratio']:.4f}, "
            f"claim rule {'holds' if s['claim_holds'] else 'fails'}"
            + (f" ({s['void']})" if s["void"] else ""))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--workload", required=True, nargs="+",
                    help="workload names of bench/workloads.py")
    ap.add_argument("--seeds", default="0-9",
                    help="seeds, one pair each, e.g. 0-9 or 0,3,5-7 (default 0-9)")
    ap.add_argument("--out", type=Path, help="write machine, pairs and summaries as JSON")
    args = ap.parse_args(argv)

    seeds = parse_seeds(args.seeds)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    metrics = [(m["name"], m["better"]) for m in spec["end_to_end"]]
    machine = {}
    workloads = {}
    for workload in args.workload:
        pairs = []
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side], seen = run_once(roots[side], workload, seed)
                machine = machine or seen
            pairs.append(pair)
            print(f"# {workload} seed {seed}: " + "; ".join(
                f"{side} {json.dumps(pair[side])}" for side in order), flush=True)
        workloads[workload] = {"summary": summarize(pairs, metrics), "pairs": pairs}
        for name, s in workloads[workload]["summary"].items():
            print(f"{workload} {report_line(name, s)}", flush=True)

    if args.out:
        what = (f"bench/run.py on the parent and the change, "
                f"{len(seeds)} alternating pairs per workload, seeds {args.seeds}")
        args.out.write_text(json.dumps({"what": what, "machine": machine,
                                        "workloads": workloads}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""A/B runs of the benchmark: a base commit against this checkout.

    python3 scripts/ab.py --label lazy-import --base HEAD~1

The base commit's files are unpacked with ``git archive`` into a
temporary directory, removed again when the script ends; nothing is
registered in the repository, so an interrupted run leaves no worktree
behind. The change is this checkout's tracked files as they stand,
uncommitted edits included, copied into the same temporary directory; an
untracked file is left out until it is staged. Neither tree has a
``.git`` directory, and their paths have the same length. The tracked
paths that ``git status --porcelain`` lists as changed are recorded as
``change_dirty``, and a warning names them, since ``change`` records
HEAD. Both sides run the benchmark command of this checkout's
``BENCHMARK.json`` (``perfbench/run.py``, run as it is) with ``--trace 0``
and its ``run_seconds``, from their own root, one run at a time. There
are always ten pairs, the count the gain rule is stated for. Pair k runs
every workload on both sides with seed k, so every A/B measures the same
inputs; odd pairs run the change first, even pairs the base.
Before every run each ``__pycache__`` under both ``src/`` trees is deleted,
and the run gets ``PYTHONDONTWRITEBYTECODE=1``, so that both sides compile
the library from source in every fresh interpreter: a stray bytecode cache
on one side would fake or hide a difference in ``setup_s``.

Writes ``BENCH_<label>.json`` into this checkout: per workload and metric
the values of every run, each side's median and quartiles, the pairs each
side won (ties count for neither), whether the change is a gain (it wins at
least nine tenths of the pairs, and its median beats the base's by more
than the base's interquartile range), whether its median stays within
the metric's bound, and whether the metric is unresolved (the wider of the
two sides' interquartile ranges, relative to the base median, exceeds the
bound while some change run fails to beat some base run); plus each side's
``src/**/*.py`` line count, the host, the Python version, the commits and
the seeds. The line counts are printed with the summary.
"""

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")
PAIRS = 10


def run_order(pairs: int) -> list[tuple[int, str]]:
    """(pair, side) in the order they run: odd pairs change-first."""
    order = []
    for pair in range(1, pairs + 1):
        first, second = ("change", "base") if pair % 2 else ("base", "change")
        order += [(pair, first), (pair, second)]
    return order


def clear_bytecode(trees) -> None:
    for tree in trees:
        for cache in sorted((Path(tree) / "src").rglob("__pycache__")):
            shutil.rmtree(cache)


def src_lines(tree) -> int:
    """The lines of every ``src/**/*.py`` file under ``tree``, a last line
    without its newline included."""
    return sum(len(path.read_bytes().splitlines()) for path in Path(tree).glob("src/**/*.py"))


def run_benchmark(command, tree, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run from ``tree``; its last stdout line, decoded."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def compare(metric: dict, base: list[float], change: list[float]) -> dict:
    """One metric over paired runs: ``base[i]`` and ``change[i]`` share pair i.

    The metric is unresolved when the wider of the two sides' interquartile
    ranges, relative to the base median, exceeds the bound, unless every
    change run beats every base run: the bound cannot then tell a change
    from noise."""
    sign = 1.0 if metric["better"] == "higher" else -1.0
    diffs = [sign * (c - b) for b, c in zip(base, change)]
    b, c = spread(base), spread(change)
    wins = sum(d > 0.0 for d in diffs)
    worse_by = -sign * (c["median"] - b["median"]) / b["median"] if b["median"] else 0.0
    width = max(b["q3"] - b["q1"], c["q3"] - c["q1"])
    relative_spread = width / abs(b["median"]) if b["median"] else 0.0
    separated = min(sign * v for v in change) > max(sign * v for v in base)
    return {
        "unit": metric["unit"],
        "better": metric["better"],
        "bound": metric["bound"],
        "base": b,
        "change": c,
        "change_wins": wins,
        "base_wins": sum(d < 0.0 for d in diffs),
        "gain": wins >= 0.9 * len(diffs)
        and sign * (c["median"] - b["median"]) > b["q3"] - b["q1"],
        "within_bound": worse_by <= metric["bound"],
        "relative_spread": relative_spread,
        "unresolved": relative_spread > metric["bound"] and not separated,
    }


def summary_line(workload: str, name: str, m: dict, pairs: int) -> str:
    return (
        f"{workload:9} {name:12} {m['base']['median']:.6g} -> {m['change']['median']:.6g}"
        f"  wins {m['change_wins']}/{pairs}"
        f"{'  gain' if m['gain'] else ''}{'' if m['within_bound'] else '  BEYOND BOUND'}"
        f"{'  UNRESOLVED' if m['unresolved'] else ''}"
    )


def summarize(spec: dict, runs: list[dict]) -> dict:
    """Per workload: each end-to-end metric of ``spec`` compared across the
    paired ``runs`` (``pair``, ``side``, ``workload``, ``result``), and
    whether every run of each side was correct."""
    report = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        by_side = {side: {} for side in SIDES}
        for run in runs:
            if run["workload"] == workload:
                by_side[run["side"]][run["pair"]] = run["result"]
        pairs = sorted(by_side["base"])
        results = {side: [by_side[side][pair] for pair in pairs] for side in SIDES}
        report[workload] = {
            "pairs": len(pairs),
            "all_correct": {side: all(r["correct"] for r in results[side]) for side in SIDES},
            "metrics": {
                metric["name"]: compare(
                    metric,
                    *(
                        [r["metrics"][metric["name"]]["value"] for r in results[side]]
                        for side in SIDES
                    ),
                )
                for metric in spec["end_to_end"]
            },
        }
    return report


def dirty_paths(porcelain: str) -> list[str]:
    """The tracked paths in ``git status --porcelain`` output, each line
    ``XY path`` or ``XY old -> new``; untracked files (``??``) are left out."""
    return [
        line[3:].split(" -> ")[-1]
        for line in porcelain.splitlines()
        if line and not line.startswith("??")
    ]


def git(*args: str) -> str:
    # Only trailing newlines go: a porcelain line may begin with a space.
    return subprocess.run(
        ["git", "-C", str(ROOT), *args], capture_output=True, text=True, check=True
    ).stdout.rstrip("\n")


def unpack(commit: str, tree: Path) -> None:
    """Write the files of ``commit`` into the directory ``tree``."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", commit],
        capture_output=True, check=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(tree, filter="data")


def copy_checkout(root: Path, tree: Path) -> None:
    """Copy the files git tracks in the checkout ``root``, as they stand on
    disk, into the directory ``tree``; a tracked file deleted from disk is
    left out, and so is ``.git``."""
    listed = subprocess.run(
        ["git", "-C", str(root), "ls-files", "-z"], capture_output=True, check=True
    ).stdout.decode()
    for name in filter(None, listed.split("\0")):
        source, target = root / name, tree / name
        if source.exists():
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    parser.add_argument("--base", default="HEAD~1", help="commit to compare against")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    command = [sys.executable, *spec["command"][1:]]
    base_commit = git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    dirty = dirty_paths(git("status", "--porcelain"))
    if dirty:
        print(f"warning: measuring uncommitted edits to {', '.join(dirty)}, "
              "not HEAD as recorded", file=sys.stderr)
    runs = []
    with tempfile.TemporaryDirectory() as scratch:
        # Roots of equal length: the length of the path a run starts from
        # alone moves its peak_rss_mb, by about 0.3 MB between "base" and
        # "change".
        trees = {side: Path(scratch) / side[0] for side in SIDES}
        unpack(base_commit, trees["base"])
        copy_checkout(ROOT, trees["change"])
        lines = {side: src_lines(tree) for side, tree in trees.items()}
        for pair, side in run_order(PAIRS):
            for workload in workloads:
                clear_bytecode(trees.values())
                print(f"pair {pair} {side} {workload}", file=sys.stderr)
                result = run_benchmark(command, trees[side], workload, pair, seconds)
                runs.append({"pair": pair, "side": side, "workload": workload,
                             "result": result})
    document = {
        "label": args.label,
        "base": base_commit,
        "change": git("rev-parse", "HEAD"),
        "change_dirty": dirty,
        "host": {"platform": platform.platform(), "cpus": os.cpu_count()},
        "python": platform.python_version(),
        "seconds": seconds,
        "seeds": list(range(1, PAIRS + 1)),
        "src_lines": lines,
        "workloads": summarize(spec, runs),
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
    for workload, report in document["workloads"].items():
        for name, m in report["metrics"].items():
            print(summary_line(workload, name, m, report["pairs"]))
    print(f"src lines {lines['base']} -> {lines['change']}")
    print(f"wrote {out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Paired benchmark runs of a parent commit against the working tree.

    python3 tools/bench_pairs.py --parent REV --out BENCH_N.json \\
        [--seeds 101-110] [--workloads figures exact montecarlo] \\
        [--confirm-seeds 131-140] [--traced-seed 111] [--seconds 25] \\
        [--rss-seeds 121-124 --rss-seconds 3] [--what TEXT]

Run from the root of a smelab checkout.  The parent tree comes from
``git archive REV``; the change is a copy of the working tree's tracked and
untracked, not ignored, files.  Both copies live in a temporary directory,
so no run writes into the checkout.

For every workload and seed, one pair runs
``python3 bench/run.py --workload W --seed S --seconds T --trace 0`` from
the root of each copy, and the side that runs first alternates by pair (the
parent first on the first seed).  ``--confirm-seeds`` repeats the pairs on
figures alone with other seeds; ``--traced-seed`` adds one ``--trace 1`` run
per side and workload; ``--rss-seeds`` adds short figures pairs, whose few
passes let the two sides' peak RSS be compared at equal pass counts.

The JSON written has, per workload and per end-to-end metric: both sides'
median, quartiles and range, the change/parent median ratio, the number of
pairs in which the change is lower, the parent's IQR/median and the value of
every seed; plus timed passes per run, the least-squares peak RSS per timed
pass of each side, attempted and failed operations, and the machine block of
the first report.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

END_TO_END = ("setup_s", "wall_ref", "peak_rss_mib")
UNITS = {"setup_s": "s", "wall_ref": "ratio", "peak_rss_mib": "MiB"}
SIDES = ("parent", "change")


def seed_range(text):
    """'101-110' or '101,105' -> a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summary(values):
    values = sorted(values)
    out = {"n": len(values), "median": statistics.median(values),
           "min": values[0], "max": values[-1]}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    return out


def slope(xs, ys):
    """Least-squares slope of ys against xs (None when xs do not vary)."""
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    if sxx == 0:
        return None
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def make_trees(root, parent, dest):
    """Copies of the parent commit and of the working tree under dest."""
    trees = {side: os.path.join(dest, side) for side in SIDES}
    archive = os.path.join(dest, "parent.tar")
    subprocess.run(["git", "archive", "--format=tar", "-o", archive, parent],
                   cwd=root, check=True)
    files = subprocess.run(["git", "ls-files", "-z", "--cached", "--others",
                            "--exclude-standard"], cwd=root, check=True,
                           capture_output=True).stdout.decode().split("\0")
    with tarfile.open(archive) as tar:
        tar.extractall(trees["parent"], filter="data")
    for name in filter(None, files):
        src = os.path.join(root, name)
        if os.path.isfile(src):      # a deleted but still tracked file is skipped
            target = os.path.join(trees["change"], name)
            os.makedirs(os.path.dirname(target), exist_ok=True)
            with open(src, "rb") as i, open(target, "wb") as o:
                o.write(i.read())
    return trees


def run_one(tree, workload, seed, seconds, trace):
    """(report, result) of one bench/run.py call: its last two stdout lines."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError("%s failed in %s (exit %d): %s"
                           % (" ".join(cmd), tree, proc.returncode, proc.stderr[-2000:]))
    return json.loads(lines[-2]), json.loads(lines[-1])


def run_pairs(trees, workload, seeds, seconds, log):
    """{seed: {side: (report, result)}}, alternating the side that runs first."""
    runs = {}
    for i, seed in enumerate(seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        runs[seed] = {}
        for side in order:
            start = time.time()
            runs[seed][side] = run_one(trees[side], workload, seed, seconds, 0)
            log("%s seed %d %s: wall_ref %.1f (%.0f s)" % (
                workload, seed, side,
                runs[seed][side][1]["metrics"]["wall_ref"]["value"], time.time() - start))
    return runs


def digest(runs):
    """The per-workload block of the output from {seed: {side: (report, result)}}."""
    seeds = sorted(runs)
    out = {"seeds": seeds}
    for metric in END_TO_END:
        per_seed = {seed: {side: runs[seed][side][1]["metrics"][metric]["value"]
                           for side in SIDES} for seed in seeds}
        parent = [per_seed[s]["parent"] for s in seeds]
        change = [per_seed[s]["change"] for s in seeds]
        ps, cs = summary(parent), summary(change)
        out[metric] = {
            "unit": UNITS[metric], "parent": ps, "change": cs,
            "change_over_parent_median": cs["median"] / ps["median"],
            "pairs": len(seeds),
            "pairs_change_lower": sum(c < p for c, p in zip(change, parent)),
            "parent_iqr_over_median": ((ps["q3"] - ps["q1"]) / ps["median"]
                                       if "q1" in ps else None),
            "per_seed": per_seed}
    passes = {side: [runs[s][side][0]["wall_s"]["n"] for s in seeds] for side in SIDES}
    rss = {side: [runs[s][side][1]["metrics"]["peak_rss_mib"]["value"] for s in seeds]
           for side in SIDES}
    out["timed_passes"] = {side: summary(passes[side]) for side in SIDES}
    out["timed_passes_per_seed"] = {s: {side: runs[s][side][0]["wall_s"]["n"]
                                        for side in SIDES} for s in seeds}
    out["peak_rss_mib_per_timed_pass"] = {side: slope(passes[side], rss[side])
                                          for side in SIDES}
    out["attempted_ops"] = {side: sum(runs[s][side][1]["attempted"] for s in seeds)
                            for side in SIDES}
    out["failed_ops"] = {side: sum(runs[s][side][1]["failed"] for s in seeds)
                         for side in SIDES}
    out["all_correct"] = all(runs[s][side][1]["correct"] for s in seeds for side in SIDES)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--seeds", type=seed_range, default=seed_range("101-110"))
    parser.add_argument("--workloads", nargs="+",
                        default=["figures", "exact", "montecarlo"])
    parser.add_argument("--confirm-seeds", type=seed_range, default=[])
    parser.add_argument("--traced-seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--rss-seeds", type=seed_range, default=[])
    parser.add_argument("--rss-seconds", type=float, default=3.0)
    parser.add_argument("--what", default="", help="one line on what is compared")
    args = parser.parse_args(argv)

    root = os.getcwd()
    commit = subprocess.run(["git", "rev-parse", "--short", args.parent], cwd=root,
                            check=True, capture_output=True, text=True).stdout.strip()

    def log(text):
        print(time.strftime("%H:%M:%S"), text, file=sys.stderr, flush=True)

    result = {"what": args.what, "parent": commit,
              "method": "python3 bench/run.py --workload W --seed S --seconds %g "
                        "--trace 0 from the root of a copy of each tree (the parent "
                        "from git archive %s, the change from the working tree); one "
                        "pair per seed, the side that runs first alternating by pair "
                        "(parent first on the first seed); made by tools/bench_pairs.py"
                        % (args.seconds, commit)}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as dest:
        trees = make_trees(root, args.parent, dest)
        result["workloads"] = {}
        for workload in args.workloads:
            runs = run_pairs(trees, workload, args.seeds, args.seconds, log)
            result.setdefault("machine", runs[args.seeds[0]]["parent"][0]["machine"])
            result["workloads"][workload] = digest(runs)
        if args.confirm_seeds:
            runs = run_pairs(trees, "figures", args.confirm_seeds, args.seconds, log)
            result["figures_confirm"] = digest(runs)
        if args.rss_seeds:
            runs = run_pairs(trees, "figures", args.rss_seeds, args.rss_seconds, log)
            result["figures_rss_short_runs"] = digest(runs)
        if args.traced_seed is not None:
            result["traced"] = {}
            for workload in args.workloads:
                metrics = {side: run_one(trees[side], workload, args.traced_seed,
                                         args.seconds, 1)[1]["metrics"]
                           for side in SIDES}
                result["traced"][workload] = {args.traced_seed: {
                    side: {k: v["value"] for k, v in m.items()}
                    for side, m in metrics.items()}}
                log("%s traced seed %d done" % (workload, args.traced_seed))
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
        handle.write("\n")
    log("wrote %s" % args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())

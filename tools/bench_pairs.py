"""Paired benchmark runs of a parent commit against the working tree.

    python3 tools/bench_pairs.py --parent REV --out BENCH_N.json \\
        [--seeds 101-110] [--workloads figures exact montecarlo] \\
        [--confirm-seeds 131-140] [--traced-seed 111] [--seconds 25] \\
        [--rss-seeds 121-124 --rss-seconds 0] [--cold-pairs 20] [--what TEXT]

Run from the root of a smelab checkout.  The parent tree comes from
``git archive REV``; the change is a copy of the working tree's tracked and
untracked, not ignored, files.  Both copies live in a temporary directory,
so no run writes into the checkout.

For every workload and seed, one pair runs
``python3 bench/run.py --workload W --seed S --seconds T --trace 0`` from
the root of each copy, and the side that runs first alternates by pair (the
parent first on the first seed).  ``--confirm-seeds`` repeats the pairs on
figures alone with other seeds; ``--traced-seed`` adds one ``--trace 1`` run
per side and workload; ``--rss-seeds`` adds short pairs on every workload.
bench/run.py keeps the outputs of every timed pass, so a faster side that
fits more passes in its budget also reads a higher peak RSS; at the default
``--rss-seconds 0`` each run makes bench/run.py's least number of timed
passes, so the short pairs compare the two sides' peak RSS at equal pass
counts, and ``equal_passes`` says whether every pair did.

``--cold-pairs N`` adds N pairs of fresh processes of
``python -m smelab figures --out DIR`` (DIR a new temporary directory, the
tree's ``src`` on PYTHONPATH), alternating the side that runs first as
above.  They see what an in-process pass cannot: the imports of a cold
start.  Each run records its wall time (perf_counter around the process)
and its peak RSS (``ru_maxrss`` from ``os.wait4``).  ``--workloads`` with
no names runs the cold pairs alone.

The JSON written has, per workload and per end-to-end metric: both sides'
median, quartiles and range, the change/parent median ratio, the number of
pairs in which the change is lower, the parent's IQR/median and the value of
every seed; the same for ``cpu_s``, each run's median CPU seconds per timed
pass (from bench/run.py's report line; not gated); plus timed passes per
run, the least-squares peak RSS per timed pass of each side, attempted and
failed operations, and the machine block of the first report.
"""

import argparse
import json
import os
import shutil
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


def run_cold(tree, dest):
    """(wall_s, peak RSS in MiB) of one fresh `python -m smelab figures` process."""
    out_dir = tempfile.mkdtemp(dir=dest)
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    with tempfile.TemporaryFile(dir=dest) as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "smelab", "figures", "--out", out_dir],
                                cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            err.seek(0)
            raise RuntimeError("figures failed in %s (exit %d): %s" % (
                tree, proc.returncode, err.read()[-2000:].decode(errors="replace")))
    shutil.rmtree(out_dir)
    # ru_maxrss is in KiB on Linux and in bytes on macOS
    return wall, usage.ru_maxrss / (1024.0 ** 2 if sys.platform == "darwin" else 1024.0)


def run_cold_pairs(trees, n_pairs, dest, log):
    """[{side: {"wall_s", "peak_rss_mib"}}] of n_pairs alternating cold pairs."""
    runs = []
    for i in range(n_pairs):
        runs.append({})
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            wall, rss = run_cold(trees[side], dest)
            runs[-1][side] = {"wall_s": wall, "peak_rss_mib": rss}
        log("cold pair %d: wall %.3f / %.3f s, peak RSS %.1f / %.1f MiB (parent / change)"
            % (i, runs[-1]["parent"]["wall_s"], runs[-1]["change"]["wall_s"],
               runs[-1]["parent"]["peak_rss_mib"], runs[-1]["change"]["peak_rss_mib"]))
    out = {"pairs": n_pairs, "per_pair": runs}
    for metric, unit in (("wall_s", "s"), ("peak_rss_mib", "MiB")):
        parent = [r["parent"][metric] for r in runs]
        change = [r["change"][metric] for r in runs]
        ps, cs = summary(parent), summary(change)
        out[metric] = {"unit": unit, "parent": ps, "change": cs,
                       "change_over_parent_median": cs["median"] / ps["median"],
                       "change_minus_parent_median": cs["median"] - ps["median"],
                       "pairs_change_lower": sum(c < p for c, p in zip(change, parent))}
    return out


def paired(per_seed, unit):
    """Pair statistics of one metric from {seed: {side: value}}."""
    parent = [per_seed[s]["parent"] for s in sorted(per_seed)]
    change = [per_seed[s]["change"] for s in sorted(per_seed)]
    ps, cs = summary(parent), summary(change)
    return {"unit": unit, "parent": ps, "change": cs,
            "change_over_parent_median": cs["median"] / ps["median"],
            "pairs": len(per_seed),
            "pairs_change_lower": sum(c < p for c, p in zip(change, parent)),
            "parent_iqr_over_median": ((ps["q3"] - ps["q1"]) / ps["median"]
                                       if "q1" in ps else None),
            "per_seed": per_seed}


def digest(runs):
    """The per-workload block of the output from {seed: {side: (report, result)}}."""
    seeds = sorted(runs)
    out = {"seeds": seeds}
    for metric in END_TO_END:
        out[metric] = paired({seed: {side: runs[seed][side][1]["metrics"][metric]["value"]
                                     for side in SIDES} for seed in seeds}, UNITS[metric])
    # not an end-to-end metric and not gated: the median CPU seconds of a timed
    # pass, from each run's report line, which time spent waiting for a CPU
    # on a loaded host does not inflate as it does wall time
    out["cpu_s"] = paired({seed: {side: runs[seed][side][0]["cpu_s"]["median"]
                                  for side in SIDES} for seed in seeds}, "s")
    out["cpu_s"]["gated"] = False
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
    parser.add_argument("--workloads", nargs="*",
                        default=["figures", "exact", "montecarlo"])
    parser.add_argument("--confirm-seeds", type=seed_range, default=[])
    parser.add_argument("--traced-seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--rss-seeds", type=seed_range, default=[])
    parser.add_argument("--rss-seconds", type=float, default=0.0)
    parser.add_argument("--cold-pairs", type=int, default=0)
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
            result["rss_short_runs"] = {}
            for workload in args.workloads:
                block = digest(run_pairs(trees, workload, args.rss_seeds,
                                         args.rss_seconds, log))
                block["equal_passes"] = all(
                    len(set(sides.values())) == 1
                    for sides in block["timed_passes_per_seed"].values())
                result["rss_short_runs"][workload] = block
        if args.cold_pairs:
            result["cold_figures"] = run_cold_pairs(trees, args.cold_pairs, dest, log)
            result["cold_figures"]["method"] = (
                "python -m smelab figures --out DIR from the root of each tree, "
                "PYTHONPATH=src, one fresh process per run and a new DIR each time; "
                "wall time by perf_counter around the process, peak RSS from "
                "os.wait4's ru_maxrss; the side that runs first alternates by pair")
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

"""SHA-256 digests of what the smelab commands write and print.

    python3 tools/artifact_digests.py [--parent REV]

Run from the root of a smelab checkout.  ``smelab figures`` runs at
``--threads 1`` and ``--threads 2``, and each experiment command
(``weak-error``, ``sweep``, ``divergence``, ``momentum``, ``compare-snag``)
runs once at its defaults, each into a new temporary directory; ``smelab
selftest`` runs once.  All run with the tree's ``src`` on PYTHONPATH.  The
script prints one line ``<sha256>  <label>`` per artifact (label
``figures-t<N>/<file>`` or ``<command>/<file>``) and one per stdout with its
``wrote <path>`` lines dropped (``figures-t<N>/stdout``,
``<command>/stdout``, ``selftest/stdout``).

With ``--parent REV`` it makes the same runs on ``git archive REV``,
unpacked into a temporary directory, and then lists every label whose
digest differs between the two trees or that only one of them has.  For a
differing CSV that both trees write it also prints how many cells moved and
the largest relative move |new - old| / |old| among them; a cell that is not
a number on both sides, is missing on one, or moves off 0 moves by inf.  For
a differing SVG it does the same on the rows ``label,x,y`` of the ``data``
comment that each figure embeds.  The exit status is 1 if any label is
listed, and 0 otherwise.
"""

import argparse
import hashlib
import itertools
import math
import os
import subprocess
import sys
import tarfile
import tempfile

THREADS = (1, 2)
COMMANDS = ("weak-error", "sweep", "divergence", "momentum", "compare-snag")


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def smelab(tree, *args):
    """stdout of `python -m smelab ARGS` run on tree's src; raises on failure."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    proc = subprocess.run([sys.executable, "-m", "smelab", *args], cwd=tree, env=env,
                          capture_output=True)
    if proc.returncode != 0:
        raise RuntimeError("smelab %s failed in %s (exit %d): %s" % (
            " ".join(args), tree, proc.returncode,
            proc.stderr[-2000:].decode(errors="replace")))
    return proc.stdout


def cell_moves(old, new):
    """(moved, largest) of two CSV texts: the number of cells that differ and
    the largest relative move among them, cell by cell in row order."""
    moved, largest = 0, 0.0
    rows = itertools.zip_longest(old.splitlines(), new.splitlines(), fillvalue="")
    for row_old, row_new in rows:
        for a, b in itertools.zip_longest(row_old.split(","), row_new.split(",")):
            if a == b:
                continue
            moved += 1
            try:
                move = abs(float(b) - float(a)) / abs(float(a))
            except (TypeError, ValueError, ZeroDivisionError):
                move = math.inf
            largest = max(largest, math.inf if math.isnan(move) else move)
    return moved, largest


def label_moves(label, old, new):
    """cell_moves of two texts of a CSV label, or of the embedded data comments
    of an SVG label; None for any other label."""
    if label.endswith(".svg"):
        old, new = (text.partition("<!--\n")[2].partition("\n-->")[0] for text in (old, new))
    elif not label.endswith(".csv"):
        return None
    return cell_moves(old, new)


def outputs(tree, scratch):
    """{label: bytes} of every artifact and of the stdouts."""
    out = {}
    runs = [("figures-t%d" % threads, ("figures", "--threads", str(threads)))
            for threads in THREADS]
    runs += [(command, (command,)) for command in COMMANDS]
    for label, args in runs:
        target = tempfile.mkdtemp(prefix=label + "-", dir=scratch)
        stdout = smelab(tree, *args, "--out", target)
        for name in sorted(os.listdir(target)):
            with open(os.path.join(target, name), "rb") as f:
                out["%s/%s" % (label, name)] = f.read()
        kept = [line for line in stdout.splitlines(keepends=True)
                if not line.startswith(b"wrote ")]
        out[label + "/stdout"] = b"".join(kept)
    out["selftest/stdout"] = smelab(tree, "selftest")
    return out


def parent_tree(rev, scratch):
    """git archive rev, unpacked under scratch; returns its path."""
    archive = os.path.join(scratch, "parent.tar")
    subprocess.run(["git", "archive", "--format=tar", "-o", archive, rev], check=True)
    tree = os.path.join(scratch, "parent")
    with tarfile.open(archive) as tar:
        tar.extractall(tree, filter="data")
    return tree


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", metavar="REV",
                        help="compare against the tree of this git revision")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as scratch:
        change = outputs(os.getcwd(), scratch)
        for label, data in change.items():
            print("%s  %s" % (sha256(data), label))
        if args.parent is None:
            return 0
        parent = outputs(parent_tree(args.parent, scratch), scratch)
    differ = sorted(label for label in set(change) | set(parent)
                    if change.get(label) != parent.get(label))
    for label in differ:
        print("differs from %s: %s (%s -> %s)" % (
            args.parent, label, *(sha256(side[label]) if label in side else "missing"
                                  for side in (parent, change))))
        moves = label in parent and label in change and label_moves(
            label, parent[label].decode(), change[label].decode())
        if moves:
            print("  %d cells moved, largest relative move %.3g" % moves)
    print("%d of %d labels differ from %s" % (len(differ), len(set(change) | set(parent)),
                                              args.parent))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())

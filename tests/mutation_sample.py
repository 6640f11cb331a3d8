"""Sampled mutation check of one module against the claim ledger.

    python3 tests/mutation_sample.py --module piclattice --sites 30 --seed 1

Copies `src/` to a temporary directory and lists the operator sites of
`src/halphen/<module>.py`: every +, - and * of a binary or augmented
assignment, and every ==, !=, <, <=, > and >= of a comparison.  It draws
--sites of them with `random.Random(--seed)` and, one mutant at a time,
applies a single swap (+ <-> -, * -> +, == <-> !=, < <-> <=, > <-> >=),
writes the mutated module back with `ast.unparse`, and runs
`python -m halphen verify all --no-timing --format json` on the copy.
A mutant survives when that run exits 0, that is, every claim passes,
and prints the unmutated run's ledger byte for byte; one that passes with
a changed ledger (say, a witness moved to another prime) is killed as
"ledger changed".  One that outlasts the timeout (ten times the unmutated
run, at least 30 s) is reported apart.  The survivors are printed with their site
index, line and swap.  Standard library only; pytest does not collect this file.
"""

import argparse
import ast
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SWAPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Add,
         ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Lt: ast.LtE,
         ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt}
SYMBOLS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Eq: "==",
           ast.NotEq: "!=", ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">",
           ast.GtE: ">="}
COMMAND = ["-m", "halphen", "verify", "all", "--no-timing", "--format", "json"]


def sites(tree):
    """(node, slot) of every swappable operator, in `ast.walk` order.

    The slot is None for the `op` of a BinOp or AugAssign, else the index
    into a Compare's `ops`.
    """
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAPS:
            out.append((node, None))
        elif isinstance(node, ast.Compare):
            out.extend((node, k) for k, op in enumerate(node.ops)
                       if type(op) in SWAPS)
    return out


def mutate(source, index):
    """The source with site `index` swapped, and a description of the swap."""
    tree = ast.parse(source)
    node, slot = sites(tree)[index]
    old = node.op if slot is None else node.ops[slot]
    new = SWAPS[type(old)]()
    if slot is None:
        node.op = new
    else:
        node.ops[slot] = new
    swap = f"{SYMBOLS[type(old)]} -> {SYMBOLS[type(new)]}"
    # nested operators can share a line and column (the two products of
    # y * y * y), so the site index tells them apart
    where = f"site {index} line {node.lineno} col {node.col_offset}"
    return ast.unparse(tree) + "\n", f"{where}: {swap}"


def run_ledger(copy, timeout):
    """(exit code or None on timeout, the verdict counts, the ledger text)
    of one run."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"),
               PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0")
    try:
        done = subprocess.run([sys.executable, *COMMAND], cwd=copy, env=env,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, {}, None
    verdicts = {}
    try:
        for entry in json.loads(done.stdout):
            verdicts[entry["verdict"]] = verdicts.get(entry["verdict"], 0) + 1
    except (ValueError, KeyError, TypeError):
        pass
    return done.returncode, verdicts, done.stdout


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--module", required=True,
                        help="module of src/halphen, e.g. piclattice")
    parser.add_argument("--sites", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)

    name = args.module.removesuffix(".py")
    with tempfile.TemporaryDirectory(prefix="mutation-") as tmp:
        copy = Path(tmp)
        shutil.copytree(ROOT / "src", copy / "src",
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        target = copy / "src" / "halphen" / f"{name}.py"
        source = target.read_text()
        total = len(sites(ast.parse(source)))
        chosen = sorted(random.Random(args.seed).sample(range(total),
                                                        min(args.sites, total)))

        t0 = time.perf_counter()
        rc, _, clean = run_ledger(copy, None)
        if rc != 0:
            sys.exit(f"the unmutated ledger does not pass (exit {rc})")
        timeout = max(30.0, 10 * (time.perf_counter() - t0))

        survivors, timed_out, killed = [], [], 0
        for index in chosen:
            mutant, where = mutate(source, index)
            target.write_text(mutant)
            rc, verdicts, ledger = run_ledger(copy, timeout)
            changed = rc == 0 and ledger != clean
            if rc is None:
                timed_out.append(where)
            elif rc == 0 and not changed:
                survivors.append(where)
            else:
                killed += 1
            print(f"{where}: "
                  f"{'timeout' if rc is None else f'exit {rc}'} {verdicts}"
                  f"{' ledger changed' if changed else ''}", flush=True)
        target.write_text(source)

    print(f"\n{name}.py: {len(chosen)} of {total} sites (seed {args.seed}):"
          f" {killed} killed, {len(survivors)} survived,"
          f" {len(timed_out)} timed out")
    for where in survivors:
        print(f"SURVIVED {name}.py {where}")
    for where in timed_out:
        print(f"TIMEOUT {name}.py {where}")


if __name__ == "__main__":
    main()

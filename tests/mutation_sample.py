"""Sampled mutation check of one module against the claim ledger.

    python3 tests/mutation_sample.py --module piclattice --sites 30 --seed 1

Copies `src/` to a temporary directory and lists the operator sites of
`src/halphen/<module>.py`: every +, - and * of a binary or augmented
assignment, and every ==, !=, <, <=, > and >= of a comparison.  A site's
key is the qualified name of the function around it (`<module>` outside
any), its operator and its ordinal among that function's sites of that
operator, so an edit of another function, or of another operator, leaves
the key as it is.  The --sites drawn are the keys of least
sha256(--seed, key): each key's rank depends on the seed and the key
alone, so one --seed draws the same sites before and after an edit,
except where a new key outranks one of them.  One mutant at a time, it
applies a single swap (+ <-> -, * -> +, == <-> !=, < <-> <=, > <-> >=),
writes the mutated module back with `ast.unparse`, and runs
`python -m halphen verify all --no-timing --format json` on the copy.
A mutant survives when that run exits 0, that is, every claim passes,
and prints the unmutated run's ledger byte for byte; one that passes with
a changed ledger (say, a witness moved to another prime) is killed as
"ledger changed".  One that outlasts the timeout (ten times the unmutated
run, at least 30 s) is reported apart.  The survivors are printed with their
key, line and swap.  Standard library only; pytest does not collect this file.
"""

import argparse
import ast
import hashlib
import json
import os
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
    """{key: (node, slot)} of every swappable operator, in key order.

    A key is (qualified function name, operator, ordinal); the ordinal
    counts the function's sites of that operator in pre-order, so the
    outer product of y * y * y comes first.  The slot is None for the `op`
    of a BinOp or AugAssign, else the index into a Compare's `ops`.
    """
    found = {}  # (function, operator) -> [(node, slot)]

    def visit(node, function, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, prefix + child.name, f"{prefix}{child.name}.")
                continue
            if isinstance(child, ast.ClassDef):
                visit(child, function, f"{prefix}{child.name}.")
                continue
            if isinstance(child, (ast.BinOp, ast.AugAssign)):
                ops = [(child.op, None)]
            elif isinstance(child, ast.Compare):
                ops = [(op, k) for k, op in enumerate(child.ops)]
            else:
                ops = []
            for op, slot in ops:
                if type(op) in SWAPS:
                    found.setdefault((function, SYMBOLS[type(op)]), []).append(
                        (child, slot))
            visit(child, function, prefix)

    visit(tree, "<module>", "")
    return {(function, symbol, k): site
            for (function, symbol), group in sorted(found.items())
            for k, site in enumerate(group)}


def label(key):
    function, symbol, k = key
    return f"{function} {symbol} #{k}"


def draw(keys, count, seed):
    """The `count` keys of least sha256(seed, key), in key order."""
    def rank(key):
        return hashlib.sha256(f"{seed} {label(key)}".encode()).digest()
    return sorted(sorted(keys, key=rank)[:count])


def mutate(source, key):
    """The source with site `key` swapped, a description of the swap, its
    line and the swap alone."""
    tree = ast.parse(source)
    node, slot = sites(tree)[key]
    old = node.op if slot is None else node.ops[slot]
    new = SWAPS[type(old)]()
    if slot is None:
        node.op = new
    else:
        node.ops[slot] = new
    swap = f"{SYMBOLS[type(old)]} -> {SYMBOLS[type(new)]}"
    where = f"{label(key)} (line {node.lineno} col {node.col_offset})"
    return ast.unparse(tree) + "\n", f"{where}: {swap}", node.lineno, swap


def run_ledger(copy, timeout):
    """(exit code or None on timeout, the verdict counts, the failed
    claims, the ledger text) of one run."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"),
               PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0")
    try:
        done = subprocess.run([sys.executable, *COMMAND], cwd=copy, env=env,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, {}, [], None
    verdicts, failed = {}, []
    try:
        for entry in json.loads(done.stdout):
            verdicts[entry["verdict"]] = verdicts.get(entry["verdict"], 0) + 1
            if entry["verdict"] != "pass":
                failed.append(entry["claim"])
    except (ValueError, KeyError, TypeError):
        pass
    return done.returncode, verdicts, failed, done.stdout


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--module", required=True,
                        help="module of src/halphen, e.g. piclattice")
    parser.add_argument("--sites", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--json", metavar="FILE", type=Path,
                        help="write one record per drawn site to FILE")
    args = parser.parse_args(argv)

    name = args.module.removesuffix(".py")
    with tempfile.TemporaryDirectory(prefix="mutation-") as tmp:
        copy = Path(tmp)
        shutil.copytree(ROOT / "src", copy / "src",
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        target = copy / "src" / "halphen" / f"{name}.py"
        source = target.read_text()
        keys = list(sites(ast.parse(source)))
        total = len(keys)
        chosen = draw(keys, args.sites, args.seed)

        t0 = time.perf_counter()
        rc, _, _, clean = run_ledger(copy, None)
        if rc != 0:
            sys.exit(f"the unmutated ledger does not pass (exit {rc})")
        timeout = max(30.0, 10 * (time.perf_counter() - t0))

        survivors, timed_out, killed, records = [], [], 0, []
        for key in chosen:
            mutant, where, line, swap = mutate(source, key)
            target.write_text(mutant)
            rc, verdicts, failed, ledger = run_ledger(copy, timeout)
            changed = rc == 0 and ledger != clean
            if rc is None:
                timed_out.append(where)
                verdict = "timeout"
            elif rc == 0 and not changed:
                survivors.append(where)
                verdict = "survived"
            else:
                killed += 1
                verdict = "killed"
            records.append({"key": label(key), "line": line, "swap": swap,
                            "verdict": verdict, "failed_claims": failed})
            print(f"{where}: "
                  f"{'timeout' if rc is None else f'exit {rc}'} {verdicts}"
                  f"{' ledger changed' if changed else ''}", flush=True)
        target.write_text(source)

    if args.json:
        args.json.write_text(json.dumps(records, indent=1) + "\n")

    print(f"\n{name}.py: {len(chosen)} of {total} sites (seed {args.seed}):"
          f" {killed} killed, {len(survivors)} survived,"
          f" {len(timed_out)} timed out")
    for where in survivors:
        print(f"SURVIVED {name}.py {where}")
    for where in timed_out:
        print(f"TIMEOUT {name}.py {where}")


if __name__ == "__main__":
    main()

"""Child program of the torsion_census workload: runs a list of torsion calls.

    python3 perfbench/census.py '[["verify_torsion_locus", [4, 37, 16]], ...]'

Each call is `[function name in halphen.torsion, positional args]` or, with a
third element, keyword args as well.  Prints one JSON list with, per call,
either `{"result": ...}` or `{"error": "<type>: <message>"}`; a failed call
is reported, never retried, and the remaining calls still run.
"""

import json
import sys

ALLOWED = ("verify_torsion_locus", "verify_nine_torsion_cubics",
           "hesse_collinear_curves")


def _jsonable(value):
    """The result with tuples as lists and dict keys as strings."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (int, str, bool)) or value is None:
        return value
    return repr(value)


def run_calls(calls):
    from halphen import torsion

    out = []
    for call in calls:
        name, args = call[0], call[1]
        kwargs = call[2] if len(call) > 2 else {}
        if name not in ALLOWED:
            raise ValueError(f"not a census call: {name}")
        try:
            result = getattr(torsion, name)(*args, **kwargs)
        except Exception as err:  # noqa: BLE001 - each failure is counted
            out.append({"error": f"{type(err).__name__}: {err}"})
        else:
            out.append({"result": _jsonable(result)})
    return out


def main(argv):
    print(json.dumps(run_calls(json.loads(argv[0]))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Capacity ladder: trees the exact engine may not fit into a memory budget.

Every case runs in a child process that first caps its own address space
(``RLIMIT_AS``) and only then imports numpy and ttldelay; a case whose
limit cannot be set is not run.  The parent kills a child that outlives the
per-case timeout.  Each case ends with one typed outcome: ``solved``,
``memory_error``, ``capacity_error`` (E_CAPACITY), ``timeout``, ``error``
or ``no_limit``.

Child usage: python3 perfbench/capacity.py CASE WORKDIR
"""

import json
import subprocess
import sys
import time
from pathlib import Path

# ``ulimit -v 3000000``: the 3 GB budget the project's baseline was measured under.
LIMIT_BYTES = 3_000_000 * 1024
CASE_TIMEOUT_S = 15
FLAT_KS = (9, 12, 16, 32, 50)
OTHER_CASES = ("ternary_depth2", "coxian_three_level")


def run_ladder(workdir):
    """Run the flat ladder up to its first failure, then the other cases."""
    results = []
    for k in FLAT_KS:
        results.append(run_case(f"flat{k}", workdir))
        if results[-1]["outcome"] != "solved":
            break
    for case in OTHER_CASES:
        results.append(run_case(case, workdir))
    return results


def run_case(case, workdir):
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, __file__, case, str(workdir)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        out, err = proc.communicate(timeout=CASE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        result = {"outcome": "timeout"}
    else:
        lines = out.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            detail = err.strip().splitlines()[-1:] or [f"exit {proc.returncode}"]
            result = {"outcome": "error", "detail": detail[0]}
    result.update(case=case, seconds=time.monotonic() - start)
    return result


def _child(case, workdir):
    import resource

    try:
        resource.setrlimit(resource.RLIMIT_AS, (LIMIT_BYTES, LIMIT_BYTES))
    except (ValueError, OSError) as exc:
        return {"outcome": "no_limit", "detail": str(exc)}
    if resource.getrlimit(resource.RLIMIT_AS)[0] != LIMIT_BYTES:
        return {"outcome": "no_limit"}

    import contextlib
    import io

    import workloads
    from ttldelay import cli

    if case.startswith("flat"):
        tree = workloads.flat_tree(int(case[4:]))
    else:
        tree = {
            "ternary_depth2": workloads.ternary_tree,
            "coxian_three_level": workloads.coxian_three_level_tree,
        }[case]()
    config = workloads.write_config(Path(workdir) / f"{case}.yaml", tree)
    stderr = io.StringIO()
    try:
        with contextlib.redirect_stderr(stderr):
            rc = cli.main(
                ["analyze", "--config", str(config), "--lump", "on",
                 "--out", str(Path(workdir) / f"{case}.csv")]
            )
    except MemoryError:
        return {"outcome": "memory_error"}
    message = stderr.getvalue().strip()
    if rc == 0:
        return {"outcome": "solved"}
    if message.startswith("E_CAPACITY"):
        return {"outcome": "capacity_error", "detail": message}
    return {"outcome": "error", "detail": message}


if __name__ == "__main__":
    print(json.dumps(_child(sys.argv[1], sys.argv[2])))

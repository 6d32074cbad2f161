"""Self-check suites behind the verify subcommand.

Two kinds of evidence, kept deliberately redundant with the test suite:

* golden: six reference towers with every subscript written out, compared
  row by row against freshly built diagrams.

* oracle: the character-theoretic multiplicity oracle replayed against the
  closed-form dimensions for every label, group, module, and level in a
  small window.
"""

from fractions import Fraction
from itertools import product

from .arith import check_integers
from .branch import alt_labels
from .bratteli import build_diagram, format_label
from .dims import GROUPS, MODULES, GroupModuleContext, block_dimension
from .limits import check
from .oracle import conjugacy_classes, multiplicity_oracle
from .young import partitions_of

# Every subscript of the six reference towers, one block each, as decompose
# --format text prints a row: a "group:n module" head, then one line per
# level from 0 by halves, cells label:count in display order. The last line
# is the level a tower is built to.
GOLDEN = """
S:4 perm
4:1
3:1
4:1  3,1:1
3:2  2,1:1
4:2  3,1:3  2,2:1  2,1,1:1
3:5  2,1:5  1,1,1:1
4:5  3,1:10  2,2:5  2,1,1:6  1,1,1,1:1
3:15  2,1:21  1,1,1:7
4:15  3,1:36  2,2:21  2,1,1:28  1,1,1,1:7

A:4 perm
4:1
3:1
4:1  3,1:1
3:2  2,1+:1  2,1-:1
4:2  3,1:4  2,2+:1  2,2-:1
3:6  2,1+:5  2,1-:5
4:6  3,1:16  2,2+:5  2,2-:5
3:22  2,1+:21  2,1-:21

S:6 perm
6:1
5:1
6:1  5,1:1
5:2  4,1:1
6:2  5,1:3  4,2:1  4,1,1:1
5:5  4,1:5  3,2:1  3,1,1:1
6:5  5,1:10  4,2:6  4,1,1:6  3,3:1  3,2,1:2  3,1,1,1:1
5:15  4,1:22  3,2:9  3,1,1:9  2,2,1:2  2,1,1,1:1
6:15  5,1:37  4,2:31  4,1,1:31  3,3:9  3,2,1:20  3,1,1,1:10  2,2,2:2  2,2,1,1:3  2,1,1,1,1:1

S:6 refl
6:1
5:1
6:0  5,1:1
5:1  4,1:1
6:1  5,1:1  4,2:1  4,1,1:1
5:2  4,1:3  3,2:1  3,1,1:1
6:1  5,1:4  4,2:3  4,1,1:3  3,3:1  3,2,1:2  3,1,1,1:1
5:5  4,1:10  3,2:6  3,1,1:6  2,2,1:2  2,1,1,1:1
6:4  5,1:11  4,2:13  4,1,1:13  3,3:5  3,2,1:12  3,1,1,1:6  2,2,2:2  2,2,1,1:3  2,1,1,1,1:1

A:6 perm
6:1
5:1
6:1  5,1:1
5:2  4,1:1
6:2  5,1:3  4,2:1  4,1,1:1
5:5  4,1:5  3,2:1  3,1,1+:1  3,1,1-:1
6:5  5,1:10  4,2:6  4,1,1:7  3,3:1  3,2,1+:2  3,2,1-:2
5:15  4,1:23  3,2:11  3,1,1+:9  3,1,1-:9
6:15  5,1:38  4,2:34  4,1,1:41  3,3:11  3,2,1+:20  3,2,1-:20

A:6 refl
6:1
5:1
6:0  5,1:1
5:1  4,1:1
6:1  5,1:1  4,2:1  4,1,1:1
5:2  4,1:3  3,2:1  3,1,1+:1  3,1,1-:1
6:1  5,1:4  4,2:3  4,1,1:4  3,3:1  3,2,1+:2  3,2,1-:2
5:5  4,1:11  3,2:8  3,1,1+:6  3,1,1-:6
6:4  5,1:12  4,2:16  4,1,1:19  3,3:7  3,2,1+:12  3,2,1-:12
"""


def run_golden():
    """Compare each reference tower against a rebuilt diagram.

    The rows both sides have are compared in order, then the row counts.
    Returns (suite name, passed, detail) triples, one per tower.
    """
    results = []
    for block in GOLDEN.strip().split("\n\n"):
        head, *lines = block.splitlines()
        pair, module = head.split()
        group, n = pair.split(":")
        cells = [[cell.rsplit(":", 1) for cell in line.split()] for line in lines]
        rows = [[(label, int(count)) for label, count in row] for row in cells]
        diagram = build_diagram(group, int(n), module, Fraction(len(rows) - 1, 2))
        problems = []
        for i, (want, row) in enumerate(zip(rows, diagram.rows)):
            got = [(format_label(lab), count) for lab, count in row]
            if got != want:
                problems.append(f"row {Fraction(i, 2)}: {got} != {want}")
        if len(diagram.rows) != len(rows):
            problems.append("row count mismatch")
        detail = problems[0] if problems else f"{len(diagram.rows)} rows"
        results.append((f"golden {head}", not problems, detail))
    return results


def run_oracle(n_max=6, k_max=4):
    """Replay the character oracle against the closed formulas.

    Sweeps both groups, both modules, n from 2 to n_max, and every integer
    and half-integer level up to k_max. Returns one triple per
    (group, module) suite. Before any suite runs, a window with no check is
    refused, and so is one whose work passes the oracle_work cap: its checks
    plus the character values the oracle will hold (labels times classes,
    the even ones for A, per group and label size), summed n by n as the
    label lists are built, one per group and label size, which every suite
    then reads. Each check costs one oracle and one kernel call; the
    largest window under the cap for each --n-max from 2 to 14, such as
    --n-max 2 --k-max 5498, runs in 0.4 to 1.2 s on a 2-core machine.
    """
    check_integers("oracle window: need integers n_max and k_max", n_max, k_max)
    if n_max < 2 or k_max < 0:
        raise ValueError(
            f"empty oracle window: need n_max >= 2 and k_max >= 0, got {n_max} and {k_max}"
        )
    labels = {}  # (group, label size): every label of that size, built once
    work = 0
    for n in range(2, n_max + 1):
        for group in GROUPS:
            for m in (n - 1, n):
                if (group, m) not in labels:
                    labels[group, m] = partitions_of(m) if group == "S" else alt_labels(m)
                    work += len(labels[group, m]) * len(conjugacy_classes(m, group == "A"))
            per_module = (k_max + 1) * len(labels[group, n]) + k_max * len(labels[group, n - 1])
            work += len(MODULES) * per_module
        check("oracle_work", work, f"oracle window too large: --n-max {n_max} --k-max {k_max} "
              f"needs {work} checks and character values up to n = {n}, above the cap of")
    results = []
    for group, module in product(GROUPS, MODULES):
        checks, problems = 0, []
        for n in range(2, n_max + 1):
            for twice in range(0, 2 * k_max + 1):
                ctx = GroupModuleContext(group, n, module, Fraction(twice, 2))
                for label in labels[group, ctx.label_size]:
                    expected = block_dimension(ctx, label)
                    got = multiplicity_oracle(ctx, label)
                    checks += 1
                    if expected != got:
                        problems.append(f"n={n} level={ctx.level} label={format_label(label)}: "
                                        f"formula {expected}, oracle {got}")
        detail = problems[0] if problems else f"{checks} checks"
        results.append((f"oracle {group} {module}", not problems, detail))
    return results


def run(scope="all", n_max=6, k_max=4):
    """Run the requested suites; returns the combined result triples."""
    if scope not in ("all", "golden", "oracle"):
        raise ValueError(f"unknown verify scope {scope!r}")
    # the oracle runs first, so that a window it refuses costs no tower
    results = run_oracle(n_max, k_max) if scope in ("all", "oracle") else []
    if scope in ("all", "golden"):
        results = run_golden() + results
    return results

"""Self-check suites behind the verify subcommand.

Two kinds of evidence, kept deliberately redundant with the test suite:

* golden: six reference towers with every subscript and every row's sum of
  squares written out, compared against freshly built diagrams.

* oracle: the character-theoretic multiplicity oracle replayed against the
  closed-form dimensions for every label, group, module, and level in a
  small window.
"""

from fractions import Fraction

from .bratteli import build_diagram, format_label, row_square_sum
from .dims import GroupModuleContext, block_dimension, labels_for
from .oracle import multiplicity_oracle

# Every subscript of the six reference towers. Rows are (label, count) in
# display order, keyed by level; totals are the per-row sums of squares.
GOLDEN = [
    {
        "name": "S:4 perm",
        "group": "S",
        "n": 4,
        "module": "perm",
        "max_level": Fraction(4),
        "rows": {
            "0": [("4", 1)],
            "1/2": [("3", 1)],
            "1": [("4", 1), ("3,1", 1)],
            "3/2": [("3", 2), ("2,1", 1)],
            "2": [("4", 2), ("3,1", 3), ("2,2", 1), ("2,1,1", 1)],
            "5/2": [("3", 5), ("2,1", 5), ("1,1,1", 1)],
            "3": [("4", 5), ("3,1", 10), ("2,2", 5), ("2,1,1", 6), ("1,1,1,1", 1)],
            "7/2": [("3", 15), ("2,1", 21), ("1,1,1", 7)],
            "4": [("4", 15), ("3,1", 36), ("2,2", 21), ("2,1,1", 28), ("1,1,1,1", 7)],
        },
        "totals": [1, 1, 2, 5, 15, 51, 187, 715, 2795],
    },
    {
        "name": "A:4 perm",
        "group": "A",
        "n": 4,
        "module": "perm",
        "max_level": Fraction(7, 2),
        "rows": {
            "0": [("4", 1)],
            "1/2": [("3", 1)],
            "1": [("4", 1), ("3,1", 1)],
            "3/2": [("3", 2), ("2,1+", 1), ("2,1-", 1)],
            "2": [("4", 2), ("3,1", 4), ("2,2+", 1), ("2,2-", 1)],
            "5/2": [("3", 6), ("2,1+", 5), ("2,1-", 5)],
            "3": [("4", 6), ("3,1", 16), ("2,2+", 5), ("2,2-", 5)],
            "7/2": [("3", 22), ("2,1+", 21), ("2,1-", 21)],
        },
        "totals": [1, 1, 2, 6, 22, 86, 342, 1366],
    },
    {
        "name": "S:6 perm",
        "group": "S",
        "n": 6,
        "module": "perm",
        "max_level": Fraction(4),
        "rows": {
            "0": [("6", 1)],
            "1/2": [("5", 1)],
            "1": [("6", 1), ("5,1", 1)],
            "3/2": [("5", 2), ("4,1", 1)],
            "2": [("6", 2), ("5,1", 3), ("4,2", 1), ("4,1,1", 1)],
            "5/2": [("5", 5), ("4,1", 5), ("3,2", 1), ("3,1,1", 1)],
            "3": [
                ("6", 5),
                ("5,1", 10),
                ("4,2", 6),
                ("4,1,1", 6),
                ("3,3", 1),
                ("3,2,1", 2),
                ("3,1,1,1", 1),
            ],
            "7/2": [
                ("5", 15),
                ("4,1", 22),
                ("3,2", 9),
                ("3,1,1", 9),
                ("2,2,1", 2),
                ("2,1,1,1", 1),
            ],
            "4": [
                ("6", 15),
                ("5,1", 37),
                ("4,2", 31),
                ("4,1,1", 31),
                ("3,3", 9),
                ("3,2,1", 20),
                ("3,1,1,1", 10),
                ("2,2,2", 2),
                ("2,2,1,1", 3),
                ("2,1,1,1,1", 1),
            ],
        },
        "totals": [1, 1, 2, 5, 15, 52, 203, 876, 4111],
    },
    {
        "name": "S:6 refl",
        "group": "S",
        "n": 6,
        "module": "refl",
        "max_level": Fraction(4),
        "rows": {
            "0": [("6", 1)],
            "1/2": [("5", 1)],
            "1": [("6", 0), ("5,1", 1)],
            "3/2": [("5", 1), ("4,1", 1)],
            "2": [("6", 1), ("5,1", 1), ("4,2", 1), ("4,1,1", 1)],
            "5/2": [("5", 2), ("4,1", 3), ("3,2", 1), ("3,1,1", 1)],
            "3": [
                ("6", 1),
                ("5,1", 4),
                ("4,2", 3),
                ("4,1,1", 3),
                ("3,3", 1),
                ("3,2,1", 2),
                ("3,1,1,1", 1),
            ],
            "7/2": [
                ("5", 5),
                ("4,1", 10),
                ("3,2", 6),
                ("3,1,1", 6),
                ("2,2,1", 2),
                ("2,1,1,1", 1),
            ],
            "4": [
                ("6", 4),
                ("5,1", 11),
                ("4,2", 13),
                ("4,1,1", 13),
                ("3,3", 5),
                ("3,2,1", 12),
                ("3,1,1,1", 6),
                ("2,2,2", 2),
                ("2,2,1,1", 3),
                ("2,1,1,1,1", 1),
            ],
        },
        "totals": [1, 1, 1, 2, 4, 15, 41, 202, 694],
    },
    {
        "name": "A:6 perm",
        "group": "A",
        "n": 6,
        "module": "perm",
        "max_level": Fraction(4),
        "rows": {
            "0": [("6", 1)],
            "1/2": [("5", 1)],
            "1": [("6", 1), ("5,1", 1)],
            "3/2": [("5", 2), ("4,1", 1)],
            "2": [("6", 2), ("5,1", 3), ("4,2", 1), ("4,1,1", 1)],
            "5/2": [
                ("5", 5),
                ("4,1", 5),
                ("3,2", 1),
                ("3,1,1+", 1),
                ("3,1,1-", 1),
            ],
            "3": [
                ("6", 5),
                ("5,1", 10),
                ("4,2", 6),
                ("4,1,1", 7),
                ("3,3", 1),
                ("3,2,1+", 2),
                ("3,2,1-", 2),
            ],
            "7/2": [
                ("5", 15),
                ("4,1", 23),
                ("3,2", 11),
                ("3,1,1+", 9),
                ("3,1,1-", 9),
            ],
            "4": [
                ("6", 15),
                ("5,1", 38),
                ("4,2", 34),
                ("4,1,1", 41),
                ("3,3", 11),
                ("3,2,1+", 20),
                ("3,2,1-", 20),
            ],
        },
        "totals": [1, 1, 2, 5, 15, 53, 219, 1037, 5427],
    },
    {
        "name": "A:6 refl",
        "group": "A",
        "n": 6,
        "module": "refl",
        "max_level": Fraction(4),
        "rows": {
            "0": [("6", 1)],
            "1/2": [("5", 1)],
            "1": [("6", 0), ("5,1", 1)],
            "3/2": [("5", 1), ("4,1", 1)],
            "2": [("6", 1), ("5,1", 1), ("4,2", 1), ("4,1,1", 1)],
            "5/2": [
                ("5", 2),
                ("4,1", 3),
                ("3,2", 1),
                ("3,1,1+", 1),
                ("3,1,1-", 1),
            ],
            "3": [
                ("6", 1),
                ("5,1", 4),
                ("4,2", 3),
                ("4,1,1", 4),
                ("3,3", 1),
                ("3,2,1+", 2),
                ("3,2,1-", 2),
            ],
            "7/2": [
                ("5", 5),
                ("4,1", 11),
                ("3,2", 8),
                ("3,1,1+", 6),
                ("3,1,1-", 6),
            ],
            "4": [
                ("6", 4),
                ("5,1", 12),
                ("4,2", 16),
                ("4,1,1", 19),
                ("3,3", 7),
                ("3,2,1+", 12),
                ("3,2,1-", 12),
            ],
        },
        "totals": [1, 1, 1, 2, 4, 16, 51, 282, 1114],
    },
]


def _level_text(i):
    return str(Fraction(i, 2))


def run_golden():
    """Compare each reference tower against a rebuilt diagram.

    Returns (suite name, passed, detail) triples, one per tower.
    """
    results = []
    for table in GOLDEN:
        diagram = build_diagram(
            table["group"], table["n"], table["module"], table["max_level"]
        )
        problems = []
        checked = 0
        for i, row in enumerate(diagram.rows):
            got = [(format_label(lab), count) for lab, count in row]
            want = table["rows"][_level_text(i)]
            if got != want:
                problems.append(f"row {_level_text(i)}: {got} != {want}")
            total = row_square_sum(row)
            if total != table["totals"][i]:
                problems.append(
                    f"square sum at {_level_text(i)}: {total} != {table['totals'][i]}"
                )
            checked += 1
        if len(diagram.rows) != len(table["totals"]):
            problems.append("row count mismatch")
        detail = problems[0] if problems else f"{checked} rows"
        results.append((f"golden {table['name']}", not problems, detail))
    return results


def run_oracle(n_max=6, k_max=4):
    """Replay the character oracle against the closed formulas.

    Sweeps both groups, both modules, n from 2 to n_max, and every integer
    and half-integer level up to k_max. Returns one triple per
    (group, module) suite.
    """
    results = []
    for group in ("S", "A"):
        for module in ("perm", "refl"):
            checks = 0
            problems = []
            for n in range(2, n_max + 1):
                for twice in range(0, 2 * k_max + 1):
                    ctx = GroupModuleContext(group, n, module, Fraction(twice, 2))
                    for label in labels_for(ctx):
                        expected = block_dimension(ctx, label)
                        got = multiplicity_oracle(ctx, label)
                        checks += 1
                        if expected != got:
                            problems.append(
                                f"n={n} level={ctx.level} label="
                                f"{format_label(label)}: formula {expected}, "
                                f"oracle {got}"
                            )
            detail = problems[0] if problems else f"{checks} checks"
            results.append((f"oracle {group} {module}", not problems, detail))
    return results


def run(scope="all", n_max=6, k_max=4):
    """Run the requested suites; returns the combined result triples."""
    if scope not in ("all", "golden", "oracle"):
        raise ValueError(f"unknown verify scope {scope!r}")
    results = []
    if scope in ("all", "golden"):
        results.extend(run_golden())
    if scope in ("all", "oracle"):
        results.extend(run_oracle(n_max, k_max))
    return results

"""Seeded request lists for the two benchmark workloads.

Everything here is plain stdlib code that shares nothing with centdim: the
requests are generated, and their path counts predicted, without calling the
program under test. The same seed always gives the same list.

The draws are stratified so that two seeds give requests of similar cost,
both in total and in the tail that sets the 90th percentile: the seed picks
levels inside fixed bands, walk vertices inside fixed bands of path counts,
labels, formats and (where it costs nothing) the order, while the families
and sizes that decide the cost rotate through fixed lists.
"""

import json
import random
from fractions import Fraction

WORKLOADS = ("tower-walk", "cli-cold")
CAP_S = 30.0  # per request; a runaway request is recorded as failed

# (group, module, half level) for all eight dimension families.
FAMILIES = [(g, m, h) for g in "SA" for m in ("perm", "refl") for h in (False, True)]
GROUP_MODULES = [(g, m) for g in "SA" for m in ("perm", "refl")]


# --- bench-side combinatorics -------------------------------------------------


def partitions(n, cap=None):
    """All partitions of n in decreasing lexicographic order."""
    cap = n if cap is None else cap
    if n == 0:
        return [()]
    out = []
    for first in range(min(n, cap), 0, -1):
        out.extend((first,) + rest for rest in partitions(n - first, first))
    return out


def conjugate(lam):
    return tuple(sum(1 for p in lam if p > c) for c in range(lam[0])) if lam else ()


def alt_labels(m):
    """Labels of A_m as text: conjugate pairs once, self-conjugate ones split."""
    out = []
    for lam in partitions(m):
        star = conjugate(lam)
        text = ",".join(map(str, lam)) if lam else "empty"
        if lam == star and m >= 2:
            out += [text + "+", text + "-"]
        elif lam >= star:
            out.append(text)
    return out


def sym_labels(m):
    return [",".join(map(str, lam)) if lam else "empty" for lam in partitions(m)]


def removable(lam):
    """Shapes one cell smaller."""
    out = []
    for i, part in enumerate(lam):
        if part > (lam[i + 1] if i + 1 < len(lam) else 0):
            out.append(tuple(p for p in lam[:i] + (part - 1,) + lam[i + 1 :] if p))
    return out


def addable(lam):
    """Shapes one cell larger."""
    out = []
    for i in range(len(lam) + 1):
        here = lam[i] if i < len(lam) else 0
        if i == 0 or lam[i - 1] > here:
            out.append(lam[:i] + (here + 1,) + lam[i + 1 :])
    return out


def walk_counts(n, level):
    """Paths from (n) to every vertex of the S perm tower row at an integer
    level, by the Pascal rule on shapes: remove a cell, then add one."""
    row = {(n,): 1}
    for _ in range(level):
        half = {}
        for lam, c in row.items():
            for mu in removable(lam):
                half[mu] = half.get(mu, 0) + c
        row = {}
        for mu, c in half.items():
            for lam in addable(mu):
                row[lam] = row.get(lam, 0) + c
    return row


def random_walk(rng, n, k):
    """A uniformly stepped walk of the S perm tower: k remove/add pairs."""
    shapes = [(n,)]
    for _ in range(k):
        shapes.append(rng.choice(removable(shapes[-1])))
        shapes.append(rng.choice(addable(shapes[-1])))
    return shapes


def level_text(k, half):
    return str(Fraction(2 * k + (1 if half else 0), 2))


def random_label(rng, group, m):
    return rng.choice(sym_labels(m) if group == "S" else alt_labels(m))


# --- workloads ----------------------------------------------------------------


# Walk vertices are drawn among those with a path count in this band, so one
# walk costs between about 0.03 s and 0.3 s of round trips.
WALK_PATHS = (100, 1000)


def tower_walk(seed):
    """Build requests ("build", group, module, n, top, fmt) and walk requests
    ("walk", n, level, label, paths), interleaved.

    Builds cover the four (group, module) pairs at n = 8..16, twice each, at
    top levels that rotate with n from 2 up to 10 for S and 8 for A (which
    keeps one build under about half a second). The top levels are fixed:
    a build's cost grows steeply with its top level, and drawing it from the
    seed moved the pass time by a fifth between seeds. The seed picks the
    export formats and the order. Walks cover the S perm towers n = 5..8 at
    levels 4..7, three vertices each, drawn from the seed.
    """
    rng = random.Random(seed)
    reqs = []
    for gi, (group, module) in enumerate(GROUP_MODULES):
        top_max = 10 if group == "S" else 8
        for n in range(8, 17):
            for rep in range(2):
                top = min(n, 2 + (n + gi + 4 * rep) % (top_max - 1))
                reqs.append(("build", group, module, n, top, rng.choice(("text", "json", "dot"))))
    for n in range(5, 9):
        for level in range(4, 8):
            counts = walk_counts(n, level)
            lo, hi = WALK_PATHS
            pool = sorted((c, lam) for lam, c in counts.items() if lo <= c <= hi)
            if not pool:
                pool = [min((abs(c - lo), lam) for lam, c in counts.items())]
            # one vertex from each third of the pool ordered by path count
            thirds = [pool[j * len(pool) // 3:(j + 1) * len(pool) // 3] for j in range(3)]
            for third in filter(None, thirds):
                lam = rng.choice(third)[1]
                reqs.append(("walk", n, level, lam, counts[lam]))
    rng.shuffle(reqs)
    return reqs


def cli_cold(seed):
    """Requests (kind, argv, expect) for one `centdim` process each.

    kind names the check: "dim", "decompose", "bratteli", "to-pair",
    "to-path", "verify", "deep" (a level of hundreds or thousands, checked
    against the oracle) or "malformed" (expect is the exit code, 2 or 3).
    Families and sizes rotate through fixed lists, so the tail of the
    latency distribution holds the same kinds of request for every seed;
    the seed draws levels, labels, formats, walks and the order.
    """
    rng = random.Random(seed)
    reqs = []

    def family_n(i, count, shift=0):
        group, module, half = FAMILIES[(i + shift) % len(FAMILIES)]
        return group, module, half, 4 + i * 9 // count  # n runs over 4..12

    for i in range(22):
        group, module, half, n = family_n(i, 22)
        level = level_text(rng.randint(0, 7), half)
        label = random_label(rng, group, n - 1 if half else n)
        reqs.append(("dim", ["dim", "--group", group, "--module", module, "--n", str(n),
                             "--k", level, "--lambda", label], 0))
    for i in range(22):
        group, module, half, n = family_n(i, 22, shift=3)
        fmt = rng.choice(("text", "json", "csv"))
        reqs.append(("decompose", ["decompose", "--group", group, "--module", module,
                                   "--n", str(n), "--k", level_text(rng.randint(0, 7), half),
                                   "--format", fmt], 0))
    for i in range(16):
        group, module = GROUP_MODULES[i % 4]
        n = 4 + i * 9 // 16
        top = rng.randint(4, 6) if n <= 8 else rng.randint(3, 5)
        top_text = level_text(top, False) if i % 3 else level_text(top - 1, True)
        fmt = rng.choice(("text", "json", "dot"))
        reqs.append(("bratteli", ["bratteli", "--pair", f"{group}:{n}", "--module", module,
                                  "--levels", top_text, "--format", fmt], 0))
    for i in range(16):
        n, k = rng.randint(4, 8), rng.randint(1, 6)
        if i % 2 == 0:
            doc = {"path": [list(s) for s in random_walk(rng, n, k)]}
            reqs.append(("to-pair", ["bijection", "--n", str(n), "--direction", "to-pair",
                                     "--input", _json(doc)], 0))
        else:
            blocks, tableau = random_pair(rng, n, k)
            doc = {"setPartition": [list(b) for b in blocks], "tableau": [list(r) for r in tableau]}
            reqs.append(("to-path", ["bijection", "--n", str(n), "--direction", "to-path",
                                     "--input", _json(doc)], 0))
    for _ in range(3):
        reqs.append(("verify", ["verify", "--scope", "golden"], 0))
    for n_max in (6, 7, 8):
        reqs.append(("verify", ["verify", "--scope", "oracle", "--n-max", str(n_max),
                                "--k-max", str(rng.randint(2, 3))], 0))
    # Deep levels: the perm requests recurse once per level and pass the
    # interpreter's recursion limit; the refl requests walk up the levels one
    # at a time and stay cheap below 800.
    for i in range(6):
        group, half = rng.choice("SA"), rng.random() < 0.5
        module = ("perm", "refl")[i % 2]
        n = rng.randint(4, 6)
        level = level_text(rng.randint(600, 2000) if module == "perm" else rng.randint(200, 800), half)
        reqs.append(("deep", ["dim", "--group", group, "--module", module, "--n", str(n),
                              "--k", level, "--lambda", random_label(rng, group, n - 1 if half else n)], 0))
    reqs.extend(MALFORMED)
    rng.shuffle(reqs)
    return reqs


# Inputs the CLI must reject with its documented exit code and one line on
# stderr: 2 for a literal it cannot read, 3 for a readable but invalid value.
MALFORMED = [
    ("malformed", ["dim", "--group", "S", "--module", "perm", "--n", "5", "--k", "x", "--lambda", "5"], 2),
    ("malformed", ["dim", "--group", "S", "--module", "perm", "--n", "5", "--k", "1/3", "--lambda", "5"], 2),
    ("malformed", ["dim", "--group", "S", "--module", "perm", "--n", "5", "--k", "2", "--lambda", "3,x"], 2),
    ("malformed", ["dim", "--group", "S", "--module", "perm", "--n", "5", "--k", "2", "--lambda", "3,1"], 3),
    ("malformed", ["dim", "--group", "A", "--module", "perm", "--n", "4", "--k", "2", "--lambda", "2,1,1"], 3),
    ("malformed", ["dim", "--group", "A", "--module", "refl", "--n", "4", "--k", "2", "--lambda", "2,2"], 3),
    ("malformed", ["decompose", "--group", "S", "--module", "perm", "--n", "0", "--k", "2"], 3),
    ("malformed", ["bratteli", "--pair", "Q:4", "--module", "perm", "--levels", "2"], 2),
    ("malformed", ["bratteli", "--pair", "S:x", "--module", "perm", "--levels", "2"], 2),
    ("malformed", ["bratteli", "--pair", "A:3", "--module", "perm", "--levels", "2"], 3),
    ("malformed", ["bijection", "--n", "3", "--direction", "to-pair", "--input", "{"], 2),
    ("malformed", ["bijection", "--n", "3", "--direction", "to-pair", "--input", '{"path": [[3], [3]]}'], 3),
]


def random_pair(rng, n, k):
    """A random (set partition of 1..k with at most n blocks, tableau) pair.

    The tableau is built by row insertion of the n - t zeros and t block
    maxima in random order, which always gives a semistandard filling.
    """
    while True:
        blocks = []
        for i in range(1, k + 1):
            j = rng.randint(0, len(blocks))
            if j == len(blocks):
                blocks.append([i])
            else:
                blocks[j].append(i)
        if len(blocks) <= n:
            break
    values = [0] * (n - len(blocks)) + [b[-1] for b in blocks]
    rng.shuffle(values)
    rows = []
    for v in values:
        for row in rows:
            j = next((j for j, x in enumerate(row) if x > v), None)
            if j is None:
                row.append(v)
                break
            row[j], v = v, row[j]
        else:
            rows.append([v])
    return [tuple(b) for b in blocks], [tuple(r) for r in rows]


def _json(doc):
    return json.dumps(doc, separators=(",", ":"))


def requests(workload, seed):
    if workload == "tower-walk":
        return tower_walk(seed)
    if workload == "cli-cold":
        return cli_cold(seed)
    raise ValueError(f"unknown workload {workload!r}")

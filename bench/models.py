"""Seeded finite-model files for the ``oracle`` workload.

Each family is a fixed group and subgroup chain that satisfies the model
preconditions (levels strictly descending and normal in K, bottom normal
in the whole group).  The seed relabels points or table indices and
shuffles generator order, so every seed gives different files with the
same structure and the same amount of brute-force work.
"""

from __future__ import annotations

import random
from pathlib import Path

# name: (points, gens, K, levels); cycles are 1-based, "-" is trivial
PERM_FAMILIES = {
    # S5 > S4 > A4 > V4 > 1: order 120, the largest and costliest family
    "s5": (5, ["(1 2)", "(1 2 3 4 5)"], ["(1 2)", "(1 2 3 4)"],
           [["(1 2 3)", "(2 3 4)"], ["(1 2)(3 4)", "(1 3)(2 4)"], []]),
    "a5": (5, ["(1 2 3)", "(1 2 3 4 5)"], ["(1 2 3)", "(2 3 4)"],
           [["(1 2)(3 4)", "(1 3)(2 4)"], []]),
    "s3xs3": (6, ["(1 2)", "(1 2 3)", "(4 5)", "(4 5 6)"], ["(1 2)", "(1 2 3)"],
              [["(1 2 3)"], []]),
    "d8": (8, ["(1 2 3 4 5 6 7 8)", "(2 8)(3 7)(4 6)"], ["(1 2 3 4 5 6 7 8)"],
           [["(1 3 5 7)(2 4 6 8)"], ["(1 5)(2 6)(3 7)(4 8)"], []]),
    "s4d8": (4, ["(1 2)", "(1 2 3 4)"], ["(1 3)", "(1 2 3 4)"],
             [["(1 2)(3 4)", "(1 3)(2 4)"]]),
}

# name: (kind, n, ladder); cyclic levels are generated by the ladder's
# divisors, dihedral levels by powers of the rotation
TABLE_FAMILIES = {
    "z24": ("cyclic", 24, [2, 4, 12]),
    "z32": ("cyclic", 32, [2, 4, 8, 16]),
    "dih12": ("dihedral", 12, [2, 6]),
}


def _relabel_cycles(text: str, sigma) -> str:
    body = text.strip("()")
    cycles = body.split(")(")
    return "".join(
        "(" + " ".join(str(sigma[int(v) - 1] + 1) for v in cyc.split()) + ")"
        for cyc in cycles
    )


def _gen_list(items, sigma, rng) -> str:
    if not items:
        return "-"
    out = [_relabel_cycles(g, sigma) for g in items]
    rng.shuffle(out)
    return ", ".join(out)


def perm_model_text(family: str, name: str, rng) -> str:
    points, gens, K, levels = PERM_FAMILIES[family]
    sigma = list(range(points))
    rng.shuffle(sigma)
    lines = [
        f"# generated: family {family}, points relabelled by {sigma}",
        f"name: {name}",
        "kind: perm",
        f"points: {points}",
        f"gens: {_gen_list(gens, sigma, rng)}",
        f"K: {_gen_list(K, sigma, rng)}",
    ]
    lines += [f"level: {_gen_list(level, sigma, rng)}" for level in levels]
    return "\n".join(lines) + "\n"


def _table(kind: str, n: int):
    """(multiplication table, K generators) of Z_n or the dihedral group D_n."""
    if kind == "cyclic":
        return [[(i + j) % n for j in range(n)] for i in range(n)], [1]
    # dihedral of order 2n: index r*2 + f is rotation^r then flip^f
    def mul(x, y):
        r1, f1 = divmod(x, 2)
        r2, f2 = divmod(y, 2)
        r = (r1 + (-r2 if f1 else r2)) % n
        return r * 2 + (f1 ^ f2)
    return [[mul(i, j) for j in range(2 * n)] for i in range(2 * n)], [2]


def table_model_text(family: str, name: str, rng) -> str:
    kind, n, ladder = TABLE_FAMILIES[family]
    table, K = _table(kind, n)
    size = len(table)
    # level generators: step itself in Z_n, rotation^step (index 2*step) in D_n
    levels = [[step if kind == "cyclic" else 2 * step] for step in ladder]
    levels.append([])
    pi = list(range(size))
    rng.shuffle(pi)
    relabelled = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(size):
            relabelled[pi[i]][pi[j]] = pi[table[i][j]]

    def gens(items):
        return ", ".join(f"#{pi[g]}" for g in items) if items else "-"

    lines = [
        f"# generated: family {family}, indices relabelled",
        f"name: {name}",
        "kind: table",
        f"order: {size}",
    ]
    lines += ["row: " + " ".join(map(str, row)) for row in relabelled]
    lines.append(f"K: {gens(K)}")
    lines += [f"level: {gens(level)}" for level in levels]
    return "\n".join(lines) + "\n"


def write_models(directory: Path, seed: int, counts: dict) -> list[Path]:
    """Write ``counts[family]`` seeded variants of each family; return paths."""
    directory.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"models:{seed}")
    paths = []
    for family, count in counts.items():
        for i in range(count):
            name = f"{family}_{seed}_{i}"
            if family in PERM_FAMILIES:
                text = perm_model_text(family, name, rng)
            else:
                text = table_model_text(family, name, rng)
            path = directory / f"{name}.model"
            path.write_text(text, encoding="utf-8")
            paths.append(path)
    return paths

"""The one list of test pairs, and three exact checks of the chain levels.

    python tests/contract.py

Every parametrized instance or model test reads ``PAIRS``: the instances
that ``instances`` lists, then ``z4``, ``z6``,
``z618970019642690137449562111`` (2**89 - 1, a prime past
``PRIME_LIMIT``, so the chain walk answers its ``level_of`` as on
composite bases and ``zfact``) and ``sl2:5``, then every shipped model in
sorted order; ``MODEL_PAIRS`` is its finite models.  A new instance that
``instances`` lists joins by itself, and any other adds its name here.  A
test selects pairs by what a pair already says: ``constant_conj_cost``,
``max_depth``, its class, ``pair.model.corrupt``.

Every derived depth rests on two hypotheses: ``level_generators(d)``
generates N_d topologically, and each N_d is normal in K = N_0.  The
checks below test both exactly, reading only ``level_generators``,
``in_level``, ``level_rep`` and ``level_index``, never the samplers that
are built from the generators.  Each yields ``((d, e), message)`` per
failure, d the coarser level and e the finer.  Run as a script, this file
runs them on every pair, prints one line per failure and exits 1 when
there is one; it needs only the standard library.
"""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODELS = ROOT / "models"

if __name__ == "__main__":  # run as a script: import the package from this checkout
    sys.path.insert(0, str(ROOT / "src"))

from commensurate import FiniteModelPair, finite_model_pair, load_model  # noqa: E402
from commensurate.registry import builtin_instances, resolve_instance  # noqa: E402

PAIRS = [
    *builtin_instances(),
    *map(resolve_instance, ("z4", "z6", "z618970019642690137449562111", "sl2:5")),
    *(finite_model_pair(load_model(path)) for path in sorted(MODELS.glob("*.model"))),
]
MODEL_PAIRS = [pair for pair in PAIRS if isinstance(pair, FiniteModelPair)]


def pair_named(name):
    """The listed pair called ``name``."""
    return next(pair for pair in PAIRS if pair.name == name)


def corrupt(pair):
    """Whether ``pair`` is a model whose conj_depth is wrong on purpose."""
    return isinstance(pair, FiniteModelPair) and pair.model.corrupt


#: nesting and normality are checked at levels 0 to DEPTHS - 1
DEPTHS = 8
#: generation skips any (d, e) whose N_d has more cosets of N_e than this
COSET_CAP = 5000


def _levels(pair, count):
    """Depths 0 to count - 1, stopping at the bottom level."""
    return range(count if pair.max_depth is None else min(count, pair.max_depth + 1))


def nesting(pair):
    """Each generator of N_(d+1) lies in N_d."""
    for e in _levels(pair, DEPTHS)[1:]:
        for s in pair.level_generators(e):
            if not pair.in_level(s, e - 1):
                yield (e - 1, e), f"generator {pair.format_element(s)} is not in N_{e - 1}"


def normality(pair):
    """k·s·k⁻¹ lies in N_d for each generator k of K and s of N_d."""
    ks = [(k, pair.inv(k)) for k in pair.level_generators(0)]
    for d in _levels(pair, DEPTHS):
        for s in pair.level_generators(d):
            for k, k_inv in ks:
                if not pair.in_level(pair.mul(pair.mul(k, s), k_inv), d):
                    k_text, s_text = pair.format_element(k), pair.format_element(s)
                    yield (0, d), f"{k_text} conjugates {s_text} out of N_{d}"


def generation(pair):
    """The generators of N_d and their inverses reach all
    index(e) // index(d) cosets of N_e in N_d, for d <= 2 and
    d < e <= d + 2: a breadth-first search keyed by level_rep(., e)."""
    for d in _levels(pair, 3):
        gens = pair.level_generators(d)
        steps = [*gens, *map(pair.inv, gens)]
        for e in _levels(pair, d + 3)[d + 1:]:
            want = pair.level_index(e) // pair.level_index(d)
            if want > COSET_CAP:
                continue
            seen = {pair.level_rep(pair.identity, e)}
            frontier = [pair.identity]
            while frontier and len(seen) <= want:
                reached = [pair.mul(x, s) for x in frontier for s in steps]
                frontier = []
                for y in reached:
                    key = pair.level_rep(y, e)
                    if key not in seen:
                        seen.add(key)
                        frontier.append(y)
            if len(seen) != want:
                yield (d, e), f"the generators of N_{d} reach {len(seen)} of {want} cosets of N_{e}"


CHECKS = (nesting, normality, generation)


def main() -> int:
    failures = 0
    for pair in PAIRS:
        for check in CHECKS:
            for (d, e), message in check(pair):
                print(f"{pair.name}: {check.__name__} at (d, e) = ({d}, {e}): {message}")
                failures += 1
    print(f"{len(PAIRS)} pairs, {failures} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

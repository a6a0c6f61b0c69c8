"""Single-request timings for the cases listed in ROADMAP open item 1.

Usage: python3 bench/spot.py [--repeats N]

Each case is built as a request of the ``deep``, ``words`` or ``oracle``
workload (or, for group operations, a direct ``pair.mul`` loop), run
through the same runner the benchmark uses, checked, and timed; the
median of N repeats is printed in milliseconds.
"""

from __future__ import annotations

import argparse
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _median_ms(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times) * 1000.0


def deep_case(instance, op, x, d1, y=None, d2=0, expect=None):
    import deep

    runner = deep.Runner()
    req = deep.Request(instance, op, x, d1, y, d2, expect=expect)
    (job,) = runner.prepare([req])

    def run():
        if not runner.check([req], 0, runner.execute(job)):
            raise AssertionError(f"wrong result for {req}")

    return run


def cli_case(argv, want_code=0):
    import words

    runner = words.Runner()

    def run():
        code = runner.execute(argv)[0]
        if code != want_code:
            raise AssertionError(f"{argv}: exit {code}")

    return run


def mul_loop(instance, x, y, n=1000):
    from commensurate.registry import resolve_instance

    pair = resolve_instance(instance)
    x, y = (pair.parse_literal(v) for v in (x, y))

    def run():
        for _ in range(n):
            pair.mul(x, y)

    return run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    import os

    os.chdir(ROOT)
    one, zero = Fraction(1), Fraction(0)
    u, h = (one, one, zero, one), (Fraction(3), zero, zero, Fraction(1, 3))
    a, t = (one, 0), (zero, 1)
    x = 123456789
    cases = [
        ("z2 valuation, depth 512", "0.5 ms",
         deep_case("z2", "valuation", x, 512, x, 512, expect=(512, True))),
        ("z2 valuation, depth 4096", "15 ms",
         deep_case("z2", "valuation", x, 4096, x, 4096, expect=(4096, True))),
        ("zfact valuation, depth 256", "2.4 ms",
         deep_case("zfact", "valuation", x, 256, x, 256, expect=(256, True))),
        ("sl2:3 embed(u,2)*embed(h,65536)", "184 ms",
         deep_case("sl2:3", "mul", u, 2, h, 65536, expect=((Fraction(3), Fraction(1, 3), zero, Fraction(1, 3)), 0))),
        ("bs12 embed(a,2)*embed(t,65536)", "12 ms",
         deep_case("bs12", "mul", a, 2, t, 65536, expect=((one, 1), 1))),
        ("bs12 a^100000 (exact power)", "810 ms",
         cli_case(["eval", "bs12", "a^100000", "--depth", "4"])),
        ("bs12 inv(embed(a))^1000", "11 ms",
         cli_case(["eval", "bs12", "inv(embed(a))^1000", "--depth", "4"])),
        ("sl2:2 pair.mul x 1000", "32 ms",
         mul_loop("sl2:2", "[[3,4],[2,3]]", "[[1,1/2],[-2,0]]")),
        ("bs12 pair.mul x 1000", "7 ms",
         mul_loop("bs12", "(3/4; 2)", "(5/2; -1)")),
        ("oracle s4, 200 trials", "18 ms",
         cli_case(["oracle", "models/s4.model", "--trials", "200"])),
    ]
    print(f"{'case':<36} {'median ms':>10}  {'ROADMAP':>8}")
    for name, roadmap, fn in cases:
        fn()  # warm-up, and a failed check stops the run here
        print(f"{name:<36} {_median_ms(fn, args.repeats):>10.2f}  {roadmap:>8}", flush=True)
    imports = [
        float(subprocess.run(
            [sys.executable, "-c", "import sys, time; sys.path.insert(0, 'src'); "
             "t = time.perf_counter(); import commensurate.cli; print(time.perf_counter() - t)"],
            capture_output=True, text=True, check=True, cwd=ROOT,
        ).stdout)
        for _ in range(args.repeats + 1)
    ][1:]
    print(f"{'import commensurate.cli':<36} {statistics.median(imports) * 1000:>10.2f}  {'61 ms':>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

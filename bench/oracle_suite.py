"""The ``oracle`` workload: ``commensurate oracle`` on shipped and generated models.

Each request calls the in-process ``cli.entry(["oracle", model, ...])``
with a seeded ``COMMENSURATE_SEED``.  Brute-force set arithmetic and the
cached brute-force ``conj_depth`` over integer table operations
dominate; ``Fraction`` and bigint work is absent.  A batch mixes the
four shipped models with seeded relabellings of the families in
``models``, in fixed proportions: the order-120 S5 family is 4 of the
23 requests, so the 90th latency percentile lies inside it and the
median inside the small models rather than on a boundary between them.
Every set-up probe and every request loads the files, so each must pass
``load_model``'s chain checks.

Sound models must report 0 mismatches and exit 0; ``s4_corrupt.model``
must report mismatches and exit 1.
"""

from __future__ import annotations

import io
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import models

SHIPPED = ("models/s4.model", "models/s4_d8.model", "models/z8.model")
CORRUPT = "models/s4_corrupt.model"
# requests per batch of each generated family
FAMILY_COUNTS = {"s5": 4, "a5": 1, "z24": 1, "z32": 1, "d8": 2, "s4d8": 2, "s3xs3": 2, "dih12": 2}
SHIPPED_COUNT = 2


@dataclass
class Request:
    model: str
    trials: int
    env_seed: int
    json: bool
    corrupt: bool


class Workload:
    """Model files of one run, written once under the benchmark's directory."""

    def __init__(self, root: Path, out_dir: Path, seed: int, tiny: bool):
        self.seed = seed
        self.shipped_count = 1 if tiny else SHIPPED_COUNT
        counts = {"d8": 1, "dih12": 1} if tiny else FAMILY_COUNTS
        generated = models.write_models(out_dir / "models", seed, counts)
        self.models = [str(p.relative_to(root)) for p in generated]

    def setup_names(self) -> list[str]:
        return [f"model:{m}" for m in list(SHIPPED) + [CORRUPT] + self.models]

    def generate(self, batch: int) -> list[Request]:
        rng = random.Random(f"oracle:{self.seed}:{batch}")
        # trial counts depend on the batch and the pick, not on the seed, so
        # seeds differ in labels and random trials but not in request sizes
        sizes = random.Random(f"oracle-trials:{batch}")
        picks = [(m, False) for m in self.models]
        picks += [(m, False) for m in SHIPPED for _ in range(self.shipped_count)]
        picks += [(CORRUPT, True)] * self.shipped_count
        out = [
            Request(m, sizes.randrange(50, 301), rng.randrange(1 << 30), rng.random() < 0.25, bad)
            for m, bad in picks
        ]
        rng.shuffle(out)
        return out


class Runner:
    def __init__(self):
        from commensurate import cli

        self.cli = cli
        self.out_bytes = 0

    @staticmethod
    def prepare(requests: list[Request]) -> list:
        return requests

    def execute(self, req: Request):
        argv = ["oracle", req.model, "--trials", str(req.trials)]
        if req.json:
            argv.append("--json")
        os.environ["COMMENSURATE_SEED"] = str(req.env_seed)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = self.cli.entry(argv)
        return code, out.getvalue(), err.getvalue()

    def check(self, requests: list[Request], index: int, result) -> bool:
        req = requests[index]
        code, out, err = result
        self.out_bytes += len(out.encode()) + len(err.encode())
        if err or code != (1 if req.corrupt else 0):
            return False
        if req.json:
            payload = json.loads(out)
            trials, mismatches = payload["trials"], len(payload["mismatches"])
        else:
            lines = out.splitlines()
            if not (lines[1].startswith("trials: ") and lines[2].startswith("mismatches: ")):
                return False
            trials, mismatches = int(lines[1][8:]), int(lines[2][12:])
        return trials == req.trials and (mismatches > 0 if req.corrupt else mismatches == 0)

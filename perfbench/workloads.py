"""The benchmark's workloads: which operations a pass runs, and how each output is checked.

A workload is a list of operations that makes up one *pass*.  The harness in
`run.py` runs whole passes in a closed loop (one client, the next operation
starts when the previous one returns).  Everything random comes from the
`--seed` argument: the order of operations in each pass, the probe seed
handed to `vtl verify`, and the random words.  Relation instances and
parameter points are fixed, so verify outputs can be pinned to
`reference.json`.

Why the random words have fixed cores: the cost of a word grows with the
number of diagrams its prefixes reach, and that varies by orders of magnitude
between random words of one length (4 s to 35 s for 15-letter words at n=6),
and by about 25% even between the ways of inverting half the rho letters of
one fixed word.  A seed-dependent cost would make `ops_per_s` a function of
the seed.  So each word is `p c`: a fixed core `c` over r_i, r_i^-1 and v_i,
mirrored (site i -> n - i) or not, after a prefix `p` of seeded random v_i.
Both choices leave the cost unchanged: mirroring is an automorphism of the
algebra, and multiplying by a permutation diagram maps diagrams one to one
without closing loops.  The trace check compares `p c` with its rotation
`c p`, which costs the same for the same reason.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# Parameter points of the verify workloads, as CLI flags (lambda, a, b, c).
VERIFY_POINTS = {
    "sqrt5": ("3", "1", "b_plus", "1"),  # scalars in Q(sqrt 5)
    "rational": ("5/2", "1", "2", "3"),
    "collapse": ("2", "1", "-1", "1"),  # loop value 2
}
DIAGRAM_PRESETS = ("vtl", "wtl", "utl", "brauer")
DIAGRAM_NS = (4, 6, 9)
# (n, d, b) of the matrix items; a = c = 1 and lambda = d.
MATRIX_ITEMS = ((4, 2, "-1"), (3, 3, "b_plus"))

# word_algebra: a = 1, b = b_plus, c = 1/2; lambda = 3 in the diagram rep.
WORD_PARAMS = ("--a", "1", "--b", "b_plus", "--c", "1/2")
WORD_LAMBDA = "3"
# (rep, n, d, core).  Between two letters on one site there is always a letter
# on a neighbouring site, so no r_i meets an r_i^-1 and cancels.
WORD_SHAPES = (
    ("diagram", 5, None, "r2 v1 r2^-1 r3 r1^-1 v2 r4 r1^-1 r3 r2^-1 r3"),
    ("diagram", 6, None, "r1 v3 r2^-1 r5 r4^-1 r5 r1^-1 r3 r4^-1 r5 v2"),
    ("matrix", 4, 2, "r1 r3^-1 r2 v1 r3^-1 r2 r1^-1 v3 r2 r3^-1"),
    ("matrix", 3, 3, "r1 r2^-1 v1 r2 r1^-1 v2 r1 r2^-1"),
)
PREFIX_LETTERS = 4

WORKLOADS = ("verify_diagram", "verify_matrix", "word_algebra")


@dataclass(frozen=True)
class Op:
    """One operation of a pass.

    `key` names the item independently of the seed (per-item timings and
    the reference use it); `argv` is handed to `vtl.cli.main`, or is None
    for the in-process `expand` cross-check.  Within a pass, the two trace
    operations of one `group` must give the same value.
    """

    key: str
    kind: str  # verify | eval | trace | expand
    argv: tuple[str, ...] | None
    group: str | None = None


def verify_ops(workload: str, seed: int) -> list[Op]:
    ops = []
    if workload == "verify_diagram":
        for preset in DIAGRAM_PRESETS:
            for n in DIAGRAM_NS:
                for point, (lam, a, b, c) in VERIFY_POINTS.items():
                    argv = (
                        "verify", "--rep", "diagram", "--format", "json",
                        "--algebra", preset, "--n", str(n), "--lambda", lam,
                        "--a", a, "--b", b, "--c", c, "--seed", str(seed),
                    )
                    ops.append(Op(f"{workload}/{preset}/n={n}/{point}", "verify", argv))
    else:
        for n, d, b in MATRIX_ITEMS:
            argv = (
                "verify", "--rep", "matrix", "--format", "json",
                "--algebra", "utl", "--n", str(n), "--dim", str(d),
                "--a", "1", "--b", b, "--c", "1", "--seed", str(seed),
            )
            ops.append(Op(f"{workload}/utl/n={n},d={d}", "verify", argv))
    return ops


def random_word(core: str, n: int, rng: random.Random) -> tuple[list[str], int]:
    """Draw `p c` for a core `c`; return the word and the length of `p`."""
    mirror = rng.random() < 0.5
    prefix = [f"v{rng.randint(1, n - 1)}" for _ in range(PREFIX_LETTERS)]
    word = []
    for token in core.split():
        inverse = "^-1" if token.endswith("^-1") else ""
        site = int(token[1:].removesuffix("^-1"))
        word.append(f"{token[0]}{n - site if mirror else site}{inverse}")
    return prefix + word, len(prefix)


def inverse_word(word: list[str]) -> list[str]:
    out = []
    for token in reversed(word):
        if token.endswith("^-1"):
            out.append(token[:-3])
        elif token[0] == "r":
            out.append(token + "^-1")
        else:
            out.append(token)
    return out


def word_ops(rng: random.Random) -> list[Op]:
    ops = []
    for rep, n, d, core in WORD_SHAPES:
        word, cut = random_word(core, n, rng)
        size = ("--n", str(n), "--dim", str(d)) if d else ("--n", str(n), "--lambda", WORD_LAMBDA)
        label = f"n={n},d={d}" if d else f"n={n}"
        argv = (
            "eval", "--rep", rep, "--format", "json",
            "--word", " ".join(word + inverse_word(word)),
        ) + size + WORD_PARAMS
        ops.append(Op(f"word_algebra/eval/{rep}/{label}", "eval", argv))
        if rep == "diagram":
            rotated = word[cut:] + word[:cut]
            for name, w in (("w", word), ("rotated", rotated)):
                argv = (
                    "trace", "--format", "json", "--word", " ".join(w),
                    "--n", str(n), "--lambda", WORD_LAMBDA,
                ) + WORD_PARAMS
                ops.append(Op(f"word_algebra/trace/{label}/{name}", "trace", argv, label))
    ops.append(Op("word_algebra/expand", "expand", None))
    return ops


class Workload:
    """Produces the operations of each pass from the seed."""

    def __init__(self, name: str, seed: int):
        self._rng = random.Random(seed)
        self._fixed = verify_ops(name, seed) if name != "word_algebra" else None
        self._passes: list[list[Op]] = []

    def pass_ops(self, index: int) -> list[Op]:
        """Operations of pass `index`, in run order; the same for the same seed."""
        while len(self._passes) <= index:
            ops = list(self._fixed) if self._fixed is not None else word_ops(self._rng)
            self._rng.shuffle(ops)
            self._passes.append(ops)
        return self._passes[index]


def expand_params():
    """The word_algebra point as vtl parameters, for the `expand` cross-check."""
    from vtl.rho import RhoParams, solve_ab

    return RhoParams.make(1, solve_ab(3)[0], "1/2", 3)


# --- output checks -----------------------------------------------------------

def pinned(report: dict) -> dict:
    """The seed-independent part of a verify report that the reference pins."""
    return {
        "checks": [
            [c["family"], c["site"], c["variant"], c["observed"], c["residual_norm"], c["groups"]]
            for c in report["checks"]
        ],
        "probes": [[p["name"], p["status"]] for p in report["probes"]],
    }


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def verify_summary(report: dict) -> dict:
    checks = [c for c in report["checks"] if c["status"] != "skipped"]
    return {
        "digest": digest(pinned(report)),
        "checks": len(checks),
        "mismatches": sum(1 for c in checks if c["status"] == "fail"),
    }


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


_ONE = {"x_num": 1, "x_den": 1, "y_num": 0, "y_den": 1, "D_num": 0, "D_den": 1}


def is_identity_eval(obj: dict) -> bool:
    """True iff an `eval --format json` result is exactly the identity."""
    if obj["rep"] == "diagram":
        identity = [[f"T{k}", f"B{k}"] for k in range(1, obj["n"] + 1)]
        return obj["terms"] == [{"matching": identity, "coeff": _ONE}]
    m = obj["matrix"]
    size = m["rows"]
    if m["cols"] != size or len(m["entries"]) != size * size:
        return False
    return all(
        entry == ([1, 1, 0, 1] if k % (size + 1) == 0 else [0, 1, 0, 1])
        for k, entry in enumerate(m["entries"])
    )

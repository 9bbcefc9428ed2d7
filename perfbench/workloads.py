"""Seeded request streams for the benchmark workloads.

Each workload turns the benchmark seed into an endless, deterministic
stream of ``ninepoint`` argv lists; the program sees nothing but those
lists.  The measured stream and the warm-up stream of one seed never share
a request, so warm-up cannot pre-fill a cache with measured inputs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, List, NamedTuple, Sequence, Tuple

# Fuzz jobs take ``--seed base + k`` for request k.  Bases of neighbouring
# benchmark seeds are this far apart, so they share no fuzz job.
FUZZ_SEED_STRIDE = 1_000_000
# The warm-up stream starts this far into the stride.
FUZZ_WARMUP_OFFSET = FUZZ_SEED_STRIDE // 2

# Digits of each numerator and denominator in cli_mixed_rational.  The
# largest integer in a ``feuerbach --format json`` answer has about 18*d
# digits, and beyond Python's default 4300-digit int-to-str limit the
# command exits 2 (about d >= 239).  200 keeps every request valid.
MIXED_MIN_DIGITS = 1
MIXED_MAX_DIGITS = 200
MIXED_COMMAND_MIX: Tuple[Tuple[str, float], ...] = (
    ("feuerbach", 0.7),
    ("compute", 0.2),
    ("svg", 0.1),
)
# Digit counts and commands are drawn stratified over blocks of this many
# requests (each block holds the exact mix and one digit draw per
# log-uniform stratum, in shuffled order), so seeds differ in the numbers
# but not in how much large-number work a run sees.
MIXED_BLOCK = 50


class Request(NamedTuple):
    argv: List[str]
    triangles: int


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # Target tail percentile: a 15-second run of the code this benchmark
    # was written against leaves well over ten samples beyond it.
    tail_percentile: float
    params: Dict[str, object]

    def requests(self, seed: int, warmup: bool = False) -> Iterator[Request]:
        if self.name == "cli_mixed_rational":
            return _mixed_requests(seed, warmup)
        return _fuzz_requests(self.params, seed, warmup)


def _fuzz_requests(params: Dict[str, object], seed: int, warmup: bool) -> Iterator[Request]:
    count = int(params["count"])
    base = seed * FUZZ_SEED_STRIDE + (FUZZ_WARMUP_OFFSET if warmup else 0)
    k = 0
    while True:
        yield Request(
            [
                "fuzz",
                "--profile", str(params["profile"]),
                "--backend", str(params["backend"]),
                "--count", str(count),
                "--seed", str(base + k),
                "--format", "json",
            ],
            count,
        )
        k += 1


def _digit_block(rng: random.Random) -> List[int]:
    """One stratified block of log-uniform digit counts in
    [MIXED_MIN_DIGITS, MIXED_MAX_DIGITS], shuffled."""
    low, high = math.log(MIXED_MIN_DIGITS), math.log(MIXED_MAX_DIGITS + 1)
    block = []
    for stratum in range(MIXED_BLOCK):
        u = (stratum + rng.random()) / MIXED_BLOCK
        block.append(min(MIXED_MAX_DIGITS, int(math.exp(low + u * (high - low)))))
    rng.shuffle(block)
    return block


def _command_block(rng: random.Random) -> List[str]:
    block = [name for name, share in MIXED_COMMAND_MIX for _ in range(round(share * MIXED_BLOCK))]
    rng.shuffle(block)
    return block


def _ratio(rng: random.Random, digits: int) -> Fraction:
    low, high = 10 ** (digits - 1), 10**digits
    return Fraction(rng.randrange(low, high), rng.randrange(low, high))


def _is_triangle(a: Fraction, b: Fraction, c: Fraction) -> bool:
    return a + b > c and b + c > a and c + a > b


def fraction_text(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _mixed_requests(seed: int, warmup: bool) -> Iterator[Request]:
    rng = random.Random(f"cli_mixed_rational/{seed}/{'warmup' if warmup else 'measure'}")
    while True:
        for digits, command in zip(_digit_block(rng), _command_block(rng)):
            sides = [_ratio(rng, digits) for _ in range(3)]
            while not _is_triangle(*sides):
                sides = [_ratio(rng, digits) for _ in range(3)]
            argv = [command, "--sides", ",".join(fraction_text(v) for v in sides)]
            if command != "svg":
                argv += ["--format", "json"]
            yield Request(argv, 1)


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="fuzz_generic_exact",
            why="exact fuzz jobs: the oracle and identity suite on Fractions (harness plus exact kernel)",
            tail_percentile=90.0,
            params={"profile": "generic", "backend": "exact", "count": 4},
        ),
        Workload(
            name="fuzz_neardegen_float",
            why="float fuzz jobs at conditioning up to 1e6: same harness on doubles, exact kernel bypassed",
            tail_percentile=90.0,
            params={"profile": "near-degenerate", "backend": "float", "count": 8},
        ),
        Workload(
            name="cli_mixed_rational",
            why="single CLI requests on 1-200 digit rational sides: argparse at p50, big-Fraction kernel in the tail, no harness",
            tail_percentile=95.0,
            params={
                "digits": [MIXED_MIN_DIGITS, MIXED_MAX_DIGITS],
                "digit_law": f"log-uniform, stratified in blocks of {MIXED_BLOCK}",
                "command_mix": dict(MIXED_COMMAND_MIX),
            },
        ),
    )
}


# --- input properties ------------------------------------------------------


def sides_of(argv: Sequence[str]) -> Tuple[Fraction, Fraction, Fraction]:
    """Side lengths named by a ``--sides`` request."""
    a, b, c = (Fraction(part) for part in argv[argv.index("--sides") + 1].split(","))
    return a, b, c


def conditioning(a: Fraction, b: Fraction, c: Fraction) -> float:
    """Largest side over the smallest of s - a, s - b, s - c."""
    gaps = (-a + b + c, a - b + c, a + b - c)
    return float(max(a, b, c) / (min(gaps) / 2))


def embeds_exactly(a: Fraction, b: Fraction, c: Fraction) -> bool:
    """True when the embedding with C at the origin and B on the x-axis is
    rational, i.e. the altitude from A is rational."""
    x = (a * a + b * b - c * c) / (2 * a)
    h_sq = b * b - x * x
    return all(math.isqrt(n) ** 2 == n for n in (h_sq.numerator, h_sq.denominator))


DIGIT_BINS = ((1, 3), (4, 10), (11, 30), (31, 100), (101, None))


def input_properties(triangles: Sequence[Tuple[Fraction, Fraction, Fraction]]) -> Dict[str, object]:
    """Digit-count histogram, conditioning deciles and exactly embeddable
    share of the triangles a run sent, so a claim that helps only large or
    ill-conditioned inputs can quote its share."""
    histogram = {_bin_label(low, high): 0 for low, high in DIGIT_BINS}
    conds: List[float] = []
    embeddable = 0
    for sides in triangles:
        digits = max(len(str(part)) for v in sides for part in (v.numerator, v.denominator))
        for low, high in DIGIT_BINS:
            if digits >= low and (high is None or digits <= high):
                histogram[_bin_label(low, high)] += 1
                break
        conds.append(conditioning(*sides))
        embeddable += embeds_exactly(*sides)
    conds.sort()
    deciles = [conds[min(len(conds) - 1, (len(conds) * k) // 10)] for k in range(11)] if conds else []
    return {
        "triangles": len(triangles),
        "max_digits_histogram": histogram,
        "conditioning_deciles": deciles,
        "embeddable_exactly_share": embeddable / len(triangles) if triangles else 0.0,
    }


def _bin_label(low: int, high: object) -> str:
    return f"{low}-{high}" if high is not None else f"{low}+"

"""Job lists of the three workloads, each a pure function of (seed, nproc).

A job is the argv list of one `cayleypoly` CLI call; the program receives
nothing else.  Every job stays sub-second on a 2-vCPU Xeon sandbox: the
per-job calibration probe cannot correct for interference inside a
multi-second job, so the long documented calls (`verify --all --nmax 4`,
`recursion --n 30`) are split into, or replaced by, shorter calls.

Parameter draws come in two classes of steady cost: "small" rationals
like the CLI default (1/2, 1), and "large" ones like (37/101, 53/17),
with a three-digit prime q denominator and a two-digit prime t
denominator.  Every call gets its own draw, so a seed's cost is an
average over many draws and seeds vary the inputs more than the work.
"""

from __future__ import annotations

import random
from fractions import Fraction

FAMILIES = ("cayley", "gayley", "tcayley", "tgayley", "tutte")
WORKLOADS = ("verify", "symbolic", "structure")

# Partition-certificate samples per triangulation/subdivision job: with
# the default 1000, `triangulation tutte n=4` at large denominators takes
# about 1.2 s, over the sub-second budget.
SAMPLES = 400
# Largest n whose `recursion --mode recursion` call is sub-second.
RECURSION_NMAX = 20

SMALL_Q_DENOMINATORS = (2, 3, 4, 5)
SMALL_T_DENOMINATORS = (1, 2, 3)
LARGE_Q_PRIMES = (101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179)
LARGE_T_PRIMES = (11, 13, 17, 19, 23, 29, 31)


def _text(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def draw_qt(rng: random.Random, size: str) -> tuple[str, str]:
    """(q, t) with 0 < q < 1 and 0 < t <= 4, as exact CLI strings."""
    if size == "small":
        qd = rng.choice(SMALL_Q_DENOMINATORS)
        q = Fraction(rng.randrange(1, qd), qd)
        td = rng.choice(SMALL_T_DENOMINATORS)
        t = Fraction(rng.randrange(1, 3 * td + 1), td)
    else:
        qd = rng.choice(LARGE_Q_PRIMES)
        q = Fraction(rng.randrange(qd // 5, 4 * qd // 5), qd)
        td = rng.choice(LARGE_T_PRIMES)
        t = Fraction(rng.choice([c for c in range(td + 1, 4 * td) if c % td]), td)
    return _text(q), _text(t)


def _qt(rng: random.Random, size: str) -> list[str]:
    q, t = draw_qt(rng, size)
    return ["--q", q, "--t", t]


def jobs_for(workload: str, seed: int, nproc: int) -> list[list[str]]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "symbolic":
        return _symbolic(rng, sharded=str(min(2, nproc)))
    return {"verify": _verify, "structure": _structure}[workload](rng)


def _verify(rng: random.Random) -> list[list[str]]:
    """The (kind, family, n <= 4) grid of `verify --all --nmax 4`, one call
    per cell, once with small and once with large (q, t) draws."""
    jobs = []
    for size in ("small", "large"):
        for n in range(1, 5):
            for family in FAMILIES:
                for kind in ("triangulation", "subdivision"):
                    sampler = ["--samples", str(SAMPLES), "--seed", str(rng.randrange(1, 2**31))]
                    jobs.append(["verify", "--check", kind, "--family", family, "--n", str(n), *_qt(rng, size), *sampler])
                jobs.append(["verify", "--check", "refinement", "--family", family, "--n", str(n), *_qt(rng, size)])
            jobs.append(["verify", "--check", "specializations", "--n", str(n), *_qt(rng, size)])
            jobs.append(["verify", "--check", "pieces", "--n", str(n), *_qt(rng, size)])
    # The fiber sweep takes no parameters, so it runs once.
    jobs += [["verify", "--check", "fiber", "--n", str(n)] for n in range(1, 5)]
    return jobs


def _symbolic(rng: random.Random, sharded: str) -> list[list[str]]:
    """Polynomial identities: no geometry, no sampling."""
    jobs = []
    for n in range(2, 8):
        for jobs_flag in ("1", sharded):
            for fmt in ("json", "text"):
                jobs.append(["zpoly", "--n", str(n), "--jobs", jobs_flag, "--format", fmt])
    for n in range(1, 8):
        for jobs_flag in ("1", sharded):
            jobs.append(["recursion", "--n", str(n), "--mode", "both", "--jobs", jobs_flag])
    jobs += [["recursion", "--n", str(n), "--mode", "recursion"] for n in range(1, RECURSION_NMAX + 1)]
    for n in range(1, 6):
        for family in FAMILIES:
            for jobs_flag, size in (("1", "small"), (sharded, "large")):
                jobs.append(["volume", "--family", family, "--n", str(n), "--symbolic", *_qt(rng, size), "--jobs", jobs_flag])
    return jobs


def _structure(rng: random.Random) -> list[list[str]]:
    """Building and serialising geometry, and the face lattice."""
    jobs = []
    for size in ("small", "large"):
        jobs += [["fvector", "--n", str(n), *_qt(rng, size)] for n in range(2, 8)]
    for size in ("small", "large"):
        for family in FAMILIES:
            jobs += [["vertices", "--family", family, "--n", str(n), *_qt(rng, size)] for n in range(1, 8)]
    jobs += [["simplices", "--family", family, "--n", "5", *_qt(rng, "small")] for family in FAMILIES]
    jobs += [["pieces", "--family", family, "--n", "6", *_qt(rng, "small")] for family in FAMILIES]
    jobs += [["verify", "--check", "fiber", "--n", str(n)] for n in range(1, 5)]
    jobs += [["cayley1857", "--n", str(n)] for n in range(1, 11)]
    return jobs

"""The argv table of the golden CLI outputs under tests/golden/.

``CASES`` are requests whose stdout is pinned, ``ERROR_CASES`` requests
that argparse rejects, whose stderr is pinned at ``COLUMNS=ERROR_COLUMNS``,
and ``HELP_CASES`` requests for help, whose stdout is pinned at the same
width.
``tests/test_cli_golden.py`` checks them, and ``tools/output_digest.py``
runs them; this module imports nothing outside the standard library, so
the digest runs where pytest cannot be imported.
"""

import random
from fractions import Fraction


def _digits_sides(digits: int, seed: int) -> str:
    """Three rational sides with ``digits``-digit numerators and denominators."""
    rng = random.Random(seed)
    low, high = 10 ** (digits - 1), 10**digits
    while True:
        a, b, c = (Fraction(rng.randrange(low, high), rng.randrange(low, high)) for _ in range(3))
        if a + b > c and b + c > a and c + a > b:
            return ",".join(f"{v.numerator}/{v.denominator}" for v in (a, b, c))


BIG = _digits_sides(100, 100)
FLAT = "1,1,1.999999"
# A 3-4-5 triangle at A = (1/3, -2/7), and a float triangle of no special shape.
RAGGED_EXACT_VERTICES = "1/3,-2/7,10/3,-2/7,1/3,26/7"
RAGGED_FLOAT_VERTICES = "0.1,0.2,3.3,0.4,1.5,2.6"

CASES = {
    "345_exact_compute_json": ["compute", "--sides", "3,4,5", "--format", "json"],
    "345_exact_compute_text": ["compute", "--sides", "3,4,5"],
    "345_exact_feuerbach_json": ["feuerbach", "--sides", "3,4,5", "--format", "json"],
    "345_exact_feuerbach_text": ["feuerbach", "--sides", "3,4,5"],
    "345_exact_svg": ["svg", "--sides", "3,4,5"],
    "345_float_compute_json": ["compute", "--sides", "3,4,5", "--backend", "float", "--format", "json"],
    "345_float_feuerbach_text": ["feuerbach", "--sides", "3,4,5", "--backend", "float"],
    "345_float_svg": ["svg", "--sides", "3,4,5", "--backend", "float"],
    "234_exact_compute_json": ["compute", "--sides", "2,3,4", "--format", "json"],
    "234_exact_feuerbach_json": ["feuerbach", "--sides", "2,3,4", "--format", "json"],
    "234_exact_feuerbach_text": ["feuerbach", "--sides", "2,3,4"],
    "234_exact_svg": ["svg", "--sides", "2,3,4"],
    "234_float_feuerbach_json": ["feuerbach", "--sides", "2,3,4", "--backend", "float", "--format", "json"],
    "234_float_compute_text": ["compute", "--sides", "2,3,4", "--backend", "float"],
    "111_exact_feuerbach_json": ["feuerbach", "--sides", "1,1,1", "--format", "json"],
    "111_exact_feuerbach_text": ["feuerbach", "--sides", "1,1,1"],
    "111_exact_svg": ["svg", "--sides", "1,1,1"],
    "111_float_feuerbach_text": ["feuerbach", "--sides", "1,1,1", "--backend", "float"],
    "111_float_compute_json": ["compute", "--sides", "1,1,1", "--backend", "float", "--format", "json"],
    "flat_float_feuerbach_json": ["feuerbach", "--sides", FLAT, "--backend", "float", "--format", "json"],
    "flat_float_feuerbach_text": ["feuerbach", "--sides", FLAT, "--backend", "float"],
    "flat_float_compute_json": ["compute", "--sides", FLAT, "--backend", "float", "--format", "json"],
    "flat_float_svg": ["svg", "--sides", FLAT, "--backend", "float"],
    # Sides whose float results depend on the order of each addition.
    "ragged_float_feuerbach_json": ["feuerbach", "--sides", "35/24,44/71,67/40", "--backend", "float",
                                    "--format", "json"],
    "ragged_float_compute_text": ["compute", "--sides", "3/5,2/3,1/7", "--backend", "float"],
    "big_exact_feuerbach_json": ["feuerbach", "--sides", BIG, "--format", "json"],
    "big_exact_feuerbach_text": ["feuerbach", "--sides", BIG],
    "big_exact_compute_text": ["compute", "--sides", BIG],
    "big_exact_svg": ["svg", "--sides", BIG],
    "big_float_feuerbach_json": ["feuerbach", "--sides", BIG, "--backend", "float", "--format", "json"],
    "vertices_float_feuerbach_json": ["feuerbach", "--vertices", "0,0,4,0,0,3", "--format", "json"],
    "vertices_exact_compute_text": ["compute", "--vertices", "1/2,0,7/2,0,1/2,4", "--backend", "exact"],
    # Vertex input on both backends in each format: ragged float
    # coordinates, and exact ones with negative and ragged coordinates.
    "vertices_exact_compute_json": ["compute", "--vertices", RAGGED_EXACT_VERTICES, "--backend", "exact",
                                    "--format", "json"],
    "vertices_exact_feuerbach_json": ["feuerbach", "--vertices", RAGGED_EXACT_VERTICES, "--backend",
                                      "exact", "--format", "json"],
    "vertices_exact_feuerbach_text": ["feuerbach", "--vertices", RAGGED_EXACT_VERTICES, "--backend",
                                      "exact"],
    "vertices_float_compute_json": ["compute", "--vertices", RAGGED_FLOAT_VERTICES, "--format", "json"],
    "vertices_float_compute_text": ["compute", "--vertices", RAGGED_FLOAT_VERTICES],
    "vertices_float_feuerbach_text": ["feuerbach", "--vertices", RAGGED_FLOAT_VERTICES],
    "111_exact_compute_json": ["compute", "--sides", "1,1,1", "--format", "json"],
    "fuzz_generic_exact_json": ["fuzz", "--profile", "generic", "--count", "5", "--seed", "3",
                                "--format", "json"],
    "fuzz_neardegen_float_text": ["fuzz", "--profile", "near-degenerate", "--count", "5",
                                  "--seed", "3", "--backend", "float"],
    "fuzz_isoceles_exact_json": ["fuzz", "--profile", "isoceles", "--backend", "exact",
                                 "--format", "json", "--count", "20"],
    "fuzz_right_exact_json": ["fuzz", "--profile", "right-angled", "--backend", "exact",
                              "--format", "json", "--count", "20"],
    # Float residuals up to conditioning 1e6, pinned bit for bit.
    "fuzz_neardegen_float_json": ["fuzz", "--profile", "near-degenerate", "--backend", "float",
                                  "--count", "40", "--seed", "11", "--format", "json"],
    "fuzz_generic_float_json": ["fuzz", "--profile", "generic", "--backend", "float",
                                "--count", "20", "--seed", "5", "--format", "json"],
    # The near-equilateral profile on both backends, and exact sides with an
    # irrational altitude, which the exact suite runs on their own frame.
    "fuzz_nearequilateral_float_json": ["fuzz", "--profile", "near-equilateral", "--backend", "float",
                                        "--count", "30", "--seed", "13", "--format", "json"],
    "fuzz_nearequilateral_exact_json": ["fuzz", "--profile", "near-equilateral", "--backend", "exact",
                                        "--count", "20", "--seed", "13", "--format", "json"],
    "fuzz_neardegen_exact_json": ["fuzz", "--profile", "near-degenerate", "--backend", "exact",
                                  "--count", "30", "--seed", "17", "--format", "json"],
    # Float sides at conditioning 2 whose incircle the report calls
    # coincident, though the triangle is not equilateral.
    "1000001_float_feuerbach_json": ["feuerbach", "--sides", "1000000,1000001,1000000",
                                     "--backend", "float", "--format", "json"],
    "131415_exact_compute_json": ["compute", "--sides", "13,14,15", "--format", "json"],
    # A generic-profile triangle (seed 7, index 4) whose exact embedding has
    # ragged denominators, so every Cartesian center prints as p/q.
    "ragged_exact_compute_json": ["compute", "--sides", "3504/7,3300/7,324/7", "--format", "json"],
    # Requests that argparse reads and that are not written as one
    # "--flag value" pair per option: "=", an abbreviation, a repeated flag
    # (the last one wins) and a negative number.
    "345_exact_feuerbach_json_spelled": ["feuerbach", "--sides=3,4,5", "--form", "json"],
    "345_exact_compute_json_repeated": ["compute", "--sides", "3,4,5", "--format", "text",
                                        "--format", "json"],
    "fuzz_generic_exact_json_negative_seed": ["fuzz", "--count", "2", "--seed", "-5",
                                              "--format", "json"],
}

# Requests that argparse rejects: exit code 2, empty stdout, and the usage
# and error text on stderr.  Argparse wraps that text to the terminal
# width, so it is pinned at COLUMNS=80.
ERROR_CASES = {
    "error_unknown_flag": ["compute", "--sides", "3,4,5", "--bogus"],
    "error_no_triangle": ["feuerbach", "--format", "json"],
    "error_sides_and_vertices": ["compute", "--sides", "3,4,5", "--vertices", "0,0,4,0,0,3"],
    "error_bad_format": ["feuerbach", "--sides", "3,4,5", "--format", "xml"],
    "error_no_subcommand": [],
    "error_bad_int": ["fuzz", "--count", "x"],
    "error_svg_format": ["svg", "--sides", "3,4,5", "--format", "json"],
    "error_missing_value": ["feuerbach", "--sides", "3,4,5", "--rel-eps"],
    "error_bad_backend": ["compute", "--sides", "3,4,5", "--backend", "Exact"],
    "error_unknown_command": ["bogus", "--sides", "3,4,5"],
}
ERROR_COLUMNS = "80"

# Requests for help: exit code 0, empty stderr, and the help text on stdout,
# which argparse also wraps, so it is pinned at COLUMNS=ERROR_COLUMNS too.
HELP_CASES = {
    "help": ["--help"],
    "help_compute": ["compute", "--help"],
    "help_feuerbach": ["feuerbach", "--help"],
    "help_fuzz": ["fuzz", "--help"],
    "help_svg": ["svg", "--help"],
}

"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest -v tests/test_acceptance.py``; the verbose listing is the
per-criterion report.  Every exact claim is checked with ``==`` on
rationals; float claims carry their stated tolerance inline.
"""

import json
import time
from fractions import Fraction

import pytest

from ninepoint import cli, homogeneous
from ninepoint.centers import center_set, vertex_to_ninepoint_dist_sq
from ninepoint.feuerbach import (
    Tangency,
    excircle_ninepoint_residual,
    feuerbach_report,
    incircle_ninepoint_residual,
)
from ninepoint.harness import FuzzProfile, cartesian_oracle, random_triangle
from ninepoint.triangle import (
    Barycentric,
    Point2,
    SideLengths,
    barycentric_distance_sq,
    metrics,
)
from point2_reference import add, as_float, dot, float_sides, scaled, sub

F = Fraction

SEED = 20260815
COUNT = 1000


@pytest.fixture(scope="module")
def generic_corpus():
    """1000 rational triangles with exact canonical embeddings (fixed seed)."""
    profile = FuzzProfile(kind="generic", count=COUNT, seed=SEED)
    corpus = [random_triangle(profile, i) for i in range(COUNT)]
    for sides, (va, vb, vc) in corpus:
        assert sides.is_exact and va.is_exact  # criterion inputs are rational
    return corpus


def run_cli(capsys, *argv: str):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_criterion_01_exact_residuals_on_1000_generic_triangles():
    started = time.monotonic()
    profile = FuzzProfile(kind="generic", count=COUNT, seed=SEED)
    for i in range(COUNT):
        sides, _ = random_triangle(profile, i)
        residual = incircle_ninepoint_residual(sides)
        assert isinstance(residual, Fraction) and residual == 0, (i, residual)
        for vertex in ("A", "B", "C"):
            residual = excircle_ninepoint_residual(sides, vertex)
            assert isinstance(residual, Fraction) and residual == 0, (i, vertex, residual)
    elapsed = time.monotonic() - started
    assert elapsed <= 60.0, f"residual sweep took {elapsed:.1f}s"
    print(f"ACCEPTANCE 1: exact residuals, 1000 generic triangles ({elapsed:.2f}s): PASS")


def test_criterion_02_worked_3_4_5_instance_via_cli(capsys):
    code, out, err = run_cli(
        capsys, "feuerbach", "--sides", "3,4,5", "--backend", "exact", "--format", "json"
    )
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["metrics"]["r_sq"] == "1/1"
    assert doc["metrics"]["R_sq"] == "25/4"
    entries = {entry["circle"]: entry for entry in doc["feuerbach"]}
    assert entries["incircle"]["lhs"] == "1/16"
    assert entries["exA"]["lhs"] == "169/16"
    assert entries["exB"]["lhs"] == "289/16"
    assert entries["exC"]["lhs"] == "841/16"
    for entry in entries.values():
        assert entry["residual"] == "0/1"
    print("ACCEPTANCE 2: worked (3,4,5) instance via CLI: PASS")


def test_criterion_03_euler_line_exact(generic_corpus):
    for sides, vertices in generic_corpus:
        centers = center_set(sides, vertices).points
        o, g, h = centers["O"], centers["G"], centers["H"]
        assert h.x - o.x == 3 * (g.x - o.x)
        assert h.y - o.y == 3 * (g.y - o.y)
        assert g.dist_sq(h) == 4 * o.dist_sq(g)
    print("ACCEPTANCE 3: Euler line H-O = 3(G-O) and |GH|^2 = 4|OG|^2, exact: PASS")


def test_criterion_04_vertex_to_ninepoint_equals_oracle(generic_corpus):
    for sides, vertices in generic_corpus:
        plane = homogeneous.Plane()
        frame = cartesian_oracle(plane, *plane.lift(vertices)).frame
        for vertex in ("A", "B", "C"):
            kernel_value = vertex_to_ninepoint_dist_sq(sides, vertex)
            oracle_value = Fraction(*plane.dist_sq(frame[vertex], frame["N"]))
            assert kernel_value == oracle_value
    print("ACCEPTANCE 4: 4|AN|^2 = R^2 - a^2 + b^2 + c^2 equals oracle, 1000 triangles: PASS")


def test_criterion_05_distance_identity_equals_cartesian(generic_corpus):
    import random

    rng = random.Random(SEED)
    for index, (sides, (va, vb, vc)) in enumerate(generic_corpus):
        alpha = F(rng.randrange(-20, 21), rng.randrange(1, 13))
        beta = F(rng.randrange(-20, 21), rng.randrange(1, 13))
        x = Barycentric(alpha, beta, 1 - alpha - beta)
        x_pt = add(add(scaled(va, x.alpha), scaled(vb, x.beta)), scaled(vc, x.gamma))
        y_pt = Point2(
            F(rng.randrange(-100, 101), rng.randrange(1, 13)),
            F(rng.randrange(-100, 101), rng.randrange(1, 13)),
        )
        identity_value = barycentric_distance_sq(
            x, va.dist_sq(y_pt), vb.dist_sq(y_pt), vc.dist_sq(y_pt), sides
        )
        assert identity_value == x_pt.dist_sq(y_pt), index
    print("ACCEPTANCE 5: barycentric distance identity vs Cartesian, 1000 triples: PASS")


def _six_membership_points(va, vb, vc):
    def project(point, on_line, toward):
        d = sub(toward, on_line)
        t = dot(sub(point, on_line), d) / dot(d, d)
        return add(on_line, scaled(d, t))

    def mid(p, q):
        return Point2((p.x + q.x) / 2, (p.y + q.y) / 2)

    return (
        mid(vb, vc), mid(vc, va), mid(va, vb),
        project(va, vb, vc), project(vb, vc, va), project(vc, va, vb),
    )


def test_criterion_06_ninepoint_membership(generic_corpus):
    # Exact half: all six points at squared distance R^2/4, bit-for-bit.
    for sides, (va, vb, vc) in generic_corpus:
        met = metrics(sides)
        n_pt = center_set(sides, (va, vb, vc)).points["N"]
        for member in _six_membership_points(va, vb, vc):
            assert n_pt.dist_sq(member) == met.R_sq / 4
    # Float half: same points within 1e-9 relative for conditioning <= 1e3.
    checked = 0
    for sides, vertices in generic_corpus:
        if sides.conditioning() > 1e3:
            continue
        checked += 1
        fsides = float_sides(sides)
        va, vb, vc = (as_float(p) for p in vertices)
        quarter = float(metrics(fsides).R_sq) / 4.0
        n_pt = center_set(fsides, (va, vb, vc)).points["N"]
        for member in _six_membership_points(va, vb, vc):
            assert abs(float(n_pt.dist_sq(member)) - quarter) <= 1e-9 * quarter
    assert checked >= 900  # the corpus is dominated by well-conditioned triangles
    print(f"ACCEPTANCE 6: nine-point membership, exact and float ({checked} at cond<=1e3): PASS")


def test_criterion_07_near_degenerate_float_residuals():
    profile = FuzzProfile(kind="near-degenerate", count=100, seed=SEED)
    worst = 0.0
    worst_cond = 0.0
    for i in range(100):
        sides, _ = random_triangle(profile, i)
        cond = sides.conditioning()
        assert cond <= 1e6, f"profile exceeded its conditioning envelope at index {i}"
        report = feuerbach_report(float_sides(sides))
        worst = max(worst, report.max_normalized_residual)
        worst_cond = max(worst_cond, cond)
    assert worst <= 1e-6, f"max normalized residual {worst:.3e}"
    print(
        "ACCEPTANCE 7: near-degenerate float residuals "
        f"(max {worst:.3e} at cond<={worst_cond:.2e}): PASS"
    )


def test_criterion_08_degeneracy_contract(capsys):
    report = feuerbach_report(SideLengths(1, 1, 1))
    assert report.equilateral
    assert report.entries[0].report.kind is Tangency.COINCIDENT
    code, out, _ = run_cli(
        capsys, "feuerbach", "--sides", "1,1,1", "--backend", "exact", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["equilateral"] is True
    assert doc["feuerbach"][0]["kind"] == "coincident"
    code, _, err = run_cli(capsys, "feuerbach", "--sides", "1,2,3")
    assert code == 2
    assert "degenerate: a + b = c" in err
    print("ACCEPTANCE 8: equilateral coincidence flag and (1,2,3) exit 2: PASS")


def test_criterion_09_determinism(capsys, tmp_path):
    fuzz_args = ("fuzz", "--profile", "generic", "--count", "25", "--seed", "7",
                 "--format", "json")
    _, first, _ = run_cli(capsys, *fuzz_args)
    _, second, _ = run_cli(capsys, *fuzz_args)
    assert first.encode() == second.encode()

    svg_args = ("svg", "--sides", "2,3,4")
    _, first, _ = run_cli(capsys, *svg_args)
    _, second, _ = run_cli(capsys, *svg_args)
    assert first.encode() == second.encode()

    out_a = tmp_path / "a.svg"
    out_b = tmp_path / "b.svg"
    run_cli(capsys, "svg", "--sides", "3,4,5", "--out", str(out_a))
    run_cli(capsys, "svg", "--sides", "3,4,5", "--out", str(out_b))
    assert out_a.read_bytes() == out_b.read_bytes()
    print("ACCEPTANCE 9: cmd_fuzz and cmd_svg byte-identical across runs: PASS")

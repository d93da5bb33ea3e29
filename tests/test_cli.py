"""Command-line interface: outputs, determinism, exit codes."""
import cmath
import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partialzeta import cli
from partialzeta.cli import main
from partialzeta.errors import (BudgetExceededError, DomainError,
                                InvalidConfigError, PartialZetaError)
from partialzeta.graphs import (MAX_COVER_EDGES, MAX_COVER_ORDER,
                                VoltageGraph, g_series_fraction,
                                graph_singularities_in_s, parse_graph_file)
from partialzeta.series import ExactSeries

from graph_oracles import dump_graph_file, named_graph

K4_TEXT = "4 2 3\n0 1 1\n0 2 0\n0 3 0\n1 2 0\n1 3 0\n2 3 1\n"
CUBE_TEXT = ("8 2 3\n0 1 1\n1 2 0\n2 3 0\n3 0 0\n4 5 0\n5 6 0\n6 7 0\n"
             "7 4 0\n0 4 0\n1 5 0\n2 6 0\n3 7 0\n")


@pytest.fixture
def k4_file(tmp_path):
    p = tmp_path / "k4.txt"
    p.write_text(K4_TEXT)
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def run_in_512_mib(argv: list[str]) -> subprocess.CompletedProcess:
    """The CLI on argv in a fresh interpreter with 512 MiB of address space."""
    limit = 512 * 2 ** 20
    code = ("import resource, sys; "
            f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit})); "
            "from partialzeta.cli import main; sys.exit(main(sys.argv[1:]))")
    path = os.pathsep.join(filter(None, [
        str(Path(__file__).resolve().parents[1] / "src"),
        os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": path,
                        "OPENBLAS_NUM_THREADS": "1"})


class TestSieve:
    def test_quadratic_d5(self, capsys):
        code, out = run(capsys, "sieve", "--backend", "quadratic", "--d", "5",
                        "--cutoff", "12")
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[0] == "id,norm,frob_class,frob_order"
        assert len(rows) == 5  # 2, 3, 7, 11 (5 ramified, excluded)

    def test_graph_backend(self, capsys, k4_file):
        code, out = run(capsys, "sieve", "--backend", "graph", "--graph-file",
                        k4_file, "--cutoff", "8")
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 8  # the 8 primitive triangle classes, norm 2^3

    @pytest.mark.parametrize("cutoff,digest", [
        ("7.999999999999999",
         "905c0d466bf626ba0c1bb803fc117bb566c221a2bdfd6dd45da84899f7dcdd42"),
        ("8", "0516e625e07099a74e0c8a1c2861310786384890a2e90486305535a0fa52ec07"),
    ])
    def test_graph_cutoff_just_below_a_norm(self, capsys, tmp_path,
                                            monkeypatch, cutoff, digest):
        # 8 = 2^3 is the least cycle norm of K4; one ulp below it no cycle
        # of length 3 may enter, though log X / log q_g rounds to 3
        monkeypatch.chdir(tmp_path)
        (tmp_path / "k4.txt").write_text(K4_TEXT)
        code, out = run(capsys, "sieve", "--backend", "graph", "--graph-file",
                        "k4.txt", f"--cutoff={cutoff}")
        assert code == 0
        assert len(out.splitlines()) == (1 if cutoff != "8" else 9)
        code, out = run(capsys, "eval", "--backend", "graph", "--graph-file",
                        "k4.txt", "--s", "2,1", f"--cutoff={cutoff}")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_cutoff_below_two(self, capsys):
        code, out = run(capsys, "sieve", "--backend", "quadratic", "--d", "5",
                        "--cutoff", "1.5")
        assert code == 0
        assert len(out.strip().splitlines()) == 1  # header only

    @pytest.mark.parametrize("cutoff", ["0", "-5"])
    def test_cutoff_below_one_lists_no_primes(self, capsys, cutoff):
        code, out = run(capsys, "sieve", "--backend", "quadratic", "--d", "5",
                        "--cutoff", cutoff)
        assert code == 0
        assert out == "id,norm,frob_class,frob_order\n"

    def test_infinite_cutoff_hits_the_sieve_cap(self, capsys):
        code = main(["sieve", "--d", "5", "--cutoff", "inf"])
        assert code == 5 and capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("backend", [
        ["--backend", "quadratic", "--d", "5"],
        ["--backend", "cyclic", "--char", "7,3,3"],
        ["--backend", "graph", "--graph-file", None],
    ], ids=["quadratic", "cyclic", "graph"])
    def test_nan_cutoff_rejected(self, capsys, k4_file, backend):
        # NaN compares false with every norm: it used to list no primes and
        # exit 0, as if the table below it were empty
        argv = [k4_file if x is None else x for x in backend]
        code = main(["sieve", *argv, "--cutoff", "nan"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error:")

    def test_missing_d(self, capsys):
        code, _ = run(capsys, "sieve", "--backend", "quadratic",
                      "--cutoff", "10")
        assert code == 2

    @pytest.mark.parametrize("argv,digest", [
        (["--d", "5", "--cutoff", "1e6"],
         "063663a5165c3b7683a03c64d0df06b9c8c878e257a96c8183efee9847b694e5"),
        (["--backend", "cyclic", "--char", "7,3,3", "--cutoff", "1e5"],
         "9fdad496774fe4fc077747d532ddc80ccad6286702c3a85d4119048a103cfe45"),
        (["--d", "5", "--cutoff", "1e5"],
         "c1de2cc141efe4ecf1363a35ce3a89ffbc99e5e065d99d5c94f2185e45bb73e5"),
        (["--backend", "cyclic", "--char", "11,5", "--cutoff", "1e4"],
         "1a8957db486b6026723d09577e50c5691b9ad7268b55692ad52a5ac953bf0385"),
    ], ids=["d5-1e6", "char7,3,3-1e5", "d5-1e5", "char11,5-1e4"])
    def test_output_pinned(self, capsys, argv, digest):
        # sieve CSV is part of the determinism contract: these never change
        code, out = run(capsys, "sieve", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_graph_output_pinned(self, capsys, k4_file):
        # equal norms listed by cycle id; recorded from the row table
        code, out = run(capsys, "sieve", "--backend", "graph", "--graph-file",
                        k4_file, "--cutoff", "1e3")
        assert code == 0
        assert (hashlib.sha256(out.encode()).hexdigest() ==
                "7604386d2384bf1fdee435b46f81aa43951adbb082b380c0e33fbc3617817605")

    def test_graph_past_the_cycle_budget(self, k4_file, capsys):
        # cycles of K4 to length 23 take more than CYCLE_ENUM_CAP prenecklace
        # nodes; the CLI refuses with exit 5 and one error line
        code = main(["sieve", "--backend", "graph", "--graph-file", k4_file,
                     "--cutoff", "1e7"])
        captured = capsys.readouterr()
        assert code == 5 and captured.out == ""
        assert captured.err == "error: primitive-cycle enumeration budget exceeded\n"

    def test_graph_without_cycles_of_norm_above_one(self, capsys, tmp_path):
        # a cycle graph has q_g = 1: every cycle would have norm 1
        path = tmp_path / "c3.txt"
        path.write_text("3 1 3\n0 1 1\n1 2 0\n2 0 0\n")
        code = main(["sieve", "--backend", "graph", "--graph-file", str(path),
                     "--cutoff", "100"])
        assert code == 2 and capsys.readouterr().err.startswith("error:")


class TestScanPinned:
    @pytest.mark.parametrize("argv,digest", [
        (["zeros", "--d", "5", "--height", "30"],
         "15158c34aad967c0e28481b9824b0c073b39c9b611917f866c80bc451877edd2"),
        (["zeros", "--backend", "cyclic", "--char", "7,3,3", "--height", "12"],
         "26b0234d613e4ca06ed615ea7ae130465834412eb7472fbd0f77c807473b1a62"),
        (["boundary", "--d", "5", "--height", "28"],
         "cfcf86349bc027aca95e851e57a850cff872c8cb0002c40c5637c1dc12c81b4c"),
        (["zeros", "--backend", "cyclic", "--char", "11,5", "--height", "12"],
         "c029c2724024f06d4b799fc3e78c27196e226d6d140d87503b7f6b204538cac6"),
        (["continue", "--backend", "cyclic", "--char", "7,3,3", "--s",
          "0.7,10", "--depth", "2", "--cutoff", "1e5"],
         "452c6c8c824c2feb3705933f5426b2d7c7eb0cee1e4fca263028442b7ea956ba"),
        # the highest d = 5 scan the CLI accepts, levels of up to 216 boxes
        (["zeros", "--d", "5", "--height", "100"],
         "3612d60a07e3def00cd2a272e3de424b2cacbff5f1e0c37051ee1184ff995e5c"),
        (["zeros", "--backend", "cyclic", "--char", "7,3,3", "--height",
          "100"],
         "4202666abb12759d54aa00a9049a3b90ebc7e8c1ba1b2d9f6fe1e13cbecd6844"),
    ], ids=["zeros-d5-30", "zeros-char7,3,3-12", "boundary-d5-28",
            "zeros-char11,5-12", "continue-char7,3,3", "zeros-d5-100",
            "zeros-char7,3,3-100"])
    def test_output_pinned(self, capsys, argv, digest):
        # the zeros and boundary pins were recorded from the line-first
        # scan certified by one zero count per factor: its factor roots are
        # Illinois roots of Hardy's Z, on Re s = 1/2 exactly, and its Newton
        # runs on g start at those roots; the box scan alone gives the same
        # catalogs to 1e-12 (TestLineScan), and mpmath checks them
        # (test_catalog_oracle).  Batching the scan, sharing Hurwitz columns
        # and factoring the exponentials must not move a single printed
        # digit.  They also rest on glibc's cexp forming exp(x + iy) as
        # exp(x) * (cos y, sin y).
        code, out = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestKernelPinned:
    @pytest.mark.parametrize("argv,digest", [
        (["continue", "--backend", "quadratic", "--d", "5", "--grid",
          "0.55:0.95:9,0:30:7", "--depth", "1", "--cutoff", "1e6"],
         "6846773f27e0040369a3eeb33d5ba3ead9cf0d52667a77322d61e46b9ac44671"),
        (["eval", "--backend", "quadratic", "--d", "5", "--s", "2,1",
          "--cutoff", "1e7"],
         "a3fae4471bdda4e3658abbd442c50b8fa630aba100a7f2a8dcb4f75227aad700"),
        (["feq-check", "--backend", "cyclic", "--char", "7,3,3", "--s", "2,1",
          "--cutoff", "1e7"],
         "9ef1ef890b02daf6a7c72f2a6e6fa3d14d865fea1b7ab4ea6d11e4403cf7d2a4"),
        # recorded from one log_product call per twist of a slice
        (["eval", "--backend", "cyclic", "--char", "11,5", "--s", "1.5,2",
          "--cutoff", "1e7"],
         "5bd2a4258cb13d406d37969e7aa9b3fbeb3858df22396a798f613a99288ec746"),
        (["feq-check", "--backend", "cyclic", "--char", "11,5", "--s", "1.5",
          "--cutoff", "1e7"],
         "46567e61095c05d02f656241d7816339ae2903b31c6644509427da028f1a737e"),
        # recorded point by point: one batch per product must print the
        # same bytes
        (["eval", "--d", "5", "--grid", "1.1:2:9,0:30:7", "--cutoff", "1e5"],
         "3f658ffb365dfdde1a45069640a8e081f6691bd0fbcec06688f08c5d698c3a5d"),
        (["eval", "--backend", "cyclic", "--char", "7,3,3", "--grid",
          "1.1:2:9,0:30:7", "--cutoff", "1e5"],
         "012ce100ec3093a7eabaeb865ed0b3563125166ca5c1dda906f06e681971311e"),
        # the config echoes the relative file name
        (["eval", "--backend", "graph", "--graph-file", "k4.txt", "--grid",
          "1.1:2:4,-3:10:7", "--cutoff", "1e3"],
         "be633777d7ee89013f70d547001ce355d7990cc6dd8724b0cc332e06e278994c"),
    ], ids=["continue-grid-d5", "eval-d5-1e7", "feq-check-7,3,3-1e7",
            "eval-11,5-1e7", "feq-check-11,5-1e7", "eval-grid-d5",
            "eval-grid-7,3,3", "eval-grid-K4/Z3"])
    def test_output_pinned(self, capsys, tmp_path, monkeypatch, argv, digest):
        # recorded from the one-array-per-operation Euler-product kernel: the
        # in-place kernel must give the same bits.  These digests depend on
        # numpy's ufunc loops and their SIMD dispatch on the CPU.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "k4.txt").write_text(K4_TEXT)
        code, out = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestOverflow:
    def test_continue_far_right_exits_3(self, capsys):
        # f^(2^20) overflows a double, as f^(2^9) does; g at Re s = 0.9 * 2^19
        # used to be nan, and so was the printed f_power, with exit 0
        for depth in ("9", "20"):
            code, out = run(capsys, "continue", "--d", "5", "--s", "0.9",
                            "--depth", depth)
            assert code == 3 and out == ""

    @pytest.mark.parametrize("s", ["0.035", "0.036", "0.04108"])
    def test_continue_underflow_exits_3(self, capsys, s):
        # |f^(2^8)| below the least normal double: e^-749.8 at 0.035 printed
        # f_power 0, e^-742.9 at 0.036 a subnormal 2.47e-323 and e^-708.41
        # at 0.04108 one just below 2.2e-308, each with exit 0
        code = main(["continue", "--d", "-1", "--s", s, "--depth", "8",
                     "--cutoff", "1e4"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert "underflows a double" in captured.err

    def test_continue_just_above_the_least_normal_double(self, capsys):
        # e^-708.28 at 0.0411 is a normal double: printed, and its log is
        # the grid row's log_abs
        code, out = run(capsys, "continue", "--d", "-1", "--s", "0.0411",
                        "--depth", "8", "--cutoff", "1e4")
        assert code == 0
        doc = json.loads(out)["f_power"]
        value = complex(float(doc["re"]), float(doc["im"]))
        assert abs(value) >= sys.float_info.min
        row = TestContinue.grid_logs(capsys, "-1", "0.0411:0.0411:1,0:0:1", 8)
        assert abs(math.log(abs(value)) - row[0].real) < 1e-9

    def test_eval_nan_point_exits_3(self, capsys):
        # x = norm^{-s} overflows far to the left and the sums are nan; they
        # printed as "nan" with exit 0, and a grid holding such a point
        # now exits 3, as one holding an overflowing or singular point did
        with np.errstate(all="ignore"):
            for where in (["--s", "-1000"], ["--grid=-1000:2:2,0:0:1"]):
                code, out = run(capsys, "eval", "--d", "5", "--cutoff", "100",
                                *where)
                assert code == 3 and out == ""


class TestEval:
    def test_single_point(self, capsys):
        code, out = run(capsys, "eval", "--backend", "quadratic", "--d", "5",
                        "--s", "2", "--cutoff", "1000")
        assert code == 0
        doc = json.loads(out)
        assert doc["version"]
        entry = doc["results"][0]
        assert float(entry["zeta_P"]["tail"]) < 1e-2
        v1 = complex(float(entry["zeta_P1"]["value"]["re"]),
                     float(entry["zeta_P1"]["value"]["im"]))
        v2 = complex(float(entry["zeta_P2"]["value"]["re"]),
                     float(entry["zeta_P2"]["value"]["im"]))
        vp = complex(float(entry["zeta_P"]["value"]["re"]),
                     float(entry["zeta_P"]["value"]["im"]))
        assert abs(v1 * v2 - vp) < 1e-12

    def test_determinism_byte_identical(self, capsys):
        _, out1 = run(capsys, "eval", "--backend", "quadratic", "--d", "5",
                      "--s", "2,1", "--cutoff", "1000")
        _, out2 = run(capsys, "eval", "--backend", "quadratic", "--d", "5",
                      "--s", "2,1", "--cutoff", "1000")
        assert out1 == out2

    def test_real_character_Z_P_real(self, capsys):
        # log L(s, chi) at real s sums real terms: chi(p) = -1 is exact
        code, out = run(capsys, "eval", "--d", "-1", "--s", "2")
        assert code == 0
        assert json.loads(out)["results"][0]["Z_P"]["value"]["im"] == "0"

    def test_product_beyond_double_range(self, capsys):
        # near s = 0 every factor is small, and the sum of their logs over
        # the 1,229 primes below 1e4 leaves the double range
        code = main(["eval", "--d", "5", "--s", "0,0.0625"])
        err = capsys.readouterr().err
        assert code == 3 and "overflows a double" in err

    def test_log_of_a_factor_next_to_one(self, capsys):
        # at s = 1e-10, 2^{-s} is within 1e-10 of 1 and the kernel's
        # log1p(2a + a^2 + b^2) rounds to -inf: refused, not printed as inf
        code = main(["eval", "--d", "5", "--s", "1e-10"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert "not finite" in captured.err

    def test_bad_s(self, capsys):
        code, _ = run(capsys, "eval", "--backend", "quadratic", "--d", "5",
                      "--s", "nope")
        assert code == 2

    @pytest.mark.parametrize("command,d,digest", [
        ("eval", "5",
         "ce99fc06225717d0178d56ee5be9d5765d4e79abad5bbfe11b73203113398910"),
        ("continue", "5",
         "3b1722f2e9ee5069987d64baa06cc2d062dacfae5c1b1c3003c172458fa44073"),
        ("continue", "-7",
         "997d921a60cecfaba5aef39b3c177bacd6f5c0ae754ab063ac0f4dc97e00700e"),
    ])
    def test_grid_below_every_norm(self, capsys, command, d, digest):
        # only 2 lies below the cutoff, inert for d = 5 and split for
        # d = -7, so zeta_P1 or zeta_P2 is a product over no slice
        code, out = run(capsys, command, "--d", d, "--grid",
                        "0.55:0.95:3,0:30:3", "--cutoff", "2")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("grid,cutoff", [
        ("0:2:3,0:1:2", "100"),
        # 0.0625i overflows and 0 is singular: the batch meets the
        # singular factor first, where one point at a time met the overflow
        ("0:0:1,0.0625:0:2", "1e4"),
    ])
    def test_failure_inside_a_grid(self, capsys, grid, cutoff):
        code = main(["eval", "--d", "5", "--grid", grid, "--cutoff", cutoff])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == "error: singular local factor at s=0j\n"


class TestContinue:
    def test_single_point(self, capsys):
        code, out = run(capsys, "continue", "--backend", "quadratic", "--d",
                        "5", "--s", "0.75", "--depth", "1", "--cutoff", "1000")
        assert code == 0
        doc = json.loads(out)
        assert float(doc["domain_re_floor"]) == 0.5
        assert float(doc["f_power"]["re"]) < 0  # g(0.75) < 0 for d = 5

    def test_domain_exit_code(self, capsys):
        code, _ = run(capsys, "continue", "--backend", "quadratic", "--d", "5",
                      "--s", "0.3", "--depth", "1")
        assert code == 3

    def test_grid_csv(self, capsys):
        code, out = run(capsys, "continue", "--backend", "quadratic", "--d",
                        "5", "--grid", "0.6:0.9:3,0:2:2", "--depth", "1",
                        "--cutoff", "1000")
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[0] == "re,im,log_abs,arg"
        assert len(rows) == 7
        # out-of-domain rows become nan entries, not failures
        code2, out2 = run(capsys, "continue", "--backend", "quadratic", "--d",
                          "5", "--grid", "0.4:0.9:3,0:0:1", "--depth", "1",
                          "--cutoff", "1000")
        assert code2 == 0
        assert "nan" in out2

    def test_grid_row_at_the_pole_of_zeta_is_nan(self, capsys):
        # g(1) is refused for that point alone, as a lone evaluation was
        code, out = run(capsys, "continue", "--d", "5", "--grid",
                        "0.5:1.5:3,0:0:1", "--depth", "1", "--cutoff", "1e3")
        assert code == 0
        assert out == ("re,im,log_abs,arg\n0.5,0,nan,nan\n1,0,nan,nan\n"
                       "1.5,0,1.57315858965128,0\n")

    @pytest.mark.parametrize("s,depth", [("0.7,60", "2"), ("0.7,1e300", "1"),
                                         ("0.7,-51", "2"), ("0.7,10", "40")])
    def test_g_outside_the_L_range_refused(self, capsys, s, depth):
        # |Im 2^i s| > 100 at some level i < r: exit 3 before any g call
        code = main(["continue", "--d", "5", f"--s={s}", "--depth", depth,
                     "--cutoff", "1e3"])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error: g evaluated at Im s =")

    def test_grid_rows_outside_the_L_range_are_nan(self, capsys):
        code, out = run(capsys, "continue", "--d", "5", "--grid",
                        "0.7:0.7:1,40:60:3", "--depth", "2", "--cutoff", "1e3")
        assert code == 0
        # Im 2s = 80 and 100 are in range, 120 is not
        assert out == ("re,im,log_abs,arg\n"
                       "0.7,40,0.432999825967157,-1.91882138308157\n"
                       "0.7,50,-3.86205507528166,2.42278334784202\n"
                       "0.7,60,nan,nan\n")

    @staticmethod
    def grid_logs(capsys, d, grid, depth):
        code, out = run(capsys, "continue", "--d", d, "--grid", grid,
                        "--depth", str(depth), "--cutoff", "1e4")
        assert code == 0
        return [complex(float(row.split(",")[2]), float(row.split(",")[3]))
                for row in out.splitlines()[1:]]

    @pytest.mark.parametrize("d,grid,depth", [
        ("5", "0.6:0.9:2,0:0:1", 9), ("5", "0.6:0.9:2,0:0:1", 10),
        ("-1", "0.035:0.035:1,0:0:1", 8), ("-1", "0.036:0.037:2,0:0:1", 8)],
        ids=["d5-above-depth9", "d5-above-depth10", "d-1-below-depth8",
             "d-1-subnormal-depth8"])
    def test_grid_rows_past_a_double_print_from_the_log(self, capsys, d,
                                                        grid, depth):
        # |f^(2^r)| above the largest double printed nan,nan (e^884 at 0.9,
        # depth 9); one that rounded to 0 raised a traceback from log(0)
        # (e^-750 at 0.035, d = -1, depth 8), and a subnormal one printed
        # log_abs from too few bits (off by 0.064 at 0.036).  Each row must
        # agree with the square of the row one depth lower, to criterion
        # 3's 1e-6
        lower = self.grid_logs(capsys, d, grid, depth - 1)
        for lo, hi in zip(lower, self.grid_logs(capsys, d, grid, depth)):
            assert cmath.isfinite(hi) and abs(hi.real) > 700
            assert abs(cmath.exp(2 * lo - hi) - 1) <= 1e-6, (lo, hi)

    def test_graph_g_has_no_height_range(self, capsys, k4_file):
        code, _ = run(capsys, "continue", "--backend", "graph", "--graph-file",
                      k4_file, "--s", "0.6,60", "--depth", "2", "--cutoff",
                      "100")
        assert code == 0


class TestBatchedGridPinned:
    @pytest.mark.parametrize("argv,digest", [
        (["continue", "--d", "5", "--grid", "0.3:0.95:6,-5:20:11", "--depth",
          "2", "--cutoff", "1e5"],
         "2c8cd593648c9640d2a4671685325485cc232f53178a366dcffdd137b0c39932"),
        (["continue", "--backend", "cyclic", "--char", "7,3,3", "--grid",
          "0.4:0.95:5,0:25:9", "--depth", "1", "--cutoff", "1e5"],
         "dd9e324c2ead66eaa575a2ddc92253ccb0e4a4294f868821ba75b9aa7601bd86"),
        (["continue", "--backend", "graph", "--graph-file", "GRAPH", "--grid",
          "0.2:0.95:4,-3:10:7", "--depth", "2", "--cutoff", "1e3"],
         "a0fb162b4d8859d9fcfc6e8f8cb14fd05ccd8617acd93ff747c88ceebd8f73c2"),
    ], ids=["d5-depth2", "cyclic-7,3,3", "graph-K4/Z3-depth2"])
    def test_output_pinned(self, capsys, k4_file, argv, digest):
        # recorded with one continuation per grid point: the batched
        # continuation must print the same bytes
        argv = [k4_file if a == "GRAPH" else a for a in argv]
        code, out = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestFeqCheck:
    def test_quadratic_pass(self, capsys):
        code, out = run(capsys, "feq-check", "--backend", "quadratic", "--d",
                        "5", "--s", "2", "--cutoff", "10000")
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True
        assert float(doc["residuals"]["feq"]) <= 1e-10

    def test_cyclic_backend(self, capsys):
        code, out = run(capsys, "feq-check", "--backend", "cyclic", "--char",
                        "7,3,3", "--s", "1.5", "--cutoff", "1000")
        assert code == 0
        assert json.loads(out)["pass"] is True


class TestRecordedOutput:
    """eval and feq-check against the output of the kernel that made one
    pass over the prime table per product (recorded_cli.json): values agree
    to 1e-12 relative, rounding-level residuals stay below 1e-15."""

    RECORDED = json.loads((Path(__file__).parent / "recorded_cli.json")
                          .read_text())

    @pytest.mark.parametrize("argv", sorted(RECORDED))
    def test_agrees_with_recording(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "k4.txt").write_text(K4_TEXT)
        code, out = run(capsys, *argv.split())
        assert code == 0
        new, ref = json.loads(out), json.loads(self.RECORDED[argv])
        if "residuals" in ref:
            residuals, ref_residuals = new.pop("residuals"), ref.pop("residuals")
            assert residuals.keys() == ref_residuals.keys()
            assert all(float(r) <= 1e-15 for r in residuals.values())
        assert _max_rel_err(new, ref) <= 1e-12


def _max_rel_err(new, ref) -> float:
    """Largest |a - b| / max(1, |b|) over the numbers of two JSON trees of
    one shape; non-numeric leaves must be equal."""
    if isinstance(ref, dict):
        assert new.keys() == ref.keys()
        return max((_max_rel_err(new[k], ref[k]) for k in ref), default=0.0)
    if isinstance(ref, list):
        assert len(new) == len(ref)
        return max((_max_rel_err(a, b) for a, b in zip(new, ref)), default=0.0)
    try:
        a, b = float(new), float(ref)
    except (TypeError, ValueError):
        assert new == ref
        return 0.0
    return abs(a - b) / max(1.0, abs(b))


class TestZeros:
    def test_quadratic_catalog(self, capsys):
        code, out = run(capsys, "zeros", "--backend", "quadratic", "--d", "5",
                        "--height", "15")
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[0] == "re,im,order"
        assert len(rows) > 1
        # zeta's first zero appears as a zero of g (positive order)
        entries = [r.split(",") for r in rows[1:]]
        assert any(abs(float(im) - 14.134725) < 1e-3 and int(order) == 1
                   for _, im, order in entries)

    def test_budget_covers_accepted_heights(self, capsys):
        # the scan of g itself needed 4,500 boxes here, more than a fixed
        # 4,000 allowed; the factor scans need 1,480
        code, out = run(capsys, "zeros", "--backend", "quadratic", "--d", "5",
                        "--height", "70")
        assert code == 0
        assert len(out.strip().splitlines()) == 51  # header + 50 points

    def test_large_modulus_in_bounded_memory(self, capsys):
        # d = 2003 has 4,005 Hurwitz columns: one call over all of a batch's
        # 256 points held about 770 MB and died of numpy's MemoryError in
        # 512 MiB of address space; in blocks of 2^16 (point, column) pairs
        # the run peaks near 215 MB resident and 290 MB of address space
        argv = ["zeros", "--d", "2003", "--height", "2"]
        proc = run_in_512_mib(argv)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == run(capsys, *argv)[1]

    def test_graph_backend(self, capsys, k4_file):
        code, out = run(capsys, "zeros", "--backend", "graph", "--graph-file",
                        k4_file, "--height", "10")
        assert code == 0
        vg = parse_graph_file(K4_TEXT)
        cat = graph_singularities_in_s(g_series_fraction(vg), vg.base.q_g, 10.0)
        assert len(cat) > 0
        assert out == cat.to_csv()


class TestBoundary:
    def test_graph_backend(self, capsys, k4_file):
        code, out = run(capsys, "boundary", "--backend", "graph",
                        "--graph-file", k4_file, "--height", "100")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "consistent-with-natural-boundary"
        assert "counting" in doc

    def test_input_loaded_once(self, capsys, monkeypatch, k4_file):
        # one parse of the graph file, or one system, serves both the
        # catalog and q
        calls = []

        def counted(fn):
            def wrapped(*a):
                calls.append(fn.__name__)
                return fn(*a)
            return wrapped

        monkeypatch.setattr(cli, "parse_graph_file",
                            counted(cli.parse_graph_file))
        monkeypatch.setattr(cli, "_build_system", counted(cli._build_system))
        code, _ = run(capsys, "boundary", "--backend", "graph",
                      "--graph-file", k4_file, "--height", "100")
        assert code == 0 and calls == ["parse_graph_file"]
        calls.clear()
        code, _ = run(capsys, "boundary", "--backend", "cyclic", "--char",
                      "7,3,3", "--height", "12")
        assert code == 2 and calls == ["_build_system"]

    def test_catalog_backend(self, capsys, tmp_path):
        lines = ["re,im,order"]
        lines += [f"0.5,{j + 1}.0,1" for j in range(40)]
        path = tmp_path / "cat.csv"
        path.write_text("\n".join(lines) + "\n")
        code, out = run(capsys, "boundary", "--backend", "catalog",
                        "--catalog-file", str(path), "--height", "50",
                        "--depth", "2")
        assert code == 0
        assert json.loads(out)["verdict"] == "consistent-with-natural-boundary"

    def test_catalog_needs_q(self, capsys, tmp_path):
        path = tmp_path / "cat.csv"
        path.write_text("re,im,order\n0.5,1.0,1\n")
        code, _ = run(capsys, "boundary", "--backend", "catalog",
                      "--catalog-file", str(path), "--height", "50")
        assert code == 2


class TestGraphCommands:
    def test_ihara(self, capsys, k4_file):
        code, out = run(capsys, "graph", "ihara", "--graph-file", k4_file)
        assert code == 0
        doc = json.loads(out)
        assert doc["agree"] is True
        assert doc["zeta_inverse"][0] == ["1", "1"]

    def test_cover(self, capsys, k4_file):
        code, out = run(capsys, "graph", "cover", "--graph-file", k4_file)
        doc = json.loads(out)
        assert code == 0 and doc["connected"] is True and doc["n"] == 12

    def test_lfun(self, capsys, k4_file):
        code, out = run(capsys, "graph", "lfun", "--graph-file", k4_file)
        assert code == 0
        doc = json.loads(out)
        assert doc["L0"] == doc["product_zeta_Y_inverse"][: 0] + doc["L0"]
        assert len(doc["L1"][1]) == 2  # cyclotomic vector over Q(zeta_3)

    def test_partial_and_verify(self, capsys, k4_file):
        code, out = run(capsys, "graph", "partial", "--graph-file", k4_file,
                        "--order", "8")
        assert code == 0 and json.loads(out)["agree"] is True
        code, out = run(capsys, "graph", "verify", "--graph-file", k4_file,
                        "--order", "8")
        assert code == 0 and json.loads(out)["pass"] is True

    def test_verify_catches_a_wrong_cover_product(self, capsys, monkeypatch,
                                                  k4_file):
        # the cover's own determinant, not the L-product, decides the check
        def off_by_one(vg):
            coeffs = list(real(vg).coeffs)
            coeffs[3] += 1
            return ExactSeries(coeffs)

        real = cli.cover_zeta_inverse
        monkeypatch.setattr(cli, "cover_zeta_inverse", off_by_one)
        code, out = run(capsys, "graph", "verify", "--graph-file", k4_file)
        doc = json.loads(out)
        assert code == 0 and doc["pass"] is False
        assert doc["checks"]["cover_identity"] is False
        assert doc["checks"]["bass_identity"] is True

    def test_missing_graph_file(self, capsys):
        code, _ = run(capsys, "graph", "ihara")
        assert code == 2

    @pytest.mark.parametrize("name,text", [("k4.txt", K4_TEXT),
                                           ("cube.txt", CUBE_TEXT)])
    @pytest.mark.parametrize("command", ["ihara", "lfun", "partial", "verify"])
    def test_output_pinned(self, capsys, tmp_path, monkeypatch, name, text,
                           command):
        # exact graph JSON is part of the determinism contract: these never
        # change (the config echoes the relative file name)
        digests = {
            ("k4.txt", "ihara"): "d30803041d24b7cfb6c494bcdfd1b6d7d36301d7dbaba2bb17c0924de5dc6893",
            ("k4.txt", "lfun"): "e5c9def7a3207516a81a3b6f58245457215ad767d62ae4109caeca04c4211ea1",
            ("k4.txt", "partial"): "110ff178a05d62cc79320971c0975f3776b5edc1fd9f27510119b7772e7e486d",
            ("k4.txt", "verify"): "e41acee892583aa0f4bc774097a7cc8980dcc5d972e7294ba5be0f692fe11884",
            ("cube.txt", "ihara"): "f72dc45d80365748eb976d35fe1a4ec8b8564dad528e0eb7e76d6923333cc159",
            ("cube.txt", "lfun"): "06196351023a0b8f397922f5063d8c06e7188e77e558a876401fce627fcb324d",
            ("cube.txt", "partial"): "efe0a96c1e84db377683362fb41028e6b63c0ea7dda7698ec2350b7c27cf7b07",
            ("cube.txt", "verify"): "fe2625bf2aa2b9d1a0cd8a32944ba14b7a784bdb93df31feead292ffc0efe298",
        }
        monkeypatch.chdir(tmp_path)
        (tmp_path / name).write_text(text)
        code, out = run(capsys, "graph", command, "--graph-file", name)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digests[name, command]

    @pytest.mark.parametrize("name,text", [("k4.txt", K4_TEXT),
                                           ("cube.txt", CUBE_TEXT)])
    @pytest.mark.parametrize("command", ["partial", "verify"])
    def test_order_16_pinned(self, capsys, tmp_path, monkeypatch, name, text,
                             command):
        # past u^12 the coefficients grow large, and every cycle length up
        # to 16 enters the direct route's product
        digests = {
            ("k4.txt", "partial"): "3f50276493d1fd60fff6b114b76698493d39ba98900a48d03584119cab7077f3",
            ("k4.txt", "verify"): "07661f236a24886728e9f69c00f596bb0ea09e4148c48a1afb03d139aa33413b",
            ("cube.txt", "partial"): "e2f11b3c440ea0e8296f16d860c12ed0b62fad727e7fda1c0b6cb653e63c2902",
            ("cube.txt", "verify"): "bf5b7688c8800b9e28e7e5d7eae4c039be3d73ba71eeaa34f1929e492d9e5304",
        }
        monkeypatch.chdir(tmp_path)
        (tmp_path / name).write_text(text)
        code, out = run(capsys, "graph", command, "--graph-file", name,
                        "--order", "16")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digests[name, command]


class TestBadInput:
    """Malformed input exits 2 with an error line, never a traceback."""

    def assert_config_error(self, capsys, *argv):
        code = main(list(argv))
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "Traceback" not in err

    def test_malformed_catalog_row(self, capsys, tmp_path):
        cat = tmp_path / "cat.csv"
        cat.write_text("re,im,order\n0.5,14\n")
        self.assert_config_error(capsys, "boundary", "--backend", "catalog",
                                 "--catalog-file", str(cat), "--height", "20",
                                 "--depth", "2")

    def test_non_integer_edge_token(self, capsys, tmp_path):
        g = tmp_path / "bad.txt"
        g.write_text(K4_TEXT.replace("0 1 1", "0 1 x"))
        self.assert_config_error(capsys, "graph", "ihara", "--graph-file",
                                 str(g))

    def test_non_integer_char(self, capsys):
        self.assert_config_error(capsys, "sieve", "--backend", "cyclic",
                                 "--char", "7,x", "--cutoff", "10")

    def test_too_few_singularity_classes(self, capsys):
        self.assert_config_error(capsys, "boundary", "--d", "5", "--height", "5")

    @pytest.mark.parametrize("command", ["ihara", "cover", "lfun"])
    def test_order_not_read_by_graph_command(self, capsys, k4_file, command):
        self.assert_config_error(capsys, "graph", command, "--graph-file",
                                 k4_file, "--order", "5")

    @pytest.mark.parametrize("header", [
        "100000000 2 3", "4 2 10007", "4 2 10000000000000000051"])
    @pytest.mark.parametrize("command", ["ihara", "lfun", "partial", "verify"])
    def test_oversized_graph_header(self, capsys, tmp_path, command, header):
        # a vertex count or cover order the graph layer would otherwise work
        # through without bound: O(n) degree scans, Z[zeta_q] vectors of
        # q - 1 entries, trial division to sqrt(q_c)
        g = tmp_path / "big.txt"
        g.write_text(K4_TEXT.replace("4 2 3", header))
        start = time.perf_counter()
        self.assert_config_error(capsys, "graph", command, "--graph-file",
                                 str(g))
        assert time.perf_counter() - start < 2.0

    @pytest.mark.parametrize("header", ["4 2 13", "8 2 19"],
                             ids=["K4/Z13", "cube/Z19"])
    @pytest.mark.parametrize("command", ["ihara", "lfun", "partial", "verify"])
    def test_oversized_cover(self, capsys, tmp_path, command, header):
        # 156 and 456 oriented cover edges, past MAX_COVER_EDGES = 150:
        # `graph verify` on cube/Z19 took 21 s before the bound
        g = tmp_path / "big.txt"
        base = K4_TEXT if header.startswith("4") else CUBE_TEXT
        g.write_text(header + base[base.index("\n"):])
        start = time.perf_counter()
        self.assert_config_error(capsys, "graph", command, "--graph-file",
                                 str(g))
        assert time.perf_counter() - start < 2.0

    def test_largest_cover_passes(self, capsys, tmp_path):
        # Petersen/Z5 has exactly MAX_COVER_EDGES oriented cover edges
        vg = VoltageGraph(named_graph("petersen"), 5, [1, 2] + [0] * 13)
        assert 2 * vg.base.m * vg.q_c == MAX_COVER_EDGES
        g = tmp_path / "petersen.txt"
        g.write_text(dump_graph_file(vg))
        assert main(["graph", "ihara", "--graph-file", str(g)]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["partial", "cover"])
    def test_edgeless_graph_with_many_vertices(self, capsys, tmp_path, command):
        # a 0-regular graph passes the degree check; its cover's connectivity
        # must not visit every vertex
        g = tmp_path / "empty.txt"
        g.write_text("100000000 -1 3\n")
        start = time.perf_counter()
        with pytest.warns(UserWarning, match="cover is disconnected"):
            code = main(["graph", command, "--graph-file", str(g)])
        assert code in {0, 2} and "Traceback" not in capsys.readouterr().err
        assert time.perf_counter() - start < 2.0

    @pytest.mark.parametrize("order", ["-1", "-2"])
    @pytest.mark.parametrize("command", ["partial", "verify"])
    def test_negative_order(self, capsys, k4_file, command, order):
        code = main(["graph", command, "--graph-file", k4_file,
                     f"--order={order}"])
        assert code == 2
        assert capsys.readouterr().err == "error: --order must be >= 0\n"

    @pytest.mark.parametrize("cutoff", ["0", "-5", "0.5", "1", "nan"])
    @pytest.mark.parametrize("argv", [
        ["eval", "--d", "5", "--s", "2,1"],
        ["feq-check", "--d", "5", "--s", "2,1"],
        ["continue", "--d", "5", "--s", "0.75", "--depth", "1"],
    ], ids=["eval", "feq-check", "continue"])
    def test_cutoff_without_an_honest_tail_bound(self, capsys, argv, cutoff):
        # the tail bound x^{1-sigma}/(1 - x^{-sigma}) needs x > 1
        self.assert_config_error(capsys, *argv, "--cutoff", cutoff)

    def test_infinite_cutoff_hits_the_sieve_cap(self, capsys):
        code = main(["eval", "--d", "5", "--s", "2", "--cutoff", "inf"])
        err = capsys.readouterr().err
        assert code == 5 and err.startswith("error:")

    @pytest.mark.parametrize("s", ["nan,1", "inf,0", "2,nan", "-inf", "2,-inf"])
    @pytest.mark.parametrize("command", ["eval", "feq-check"])
    def test_non_finite_s(self, capsys, command, s):
        self.assert_config_error(capsys, command, "--d", "5", f"--s={s}",
                                 "--cutoff", "100")

    @pytest.mark.parametrize("grid", ["0.55:nan:3,0:30:2", "inf:0.95:3,0:30:2",
                                      "0.55:0.95:3,-inf:30:2",
                                      "0.55:0.95:3,0:nan:2"])
    @pytest.mark.parametrize("argv", [["eval"], ["continue", "--depth", "1"]],
                             ids=["eval", "continue"])
    def test_non_finite_grid(self, capsys, argv, grid):
        self.assert_config_error(capsys, *argv, "--d", "5", "--grid", grid,
                                 "--cutoff", "100")

    @pytest.mark.parametrize("command", ["eval", "continue"])
    def test_no_point_given(self, capsys, command):
        self.assert_config_error(capsys, command, "--d", "5")

    @pytest.mark.parametrize("depth", ["1024", "5000", "99999999999999999999"])
    def test_depth_beyond_double_range(self, capsys, depth):
        # 2^r overflows a double, and with it the points q^r s
        self.assert_config_error(capsys, "continue", "--d", "5", "--s", "0.7",
                                 "--depth", depth)

    @pytest.mark.parametrize("grid", ["0.6:0.9:100000,0:1:100000",
                                      "0:1:99999999999999999999,0:1:1",
                                      "0:1:101,0:1:100"])
    @pytest.mark.parametrize("command", ["eval", "continue"])
    def test_grid_over_the_point_cap(self, capsys, command, grid):
        # refused before any point is built
        code = main([command, "--d", "5", "--grid", grid])
        err = capsys.readouterr().err
        assert code == 5 and err.startswith("error: grid of")

    @pytest.mark.parametrize("height", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("backend", ["quadratic", "graph", "catalog"])
    @pytest.mark.parametrize("command", ["zeros", "boundary"])
    def test_non_finite_height(self, capsys, tmp_path, k4_file, command,
                               backend, height):
        # nan and -inf gave a traceback, and inf ran a graph tower forever
        cat = tmp_path / "cat.csv"
        cat.write_text("re,im,order\n0.5,1,1\n")
        extra = {"quadratic": ["--d", "5"],
                 "graph": ["--graph-file", k4_file],
                 "catalog": ["--catalog-file", str(cat)]
                 + (["--depth", "2"] if command == "boundary" else [])}
        self.assert_config_error(capsys, command, "--backend", backend,
                                 *extra[backend], f"--height={height}")

    @pytest.mark.parametrize("command", ["zeros", "boundary"])
    def test_graph_catalog_over_the_height_range(self, capsys, k4_file,
                                                  command):
        self.assert_config_error(capsys, command, "--backend", "graph",
                                 "--graph-file", k4_file, "--height", "1e300")

    @pytest.mark.parametrize("text", ["1 1 3\n0 0 1\n", "2 0 3\n0 1 1\n"],
                             ids=["q_g=1", "q_g=0"])
    @pytest.mark.parametrize("command", ["zeros", "boundary"])
    def test_graph_catalog_needs_q_g_2(self, capsys, tmp_path, command, text):
        # log(q_g) was 0 or log(0): a ZeroDivisionError or a ValueError
        g = tmp_path / "g.txt"
        g.write_text(text)
        self.assert_config_error(capsys, command, "--backend", "graph",
                                 "--graph-file", str(g), "--height", "10")

    @pytest.mark.parametrize("rows, depth", [
        ("nan,1,1", "2"), ("0.5,inf,1", "2"), ("0.5,0,1", "2"),
        ("0.5,-3,2", "2"), ("0.5,1,1", "1"), ("0.5,1,1", "0"),
        ("0.5,1,1", "-1")])
    def test_catalog_outside_the_report(self, capsys, tmp_path, rows, depth):
        # q = 1 or 0 dilated a point forever, and Im s <= 0 until q^k left
        # a double
        cat = tmp_path / "cat.csv"
        cat.write_text(f"re,im,order\n{rows}\n0.5,3,1\n")
        self.assert_config_error(capsys, "boundary", "--backend", "catalog",
                                 "--catalog-file", str(cat), "--height", "10",
                                 "--depth", depth)

    def test_catalog_past_a_double(self, capsys, tmp_path):
        # 5e-324 * 2^k stays below T = 10 until 2^k leaves a double
        cat = tmp_path / "cat.csv"
        cat.write_text("re,im,order\n0.5,5e-324,1\n0.5,3,1\n")
        code = main(["boundary", "--backend", "catalog", "--catalog-file",
                     str(cat), "--height", "10", "--depth", "2"])
        err = capsys.readouterr().err
        assert code == 3 and err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("backend", [
        ["--d", "5"], ["--d", "1"], ["--backend", "cyclic", "--char", "7,3,3"],
        ["--backend", "graph", "--graph-file", None],
    ], ids=["d5", "d1", "cyclic", "graph"])
    @pytest.mark.parametrize("command", ["zeros", "boundary"])
    def test_catalog_file_needs_catalog_backend(self, capsys, tmp_path,
                                                k4_file, command, backend):
        # zeros printed the file whatever the backend, and boundary took q
        # from a system that had no part in the catalog
        cat = tmp_path / "cat.csv"
        cat.write_text("re,im,order\n"
                       + "".join(f"0.5,{j + 1}.0,1\n" for j in range(40)))
        code = main([command, *(k4_file if x is None else x for x in backend),
                     "--catalog-file", str(cat), "--height", "50"])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "error: --catalog-file is read only with --backend catalog\n"

    @pytest.mark.parametrize("argv", [
        ["zeros"], ["boundary", "--depth", "2"], ["boundary"]],
        ids=["zeros", "boundary", "boundary-no-depth"])
    def test_catalog_backend_needs_catalog_file(self, capsys, argv):
        # the refusal said "backend 'catalog' has no prime enumeration"
        code = main([*argv, "--backend", "catalog", "--height", "28"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: --backend catalog needs --catalog-file\n"

    def test_depth_without_catalog_backend(self, capsys):
        self.assert_config_error(capsys, "boundary", "--d", "5", "--height",
                                 "30", "--depth", "7")

    @pytest.mark.parametrize("argv", [
        ["boundary", "--d", "5"],
        ["zeros", "--backend", "catalog", "--catalog-file", "f.csv"],
    ], ids=["boundary", "zeros-catalog-file"])
    def test_height_required(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "--height" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["graph", "verify", "--backend", "quadratic"],
        ["graph", "verify", "--d", "5"],
        ["graph", "verify", "--char", "7,3"],
        ["graph", "verify", "--catalog-file", "nope.csv"],
        ["sieve", "--d", "5", "--cutoff", "10", "--catalog-file", "nope.csv"],
        ["eval", "--d", "5", "--s", "2", "--catalog-file", "nope.csv"],
        ["continue", "--backend", "catalog", "--s", "2"],
        ["feq-check", "--backend", "catalog", "--s", "2"],
    ], ids=["graph-backend", "graph-d", "graph-char", "graph-catalog",
            "sieve-catalog", "eval-catalog", "continue-backend-catalog",
            "feq-backend-catalog"])
    def test_flag_not_taken_by_command(self, capsys, k4_file, argv):
        # only zeros and boundary read a catalog; graph reads only the graph
        if argv[0] == "graph":
            argv = argv + ["--graph-file", k4_file]
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "continue"])
    def test_s_and_grid_together(self, capsys, command):
        # one point or one grid, not both: the grid used to win silently
        # while the config echoed the dropped --s
        s, grid = ["--s", "2,1"], ["--grid", "1.5:2:2,0:1:1"]
        for flags in (s + grid, grid + s):
            with pytest.raises(SystemExit) as info:
                main([command, "--d", "5", *flags])
            assert info.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "not allowed with argument" in captured.err
        for flags in (s, grid):
            code, out = run(capsys, command, "--d", "5", *flags)
            assert code == 0 and out


# valid, malformed and out-of-range values of the point flags
FUZZ_S = ["2", "0.75", "0.7,10", "0.6,-3", "1.5,0", "1", "0.5", "0,0.0625",
          "-0.0,-0.0", "0.3,5", "-1", "0.7,60", "0.7,1e300", "1e300",
          "-1e300,2", "a,b", "1,2,3", "", ",", "nan", "inf,0", "1e400"]
FUZZ_GRID = ["0.55:0.95:3,0:30:3", "0.6:2:2,-40:40:3", "0.4:1:4,0:0:1",
             "0.5:1.5:3,0:0:1", "0.7:0.7:1,45:55:2", "1:2", "a:b:c,d:e:f",
             "0:1:0,0:1:1", "0:1:1.5,0:1:2", "nan:1:2,0:1:2",
             "0.6:0.9:100000,0:1:100000", "0:1:99999999999999999999,0:1:1"]
FUZZ_DEPTH = ["0", "1", "2", "3", "40", "1023", "-1", "1024", "5000",
              "99999999999999999999", "x"]
FUZZ_CUTOFF = ["100", "1e3", "1e4", "2", "1", "0", "-5", "nan", "inf",
               "1e400", "x"]
# heights that run are at most 12, so each search takes a fraction of a
# second; the rest are refused, or give an empty catalog
FUZZ_HEIGHT = ["12", "4.5", "0", "-3", "-inf", "nan", "inf", "100.5", "150",
               "1e300", "1e400", "x"]


# small base graphs: K4, two loops and a bridge, a theta (parallel edges),
# one loop (2-regular, q_g = 1) and a path (not regular)
FUZZ_GRAPHS = [(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
               (2, [(0, 0), (0, 1), (1, 1)]),
               (2, [(0, 1), (0, 1), (0, 1)]),
               (1, [(0, 0)]),
               (3, [(0, 1), (1, 2)])]
_VOLTAGE = (st.integers(-4, 4) | st.sampled_from([10**19 + 1, -10**19 - 2])
            | st.none())
_BAD_TOKEN = st.sampled_from(["x", "1.5", "0x1", "-", "7 7"])


@st.composite
def graph_texts(draw):
    """A graph file: a base graph, maybe one extra loop or parallel edge,
    header fields that may disagree with it (q_c <= 1, non-prime q_c,
    q_c = 19, whose K4 cover is too large, up to 20 digits), small,
    negative and 20-digit voltages, and maybe a bad token."""
    n, edges = draw(st.sampled_from(FUZZ_GRAPHS))
    nodes = st.integers(0, n - 1)
    if draw(st.integers(0, 3)) == 0:
        edges = edges + [(draw(nodes), draw(nodes))]
    header = [draw(st.sampled_from([n] * 5 + [n + 1, 0, -1])),
              draw(st.sampled_from([2] * 5 + [1, 0])),
              draw(st.sampled_from([3, 3, 3, 5, 2, 1, 0, -3, 4, 9, 19]))]
    # one header field of up to 20 digits, above MAX_COVER_ORDER so that a
    # prime q_c is refused and never builds a cover of seconds
    if draw(st.integers(0, 3)) == 0:
        header[draw(st.integers(0, 2))] = draw(
            st.integers(MAX_COVER_ORDER + 1, 10**20 - 1)
            | st.integers(-10**20 + 1, -1))
    lines = [" ".join(map(str, header))]
    for u, v in edges:
        volt = draw(_VOLTAGE)
        lines.append(f"{u} {v}" + ("" if volt is None else f" {volt}"))
    if draw(st.integers(0, 5)) == 0:
        i = draw(st.integers(0, len(lines) - 1))
        lines[i] += " " + draw(_BAD_TOKEN)
    return "\n".join(lines) + "\n"


_CSV_FIELD = (st.sampled_from(["0.5", "0.75", "14.1", "-14.1", "0", "1", "-1",
                               "2", "1.5", "nan", "inf", "-inf", "1e400",
                               "1e300", "x", "", " 7 "])
              | st.floats().map(repr) | st.integers(-10**20, 10**20).map(str))


@st.composite
def catalog_texts(draw):
    """A catalog CSV: the header, a mangled one or none, then rows of two to
    four fields, each a number, a non-finite or out-of-range float, a
    20-digit integer or not a number."""
    header = draw(st.sampled_from(["re,im,order"] * 4
                                  + ["re, im, order", "re,im", "order,re,im", ""]))
    rows = draw(st.lists(st.lists(_CSV_FIELD, min_size=2, max_size=4)
                         .map(",".join), max_size=8))
    return "\n".join([header, *rows]) + "\n"


_FLOATS = st.floats(allow_nan=True, allow_infinity=True)
# the listed points and any pair of floats
_FUZZ_S = st.sampled_from(FUZZ_S) | st.tuples(_FLOATS, _FLOATS).map(
    lambda t: f"{t[0]!r},{t[1]!r}")


class TestArgvFuzz:
    """eval, continue, sieve, feq-check, zeros, boundary and graph exit 0, 2,
    3 or 5 on any argv, graph file and catalog CSV, never with a traceback;
    oversized grids, depths and heights are refused before they allocate."""

    @given(command=st.sampled_from(["eval", "continue"]),
           backend=st.sampled_from([["--d", "5"], ["--d", "-1"],
                                    ["--backend", "cyclic", "--char", "7,3,3"]]),
           s=st.none() | _FUZZ_S,
           grid=st.none() | st.sampled_from(FUZZ_GRID),
           depth=st.none() | st.sampled_from(FUZZ_DEPTH),
           cutoff=st.none() | st.sampled_from(FUZZ_CUTOFF))
    @settings(max_examples=150, deadline=None)
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_exit_code_and_no_traceback(self, command, backend, s, grid,
                                        depth, cutoff):
        argv = [command, *backend]
        for flag, value in (("--s", s), ("--grid", grid), ("--depth", depth),
                            ("--cutoff", cutoff)):
            if value is not None:
                argv.append(f"{flag}={value}")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the argv
                code = exc.code
        assert code in {0, 2, 3, 5}, (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()

    @pytest.mark.parametrize("cutoff", ["0", "-5", "-inf", "1.5", "nan", "inf",
                                        "1e7", "2e7"])
    @pytest.mark.parametrize("backend", [
        ["--d", "5"], ["--backend", "cyclic", "--char", "11,5"],
        ["--backend", "graph", "--graph-file", None],
    ], ids=["quadratic", "cyclic", "graph"])
    @pytest.mark.parametrize("command", [["sieve"], ["feq-check", "--s", "1.5,2"]],
                             ids=["sieve", "feq-check"])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_sieve_and_feq_check_cutoffs(self, k4_file, command, backend,
                                         cutoff):
        # 1e7 is the sieve cap and 2e7 beyond it; a graph hits its cycle
        # budget at either
        argv = [*command, *(k4_file if x is None else x for x in backend),
                f"--cutoff={cutoff}"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in {0, 2, 3, 5}, (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()


    @given(command=st.sampled_from(["zeros", "boundary"]),
           backend=st.sampled_from(["quadratic", "cyclic", "graph", "catalog"]),
           height=st.sampled_from(FUZZ_HEIGHT),
           depth=st.none() | st.sampled_from(FUZZ_DEPTH),
           graph=graph_texts(), catalog=catalog_texts())
    @settings(max_examples=100, deadline=None)
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:voltage cover is disconnected")
    def test_zeros_and_boundary(self, tmp_path_factory, command, backend,
                                height, depth, graph, catalog):
        argv = [command, "--backend", backend, f"--height={height}"]
        path = tmp_path_factory.mktemp("fuzz") / "input.txt"
        if backend == "quadratic":
            argv += ["--d", "5"]
        elif backend == "cyclic":
            argv += ["--char", "7,3,3"]
        else:
            path.write_text(graph if backend == "graph" else catalog)
            argv += [f"--{backend}-file", str(path)]
        if depth is not None and command == "boundary" and backend == "catalog":
            argv.append(f"--depth={depth}")  # q, read only from the catalog
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the argv
                code = exc.code
        assert code in {0, 2, 3, 5}, (argv, graph, catalog, err.getvalue())
        assert "Traceback" not in err.getvalue()

    @given(command=st.sampled_from(["ihara", "lfun", "partial", "verify"]),
           text=graph_texts(), order=st.none() | st.integers(-2, 14))
    @settings(max_examples=60, deadline=None)
    @pytest.mark.filterwarnings("ignore:voltage cover is disconnected")
    def test_graph_commands(self, tmp_path_factory, command, text, order):
        path = tmp_path_factory.mktemp("fuzz") / "graph.txt"
        path.write_text(text)
        argv = ["graph", command, "--graph-file", str(path)]
        if order is not None:
            argv.append(f"--order={order}")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in {0, 2, 3, 5}, (text, argv, err.getvalue())
        assert "Traceback" not in err.getvalue()

    @pytest.mark.parametrize("argv", [
        ["eval", "--d", "1000003"],
        ["eval", "--backend", "cyclic", "--char", "1000003,3"],
        ["eval", "--d", "1000000000000000003"],
    ], ids=["quadratic", "cyclic", "prime-d-1e18"])
    def test_large_modulus_refused_before_factoring(self, capsys, argv):
        # |D| = 4,000,012 took 7.9 s and 481 MB before the refusal, and
        # factoring the prime d = 10^18 + 3 took minutes
        t0 = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - t0
        err = capsys.readouterr().err
        assert (code, err.count("\n")) == (5, 1) and err.startswith("error: ")
        assert elapsed < 1.0

    def test_large_modulus_zeros_refused_in_bounded_memory(self):
        # one Hurwitz table of 1.49 GiB died of numpy's MemoryError with a
        # traceback
        proc = run_in_512_mib(["zeros", "--d", "1000003", "--height", "1"])
        assert (proc.returncode, proc.stdout) == (5, "")
        assert (proc.stderr.count("\n"), proc.stderr[:7]) == (1, "error: ")

    @pytest.mark.parametrize("argv", [
        ["eval", "--backend", "cyclic", "--char", "2039,1019", "--s", "2",
         "--cutoff", "1e4"],
        ["eval", "--backend", "cyclic", "--char", "8039,4019", "--s", "2"],
        ["continue", "--backend", "cyclic", "--char", "1019,509", "--s", "2"],
    ], ids=["2039,1019", "8039,4019", "continue-1019,509"])
    def test_large_character_order_refused_before_its_tables(self, capsys,
                                                             argv):
        # q - 1 = 1018 powers of 2039 residues took 21 s and 258 MB before
        # the first value, and 4018 powers of 8039 ran past 120 s
        t0 = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - t0
        err = capsys.readouterr().err
        assert (code, err.count("\n")) == (5, 1) and err.startswith("error: ")
        assert elapsed < 1.0

    def test_large_character_order_zeros_refused_in_bounded_memory(self):
        # the 4018 character tables died of a MemoryError with a traceback
        proc = run_in_512_mib(["zeros", "--backend", "cyclic", "--char",
                               "8039,4019", "--height", "1"])
        assert (proc.returncode, proc.stdout) == (5, "")
        assert (proc.stderr.count("\n"), proc.stderr[:7]) == (1, "error: ")

    @pytest.mark.parametrize("order", ["0", "-3"])
    def test_character_order_below_one(self, capsys, order):
        # order 0 raised ZeroDivisionError with a traceback
        code = main(["eval", "--backend", "cyclic", "--char", f"7,{order}",
                     "--s", "2"])
        err = capsys.readouterr().err
        assert (code, err.count("\n")) == (2, 1) and err.startswith("error: ")


def _error_classes(cls=PartialZetaError):
    for sub in cls.__subclasses__():
        yield sub
        yield from _error_classes(sub)


# each group of error classes and its exit code
EXIT_CODES = [(InvalidConfigError, 2), (DomainError, 3),
              (BudgetExceededError, 5)]


class TestExitCodes:
    @pytest.mark.parametrize("exc", sorted(set(_error_classes()),
                                           key=lambda c: c.__name__),
                             ids=lambda c: c.__name__)
    def test_every_error_class_maps_to_an_exit_code(self, capsys,
                                                    monkeypatch, exc):
        def fail(args):
            raise exc("stubbed failure")

        monkeypatch.setattr(cli, "cmd_sieve", fail)
        code = main(["sieve", "--d", "5", "--cutoff", "10"])
        assert code == next(c for group, c in EXIT_CODES
                            if issubclass(exc, group))
        assert capsys.readouterr().err == "error: stubbed failure\n"


class TestOutputFile:
    def test_out_flag(self, tmp_path, capsys):
        dest = tmp_path / "dump.csv"
        code = main(["sieve", "--backend", "quadratic", "--d", "5",
                     "--cutoff", "12", "--out", str(dest)])
        assert code == 0
        assert dest.read_text().startswith("id,norm,frob_class,frob_order")

    def test_unwritable_path(self, capsys):
        code = main(["sieve", "--backend", "quadratic", "--d", "5",
                     "--cutoff", "12", "--out", "/nonexistent/dir/x.csv"])
        assert code == 2

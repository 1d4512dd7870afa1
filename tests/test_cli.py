import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import fivefold
from fivefold import document, triangles
from fivefold.cli import main
from fivefold.document import (
    TilingDocument,
    patch_to_document,
    tiling_to_document,
    write_tiling,
)
from fivefold.grouping import CompositeKind, CompositeTiling, Group
from fivefold.triangles import Patch, canonical_acute, canonical_obtuse, homothety_rotation


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestWeyl:
    def test_prints_group_and_reports(self, capsys):
        code, out, err = run(capsys, "weyl")
        assert code == 0
        assert out.count("element ") == 10
        assert "axiom R1" in out and "pass" in out
        assert "100 pairs" in out


class TestPipeline:
    def test_deflate_verify_group_render(self, tmp_path, capsys):
        tiling = tmp_path / "s3.qtile"
        code, _, err = run(capsys, "deflate", "--seed", "sun", "--steps", "3",
                           "--out", str(tiling))
        assert code == 0 and tiling.exists()

        code, _, err = run(capsys, "verify", str(tiling))
        assert code == 0
        assert "ok" in err

        grouped = tmp_path / "s3-groups.qtile"
        code, _, err = run(capsys, "group", str(tiling), "--policy", "rhombs",
                           "--out", str(grouped))
        assert code == 0 and grouped.exists()
        assert "ThickRhomb" in err

        svg = tmp_path / "s3.svg"
        code, _, err = run(capsys, "render", str(grouped), "--svg", str(svg),
                           "--atoms")
        assert code == 0
        assert svg.read_bytes().startswith(b"<?xml")

        code, out, _ = run(capsys, "stats", str(grouped))
        assert code == 0
        assert "ThickRhomb" in out

    def test_deflate_jobs_identical_output(self, tmp_path, capsys):
        one = tmp_path / "a.qtile"
        four = tmp_path / "b.qtile"
        assert run(capsys, "deflate", "--seed", "wheel", "--steps", "4",
                   "--out", str(one), "--jobs", "1")[0] == 0
        assert run(capsys, "deflate", "--seed", "wheel", "--steps", "4",
                   "--out", str(four), "--jobs", "4")[0] == 0
        assert one.read_bytes() == four.read_bytes()

    def test_verify_rejects_tampered(self, tmp_path, capsys):
        tiling = tmp_path / "w.qtile"
        run(capsys, "deflate", "--seed", "wheel", "--steps", "1",
            "--out", str(tiling))
        data = tiling.read_text().replace("\nO 1 ", "\nO 999 ", 1)
        bad = tmp_path / "bad.qtile"
        bad.write_text(data)
        code, _, err = run(capsys, "verify", str(bad))
        assert code == 1
        assert "999" in err


class TestProjectAndScan:
    def test_project_writes_points(self, tmp_path, capsys):
        out = tmp_path / "proj.qtile"
        code, _, err = run(capsys, "project", "--radius", "3.0",
                           "--gamma", "0.01,0.0137,0.0071", "--box", "5",
                           "--out", str(out))
        assert code == 0
        assert "accepted points" in err
        assert "projection 0.01 0.0137 0.0071 3.0 5" in out.read_text()

    def test_far_gamma_accepts_nothing(self, tmp_path, capsys):
        out = tmp_path / "far.qtile"
        code, _, err = run(capsys, "project", "--radius", "3.0",
                           "--gamma", "0,0,1e308", "--box", "3", "--out", str(out))
        assert code == 0
        assert "0 accepted points" in err
        assert "projection 0.0 0.0 1e+308 3.0 3" in out.read_text()

    def test_scan_csv(self, tmp_path, capsys):
        csv = tmp_path / "scan.csv"
        code, _, err = run(capsys, "scan", "--from", "0,0,-1.118033988749895",
                           "--to", "0,0,-0.9", "--steps", "3",
                           "--csv", str(csv), "--radius", "3.0", "--box", "5")
        assert code == 0
        lines = csv.read_text().strip().split("\n")
        assert lines[0] == "gamma1,gamma2,gamma3,order,count"
        assert len(lines) == 4


class TestMalformedInput:
    def test_groups_line_without_count_exits_1(self, tmp_path, capsys):
        tiling = tmp_path / "s1.qtile"
        grouped = tmp_path / "s1-groups.qtile"
        run(capsys, "deflate", "--seed", "sun", "--steps", "1", "--out", str(tiling))
        run(capsys, "group", str(tiling), "--policy", "rhombs", "--out", str(grouped))
        lines = grouped.read_text().split("\n")
        at = next(i for i, line in enumerate(lines) if line.startswith("groups "))
        lines[at] = "groups "
        grouped.write_text("\n".join(lines))
        code, _, err = run(capsys, "stats", str(grouped))
        assert code == 1
        assert f"error: line {at + 1}: expected 'groups <n>'" in err


    @pytest.mark.parametrize("command", [
        ["group", "--policy", "rhombs", "--out", "out.qtile"],
        ["render", "--svg", "out.svg"],
    ], ids=["group", "render"])
    def test_changed_triangle_kind_exits_1(self, tmp_path, capsys, command):
        tiling = tmp_path / "s2.qtile"
        run(capsys, "deflate", "--seed", "sun", "--steps", "2", "--out", str(tiling))
        text = tiling.read_text()
        at = text.index("\nA ")
        tiling.write_text(text[:at + 1] + "O" + text[at + 2:])
        args = [command[0], str(tiling)] + [
            str(tmp_path / a) if a.startswith("out.") else a for a in command[1:]]
        code, _, err = run(capsys, *args)
        assert code == 1
        assert "error: line 38: triangle 0: obtuse ratio broken" in err
        assert not any(tmp_path.glob("out.*"))


class TestRenderRefuses:
    def test_overlapping_group_exits_1(self, tmp_path, capsys):
        # both triangles lie on the same side of their shared edge 0 -> tau
        tiling = CompositeTiling(Patch((canonical_acute(), canonical_obtuse())),
                                 (Group(CompositeKind.THIN_RHOMB, (0, 1)),))
        path = tmp_path / "overlap.qtile"
        path.write_bytes(write_tiling(tiling_to_document(tiling)))
        svg = tmp_path / "overlap.svg"
        code, _, err = run(capsys, "render", str(path), "--svg", str(svg))
        assert code == 1
        assert "error: group 0: outline does not close" in err
        assert not svg.exists()

    @pytest.mark.parametrize("exponent", ["1470", "1476"])
    def test_overlay_beyond_float_range_exits_1(self, tmp_path, capsys, exponent):
        tiling = tmp_path / "s2.qtile"
        run(capsys, "deflate", "--seed", "sun", "--steps", "2", "--out", str(tiling))
        svg = tmp_path / "s2.svg"
        code, _, err = run(capsys, "render", str(tiling), "--svg", str(svg),
                           "--overlay", f"{exponent},0")
        assert code == 1
        assert "error: SVG coordinates beyond the float range" in err
        assert not svg.exists()

    def test_vertices_beyond_float_range_exit_1(self, tmp_path, capsys):
        patch = homothety_rotation(Patch((canonical_acute(),)), 1500, 0)
        path = tmp_path / "far.qtile"
        path.write_bytes(write_tiling(patch_to_document(patch)))
        svg = tmp_path / "far.svg"
        code, _, err = run(capsys, "render", str(path), "--svg", str(svg))
        assert code == 1
        assert "error: SVG coordinates beyond the float range" in err
        assert not svg.exists()


class TestOverlayExponent:
    def test_huge_exponent_refused_before_the_power(self, tmp_path, capsys):
        tiling = tmp_path / "s2.qtile"
        run(capsys, "deflate", "--seed", "sun", "--steps", "2", "--out", str(tiling))
        svg = tmp_path / "s2.svg"
        start = time.perf_counter()
        code, _, err = run(capsys, "render", str(tiling), "--svg", str(svg),
                           "--overlay", "10000000,0")
        assert time.perf_counter() - start < 0.5
        assert code == 1
        assert "error: SVG coordinates beyond the float range" in err
        assert not svg.exists()

    def test_empty_document_ignores_the_exponent(self, tmp_path, capsys):
        path = tmp_path / "empty.qtile"
        path.write_bytes(write_tiling(TilingDocument()))
        outputs = []
        for overlay in ("0,0", "10000000,3"):
            svg = tmp_path / "empty.svg"
            start = time.perf_counter()
            code, _, _ = run(capsys, "render", str(path), "--svg", str(svg),
                             "--overlay", overlay)
            assert time.perf_counter() - start < 0.5
            assert code == 0
            outputs.append(svg.read_bytes())
        assert outputs[0] == outputs[1]

    def test_largest_renderable_exponent_unchanged(self, tmp_path, capsys):
        # 1464 is the largest exponent that renders this file; the digest
        # is the output of the exact computation, before the range check
        tiling = tmp_path / "s2.qtile"
        run(capsys, "deflate", "--seed", "sun", "--steps", "2", "--out", str(tiling))
        svg = tmp_path / "s2.svg"
        code, _, _ = run(capsys, "render", str(tiling), "--svg", str(svg),
                         "--overlay", "1464,0")
        assert code == 0
        assert hashlib.sha256(svg.read_bytes()).hexdigest() == (
            "b462bfea6127cfdbec532bce7e2c03c7dbf3b47ce4f9a89443ec42690e86bad6")


class TestOrphanVertex:
    @pytest.mark.parametrize("argv", [
        ["verify", "s1.qtile"],
        ["group", "s1.qtile", "--policy", "rhombs", "--out", "out"],
        ["render", "s1.qtile", "--atoms", "--svg", "out"],
    ], ids=["verify", "group", "render"])
    def test_refused(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        run(capsys, "deflate", "--seed", "sun", "--steps", "1", "--out", "s1.qtile")
        tiling = tmp_path / "s1.qtile"
        text = tiling.read_text().replace("vertices 16\n", "vertices 17\n")
        tiling.write_text(text.replace("\ntriangles ", "\n50 0 0 0\ntriangles "))
        code, stdout, err = run(capsys, *argv)
        assert code == 1
        assert err == "error: line 22: vertex 16 is not a corner of any triangle\n"
        assert stdout == "" and not (tmp_path / "out").exists()


class TestValidateOnce:
    def test_verify_checks_each_shape_once(self, tmp_path, capsys, monkeypatch):
        calls = []  # one entry per triangle row passed to the shape rule
        rule = triangles._shape_rule

        def counting(kind, chirality, coords):
            calls.extend(zip(kind, chirality, coords))
            return rule(kind, chirality, coords)

        monkeypatch.setattr(triangles, "_shape_rule", counting)
        monkeypatch.setattr(document, "_shape_rule", counting)
        tiling = tmp_path / "s3.qtile"
        run(capsys, "deflate", "--seed", "sun", "--steps", "3", "--out", str(tiling))
        calls.clear()
        code, _, err = run(capsys, "verify", str(tiling))
        assert code == 0 and "ok: 130 triangles" in err
        assert len(calls) == 130


class TestStats:
    def test_alloy_line(self, capsys):
        code, out, _ = run(capsys, "stats", "--alloy", "86:14")
        assert code == 0
        assert "tau^4" in out
        assert "6.1428571429" in out
        assert "deviation" in out

    def test_stats_without_input_fails(self, capsys):
        code, _, err = run(capsys, "stats")
        assert code == 1

    def test_stats_needs_groups(self, tmp_path, capsys):
        tiling = tmp_path / "plain.qtile"
        run(capsys, "deflate", "--seed", "sun", "--steps", "1",
            "--out", str(tiling))
        code, _, err = run(capsys, "stats", str(tiling))
        assert code == 1
        assert "group" in err


class TestUsage:
    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["deflate", "--bogus"])
        assert exc.value.code == 2

    def test_version_mentions_format(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "qtile format 1" in out

    @pytest.mark.parametrize("argv", [
        ["project", "--radius", "nan", "--gamma", "0.01,0.0137,0.0071"],
        ["project", "--radius", "inf", "--gamma", "0.01,0.0137,0.0071"],
        ["project", "--radius", "3", "--gamma", "nan,0,0"],
        ["project", "--radius", "3", "--gamma", "0,-inf,0"],
        ["scan", "--from", "0,0,nan", "--to", "0,0,-0.9"],
        ["scan", "--from", "0,0,-1.1", "--to", "inf,0,-0.9"],
        ["scan", "--from", "0,0,-1.1", "--to", "0,0,-0.9", "--radius", "nan"],
    ], ids=["project-radius-nan", "project-radius-inf", "project-gamma-nan",
            "project-gamma-inf", "scan-from-nan", "scan-to-inf", "scan-radius-nan"])
    def test_non_finite_projection_input_exits_2(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        if argv[0] == "project":
            argv = argv + ["--out", str(out)]
        else:
            argv = argv + ["--steps", "3", "--csv", str(out)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("scale", ["nan", "inf", "-5", "0"])
    def test_bad_render_scale_exits_2(self, tmp_path, capsys, scale):
        tiling = tmp_path / "s1.qtile"
        run(capsys, "deflate", "--seed", "sun", "--steps", "1", "--out", str(tiling))
        svg = tmp_path / "s1.svg"
        with pytest.raises(SystemExit) as exc:
            main(["render", str(tiling), "--svg", str(svg), "--scale", scale])
        assert exc.value.code == 2
        assert "scale" in capsys.readouterr().err
        assert not svg.exists()

    def test_negative_overlay_exponent_exits_2(self, tmp_path, capsys):
        tiling = tmp_path / "s2.qtile"
        run(capsys, "deflate", "--seed", "sun", "--steps", "2", "--out", str(tiling))
        svg = tmp_path / "s2.svg"
        with pytest.raises(SystemExit) as exc:
            main(["render", str(tiling), "--svg", str(svg), "--overlay=-1,0"])
        assert exc.value.code == 2
        assert "overlay tau exponent must be >= 0" in capsys.readouterr().err
        assert not svg.exists()

    def test_missing_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


class TestStartup:
    def test_import_loads_neither_numpy_nor_scipy(self):
        # only project and scan need them; every other command starts without
        src = str(Path(fivefold.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = ("import sys, fivefold.cli; "
                "print(sorted(m for m in ('numpy', 'scipy') if m in sys.modules))")
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "[]"

    def test_project_and_scan_run_without_scipy(self, tmp_path, capsys):
        # scipy is a test-only dependency: with every scipy import made to
        # fail, both projection commands still write the same bytes
        project = ["project", "--radius", "3", "--gamma", "0.01,0.0137,0.0071",
                   "--box", "4"]
        scan = ["scan", "--from", "0,0,-1.118033988749895", "--to", "0,0,-0.9",
                "--steps", "3", "--radius", "3", "--box", "4"]
        blocked = [project + ["--out", str(tmp_path / "blocked.qtile")],
                   scan + ["--csv", str(tmp_path / "blocked.csv")]]
        src = str(Path(fivefold.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = ("import sys; sys.modules['scipy'] = None; from fivefold.cli import run; "
                f"print([run(argv) for argv in {blocked!r}])")
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "[0, 0]"
        assert run(capsys, *project, "--out", str(tmp_path / "q.qtile"))[0] == 0
        assert run(capsys, *scan, "--csv", str(tmp_path / "s.csv"))[0] == 0
        assert (tmp_path / "blocked.qtile").read_bytes() == (tmp_path / "q.qtile").read_bytes()
        assert (tmp_path / "blocked.csv").read_bytes() == (tmp_path / "s.csv").read_bytes()

"""Command-line entry point: seeds, deflation, grouping, projection,
statistics, verification and rendering in one reproducible pipeline.

Exit codes: 0 success, 1 validation or processing failure, 2 usage error.
All diagnostics go to stderr; data goes to files or stdout.
"""

from __future__ import annotations

import argparse
import math
import sys
from collections import Counter

from . import FORMAT_VERSION, __version__
from .document import (
    DocumentError,
    document_to_patch,
    patch_to_document,
    quasilattice_to_document,
    read_tiling,
    tiling_to_document,
    write_tiling,
)
from .grouping import POLICIES, count_tiles, detect_composites, glue_rhombs, verify_grouping
from .stats import alloy_check, ratio_report
from .svg import RenderOptions, render_svg
from .triangles import deflate_patch, seed_patch, validate_disk
from .weyl import (
    check_reflection_conjugacy,
    check_root_axioms,
    closure_with_words,
    group_closure,
    root_system,
    simple_reflections,
)

__all__ = ["main", "run"]


def _parse_gamma(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("gamma must be three comma-separated floats")
    try:
        gamma = tuple(float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad gamma component in {text!r}")
    if not all(math.isfinite(g) for g in gamma):
        raise argparse.ArgumentTypeError(f"gamma must be finite, got {text!r}")
    return gamma


def _parse_radius(text: str) -> float:
    try:
        radius = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad radius {text!r}")
    if not math.isfinite(radius):
        raise argparse.ArgumentTypeError(f"radius must be finite, got {text!r}")
    return radius


def _parse_scale(text: str) -> float:
    try:
        scale = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad scale {text!r}")
    if not (math.isfinite(scale) and scale > 0):
        raise argparse.ArgumentTypeError(
            f"scale must be finite and positive, got {text!r}")
    return scale


def _parse_overlay(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("overlay must be 'tau_exponent,rot72_steps'")
    try:
        k, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad overlay component in {text!r}")
    if k < 0:
        raise argparse.ArgumentTypeError(f"overlay tau exponent must be >= 0, got {k}")
    return k, m


def _parse_alloy(text: str) -> tuple[int, int]:
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("alloy must be 'A:B'")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad alloy component in {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fivefold",
        description="exact quasiperiodic tilings with 5- and 10-fold symmetry")
    parser.add_argument("--version", action="version",
                        version=f"fivefold {__version__} (qtile format {FORMAT_VERSION})")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("weyl", help="print the reflection group and its checks")

    p = sub.add_parser("deflate", help="deflate a seed patch")
    p.add_argument("--seed", choices=("sun", "wheel", "acute", "obtuse"),
                   required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=int, default=1)

    p = sub.add_parser("verify", help="validate a tiling file")
    p.add_argument("file")

    p = sub.add_parser("group", help="regroup a tiling into composite tiles")
    p.add_argument("file")
    p.add_argument("--policy", choices=sorted(POLICIES), required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("project", help="cut-and-project a quasilattice")
    p.add_argument("--radius", type=_parse_radius, required=True)
    p.add_argument("--gamma", type=_parse_gamma, required=True)
    p.add_argument("--box", type=int, default=8)
    p.add_argument("--out", required=True)

    p = sub.add_parser("scan", help="scan window offsets and report symmetry")
    p.add_argument("--from", dest="start", type=_parse_gamma, required=True)
    p.add_argument("--to", dest="stop", type=_parse_gamma, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--csv", required=True)
    p.add_argument("--radius", type=_parse_radius, default=6.0)
    p.add_argument("--box", type=int, default=8)

    p = sub.add_parser("stats", help="tau-power ratio statistics")
    p.add_argument("file", nargs="?")
    p.add_argument("--alloy", type=_parse_alloy)

    p = sub.add_parser("render", help="render a tiling file to SVG")
    p.add_argument("file")
    p.add_argument("--svg", required=True)
    p.add_argument("--atoms", action="store_true")
    p.add_argument("--overlay", type=_parse_overlay)
    p.add_argument("--scale", type=_parse_scale, default=100.0)
    return parser


def _cmd_weyl(_args) -> int:
    s_a, s_b = simple_reflections()
    words = closure_with_words(s_a, s_b)
    for word, matrix in words.items():
        print(f"element {word}")
        print(f"[ {matrix.m00}  {matrix.m01} ]")
        print(f"[ {matrix.m10}  {matrix.m11} ]")
    roots = root_system()
    axioms = check_root_axioms(roots)
    print(f"axiom R1 (parallel roots are +-r): {'pass' if axioms.r1_ok else 'FAIL'}")
    print(f"axiom R2 (reflections permute roots): {'pass' if axioms.r2_ok else 'FAIL'}")
    conj = check_reflection_conjugacy(group_closure([s_a, s_b]), roots)
    print(f"reflection conjugacy: {'pass' if conj.ok else 'FAIL'} "
          f"({conj.checked} pairs)")
    if not (axioms.ok and conj.ok):
        for witness in (axioms.r1_witness, axioms.r2_witness, conj.witness):
            if witness:
                print(witness, file=sys.stderr)
        return 1
    return 0


def _cmd_deflate(args) -> int:
    if args.steps < 0:
        print("steps must be >= 0", file=sys.stderr)
        return 1
    patch = deflate_patch(seed_patch(args.seed), args.steps,
                          jobs=max(1, args.jobs))
    doc = patch_to_document(patch)
    with open(args.out, "wb") as f:
        f.write(write_tiling(doc))
    print(f"wrote {args.out}: {len(patch)} triangles, "
          f"{len(patch._numbering[0])} vertices", file=sys.stderr)
    return 0


def _cmd_verify(args) -> int:
    with open(args.file, "rb") as f:
        doc = read_tiling(f.read())
    patch = document_to_patch(doc)
    report = validate_disk(patch)  # read_tiling has proven every shape
    if not report.ok:
        print(f"INVALID: {report.first()}", file=sys.stderr)
        return 1
    print(f"ok: {len(patch)} triangles, generation {patch.generation}",
          file=sys.stderr)
    return 0


def _cmd_group(args) -> int:
    with open(args.file, "rb") as f:
        doc = read_tiling(f.read())
    patch = document_to_patch(doc)
    if args.policy == "rhombs":
        tiling = glue_rhombs(patch)
    else:
        tiling = detect_composites(patch, POLICIES[args.policy])
    check = verify_grouping(tiling)
    if not check.ok:
        print(f"grouping failed re-verification: {check.problems[0]}",
              file=sys.stderr)
        return 1
    out_doc = tiling_to_document(tiling)
    with open(args.out, "wb") as f:
        f.write(write_tiling(out_doc))
    counts = count_tiles(tiling)
    summary = ", ".join(f"{k.value}={v}" for k, v in sorted(
        counts.items(), key=lambda kv: kv[0].value))
    print(f"wrote {args.out}: {summary}; coverage {tiling.coverage():.1%}",
          file=sys.stderr)
    return 0


def _cmd_project(args) -> int:
    from .projection import generate_quasilattice

    points = generate_quasilattice(args.radius, args.gamma, args.box)
    doc = quasilattice_to_document(points, args.gamma, args.radius, args.box)
    with open(args.out, "wb") as f:
        f.write(write_tiling(doc))
    print(f"wrote {args.out}: {len(points)} accepted points", file=sys.stderr)
    return 0


def _cmd_scan(args) -> int:
    if args.steps < 2:
        print("need at least 2 steps", file=sys.stderr)
        return 1
    import numpy as np

    from .projection import scan_offset

    start = np.array(args.start)
    stop = np.array(args.stop)
    path = [tuple(start + (stop - start) * k / (args.steps - 1))
            for k in range(args.steps)]
    entries = scan_offset(path, args.radius, args.box)
    with open(args.csv, "w", encoding="ascii") as f:
        f.write("gamma1,gamma2,gamma3,order,count\n")
        for e in entries:
            f.write(f"{e.gamma[0]!r},{e.gamma[1]!r},{e.gamma[2]!r},"
                    f"{e.order},{e.count}\n")
    orders = sorted({e.order for e in entries})
    print(f"wrote {args.csv}: {len(entries)} offsets, orders seen {orders}",
          file=sys.stderr)
    return 0


def _cmd_stats(args) -> int:
    if args.file is None and args.alloy is None:
        print("nothing to do: give a tiling file or --alloy A:B", file=sys.stderr)
        return 1
    if args.file is not None:
        with open(args.file, "rb") as f:
            doc = read_tiling(f.read())
        # the kinds alone, without building the groups tuple
        if doc._group_arrays is None:
            print("file has no groups section; run `fivefold group` first",
                  file=sys.stderr)
            return 1
        counts = Counter(doc._group_arrays[0])
        print("kind counts:")
        for kind in sorted(counts):
            print(f"  {kind:<16} {counts[kind]}")
        report = ratio_report(counts)
        print("ratio                              observed  nearest   deviation")
        for e in report.entries:
            print(f"  {e.label:<32} {e.ratio:>9.4f}  tau^{e.power:<4d} {e.deviation:>9.4f}")
    if args.alloy is not None:
        a, b = args.alloy
        ratio, power, deviation = alloy_check(a, b)
        tau_k = (1 + 5 ** 0.5) / 2
        print(f"alloy {a}:{b} ratio {ratio:.10f} nearest tau^{power} "
              f"= {tau_k ** power:.10f} deviation {deviation:.10f}")
    return 0


def _cmd_render(args) -> int:
    with open(args.file, "rb") as f:
        doc = read_tiling(f.read())
    options = RenderOptions(scale=args.scale, atoms=args.atoms,
                            overlay=args.overlay)
    data = render_svg(doc, options)
    with open(args.svg, "wb") as f:
        f.write(data)
    print(f"wrote {args.svg}: {len(data)} bytes", file=sys.stderr)
    return 0


_COMMANDS = {
    "weyl": _cmd_weyl,
    "deflate": _cmd_deflate,
    "verify": _cmd_verify,
    "group": _cmd_group,
    "project": _cmd_project,
    "scan": _cmd_scan,
    "stats": _cmd_stats,
    "render": _cmd_render,
}


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (DocumentError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return 1


def main(argv: list[str] | None = None) -> int:
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())

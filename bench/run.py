"""Benchmark for fivefold: three CLI pipelines timed from outside the program.

    python3 bench/run.py --workload sun7-rhombs --seed 0 --seconds 40 --trace 0

Each workload calls the package's public functions in the order the
`fivefold` commands do, passing every .qtile, CSV and SVG through a
temporary directory.  Every output is checked against the digests and
counts pinned in bench/pins.json.  The last line of stdout is one JSON
object: end-to-end metrics with --trace 0, per-layer metrics with --trace 1,
named and with the units declared in BENCHMARK.json.  The traced run also
writes its spans to bench/.work/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
PINS = BENCH / "pins.json"
SPEC_FILE = ROOT / "BENCHMARK.json"

# One process, no threads: native libraries stay single-threaded too.
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1"}
MIN_ITERATIONS = 5  # a run makes at least this many passes
GENERIC_ENDS = 8  # the scan seed picks one of this many pinned path ends
CRITERION_10_GAMMA = (0.01, 0.0137, 0.0071)

SUN, WHEEL, SCAN = "sun7-rhombs", "wheel7-setb", "scan-c11"
WORKLOADS = (SUN, WHEEL, SCAN)


@dataclass(frozen=True)
class Size:
    sun: int
    wheel: int
    radius: float
    box: int
    smoke: bool


FULL = Size(sun=7, wheel=7, radius=6.0, box=8, smoke=False)
SMOKE = Size(sun=4, wheel=4, radius=3.0, box=4, smoke=True)


class Tracer:
    """Spans around the benchmark's calls into each layer, kept in memory."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        record = {"id": len(self.spans), "name": name, "run": self.run_id,
                  "parent": self._open[-1] if self._open else None,
                  "start": time.perf_counter() - self._t0, "end": None}
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter() - self._t0
            self._open.pop()


class NoTrace:
    _null = nullcontext()

    def span(self, _name: str):
        return self._null


class Checks:
    """Output checks; every mismatch is one failed operation."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, what: str, got, want) -> None:
        self.attempted += 1
        if got != want:
            self.failures.append(f"{what}: expected {want!r}, got {got!r}")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------- workloads
#
# Each pipeline fills its Run's `files` (the bytes of every file it wrote,
# by name) and `counts` (what its layers produced).  Layer calls sit in
# spans named <module>.<function>; "io.file" spans hold the file reads and
# writes, which the document layer leaves to its callers.

class Run:
    def __init__(self, ff, tracer, work: Path, size: Size, seed: int,
                 fixture: Path | None):
        self.ff = ff
        self.t = tracer
        self.work = work
        self.size = size
        self.seed = seed
        self.fixture = fixture
        self.files: dict[str, bytes] = {}
        self.counts: dict = {"document.bytes_written": 0, "document.bytes_read": 0}

    def save(self, name: str, data: bytes) -> None:
        with self.t.span("io.file"):
            (self.work / name).write_bytes(data)
        self.files[name] = data

    def load(self, path: Path) -> bytes:
        with self.t.span("io.file"):
            return path.read_bytes()

    def write_doc(self, name: str, doc) -> None:
        with self.t.span("document.write_tiling"):
            blob = self.ff.document.write_tiling(doc)
        self.counts["document.bytes_written"] += len(blob)
        self.save(name, blob)

    def read_doc(self, path: Path):
        data = self.load(path)
        with self.t.span("document.read_tiling"):
            doc = self.ff.document.read_tiling(data)
        self.counts["document.bytes_read"] += len(data)
        return doc

    def to_patch(self, doc):
        with self.t.span("document.document_to_patch"):
            return self.ff.document.document_to_patch(doc)

    def grouped(self, tiling, name: str):
        """verify_grouping, then write and read back the grouped document
        (the tail of `fivefold group` and the head of `stats`/`render`)."""
        with self.t.span("grouping.verify_grouping"):
            check = self.ff.grouping.verify_grouping(tiling)
        with self.t.span("document.tiling_to_document"):
            doc = self.ff.document.tiling_to_document(tiling)
        self.write_doc(name, doc)
        doc = self.read_doc(self.work / name)
        kinds = self.ff.grouping.count_tiles(tiling)
        self.counts.update({
            "grouping.problems": len(check.problems),
            "grouping.groups": len(tiling.groups),
            "grouping.coverage": tiling.coverage(),
            "grouping.kinds": {k.value: n for k, n in sorted(
                kinds.items(), key=lambda kv: kv[0].value)},
        })
        return doc

    def render(self, doc, name: str, options) -> None:
        with self.t.span("svg.render_svg"):
            data = self.ff.svg.render_svg(doc, options)
        self.counts["svg.bytes"] = len(data)
        self.save(name, data)

    def patch_counts(self, doc) -> None:
        self.counts["triangles.count"] = len(doc.triangles)
        self.counts["triangles.vertex_count"] = len(doc.vertices)


def sun_rhombs(r: Run) -> None:
    """deflate -> verify -> group --policy rhombs -> render --atoms."""
    ff, n = r.ff, r.size.sun
    with r.t.span("triangles.deflate_patch"):
        patch = ff.triangles.deflate_patch(ff.triangles.seed_sun(), n)
    with r.t.span("document.patch_to_document"):
        doc = ff.document.patch_to_document(patch)
    del patch
    r.write_doc(f"sun{n}.qtile", doc)
    doc = r.read_doc(r.work / f"sun{n}.qtile")
    r.patch_counts(doc)
    patch = r.to_patch(doc)
    with r.t.span("triangles.validate_patch"):
        report = ff.triangles.validate_patch(patch)
    r.counts["triangles.validate_problems"] = len(report.problems)
    with r.t.span("grouping.glue_rhombs"):
        tiling = ff.grouping.glue_rhombs(patch)
    doc = r.grouped(tiling, f"sun{n}-rhombs.qtile")
    r.render(doc, f"sun{n}-rhombs.svg", ff.svg.RenderOptions(atoms=True))


def wheel_setb(r: Run) -> None:
    """group --policy setb -> stats -> render --atoms --overlay 2,1 on an
    existing deflated wheel file."""
    ff, n = r.ff, r.size.wheel
    doc = r.read_doc(r.fixture)
    r.patch_counts(doc)
    patch = r.to_patch(doc)
    with r.t.span("grouping.detect_composites"):
        tiling = ff.grouping.detect_composites(patch, ff.grouping.SET_B)
    doc = r.grouped(tiling, f"wheel{n}-setb.qtile")
    kinds: dict[str, int] = {}
    for kind, _indices in doc.groups:  # as `fivefold stats` counts them
        kinds[kind] = kinds.get(kind, 0) + 1
    with r.t.span("stats.ratio_report"):
        report = ff.stats.ratio_report(kinds)
    r.counts["stats.report"] = [[e.label, e.power, e.ratio] for e in report.entries]
    r.render(doc, f"wheel{n}-setb.svg",
             ff.svg.RenderOptions(atoms=True, overlay=(2, 1)))


def criterion_11_path(proj, seed: int) -> list[tuple[float, float, float]]:
    """Criterion 11's path: z10 to z5 in 25 points, then 25 more towards a
    generic end.  The seed picks one of GENERIC_ENDS generic ends; multiples
    of GENERIC_ENDS give criterion 11's path exactly."""
    import numpy as np

    z10 = proj.symmetric_gamma()
    z5 = (0.0, 0.0, z10[2] + 0.12)
    k = seed % GENERIC_ENDS
    generic = (0.021 + 0.002 * k, 0.034 - 0.003 * k, z10[2] + 0.19 + 0.004 * k)
    path = [tuple(np.array(z10) + (np.array(z5) - np.array(z10)) * k / 24)
            for k in range(25)]
    path += [tuple(np.array(z5) + (np.array(generic) - np.array(z5)) * k / 24)
             for k in range(1, 26)]
    return path


def scan_path(proj, seed: int, smoke: bool) -> list[tuple[float, float, float]]:
    """Every 4th offset of criterion 11's path: 13 offsets that keep z10
    (index 0), z5 (24) and the generic end (48).  The smoke path keeps only
    those three."""
    path = criterion_11_path(proj, seed)
    return [path[0], path[24], path[48]] if smoke else path[::4]


def scan(r: Run) -> None:
    """scan over 13 offsets of criterion 11's path -> CSV, then project at
    criterion 10's gamma on the same enumeration -> .qtile."""
    proj, radius, box = r.ff.projection, r.size.radius, r.size.box
    path = scan_path(proj, r.seed, r.size.smoke)
    with r.t.span("projection.enumeration"):
        enum = proj.LatticeEnumeration(box, radius)
    if isinstance(r.t, Tracer):  # one span per offset gives per-offset times
        entries = []
        for gamma in path:
            with r.t.span("projection.scan_offset"):
                entries += proj.scan_offset([gamma], radius, box, enumeration=enum)
    else:
        with r.t.span("projection.scan_offset"):
            entries = proj.scan_offset(path, radius, box, enumeration=enum)
    with r.t.span("io.file"):  # the CSV exactly as `fivefold scan` writes it
        rows = ["gamma1,gamma2,gamma3,order,count\n"]
        rows += [f"{e.gamma[0]!r},{e.gamma[1]!r},{e.gamma[2]!r},{e.order},{e.count}\n"
                 for e in entries]
    r.save(f"scan-g{r.seed % GENERIC_ENDS}.csv", "".join(rows).encode("ascii"))
    with r.t.span("projection.generate_quasilattice"):
        points = proj.generate_quasilattice(radius, CRITERION_10_GAMMA, box,
                                            enumeration=enum)
    with r.t.span("document.quasilattice_to_document"):
        doc = r.ff.document.quasilattice_to_document(points, CRITERION_10_GAMMA,
                                                     radius, box)
    r.write_doc("project.qtile", doc)
    r.counts.update({
        "projection.project_points": len(points),
        "projection.orders_10_and_5": {10, 5} <= {e.order for e in entries},
        "projection.accepted": sum(e.count for e in entries) + len(points),
    })


PIPELINES = {SUN: sun_rhombs, WHEEL: wheel_setb, SCAN: scan}


@contextmanager
def counting_window_rows(proj, counts: dict):
    """Count, from outside the program, the rows it passes to
    Window.residuals: the candidate points its acceptance test looks at."""
    import numpy as np

    original = proj.Window.residuals

    def residuals(self, points):
        counts["projection.candidates"] += np.atleast_2d(points).shape[0]
        return original(self, points)

    counts["projection.candidates"] = 0
    proj.Window.residuals = residuals
    try:
        yield
    finally:
        proj.Window.residuals = original


# ------------------------------------------------------------------ harness

def load_program():
    """Import fivefold from this checkout's src/, or None if it is absent."""
    if not (SRC / "fivefold" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import fivefold.document
    import fivefold.grouping
    import fivefold.projection
    import fivefold.stats
    import fivefold.svg
    import fivefold.triangles

    if Path(fivefold.__file__).resolve().parent != SRC / "fivefold":
        return None
    return fivefold


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC), **SINGLE_THREAD)


def import_seconds() -> float:
    """Time a fresh interpreter takes to import fivefold.cli, as every CLI
    call does."""
    code = ("import time; t = time.perf_counter(); import fivefold.cli; "
            "print(repr(time.perf_counter() - t))")
    out = subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT,
                         capture_output=True, text=True, timeout=60, check=True)
    return float(out.stdout.strip())


def wheel_fixture(size: Size, pins: dict, checks: Checks) -> Path:
    """The deflated wheel file of the wheel workload, built once per checkout
    with `fivefold deflate` and checked against its pinned digest each run."""
    name = f"wheel{size.wheel}.qtile"
    path = WORK / name
    want = pins["inputs"][name]
    if not (path.is_file() and sha256(path.read_bytes()) == want):
        tmp = WORK / f"{name}.part"
        subprocess.run([sys.executable, "-m", "fivefold.cli", "deflate",
                        "--seed", "wheel", "--steps", str(size.wheel),
                        "--out", str(tmp)], env=child_env(), cwd=ROOT,
                       capture_output=True, timeout=600, check=True)
        os.replace(tmp, path)
    checks.expect(f"sha256 {name}", sha256(path.read_bytes()), want)
    return path


def check_outputs(checks: Checks, pins: dict, files: dict, counts: dict) -> None:
    for name, data in sorted(files.items()):
        checks.expect(f"sha256 {name}", sha256(data), pins["files"].get(name))
    for key, want in sorted(pins["counts"].items()):
        checks.expect(key, counts.get(key), want)


def run_once(ff, workload: str, tracer, work: Path, size: Size, seed: int,
             fixture: Path | None) -> tuple[float, Run]:
    gc.collect()
    r = Run(ff, tracer, work, size, seed, fixture)
    with tracer.span("bench.pipeline"):
        t0 = time.perf_counter()
        PIPELINES[workload](r)
        wall = time.perf_counter() - t0
    return wall, r


def self_times(spans: list[dict]) -> dict[str, float]:
    """Per span name: summed duration minus the part its children cover."""
    child_time = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
    out: dict[str, float] = {}
    for s in spans:
        d = s["end"] - s["start"] - child_time.get(s["id"], 0.0)
        out[s["name"]] = out.get(s["name"], 0.0) + d
    return out


def per_layer_metrics(names, tracer: Tracer, counts: dict, traced_wall: float,
                      untraced_wall: float, checks: Checks) -> dict[str, float]:
    spans = tracer.spans
    busy = self_times(spans)
    layer_spans = [s for s in spans if s["parent"] == 0]
    covered = sum(s["end"] - s["start"] for s in layer_spans)
    pass_wall = spans[0]["end"] - spans[0]["start"]  # the bench.pipeline span
    offsets = [(s["end"] - s["start"]) * 1e3 for s in spans
               if s["name"] == "projection.scan_offset"]
    values = {name: 0.0 for name in names}
    for name in names:
        if name.endswith("_s") and name[:-2] in busy:
            values[name] = busy[name[:-2]]
        elif name in counts:
            values[name] = counts[name]
    values.update({
        "trace_overhead_frac": traced_wall / untraced_wall - 1.0,
        "trace_coverage_frac": covered / pass_wall,
        "ops_failed_frac": len(checks.failures) / checks.attempted,
    })
    if values["projection.candidates"]:
        values["projection.accept_ratio"] = (values["projection.accepted"]
                                             / values["projection.candidates"])
    if len(offsets) >= 2:
        values["projection.offset_p50_ms"] = statistics.median(offsets)
        values["projection.offset_p80_ms"] = statistics.quantiles(offsets, n=5)[3]
    return values


def print_self_time_table(spans: list[dict]) -> None:
    wall = spans[0]["end"] - spans[0]["start"]
    layers: dict[str, list] = {}
    busy = self_times(spans)
    calls: dict[str, int] = {}
    for s in spans:
        calls[s["name"]] = calls.get(s["name"], 0) + 1
    for name, seconds in busy.items():
        row = layers.setdefault(name.split(".")[0], [0, 0.0])
        row[0] += calls[name]
        row[1] += seconds
    print(f"{'layer':<12} {'calls':>6} {'self_s':>9} {'share':>7}")
    for layer, (n, seconds) in sorted(layers.items(), key=lambda kv: -kv[1][1]):
        print(f"{layer:<12} {n:>6} {seconds:>9.3f} {seconds / wall:>7.1%}")


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:  # never look for a repository above the checkout
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu, "commit": commit}


def measure(ff, workload: str, seed: int, seconds: float, trace: bool,
            size: Size) -> dict:
    pins = json.loads(PINS.read_text())["smoke" if size.smoke else "full"][workload]
    spec = json.loads(SPEC_FILE.read_text())["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in spec}  # the metrics this run reports
    checks = Checks()
    fixture = wheel_fixture(size, pins, checks) if workload == WHEEL else None
    setup, walls, steps = [], [], []
    traced = []  # (wall, tracer, run) of each traced pass
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        work = Path(tmp)
        deadline = time.perf_counter() + seconds
        while True:
            t0 = time.perf_counter()
            # one fresh import per pass, so the setup median spans the whole run
            setup.append(import_seconds())
            wall, r = run_once(ff, workload, NoTrace(), work, size, seed, fixture)
            walls.append(wall)
            check_outputs(checks, pins, r.files, r.counts)
            del r
            if len(walls) == 1:  # one pass, as one CLI call makes
                peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if trace:  # a traced pass after each untraced one
                tracer = Tracer(f"{workload}-seed{seed}-traced{len(walls)}")
                tested: dict = {}
                with counting_window_rows(ff.projection, tested):
                    traced_wall, r = run_once(ff, workload, tracer, work, size, seed, fixture)
                r.counts.update(tested)
                check_outputs(checks, pins, r.files, r.counts)
                traced.append((traced_wall, tracer, r))
                del r
            steps.append(time.perf_counter() - t0)
            # stop when another step would likely end past the deadline
            if (len(walls) >= MIN_ITERATIONS
                    and time.perf_counter() + statistics.median(steps) > deadline):
                break
        wall_s = statistics.median(walls)
        print(f"{workload} seed {seed}: untraced wall_s " + " ".join(f"{w:.3f}" for w in walls)
              + f" (median {wall_s:.3f})")
        print("setup_s " + " ".join(f"{v:.3f}" for v in setup))
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    for failure in checks.failures:
        print(f"CHECK FAILED {failure}", file=sys.stderr)
    if trace:
        traced.sort(key=lambda t: t[0])
        _, tracer, r = traced[len(traced) // 2]  # the median traced pass
        traced_wall = statistics.median(t[0] for t in traced)
        spans_path = WORK / f"spans-{workload}-seed{seed}.json"
        spans_path.write_text(json.dumps(
            {"workload": workload, "seed": seed, "env": env, "spans": tracer.spans},
            indent=1))
        print(f"spans of the median traced pass written to {spans_path.relative_to(ROOT)}")
        print_self_time_table(tracer.spans)
        values = per_layer_metrics(list(units), tracer, r.counts, traced_wall,
                                   wall_s, checks)
    else:
        values = {"wall_s": wall_s, "setup_s": statistics.median(setup),
                  "peak_rss_mb": peak_mb}
    return {
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="toy sizes with the same metric names")
    args = parser.parse_args(argv)
    os.environ.update(SINGLE_THREAD)
    ff = load_program()
    if ff is None:
        print(f"error: no fivefold package under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    result = measure(ff, args.workload, args.seed, args.seconds, bool(args.trace),
                     SMOKE if args.smoke else FULL)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""``cli``: each op is one fresh ``python -m measpace.cli <verb> ...`` process.

Inputs have at most 6 points and are written during set-up.  A pass runs
all 21 verbs plus exit-1 witness cases and exit-2 malformed-input cases.

Why: compute is nearly zero, so interpreter start, import, argparse and
``jsonio`` dominate; this is the end-to-end wall time of one CLI call.
A compute optimisation must leave this workload unchanged.  Children
write no bytecode and each run first removes any stale ``__pycache__``
under ``src/``, so every call compiles ``measpace`` from source (see
``CHILD_ENV`` and ``drop_stale_bytecode`` in ``run.py``).
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
from time import perf_counter_ns

import gen
import oracles

CHILD_TIMEOUT_S = 60
#: Nominal time of one bare ``python -c pass`` child, the reference this
#: workload's timings are scaled to.
BARE_S = 0.08


def _extension(rng, small):
    """A space embedding ``small``: one fiber point and one null pasted point."""
    fiber, pasted = gen.labels(rng, 2, taken=small["points"])
    atoms = [list(a) for a in small["atoms"]]
    rng.choice(atoms).append(fiber)
    return {
        "points": small["points"] + [fiber, pasted],
        "atoms": atoms + [[pasted]],
        "values": small["values"] + ["0"],
    }


def _kit(rng, broken=False):
    base = gen.space(rng, 3, 2)
    fiber, z = gen.labels(rng, 2, taken=base["points"])
    ds = [[], [z]]
    keys = ["", ",".join(base["atoms"][0]), ",".join(base["atoms"][1]), ",".join(base["points"])]
    dfamily = {key: ds for key in keys}
    if broken:  # the complement of the empty pasted set leaves D_X
        dfamily[",".join(base["points"])] = [[]]
    return {
        "base": base,
        "pasted": {"points": [z], "atoms": [[z]]},
        "dfamily": dfamily,
        "fibers": {",".join(base["atoms"][0]): [fiber]},
    }


def cases(rng) -> list[dict]:
    """One pass: (name, argv, expected exit code, input files)."""
    out = []

    def case(name, argv, code, files, load=None):
        out.append({"name": name, "argv": argv, "code": code, "files": files, "load": load})

    sp = gen.space(rng, 6, 3)
    points = sp["points"]
    case("generate", ["generate", "--space", "gen.json"], 0,
         {"gen.json": {"points": points, "generators": [gen.random_union(rng, sp) or points[:1] for _ in range(3)]}})
    case("atoms", ["atoms", "--space", "sp.json"], 0, {"sp.json": sp}, "space")
    case("measure", ["measure", "--space", "sp.json", "--set", json.dumps(gen.random_union(rng, sp))], 0,
         {"sp.json": sp}, "space")
    case("inner", ["inner", "--space", "sp.json", "--set", json.dumps(gen.non_measurable(rng, sp, 1))], 0,
         {"sp.json": sp}, "space")
    case("outer", ["outer", "--space", "sp.json", "--set", json.dumps(gen.non_measurable(rng, sp, 1))], 0,
         {"sp.json": sp}, "space")
    pos = gen.space(rng, 6, 4, zero=0.0)
    meets_all = [rng.choice(a) for a in pos["atoms"]]
    case("thick", ["thick", "--space", "pos.json", "--set", json.dumps(gen.in_order(pos["points"], meets_all))], 0,
         {"pos.json": pos}, "space")
    misses = gen.union(pos, pos["atoms"][1:])
    case("thick_false", ["thick", "--space", "pos.json", "--set", json.dumps(misses)], 1, {"pos.json": pos}, "space")
    case("ultrafilters", ["ultrafilters", "--space", "sp.json"], 0, {"sp.json": sp}, "space")
    alg = gen.algebra(gen.space(rng, 6, 5))
    case("classify-family", ["classify-family", "--space", "fam.json"], 0,
         {"fam.json": {"space": alg, "members": [gen.random_union(rng, alg) for _ in range(6)]}})
    kernel = gen.random_union(rng, alg, 0.4) or alg["atoms"][0]
    case("extend-uf", ["extend-uf", "--space", "base.json"], 0,
         {"base.json": {"space": alg, "members": [kernel, gen.union(alg, [kernel, gen.random_union(rng, alg)])]}})
    case("uf-to-measure", ["uf-to-measure", "--space", "uf.json"], 0,
         {"uf.json": {"space": alg, "members": gen.upset(alg, rng.choice(alg["atoms"]))}})
    m01 = gen.space(rng, 5, 4)
    m01["values"] = ["0"] * 4
    m01["values"][rng.randrange(4)] = "1"
    case("measure-to-uf", ["measure-to-uf", "--space", "m01.json"], 0, {"m01.json": m01}, "space")

    small = gen.space(rng, 3, 2)
    big = _extension(rng, small)
    bad = dict(big, values=["2" if v == "1" else "1" for v in big["values"][:-1]] + ["0"])
    files = {"small.json": small, "big.json": big}
    case("check-embed", ["check-embed", "--small", "small.json", "--big", "big.json"], 0, files, "space")
    case("check-embed_false", ["check-embed", "--small", "small.json", "--big", "bad.json"], 1,
         {"small.json": small, "bad.json": bad}, "space")
    x = json.dumps(small["points"])
    case("decompose", ["decompose", "--big", "big.json", "--set", x], 0, {"big.json": big}, "space")
    kit = _kit(rng)
    broken = _kit(rng, broken=True)
    case("construct", ["construct", "--kit", "kit.json"], 0, {"kit.json": kit}, "kit")
    case("validate-kit", ["validate-kit", "--kit", "kit.json"], 0, {"kit.json": kit}, "kit")
    case("validate-kit_false", ["validate-kit", "--kit", "broken.json"], 1, {"broken.json": broken}, "kit")
    # the heaviest verb (about 30 ms above a typical call), six times in
    # one shape: the tail is read over ``tail_passes`` = 4 passes, which
    # hold 24 samples of it, so the tail sample (the 11th slowest) falls
    # near their median
    for i in range(6):
        base = gen.space(rng, 2, 2)
        extra = ",".join(gen.labels(rng, 4, taken=base["points"]))
        case(f"enumerate-extensions_{i}", ["enumerate-extensions", "--space", f"enum{i}.json", "--extra", extra], 0,
             {f"enum{i}.json": base}, "space")
    case("classify-points", ["classify-points", "--big", "big.json", "--set", x], 0, {"big.json": big}, "space")
    left, right = gen.space(rng, 2, 2), gen.space(rng, 3, rng.randint(1, 3))
    case("product", ["product", "--small", "left.json", "--big", "right.json"], 0,
         {"left.json": left, "right.json": right}, "space")
    prod = gen.product(left, right)
    case("section", ["section", "--space", "prod.json", "--set", json.dumps(gen.random_union(rng, prod)),
                     "--point", rng.choice(right["points"])], 0, {"prod.json": prod})
    disc = gen.space(rng, 3, 3, zero=0.0, inf=0.0)
    lift_left = gen.space(rng, 2, 2)
    case("lift-uf", ["lift-uf", "--space", "luf.json", "--big", "disc.json", "--point", rng.choice(disc["points"])], 0,
         {"luf.json": {"space": lift_left, "members": gen.upset(lift_left, rng.choice(lift_left["atoms"]))},
          "disc.json": disc})
    dprod = gen.product(gen.space(rng, 2, 2, zero=0.0, inf=0.0), disc)
    case("project-uf", ["project-uf", "--space", "puf.json"], 0,
         {"puf.json": {"space": dprod, "members": gen.upset(dprod, rng.choice(dprod["atoms"]))}})

    # malformed inputs: each must exit 2 with an error object
    case("bad_json", ["atoms", "--space", "broken.txt"], 2, {"broken.txt": "{nope"})
    unmeasurable = json.dumps(gen.non_measurable(rng, sp, 1))
    case("not_measurable", ["measure", "--space", "sp.json", "--set", unmeasurable], 2, {"sp.json": sp})
    case("float_value", ["atoms", "--space", "float.json"], 2,
         {"float.json": dict(sp, values=[0.5] * len(sp["atoms"]))})
    case("invalid_kit", ["construct", "--kit", "broken.json"], 2, {"broken.json": broken})
    case("unknown_label", ["outer", "--space", "sp.json", "--set", json.dumps(["#"])], 2, {"sp.json": sp})
    case("missing_flag", ["outer", "--space", "sp.json"], 2, {"sp.json": sp})
    return out


def _text(content) -> str:
    return content if isinstance(content, str) else json.dumps(content)


@contextlib.contextmanager
def _cwd(path):
    """Run the block in ``path``; ``contextlib.chdir`` needs Python 3.11."""
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


def run_inprocess(cli, argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(list(argv))
    return code, buf.getvalue()


class Cli:
    name = "cli"
    tail_passes = 4

    def __init__(self, workdir, child_env):
        self.workdir = workdir
        self.child_env = child_env
        self.expected: dict[str, bytes | None] = {}
        # a call is process start-up in another process, so the machine's
        # speed for it is that of starting a bare interpreter, timed at
        # most every 0.25 s: the speed changes within seconds, and a
        # sparser or longer window tracked it worse
        self.speed = (self.bare, BARE_S, 0.25)

    def generate(self, rng, tiny=False) -> dict:
        calls = cases(rng)
        return {"pass": calls[::6] if tiny else calls, "warmup": calls[:1]}

    def build(self, lib, item):
        self.workdir.mkdir(parents=True, exist_ok=True)
        for name, content in item["files"].items():
            (self.workdir / name).write_text(_text(content))
        return item

    def spawn(self, argv):
        return subprocess.run(
            [sys.executable, *argv],
            cwd=self.workdir,
            env=self.child_env,
            capture_output=True,
            timeout=CHILD_TIMEOUT_S,
        )

    def bare(self):
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.spawn(["-c", "pass"]).check_returncode()

    def op(self, lib, t, item):
        proc = t.call("cli.subprocess", self.spawn, ["-m", "measpace.cli", *item["argv"]])
        return proc.returncode, proc.stdout, proc.stderr

    def check(self, lib, item, result):
        code, stdout, stderr = result
        if code != item["code"]:
            return f"{item['name']}: exit {code}, expected {item['code']}"
        if stderr:
            return f"{item['name']}: wrote to stderr"
        expected = self._inprocess(lib, item)
        if stdout != expected:
            return f"{item['name']}: subprocess stdout differs from cli.run"
        if not oracles.canonical(stdout.decode()):
            return f"{item['name']}: output is not canonical JSON"
        return None

    def _inprocess(self, lib, item) -> bytes:
        """In-process ``cli.run`` stdout for the case, computed once."""
        if item["name"] not in self.expected:
            with _cwd(self.workdir):
                code, out = run_inprocess(lib.cli, item["argv"])
            self.expected[item["name"]] = out.encode() if code == item["code"] else None
        return self.expected[item["name"]]

    def trace_extras(self, lib, t, ran) -> dict:
        """In-process ``cli.run`` and the ``jsonio`` loaders on each traced
        op's argv, then the bare interpreter and the import cost."""
        j = lib.jsonio
        loaders = {"space": ("jsonio.space_from_obj", j.space_from_obj),
                   "kit": ("jsonio.kit_from_obj", j.kit_from_obj)}
        with _cwd(self.workdir):
            for item in ran:
                _, out = t.call("cli.run", run_inprocess, lib.cli, item["argv"])
                if item["load"]:
                    name, loader = loaders[item["load"]]
                    first = next(iter(item["files"].values()))
                    t.call(name, loader, first)
                t.call("jsonio.canonical_dumps", j.canonical_dumps, json.loads(out))
        bare, imported = [], []
        for _ in range(9):
            for argv, into in ((["-c", "pass"], bare), (["-c", "import measpace.cli"], imported)):
                start = perf_counter_ns()
                self.spawn(argv).check_returncode()
                into.append((perf_counter_ns() - start) / 1e6)
        interpreter = statistics.median(bare)
        return {"cli.interpreter_ms": interpreter, "cli.import_ms": statistics.median(imported) - interpreter}

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

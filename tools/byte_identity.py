"""Check that two dklab source trees give the same bytes on a command set.

    python3 tools/byte_identity.py PARENT_TREE CHANGE_TREE [--commands FILE]

Each tree is a checkout with ``src/dklab``.  Every command of FILE (default:
``byte_identity_commands.txt`` next to this script) runs in a fresh empty
directory, once per tree and per mode:

- ``compiled``: this interpreter with the caller's environment, so the C
  kernels are built or loaded as usual;
- ``no-cc``: ``PATH=/nonexistent`` and a fresh empty ``XDG_CACHE_HOME``, so
  no compiler and no cached extension is found and the numpy paths run.
  The interpreter is called by its absolute path (``sys.executable``);
- ``probe-failed``: as ``compiled``, but the runner first replaces
  ``dklab._native.complex_exact`` by a function that returns False, as when
  the probe finds the kernels' complex arithmetic unlike numpy's, so the
  numpy stencil, RK4 step, ansatz and complex blow-up guard run next to the
  real C kernels.  A tree without that function ignores the replacement.

A run records its stdout, its stderr with the tree path and line numbers
masked, its exit code, and every file and directory it leaves.  The script
prints each difference between the trees (same mode) and between
``compiled`` and each other mode (same tree) and exits 1 if there is any,
else 0.
"""

from __future__ import annotations

import argparse
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

MODES = ("compiled", "no-cc", "probe-failed")
RUNNER = "import sys; from dklab.cli import main; sys.exit(main(sys.argv[1:]))"
PROBE_FAILED = "from dklab import _native; _native.complex_exact = lambda: False; "


def read_commands(path: Path) -> list[str]:
    lines = (line.split("#", 1)[0].strip() for line in path.read_text().splitlines())
    return [line for line in lines if line]


def snapshot(root: Path) -> dict[str, bytes | None]:
    """Relative path -> bytes for files, None for directories."""
    return {
        str(p.relative_to(root)): (p.read_bytes() if p.is_file() else None)
        for p in sorted(root.rglob("*"))
    }


def mask(text: str, tree: Path) -> str:
    text = text.replace(str(tree), "<tree>")
    text = re.sub(r"line \d+", "line N", text)
    return re.sub(r"\.py:\d+:", ".py:N:", text)


def run_one(tree: Path, mode: str, argv: list[str], work: Path) -> dict:
    work.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    if mode == "no-cc":
        env.update(PATH="/nonexistent", XDG_CACHE_HOME=str(work.parent / "cache"))
    runner = PROBE_FAILED + RUNNER if mode == "probe-failed" else RUNNER
    proc = subprocess.run(
        [sys.executable, "-c", runner, *argv],
        cwd=work, env=env, capture_output=True, text=True, timeout=900,
    )
    return {
        "exit code": proc.returncode,
        "stdout": proc.stdout,
        "stderr": mask(proc.stderr, tree),
        "tree": snapshot(work),
    }


def first_difference(a: bytes | None, b: bytes | None) -> str:
    if a is None or b is None:
        return "directory on one side only"
    for i, (la, lb) in enumerate(zip(a.splitlines(), b.splitlines()), start=1):
        if la != lb:
            return f"line {i}: {la[:100]!r} != {lb[:100]!r}"
    return f"{len(a)} bytes != {len(b)} bytes"


def differences(a: dict, b: dict, names: tuple[str, str]) -> list[str]:
    out = []
    for key in ("exit code", "stdout", "stderr"):
        if a[key] != b[key]:
            out.append(f"{key}: {a[key]!r} != {b[key]!r}")
    ta, tb = a["tree"], b["tree"]
    for path in sorted(ta.keys() | tb.keys()):
        if path not in tb:
            out.append(f"{path}: only in {names[0]}")
        elif path not in ta:
            out.append(f"{path}: only in {names[1]}")
        elif ta[path] != tb[path]:
            out.append(f"{path}: {first_difference(ta[path], tb[path])}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="reference source tree")
    parser.add_argument("change", type=Path, help="source tree under test")
    parser.add_argument("--commands", type=Path,
                        default=Path(__file__).with_name("byte_identity_commands.txt"))
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for tree in trees.values():
        if not (tree / "src" / "dklab" / "cli.py").is_file():
            parser.error(f"{tree} has no src/dklab/cli.py")
    commands = read_commands(args.commands)

    failed = 0
    with tempfile.TemporaryDirectory(prefix="byte_identity-") as tmp:
        for i, command in enumerate(commands):
            argv_i = shlex.split(command)
            runs = {
                (side, mode): run_one(tree, mode, argv_i, Path(tmp, side, mode, f"{i:02d}"))
                for side, tree in trees.items()
                for mode in MODES
            }
            found = []
            for mode in MODES:
                found += [f"{mode}, parent vs change: {d}" for d in differences(
                    runs["parent", mode], runs["change", mode], ("parent", "change"))]
            for side in trees:
                for mode in MODES[1:]:
                    found += [f"{side}, compiled vs {mode}: {d}" for d in differences(
                        runs[side, "compiled"], runs[side, mode], ("compiled", mode))]
            status = "identical" if not found else f"{len(found)} difference(s)"
            print(f"[{i + 1:2d}/{len(commands)}] exit {runs['change', 'compiled']['exit code']} "
                  f"{status}: {command}", flush=True)
            for line in found:
                print(f"    {line}")
            failed += bool(found)
        leaks = [side for side in trees if Path(tmp, side, "no-cc", "cache").exists()]
    for side in leaks:
        print(f"{side}: the no-cc runs built a kernel cache, so a compiler was found")
    print(f"{len(commands) - failed} of {len(commands)} commands identical")
    return 1 if failed or leaks else 0


if __name__ == "__main__":
    raise SystemExit(main())

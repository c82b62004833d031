#!/usr/bin/env python3
"""Lint-fixture harness: the workspace's lint configuration still rejects
every pattern under `bad/` and accepts everything under `good/`.

Each fixture is built as the `src/lib.rs` of a throwaway crate. That crate
takes its lint levels from the root `Cargo.toml`'s `[workspace.lints]` and
its `clippy.toml` from the repository root (`CLIPPY_CONF_DIR`), and may use
`laser-machine` (for `FastHashMap`). A bad fixture marks every line that must
be reported with `//~ <lint>` (several lints on one line are separated by
spaces; rustc errors use their code, e.g. `E0599`). It passes only if clippy
reports exactly its marked (line, lint) pairs; a good fixture must report
nothing.

    python3 tests/lint_fixtures/check.py [--target-dir DIR]
"""

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
import tomllib
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
MARK = re.compile(r"//~\s+(.*)$")


def toml_value(value):
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, dict):
        return "{ " + ", ".join(f"{k} = {toml_value(v)}" for k, v in value.items()) + " }"
    raise TypeError(f"unsupported lint setting {value!r}")


def manifest(name):
    workspace = tomllib.loads((ROOT / "Cargo.toml").read_text())["workspace"]
    lines = [
        "[package]",
        f'name = "{name}"',
        'version = "0.0.0"',
        f'edition = "{workspace["package"]["edition"]}"',
        "publish = false",
        "",
        "[workspace]",
        "",
        "[dependencies]",
        f"laser-machine = {{ path = {json.dumps(str(ROOT / 'crates' / 'machine'))} }}",
    ]
    for tool, table in workspace["lints"].items():
        lines += ["", f"[lints.{tool}]"]
        lines += [f"{lint} = {toml_value(level)}" for lint, level in table.items()]
    return "\n".join(lines) + "\n"


def expected(source):
    pairs = set()
    for number, line in enumerate(source.splitlines(), start=1):
        mark = MARK.search(line)
        if mark:
            pairs.update((number, lint) for lint in mark.group(1).split())
    return pairs


def reported(crate, target_dir):
    env = dict(os.environ, CLIPPY_CONF_DIR=str(ROOT), CARGO_TARGET_DIR=str(target_dir))
    proc = subprocess.run(
        ["cargo", "clippy", "--offline", "--quiet", "--all-targets", "--message-format=json"],
        cwd=crate,
        env=env,
        capture_output=True,
        text=True,
    )
    lib = str(crate / "src" / "lib.rs")
    pairs = set()
    for raw in proc.stdout.splitlines():
        msg = json.loads(raw)
        if msg.get("reason") != "compiler-message" or msg["target"]["src_path"] != lib:
            continue
        diag = msg["message"]
        spans = [s for s in diag["spans"] if s["is_primary"] and s["file_name"] == "src/lib.rs"]
        if not spans:
            continue
        code = diag["code"]["code"] if diag["code"] else f"<{diag['level']}: {diag['message']}>"
        pairs.update((span["line_start"], code) for span in spans)
    if not pairs and proc.returncode != 0:
        pairs.add((0, f"<cargo exited {proc.returncode}: {proc.stderr.strip()[-300:]}>"))
    return pairs


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--target-dir", type=Path, default=ROOT / "target" / "lint-fixtures")
    args = parser.parse_args()
    fixtures = sorted(HERE.glob("bad/*.rs")) + sorted(HERE.glob("good/*.rs"))

    failures = 0
    with tempfile.TemporaryDirectory() as work:
        for fixture in fixtures:
            kind = fixture.parent.name
            crate = Path(work) / f"{kind}_{fixture.stem}"
            (crate / "src").mkdir(parents=True)
            (crate / "Cargo.toml").write_text(manifest(f"fixture-{kind}-{fixture.stem}".replace("_", "-")))
            source = fixture.read_text()
            (crate / "src" / "lib.rs").write_text(source)

            want = expected(source)
            got = reported(crate, args.target_dir)
            if kind == "bad" and not want:
                print(f"FAIL {kind}/{fixture.name}: a bad fixture marks no line", file=sys.stderr)
                failures += 1
                continue
            if got == want:
                print(f"ok   {kind}/{fixture.name}: {len(want)} marked finding(s)")
                continue
            failures += 1
            print(f"FAIL {kind}/{fixture.name}", file=sys.stderr)
            for line, lint in sorted(want - got):
                print(f"  line {line}: expected {lint}, not reported", file=sys.stderr)
            for line, lint in sorted(got - want):
                print(f"  line {line}: reported {lint}, not marked", file=sys.stderr)
    if failures:
        print(f"{failures} fixture(s) failed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

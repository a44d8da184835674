"""Smoke tests: each script under scripts/ runs to completion on tiny inputs,
the CLI's output bytes on the small corpus are pinned, and the benchmark's
tracer still finds every function it wraps."""

import ast
import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=120,
    )


def test_certify_runs_on_a_tiny_sweep(tmp_path):
    done = run_script("certify.py", "--samples", "2", "--max-order", "4", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    rows = done.stdout.splitlines()
    assert rows[0].split() == ["n", "identity", "round", "trip", "radii"]
    assert [row.split()[0] for row in rows[1:3]] == ["3", "4"]


def test_draw_figures_writes_every_figure(tmp_path):
    out_dir = tmp_path / "figs"
    done = run_script("draw_figures.py", "--out-dir", str(out_dir), cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
    written = sorted(out_dir.iterdir())
    assert len(written) == 4
    for path in written:
        text = path.read_text(encoding="utf-8")
        assert text.startswith("<svg") or text.startswith("<?xml")
        assert text.rstrip().endswith("</svg>")


def test_output_corpus_is_reproducible(tmp_path):
    # Each run writes into a fresh temporary directory, so equal files also
    # show that its path is normalized away.
    for name in ("a.json", "b.json"):
        done = run_script("output_corpus.py", "--out", name, "--sizes", "3", cwd=tmp_path)
        assert done.returncode == 0, done.stderr
    first = (tmp_path / "a.json").read_bytes()
    assert first == (tmp_path / "b.json").read_bytes()
    records = json.loads(first)
    assert {record["exit"] for record in records} == {0, 1, 2}
    assert any(record["svg"] for record in records)


# sha256 over the ``--json`` stdout and the SVG texts of the ``--sizes 3``
# corpus (372 commands). Human text and stderr are left out, because
# argparse words them differently across Python versions; the floats depend
# on the C library's trig, so the pin holds per platform. A new digest is a
# change in output: re-pin only with a CHANGES.md entry that names the
# commands whose output changed.
CORPUS_SHA256 = "722dae4d94ef544e1288537b160af289c0a6c658e70eafbc142f906ab4b4319b"


def test_output_corpus_bytes_are_pinned(tmp_path):
    done = run_script("output_corpus.py", "--out", "corpus.json", "--sizes", "3", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    records = json.loads((tmp_path / "corpus.json").read_bytes())
    assert len(records) == 372
    pinned = [
        [record["stdout"] if "--json" in record["argv"] else "", record["svg"]]
        for record in records
    ]
    digest = hashlib.sha256(json.dumps(pinned, sort_keys=True).encode("utf-8")).hexdigest()
    assert digest == CORPUS_SHA256


def test_tracer_wraps_only_names_the_library_still_has():
    # perfbench/tracing.py replaces module attributes by name; a name the
    # library dropped would break ``--trace 1`` without failing any test.
    source = (ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8")
    wrapped = next(
        ast.literal_eval(node.value)
        for node in ast.parse(source).body
        if isinstance(node, ast.Assign)
        and any(getattr(target, "id", None) == "WRAPPED" for target in node.targets)
    )
    assert wrapped
    for module, attr, span in wrapped:
        caller = importlib.import_module(f"concentric_gons.{module}")
        assert hasattr(caller, attr), (module, attr)
        # The span is named after the function the attribute holds, so a
        # caller that stopped importing it would be timed under a wrong name.
        layer, function = span.split(".")
        defined = getattr(importlib.import_module(f"concentric_gons.{layer}"), function)
        assert getattr(caller, attr) is defined, (module, attr, span)

"""Smoke tests: each script under scripts/ runs to completion on tiny inputs,
the CLI's output bytes on the whole corpus are pinned, and the benchmark's
tracer still finds every function it wraps."""

import ast
import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


TINY_DECK_LABELS = {
    "circles": [("n3", 4), ("n4", 4), ("n8", 4), ("n16", 4), ("n32", 4), ("n64", 4)],
    "polygons": [("n3", 4), ("n4", 4), ("n5", 4), ("n6", 4), ("n8", 4), ("n12", 4)],
    "cli": [("check", 2), ("reconstruct", 1), ("pair", 2), ("render", 2), ("verify", 3)],
}


def test_deck_split_runs_on_the_tiny_deck(tmp_path):
    for workload, labels in TINY_DECK_LABELS.items():
        done = run_script(
            "deck_split.py", "--workload", workload, "--seed", "1", "--seconds", "0", "--tiny",
            cwd=tmp_path,
        )
        assert done.returncode == 0, (workload, done.stderr)
        header, *rows, total = done.stdout.splitlines()
        assert header.split() == ["label", "ops", "median_us", "share"]
        assert [(row.split()[0], int(row.split()[1])) for row in rows] == labels, workload
        shares = sum(float(row.split()[3].rstrip("%")) for row in rows)
        assert shares == pytest.approx(100.0, abs=0.5), workload
        assert total.startswith(f"pass: {sum(count for _, count in labels)} ops, "), workload


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


def test_output_corpus_names_the_commands_that_changed(tmp_path):
    # Two small corpora: the one written, and a copy with one pinned field
    # changed in each of five commands, the human text of a sixth changed
    # and the last command dropped. Each changed command is followed by what
    # changed in it, and a tally per field closes the report. Human text is
    # not pinned: its changes are counted on one line of their own.
    done = run_script("output_corpus.py", "--out", "new.json", "--sizes", "3", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    new = json.loads((tmp_path / "new.json").read_bytes())
    old = json.loads((tmp_path / "new.json").read_bytes())
    json_out = next(r for r in old if r["argv"][0] == "verify" and "--json" in r["argv"])
    json_out["stdout"] += " "
    pairs = [
        r for r in old
        if r["argv"][0] == "pair" and "--json" in r["argv"] and r["exit"] == 0
        and json.loads(r["stdout"])["count"] > 1
    ]
    for record, index in zip(pairs, (1, 0)):
        payload = json.loads(record["stdout"])
        payload["results"][index]["aligned_second"]["phase"] += 1.0
        record["stdout"] = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    with_svg = next(r for r in old if r["argv"][0] == "render" and r["svg"])
    name = next(iter(with_svg["svg"]))
    with_svg["svg"][name] += " "
    exits = next(r for r in old if r["argv"][0] == "check")
    exits["exit"] = 99
    human = next(r for r in old if r["argv"][0] == "pair" and "--json" not in r["argv"])
    human["stdout"] += " "
    dropped = old.pop()
    (tmp_path / "old.json").write_text(json.dumps(old), encoding="utf-8")
    done = run_script(
        "output_corpus.py", "--out", "again.json", "--sizes", "3", "--against", "old.json",
        cwd=tmp_path,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    fields = {}
    for line in lines:
        if line.startswith("changed: "):
            fields[line[len("changed: "):]] = current = []
        elif line.startswith("    ") and fields:
            current.append(line.strip())
    changed = {
        " ".join(json_out["argv"]): ["stdout"],
        " ".join(pairs[0]["argv"]): ["results[1].aligned_second.phase"],
        " ".join(pairs[1]["argv"]): ["results[0].aligned_second.phase"],
        " ".join(with_svg["argv"]): ["svg"],
        " ".join(exits["argv"]): ["exit"],
        " ".join(dropped["argv"]): ["new"],
    }
    assert fields == changed
    assert f"6 of {len(new)} commands changed" in lines
    totals = {sub: sum(r["argv"][0] == sub for r in new) for sub in ("check", "render", "verify")}
    assert f"  check: 1 of {totals['check']}" in lines
    assert f"  render: 2 of {totals['render']}" in lines
    assert f"  verify: 1 of {totals['verify']}" in lines
    assert any(line.startswith("  pair: 2 of ") for line in lines)
    text_line = f"1 of {len(new)} commands changed text (human stdout, stderr, warnings)"
    assert lines[lines.index("changes per field:") - 1] == text_line
    tally = lines[lines.index("changes per field:") + 1:]
    assert tally == [
        "  results[].aligned_second.phase: 2",
        "  exit: 1",
        "  new: 1",
        "  stdout: 1",
        "  svg: 1",
    ]


# sha256 over the exit code, the ``--json`` stdout and the SVG texts of the
# whole corpus (852 commands, every size). Human text and stderr are left
# out, because argparse words them differently across Python versions; the
# floats depend on the C library's trig, so the pin holds per platform. A
# new digest is a change in output: re-pin only with a CHANGES.md entry that
# names the commands whose output changed, as ``output_corpus.py --against``
# lists them.
CORPUS_SHA256 = "24b28495231d59527948b7734d2911c32a7b078de420fb67277b55025963e7ad"


def test_output_corpus_bytes_are_pinned(tmp_path):
    done = run_script("output_corpus.py", "--out", "corpus.json", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    records = json.loads((tmp_path / "corpus.json").read_bytes())
    assert len(records) == 852
    pinned = [
        [record["exit"], record["stdout"] if "--json" in record["argv"] else "", record["svg"]]
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


def test_pairing_gates_through_its_multiset_close_attribute(monkeypatch):
    # The polygons benchmark counts pair_polygons' full-multiset gates by
    # wrapping pairing.multiset_close; a gate that stopped looking the name
    # up there would read as zero work.
    pairing = importlib.import_module("concentric_gons.pairing")
    oracle = importlib.import_module("concentric_gons.oracle")
    calls = []
    original = pairing.multiset_close

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(pairing, "multiset_close", counting)
    inst = oracle.random_instance(8, 7)
    assert pairing.pair_polygons(inst.polygon1, inst.polygon2)
    assert len(calls) >= 1


def test_reconstruct_gates_through_its_module_attributes(monkeypatch):
    # The circles benchmark reads reconstruct.phase_accept_ratio and
    # moments.recover_circumradii.us_per_op from wrappers on these
    # reconstruct attributes; a decision that stopped looking them up there
    # would read as zero work.
    reconstruct = importlib.import_module("concentric_gons.reconstruct")
    oracle = importlib.import_module("concentric_gons.oracle")
    calls = {}
    for name in ("multiset_close", "recover_circumradii", "phase_candidates"):
        original = getattr(reconstruct, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(reconstruct, name, counting)
    rec = reconstruct.reconstruct_polygons(oracle.random_instance(8, 7).family)
    assert not rec.point_polygon
    assert set(calls) == {"multiset_close", "recover_circumradii", "phase_candidates"}


def test_cli_emits_through_its_dump_canonical_attribute(monkeypatch, capsys):
    # The cli benchmark reads instances.dump_canonical.us_per_op and
    # json_bytes_per_op from a wrapper on cli.dump_canonical; an emitter that
    # stopped looking the name up there would read as zero work.
    cli = importlib.import_module("concentric_gons.cli")
    calls = []
    original = cli.dump_canonical

    def counting(value):
        calls.append(value)
        return original(value)

    monkeypatch.setattr(cli, "dump_canonical", counting)
    assert cli.main(["check", "--radii", "1,1,2", "--json"]) == 0
    assert len(calls) == 1
    assert json.loads(capsys.readouterr().out)["command"] == "check"


def load_ab():
    spec = importlib.util.spec_from_file_location("ab", ROOT / "scripts" / "ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ab_alternates_which_side_runs_first():
    assert load_ab().run_order(3) == [
        (1, "change"), (1, "base"), (2, "base"), (2, "change"), (3, "change"), (3, "base"),
    ]


def test_ab_clears_bytecode_under_src_only(tmp_path):
    for where in ("src/pkg/__pycache__", "src/__pycache__", "perfbench/__pycache__"):
        (tmp_path / where).mkdir(parents=True)
        (tmp_path / where / "m.cpython.pyc").write_bytes(b"")
    load_ab().clear_bytecode([tmp_path])
    assert [p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("__pycache__")] == [
        "perfbench/__pycache__"
    ]


def test_ab_statistics_on_canned_runs():
    spec = {"end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "op_p50_us", "unit": "us", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
    ]}
    values = {
        "base": {
            "setup_s": [10, 12, 11, 13, 14], "ops_per_s": [100] * 5,
            "op_p50_us": [5] * 5, "peak_rss_mb": [10] * 5,
        },
        "change": {
            "setup_s": [6, 7, 12, 5, 8], "ops_per_s": [110, 100, 120, 130, 140],
            "op_p50_us": [4] * 5, "peak_rss_mb": [12] * 5,
        },
    }
    runs = [
        {
            "pair": pair + 1, "side": side, "workload": "circles",
            "result": {
                "correct": (side, pair) != ("change", 2),
                "metrics": {name: {"value": v[pair]} for name, v in values[side].items()},
            },
        }
        for pair in reversed(range(5)) for side in ("change", "base")
    ]
    report = load_ab().summarize(spec, runs)["circles"]
    assert report["pairs"] == 5
    assert report["all_correct"] == {"base": True, "change": False}
    setup = report["metrics"]["setup_s"]
    assert setup["base"] == {"median": 12, "q1": 11, "q3": 13, "values": [10, 12, 11, 13, 14]}
    assert (setup["change"]["median"], setup["change"]["q1"], setup["change"]["q3"]) == (7, 6, 8)
    # Four wins of five is below nine tenths, however large the gap.
    assert (setup["change_wins"], setup["base_wins"], setup["gain"]) == (4, 1, False)
    assert setup["within_bound"]
    # A tie counts for neither side.
    ops = report["metrics"]["ops_per_s"]
    assert (ops["change_wins"], ops["base_wins"], ops["gain"]) == (4, 0, False)
    p50 = report["metrics"]["op_p50_us"]
    assert (p50["change_wins"], p50["gain"], p50["within_bound"]) == (5, True, True)
    # 20% worse against a bound of 10%.
    rss = report["metrics"]["peak_rss_mb"]
    assert (rss["base_wins"], rss["gain"], rss["within_bound"]) == (5, False, False)


def test_ab_marks_a_metric_whose_spread_exceeds_its_bound_unresolved():
    metric = {"unit": "us", "better": "lower", "bound": 0.25}
    compare = load_ab().compare
    # The base runs spread by two thirds of their median; the medians agree.
    wide = compare(metric, [10, 20, 30, 40, 50], [50, 40, 30, 20, 10])
    assert (wide["relative_spread"], wide["within_bound"], wide["unresolved"]) == (2 / 3, True, True)
    # The spread of the change side counts as well.
    noisy = compare(metric, [10] * 5, [5, 10, 15, 20, 25])
    assert (noisy["relative_spread"], noisy["unresolved"]) == (1.0, True)
    # Every change run beats every base run: resolved, however wide.
    apart = compare(metric, [100, 150, 200, 250, 300], [40, 50, 60, 70, 80])
    assert (apart["relative_spread"], apart["gain"], apart["unresolved"]) == (0.5, True, False)
    # Within the bound on both sides.
    tight = compare(metric, [10, 11, 12, 13, 14], [12, 11, 13, 10, 14])
    assert (tight["relative_spread"], tight["unresolved"]) == (1 / 6, False)
    summary = load_ab().summary_line
    assert summary("circles", "op_tail_us", wide, 5) == (
        "circles   op_tail_us   30 -> 30  wins 2/5  UNRESOLVED"
    )
    assert summary("circles", "op_tail_us", apart, 5) == (
        "circles   op_tail_us   200 -> 60  wins 5/5  gain"
    )


def test_ab_counts_the_python_lines_under_src_only(tmp_path):
    files = {
        "src/pkg/a.py": b"import b\n\nx = 1\n",
        "src/pkg/sub/b.py": b"y = 2\nz = 3",  # no newline after the last line
        "src/pkg/__pycache__/a.cpython-311.pyc": b"\n\n\n",
        "src/README.txt": b"not code\n",
        "tests/test_a.py": b"def test(): pass\n",
        "setup.py": b"pass\n",
    }
    for name, data in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_bytes(data)
    assert load_ab().src_lines(tmp_path) == 5
    assert load_ab().src_lines(tmp_path / "tests") == 0


def test_ab_lists_the_tracked_paths_of_a_dirty_checkout():
    porcelain = (
        " M src/concentric_gons/reconstruct.py\n"
        "M  README.md\n"
        "R  scripts/old.py -> scripts/new.py\n"
        "?? BENCH_label.json\n"
    )
    assert load_ab().dirty_paths(porcelain) == [
        "src/concentric_gons/reconstruct.py", "README.md", "scripts/new.py"
    ]
    assert load_ab().dirty_paths("?? BENCH_label.json\n") == []
    assert load_ab().dirty_paths("") == []


def test_ab_copies_the_checkout_with_its_edits_and_without_git(tmp_path):
    # The change side runs from a copy, as the base runs from an archive:
    # every tracked file as it stands on disk, one of them edited since the
    # commit, and neither the untracked file nor the repository's .git.
    repo, tree = tmp_path / "repo", tmp_path / "tree"
    (repo / "src" / "pkg").mkdir(parents=True)
    (repo / "src" / "pkg" / "a.py").write_text("x = 1\n", encoding="utf-8")
    (repo / "README.md").write_text("readme\n", encoding="utf-8")
    (repo / "gone.txt").write_text("deleted after the commit\n", encoding="utf-8")

    def git(*args):
        subprocess.run(
            ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t", *args],
            capture_output=True, check=True,
        )

    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "one")
    (repo / "src" / "pkg" / "a.py").write_text("x = 2\n", encoding="utf-8")
    (repo / "gone.txt").unlink()
    (repo / "untracked.txt").write_text("not added\n", encoding="utf-8")
    load_ab().copy_checkout(repo, tree)
    copied = sorted(str(p.relative_to(tree)) for p in tree.rglob("*") if p.is_file())
    assert copied == ["README.md", "src/pkg/a.py"]
    assert (tree / "src" / "pkg" / "a.py").read_text(encoding="utf-8") == "x = 2\n"
    assert not (tree / ".git").exists()

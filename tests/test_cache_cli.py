"""Cache semantics and the command-line surface (exit codes, determinism)."""

import json
import os
import subprocess
import sys

import turanlab
from turanlab.cache import CacheEntry, cache_entries, cache_lookup, cache_store, resolve_cache_path
from turanlab.cli import run
from turanlab.constructions import turan_hypergraph
from turanlab.hypergraph import Hypergraph, auxiliary_graph, mask_of, save_hypergraph
from turanlab.search import SEARCH_VERSION

# child interpreters import the same turanlab as this suite, with or without PYTHONPATH
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        filter(None, [os.path.dirname(os.path.dirname(turanlab.__file__)), os.environ.get("PYTHONPATH")])
    ),
}


def entry(value=8, ts=1.0, complete=True):
    return CacheEntry(
        predicate="cancellative",
        n=6,
        r=3,
        ell=None,
        value=value,
        extremal_classes=1,
        complete=complete,
        tool_version="0.1.0",
        timestamp=ts,
        stats={"nodes_explored": 28},
    )


def test_cache_round_trip(tmp_path):
    path = str(tmp_path / "cache.jsonl")
    assert cache_lookup(path, ("cancellative", 6, 3, None)) is None
    cache_store(path, entry())
    hit = cache_lookup(path, ("cancellative", 6, 3, None))
    assert hit is not None and hit.value == 8
    assert cache_lookup(path, ("cancellative", 7, 3, None)) is None


def test_cache_newest_wins_and_skips_incomplete(tmp_path):
    path = str(tmp_path / "cache.jsonl")
    cache_store(path, entry(value=8, ts=1.0))
    cache_store(path, entry(value=8, ts=2.0))
    cache_store(path, entry(value=99, ts=3.0, complete=False))
    hit = cache_lookup(path, ("cancellative", 6, 3, None))
    assert hit.timestamp == 2.0 and hit.value == 8


def test_cache_corrupt_lines_skipped(tmp_path, capfd):
    path = str(tmp_path / "cache.jsonl")
    cache_store(path, entry())
    with open(path, "a") as fh:
        fh.write("this is not json\n")
        fh.write("\n")
        fh.write('{"half": true\n')
    cache_store(path, entry(ts=5.0))
    entries = cache_entries(path)
    assert len(entries) == 2
    # a blank line is skipped without a warning
    assert [line.split(" in ")[0] for line in capfd.readouterr().err.splitlines()] == [
        "warning: skipping corrupt cache line 2",
        "warning: skipping corrupt cache line 4",
    ]


def test_resolve_cache_path(monkeypatch):
    assert resolve_cache_path("x.jsonl") == "x.jsonl"
    monkeypatch.setenv("TURANLAB_CACHE", "env.jsonl")
    assert resolve_cache_path(None) == "env.jsonl"
    monkeypatch.delenv("TURANLAB_CACHE")
    assert resolve_cache_path(None) == "./turanlab-cache.jsonl"
    # an empty variable is unset, as an empty flag is
    monkeypatch.setenv("TURANLAB_CACHE", "")
    assert resolve_cache_path(None) == resolve_cache_path("") == "./turanlab-cache.jsonl"


def test_cli_search_with_empty_cache_variable(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("TURANLAB_CACHE", "")
    code, out, err = run_cli(["search", "--n", "4", "--r", "2", "--predicate", "triangle-free"], capsys)
    assert code == 0 and json.loads(out)["value"] == 4, err
    assert len(cache_entries(str(tmp_path / "turanlab-cache.jsonl"))) == 1


def run_cli(args, capsys):
    code = run(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_construct_and_verify(tmp_path, capsys):
    code, out, _ = run_cli(["construct", "turan", "--n", "6", "--r", "3", "--ell", "3"], capsys)
    assert code == 0
    path = str(tmp_path / "t6.txt")
    with open(path, "w") as fh:
        fh.write(out)
    for cert in ("cancellative", "inequality2", "theorem13", "mantel-link", "link-count"):
        code, out, _ = run_cli(["verify", cert, path], capsys)
        assert code == 0, cert
        assert json.loads(out)["holds"] is True


def test_cli_verify_violation_and_precondition(tmp_path, capsys):
    bad = str(tmp_path / "bad.txt")
    with open(bad, "w") as fh:
        fh.write("5 3\n1 2 3\n1 2 4\n3 4 5\n")
    code, out, _ = run_cli(["verify", "cancellative", bad], capsys)
    assert code == 1
    assert json.loads(out)["holds"] is False
    # precondition failure: fisher-ryan on a K4-containing graph
    k4 = str(tmp_path / "k4.txt")
    with open(k4, "w") as fh:
        fh.write("4 2\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n")
    code, _, err = run_cli(["verify", "fisher-ryan", k4, "--ell", "3"], capsys)
    assert code == 2
    assert "precondition" in err
    # and on a cancellative certificate with a non-cancellative input
    code, _, _ = run_cli(["verify", "inequality2", bad], capsys)
    assert code == 2
    code, out, err = run_cli(["stability", "cancellative", bad], capsys)
    assert (code, out, err) == (2, "", "error: precondition failed: input is not cancellative\n")


def test_cli_3_graph_checks_refuse_a_graph(tmp_path, capsys):
    path = str(tmp_path / "g.txt")
    save_hypergraph(path, turan_hypergraph(6, 2, 2))
    three_graph_checks = (
        ["verify", "link-count"],
        ["verify", "inequality2"],
        ["verify", "theorem13"],
        ["verify", "mantel-link"],
        ["verify", "cancellative"],
        ["verify", "links-triangle-free"],
        ["verify", "neighborhoods-independent"],
        ["stability", "cancellative"],
    )
    for argv in three_graph_checks:
        code, out, err = run_cli([*argv, path], capsys)
        assert (code, out, err) == (2, "", "error: the 3-graph checks expect r = 3, got r = 2\n"), argv


def test_cli_verify_reports_each_parse_error_with_its_line(tmp_path, capsys):
    cases = [
        ("# only a comment\n\n", "missing 'n r' header line"),
        ("# c\n4\n", "line 2: header must be 'n r'"),
        ("4 three\n", "line 1: header must be two integers"),
        ("4 3\n1 2 x\n", "line 2: edge labels must be integers"),
        ("4 3\n1 2 3\n\n1 2\n", "line 4: expected 3 labels, got 2"),
        ("4 3\n1 2 2\n", "line 2: repeated vertex in edge"),
        ("4 3\n1 2 3\n1 2 5\n", "line 3: label out of range 1..4"),
        ("4 3\n1 2 3\n# c\n3 2 1\n1 2 x\n", "line 4: duplicate edge [1, 2, 3]"),
        ("4 1\n1\n", "uniformity must be >= 2, got 1"),
    ]
    path = tmp_path / "bad.txt"
    for text, message in cases:
        path.write_text(text)
        assert run_cli(["verify", "cancellative", str(path)], capsys) == (2, "", f"error: {message}\n"), text


def test_cli_usage_errors(tmp_path, capsys):
    code, _, _ = run_cli(["no-such-command"], capsys)
    assert code == 2
    code, _, _ = run_cli(["verify", "fisher-ryan", "/nonexistent/file"], capsys)
    assert code == 2
    code, _, _ = run_cli(["search", "--n", "5", "--r", "3", "--predicate", "k-free", "--no-cache"], capsys)
    assert code == 2  # k-free without --ell
    code, _, _ = run_cli(
        ["search", "--n", "5", "--r", "3", "--predicate", "cancellative", "--no-cache", "--ordering", "colex"],
        capsys,
    )
    assert code == 2  # unknown option --ordering
    code, _, _ = run_cli(
        ["search", "--n", "5", "--r", "3", "--predicate", "cancellative", "--no-cache", "--symmetry-depth", "4"],
        capsys,
    )
    assert code == 2  # unknown option --symmetry-depth
    # r < 2, ell < r, n < 0 and a non-positive budget fail before the cache
    # lookup, so even a stored entry for the key is not served
    cache = str(tmp_path / "c.jsonl")
    stored = entry()
    stored.predicate, stored.n, stored.r = "triangle-free", 5, 2
    cache_store(cache, stored)
    args = ["search", "--n", "5", "--r", "2", "--predicate", "triangle-free"]
    assert run_cli(args + ["--cache", cache], capsys)[0] == 0  # the planted line is a hit
    for budget in ("0", "-1"):
        for flags in (["--cache", cache], ["--no-cache"]):
            code, out, err = run_cli(args + ["--budget", budget] + flags, capsys)
            assert code == 2 and out == "" and err == "error: node budget must be positive\n", (budget, flags)
    for n, r, ell, message in (
        (5, 1, 2, "uniformity must be >= 2, got 1"),
        (6, 3, 2, "need ell >= r, got ell = 2, r = 3"),
        (-1, 2, 2, "vertex count must be >= 0, got -1"),
    ):
        stored = entry(value=99)
        stored.predicate, stored.n, stored.r, stored.ell = "k-free", n, r, ell
        cache_store(cache, stored)
        args = ["search", "--n", str(n), "--r", str(r), "--predicate", "k-free", "--ell", str(ell)]
        for flags in (["--cache", cache], ["--no-cache"]):
            code, out, err = run_cli(args + flags, capsys)
            assert code == 2 and out == "" and err == f"error: {message}\n"
    # a path that exists but cannot be read as a file is a usage error, not a violation
    code, out, err = run_cli(["verify", "cancellative", str(tmp_path)], capsys)
    assert code == 2 and out == "" and err.startswith("error: ") and "directory" in err
    code, out, err = run_cli(
        ["search", "--n", "5", "--r", "2", "--predicate", "triangle-free", "--cache", str(tmp_path)], capsys
    )
    assert code == 2 and out == "" and err.startswith("error: ") and "directory" in err
    # the stability measures divide by n, so an empty vertex set is a precondition error
    for r in (2, 3):
        (tmp_path / f"empty{r}.txt").write_text(f"0 {r}\n")
    for args in (
        ["stability", "bipartite", str(tmp_path / "empty2.txt"), "--seed", "0"],
        ["stability", "kfree", str(tmp_path / "empty3.txt"), "--ell", "3", "--seed", "0"],
        ["stability", "generalized", str(tmp_path / "empty2.txt"), "--ell", "3", "--r", "3", "--seed", "0"],
        ["scan", "--kind", "triangle-free", "--n", "0", "--params", "0", "--seeds", "1"],
    ):
        code, out, err = run_cli(args, capsys)
        assert code == 2 and out == "" and err == "error: the stability measures need n >= 1, got n = 0\n"


def test_cli_rejects_non_finite_epsilon(capsys):
    for eps in ("inf", "nan"):
        for args in (
            ["construct", "triangle-free", "--n", "6", "--epsilon", eps, "--seed", "1"],
            ["scan", "--kind", "triangle-free", "--n", "6", "--params", eps, "--seeds", "1"],
        ):
            code, out, err = run_cli(args, capsys)
            assert code == 2 and out == "" and f"epsilon must be finite, got {eps}" in err


def test_cli_rejects_negative_generator_sizes(capsys):
    for args, message in (
        (["construct", "triangle-free", "--n", "6", "--epsilon", "0.1", "--noise", "-4", "--seed", "1"],
         "noise must be >= 0, got -4"),
        (["construct", "triangle-free", "--n", "-3", "--epsilon", "0.1", "--seed", "1"], "n must be >= 0, got -3"),
        (["scan", "--kind", "triangle-free", "--n", "6", "--params", "0.1", "--seeds", "1", "--noise", "-4"],
         "noise must be >= 0, got -4"),
        (["scan", "--kind", "triangle-free", "--n", "-3", "--params", "0.1", "--seeds", "1"], "n must be >= 0, got -3"),
    ):
        code, out, err = run_cli(args, capsys)
        assert code == 2 and out == "" and err == f"error: {message}\n"


def test_cli_search_cache_flow(tmp_path, capsys, monkeypatch):
    cache = str(tmp_path / "c.jsonl")
    args = ["search", "--n", "6", "--r", "3", "--predicate", "cancellative", "--cache", cache]
    code, fresh, _ = run_cli(args, capsys)
    assert code == 0
    payload = json.loads(fresh)
    assert payload["value"] == 8 and payload["extremal_classes"] == 1
    # second run hits the cache and is byte-identical
    code, cached, _ = run_cli(args, capsys)
    assert code == 0 and cached == fresh
    # --force recomputes, agrees, appends
    code, forced, _ = run_cli(args + ["--force"], capsys)
    assert code == 0 and forced == fresh
    assert len(cache_entries(cache)) == 2
    # tripwire: poison the cache with a wrong value of the current version, then force
    poisoned = CacheEntry(
        predicate="cancellative", n=6, r=3, ell=None, value=7, extremal_classes=1,
        complete=True, tool_version="x", timestamp=99.0, stats={},
        search_version=SEARCH_VERSION,
    )
    cache_store(cache, poisoned)
    code, _, err = run_cli(args + ["--force"], capsys)
    assert code == 1
    assert "tripwire" in err
    # the right value with a wrong class count trips it as well
    poisoned.value, poisoned.extremal_classes = 8, 2
    cache_store(cache, poisoned)
    code, _, err = run_cli(args + ["--force"], capsys)
    assert code == 1
    assert "tripwire" in err
    # hit == miss byte for byte for the other two predicates as well
    for extra in (["--r", "3", "--predicate", "k-free", "--ell", "3"], ["--r", "2", "--predicate", "triangle-free"]):
        other = ["search", "--n", "5", *extra, "--cache", cache]
        code, fresh, _ = run_cli(other, capsys)
        assert code == 0
        code, cached, _ = run_cli(other, capsys)
        assert code == 0 and cached == fresh


def test_cli_search_ignores_other_search_versions(tmp_path, capsys):
    key = ("cancellative", 6, 3, None)
    args = ["search", "--n", "6", "--r", "3", "--predicate", "cancellative", "--no-cache"]
    code, fresh, _ = run_cli(args, capsys)
    assert code == 0
    for flags in ([], ["--force"]):
        stale = str(tmp_path / f"stale{len(flags)}.jsonl")
        # a wrong value stored by another search version, and one from before versioning
        other = entry(value=7, ts=2.0)
        other.search_version = SEARCH_VERSION + 1
        cache_store(stale, other)
        legacy = entry(value=7, ts=3.0).to_json_dict()
        del legacy["search_version"]
        with open(stale, "a") as fh:
            fh.write(json.dumps(legacy) + "\n")
        assert cache_lookup(stale, key) is None
        # a miss, and no tripwire: the search recomputes the same bytes and stores them
        code, out, err = run_cli(args[:-1] + ["--cache", stale, *flags], capsys)
        assert code == 0 and out == fresh and "tripwire" not in err
        assert cache_lookup(stale, key).value == 8
        code, out, _ = run_cli(["cache", "list", "--cache", stale], capsys)
        assert len(json.loads(out)["entries"]) == 3


def test_cli_search_rejects_ell_outside_k_free(tmp_path, capsys):
    cache = str(tmp_path / "c.jsonl")
    # a per-ell entry of the current version, as a search that ignored ell would have stored
    stored = entry()
    stored.ell = 3
    cache_store(cache, stored)
    for tail in (["--r", "3", "--predicate", "cancellative"], ["--r", "2", "--predicate", "triangle-free"]):
        for flags in ([], ["--force"]):
            args = ["search", "--n", "6", *tail, "--ell", "3", "--cache", cache, *flags]
            code, out, err = run_cli(args, capsys)
            assert code == 2 and out == "" and "takes no ell" in err
    assert cache_entries(cache) == [stored]


def test_cli_search_budget_exit_code(tmp_path, capsys):
    cache = str(tmp_path / "c.jsonl")
    code, out, _ = run_cli(
        ["search", "--n", "7", "--r", "3", "--predicate", "cancellative", "--budget", "5", "--cache", cache],
        capsys,
    )
    assert code == 3
    assert json.loads(out)["complete"] is False


def test_cli_stability_and_seed_requirement(tmp_path, capsys):
    path = str(tmp_path / "t9.txt")
    save_hypergraph(path, turan_hypergraph(9, 3, 3))
    code, out, _ = run_cli(["stability", "cancellative", path, "--json"], capsys)
    assert code == 0
    assert json.loads(out)["bad_edges"] == 0
    code, _, err = run_cli(["stability", "kfree", path], capsys)
    assert code == 2 and "--seed" in err
    code, out, _ = run_cli(["stability", "kfree", path, "--seed", "0", "--json"], capsys)
    assert code == 0
    g = str(tmp_path / "g.txt")
    code, out, _ = run_cli(
        ["construct", "triangle-free", "--n", "16", "--epsilon", "0.02", "--noise", "8", "--seed", "3"],
        capsys,
    )
    with open(g, "w") as fh:
        fh.write(out)
    code, out, _ = run_cli(["stability", "bipartite", g, "--seed", "3", "--json"], capsys)
    assert code == 0
    assert all(json.loads(out)["verified"].values())


def test_cli_construct_perturb(tmp_path, capsys):
    base = str(tmp_path / "t9.txt")
    save_hypergraph(base, turan_hypergraph(9, 3, 3))
    args = ["construct", "perturb", base, "--delete-fraction", "0.1",
            "--add-count", "1", "--seed", "7", "--keep-cancellative", "--json"]
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["edges"] == 26  # 27 - 2 deleted + 1 added
    code, out2, _ = run_cli(args, capsys)
    assert out2 == out  # seeded, deterministic
    # the flag keeps 3-graphs cancellative; on a graph it is a precondition error
    k222 = str(tmp_path / "k222.txt")
    save_hypergraph(k222, auxiliary_graph(turan_hypergraph(6, 3, 3)))
    args = ["construct", "perturb", k222, "--delete-fraction", "0", "--add-count", "3", "--seed", "1"]
    code, out, _ = run_cli(args, capsys)
    assert code == 0 and len(out.splitlines()) == 1 + 15
    code, out, err = run_cli(args + ["--keep-cancellative"], capsys)
    assert code == 2 and out == "" and "3-graphs only, got r = 2" in err


def test_cli_stability_generalized_and_kfree_verify(tmp_path, capsys):
    from turanlab.hypergraph import Hypergraph, mask_of

    g = auxiliary_graph(turan_hypergraph(12, 3, 3))
    g = Hypergraph(12, 2, g.edges + (mask_of((1, 2)),))
    path = str(tmp_path / "g12.txt")
    save_hypergraph(path, g)
    code, out, _ = run_cli(
        ["stability", "generalized", path, "--ell", "3", "--r", "3", "--seed", "0", "--json"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["bad_edges"] <= 1
    assert payload["witness_chain"]["removed_edges"] == [[1, 2]]
    t = str(tmp_path / "t9.txt")
    save_hypergraph(t, turan_hypergraph(9, 3, 3))
    code, out, _ = run_cli(["verify", "k-free", t, "--ell", "3"], capsys)
    assert code == 0 and json.loads(out)["holds"]
    code, out, _ = run_cli(["verify", "fisher-ryan", t, "--ell", "3"], capsys)
    assert code == 2  # r = 3 input is not a graph


def test_cli_scan_csv(capsys):
    code, out, _ = run_cli(
        ["scan", "--kind", "cancellative", "--n", "9", "--params", "0.0,0.1", "--seeds", "1,2"],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,seed,epsilon,delta,bad_edges,case"
    assert len(lines) == 5
    code, out2, _ = run_cli(
        ["scan", "--kind", "cancellative", "--n", "9", "--params", "0.0,0.1", "--seeds", "1,2"],
        capsys,
    )
    assert out2 == out


def test_cli_manifest(tmp_path, capsys):
    code, out, err = run_cli(
        ["--manifest", "construct", "turan", "--n", "5", "--r", "2", "--ell", "2"], capsys
    )
    assert code == 0
    manifest = json.loads(err.strip().splitlines()[-1])
    assert manifest["command"][:2] == ["turanlab", "--manifest"]
    # digest recomputation matches the emitted payload
    import hashlib

    assert manifest["outputs"]["stdout"] == hashlib.sha256(out.encode()).hexdigest()
    # input files are digested too
    path = str(tmp_path / "in.txt")
    save_hypergraph(path, turan_hypergraph(6, 3, 3))
    code, out, err = run_cli(["--manifest", "verify", "cancellative", path], capsys)
    assert code == 0
    manifest = json.loads(err.strip().splitlines()[-1])
    with open(path, "rb") as fh:
        assert manifest["inputs"][path] == hashlib.sha256(fh.read()).hexdigest()
    assert manifest["seeds"] == []


def test_cli_manifest_records_seeds(tmp_path, capsys):
    # a scan records its --seeds list, a single-seed run its --seed
    argv = ["--manifest", "scan", "--kind", "kfree", "--n", "9", "--params", "0.0", "--seeds", "3,4"]
    code, _, err = run_cli(argv, capsys)
    assert code == 0
    assert json.loads(err.strip().splitlines()[-1])["seeds"] == [3, 4]
    path = str(tmp_path / "t9.txt")
    save_hypergraph(path, turan_hypergraph(9, 3, 3))
    code, _, err = run_cli(["--manifest", "stability", "kfree", path, "--seed", "7"], capsys)
    assert code == 0
    assert json.loads(err.strip().splitlines()[-1])["seeds"] == [7]


def test_cli_cache_subcommand(tmp_path, capsys):
    cache = str(tmp_path / "c.jsonl")
    cache_store(cache, entry())
    code, out, _ = run_cli(["cache", "list", "--cache", cache], capsys)
    assert code == 0
    assert len(json.loads(out)["entries"]) == 1
    code, out, _ = run_cli(
        ["cache", "get", "--predicate", "cancellative", "--n", "6", "--r", "3", "--cache", cache],
        capsys,
    )
    assert code == 0 and json.loads(out)["found"] is True
    code, out, _ = run_cli(
        ["cache", "get", "--predicate", "cancellative", "--n", "7", "--r", "3", "--cache", cache],
        capsys,
    )
    assert code == 1 and json.loads(out)["found"] is False


def test_cli_repeated_runs_print_same_stdout(tmp_path, capsys):
    """Representative determinism check: repeated runs print the same stdout."""
    path = str(tmp_path / "t9.txt")
    save_hypergraph(path, turan_hypergraph(9, 3, 3))
    outputs = []
    for _ in range(3):
        code, out, _ = run_cli(["verify", "inequality2", path], capsys)
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1] == outputs[2]
    outputs = []
    for _ in range(3):
        code, out, _ = run_cli(
            ["scan", "--kind", "cancellative", "--n", "9,12", "--params", "0.1", "--seeds",
             "1,2,3"],
            capsys,
        )
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1] == outputs[2]


def _modules_after(code: str) -> set[str]:
    """The modules a fresh interpreter holds after running `code`."""
    probe = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys; print(*sys.modules)"],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert probe.returncode == 0, probe.stderr
    return set(probe.stdout.split())


def test_cli_import_leaves_numpy_out():
    # the package re-exports lazily, so the CLI module loads no other turanlab module
    loaded = _modules_after("import turanlab.cli")
    assert {m for m in loaded if m.startswith("turanlab")} == {"turanlab", "turanlab.cli"}
    assert not loaded & {"numpy", "dataclasses", "fractions", "hashlib"}


def test_cli_subcommand_imports_only_what_it_runs(tmp_path):
    path = str(tmp_path / "t6.txt")
    save_hypergraph(path, turan_hypergraph(6, 3, 3))
    call = "from contextlib import redirect_stdout; from io import StringIO; from turanlab.cli import run\n"
    call += "with redirect_stdout(StringIO()): assert run({!r}) == 0"
    loaded = _modules_after(call.format(["verify", "cancellative", path]))
    assert {"turanlab.checkers", "turanlab.hypergraph"} <= loaded
    assert not loaded & {"turanlab.search", "turanlab.stability", "turanlab.cache", "turanlab.constructions"}
    assert "hashlib" not in loaded
    # only a run manifest digests, so only a run with one loads hashlib
    search = ["search", "--n", "4", "--r", "2", "--predicate", "triangle-free", "--cache", str(tmp_path / "c.jsonl")]
    loaded = _modules_after(call.format(search))
    assert {"turanlab.search", "turanlab.cache"} <= loaded
    assert "hashlib" not in loaded
    # the manifest lives in cache.py, which loads the search only for a lookup
    loaded = _modules_after(call.format(["--manifest", "verify", "cancellative", path]))
    assert {"hashlib", "turanlab.cache"} <= loaded
    assert not loaded & {"turanlab.search", "turanlab.stability", "turanlab.constructions"}


def test_cli_entry_point_subprocess():
    script = subprocess.run(
        [sys.executable, "-c", "from turanlab.cli import main; main()",
         "construct", "turan", "--n", "4", "--r", "2", "--ell", "2"],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert script.returncode == 0
    assert script.stdout.startswith("4 2\n")


def test_cli_module_runs_as_script(tmp_path, capsys):
    # `python -m turanlab.cli` is the entry point of a checkout that is not installed
    good, bad = str(tmp_path / "good.txt"), str(tmp_path / "bad.txt")
    t6 = turan_hypergraph(6, 3, 3)
    save_hypergraph(good, t6)
    save_hypergraph(bad, Hypergraph(6, 3, t6.edges + (mask_of((1, 2, 4)),)))
    for path, expected in ((good, 0), (bad, 1)):
        code, out, _ = run_cli(["verify", "cancellative", path], capsys)
        script = subprocess.run(
            [sys.executable, "-m", "turanlab.cli", "verify", "cancellative", path],
            capture_output=True,
            text=True,
            env=CHILD_ENV,
        )
        assert code == script.returncode == expected
        assert script.stdout == out != ""

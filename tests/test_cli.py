import dataclasses
import json
import os
import subprocess
import sys

import pytest

from grassdense import __version__, cli, oracle
from grassdense.cli import EXIT_DENSE, EXIT_SPARSE, EXIT_USAGE, RULE_LABELS, main
from grassdense import rules
from grassdense.core import Status, parse
from grassdense.engine import Engine, Verdict

# an engine-dense vector that the engine_gives_up fixture sends to the oracle
ORACLE_BOUND = "1,1,1,1,5;6"


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    path = tmp_path / "verdicts.jsonl"
    monkeypatch.setenv("GRASSDENSE_CACHE", str(path))
    return path


@pytest.fixture
def engine_gives_up(monkeypatch):
    """Engine.decide answers Unknown on ORACLE_BOUND, as if its walk reached
    a dead end, so decide settles it by the oracle; other vectors are
    decided as usual.  Returns the unpatched Engine.decide."""
    real = Engine.decide

    def decide(self, d):
        if d.canonical() == parse(ORACLE_BOUND).canonical():
            return Verdict()
        return real(self, d)
    monkeypatch.setattr(Engine, "decide", decide)
    return real


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDecide:
    def test_dense_exit0(self, capsys):
        code, out, _ = run(capsys, "decide", "1,2,2;5")
        assert code == EXIT_DENSE
        assert out.startswith("DENSE")

    def test_sparse_exit1(self, capsys):
        code, out, _ = run(capsys, "decide", "1,1,2,2;3")
        assert code == EXIT_SPARSE
        assert out.startswith("SPARSE")

    def test_exponent_syntax_accepted(self, capsys):
        code, out, _ = run(capsys, "decide", "(1^2,2;5)")
        assert code == EXIT_DENSE

    def test_bad_vector_exit3(self, capsys, isolated_cache):
        code, out, err = run(capsys, "decide", "5;2")
        assert code == EXIT_USAGE and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert not isolated_cache.exists()

    def test_huge_exponent_exit3(self, capsys, isolated_cache):
        # refused before any entry list is built, so no MemoryError
        code, out, err = run(capsys, "decide", "(1^1000000000000;3)")
        assert code == EXIT_USAGE and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "entries" in err and not isolated_cache.exists()

    def test_huge_ambient_few_entries_sparse(self, capsys):
        # SubseqTwoN's witness (1,1,n-1,n-1) is found without a sum bitset
        # of 2n+1 bits, so no MemoryError
        code, out, _ = run(capsys, "decide", "(1^3,999999999999^2;1000000000000)")
        assert code == EXIT_SPARSE and out.startswith("SPARSE")

    def test_oversized_oracle_system_exit3(self, capsys, monkeypatch):
        # a small engine Unknown, refused once the ceiling is below its
        # 250 x 255 system, before any chart is drawn or block built
        import numpy as np

        def no_block(*args, **kwargs):
            raise AssertionError("a chart block was built")

        def no_chart(*key):
            assert len(key) != 3, "a chart word was drawn"
            return words(*key)
        words = oracle.words
        monkeypatch.setattr(oracle, "MAX_SYSTEM_ENTRIES", 250 * 255 - 1)
        monkeypatch.setattr(np, "hstack", no_block)
        monkeypatch.setattr(oracle, "words", no_chart)
        code, out, err = run(capsys, "decide", "(7^2,9,14,20;22)", "--no-cache")
        assert code == EXIT_USAGE and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "250 x 255" in err

    @pytest.mark.parametrize("text", ["1;5_0", "1,2;+5", "١,٢;٥"])
    def test_numeral_outside_grammar_exit3(self, capsys, isolated_cache, text):
        code, out, err = run(capsys, "decide", text)
        assert code == EXIT_USAGE and out == "" and err.startswith("error: ")

    def test_json_record_shape(self, capsys):
        code, out, _ = run(capsys, "decide", "1,1,2,2;3", "--json")
        rec = json.loads(out)
        assert rec["status"] == "Sparse"
        assert rec["vector"] == {"dims": [1, 1, 2, 2], "n": 3}
        assert rec["method"] == "engine"
        assert rec["trivially_sparse"] is False
        assert rec["oracle"] is None
        assert rec["key"]["canonical"] == "(1^2,2^2;3)"
        assert rec["trace"], "certificate trace should be recorded"
        for step in rec["trace"]:
            assert set(step) == {"rule", "direction", "params", "from", "to"}

    def test_json_trivially_sparse(self, capsys, monkeypatch):
        # computed from the vector, for engine and oracle verdicts alike
        code, out, _ = run(capsys, "decide", "1,1,1,1,2;4", "--json", "--no-cache")
        assert code == EXIT_SPARSE and json.loads(out)["method"] == "engine"
        assert json.loads(out)["trivially_sparse"] is True
        monkeypatch.setattr(Engine, "decide", lambda self, d: Verdict())
        code, out, _ = run(capsys, "decide", "1,1,1,1,2;4", "--json", "--no-cache")
        assert code == EXIT_SPARSE and json.loads(out)["method"] == "oracle"
        assert json.loads(out)["trivially_sparse"] is True

    @pytest.mark.parametrize("vector, status", [("1,2,2;5", "Dense"), ("1,1,2,2;3", "Sparse"),
                                                ("1,1,1,1,2;4", "Sparse"),
                                                (ORACLE_BOUND, "Dense")])
    def test_json_one_verdict(self, capsys, engine_gives_up, vector, status):
        code, out, _ = run(capsys, "decide", vector, "--json")
        rec = json.loads(out)
        assert rec["status"] == status
        assert code == {"Dense": EXIT_DENSE, "Sparse": EXIT_SPARSE}[status]
        # exactly one kind of evidence, named by the method
        assert bool(rec["trace"]) != (rec["oracle"] is not None)
        assert rec["method"] == ("engine" if rec["trace"] else "oracle")
        assert rec["method"] == ("oracle" if vector == ORACLE_BOUND else "engine")
        assert set(rec["key"]) == {"canonical", "seed", "samples", "version"}

    def test_trace_uses_labels_not_ids(self, capsys):
        _, out, _ = run(capsys, "decide", "1,2,2;5", "--trace")
        assert any(label in out for label in RULE_LABELS.values())
        # raw wire ids stay out of human output
        assert rules.EXCESS_L1 not in out

    def test_every_rule_has_a_label(self):
        assert set(RULE_LABELS) == rules.RULE_IDS

    def test_oracle_auto_resolves_unknown(self, capsys, engine_gives_up):
        code, out, _ = run(capsys, "decide", ORACLE_BOUND, "--json")
        rec = json.loads(out)
        assert code == EXIT_DENSE
        assert rec["method"] == "oracle" and rec["trace"] == []
        assert rec["oracle"]["class"] == "CertifiedDense"
        # the oracle agrees with the unstarved engine
        assert rec["status"] == engine_gives_up(Engine(), parse(ORACLE_BOUND)).status.value

    @pytest.mark.parametrize("vector, exit_code, block", [
        ("1,10^4;16", EXIT_DENSE,
         {"anomalies": [], "class": "CertifiedDense", "expected": 0, "prime": 1992482309,
          "primes": [1992482309], "samples": 1, "seed": 0, "stab_dim": 0}),
        ("7^2,9,14,20;22", EXIT_SPARSE,
         {"anomalies": [], "class": "MonteCarloSparse", "expected": 4, "prime": 1992482309,
          "primes": [1992482309, 1582255861], "samples": 3, "seed": 0, "stab_dim": 6}),
    ])
    def test_real_oracle_fallback_pinned(self, capsys, vector, exit_code, block):
        # the unpatched engine leaves these Unknown, so decide asks the oracle
        assert Engine().decide(parse(vector)).status is Status.UNKNOWN
        code, out, _ = run(capsys, "decide", vector, "--json", "--no-cache")
        rec = json.loads(out)
        assert (code, rec["method"], rec["trace"], rec["oracle"]) == (exit_code, "oracle", [], block)

    def test_anomalies_in_record_and_on_stderr(self, capsys, monkeypatch):
        # per-prime minima 4 and 3 on a vector expecting 2
        stabs = iter([4, 3, 5, 4])
        monkeypatch.setattr(oracle, "stabilizer_nullity", lambda c: next(stabs) + 1)
        monkeypatch.setattr(Engine, "decide", lambda self, d: Verdict())
        code, out, err = run(capsys, "decide", "1,3,3,3;5", "--json", "--samples", "4")
        (anomaly,) = json.loads(out)["oracle"]["anomalies"]
        assert code == EXIT_SPARSE and "differs across primes" in anomaly
        assert err == f"warning: {anomaly}\n"

    @pytest.mark.parametrize("argv", [("decide", "1,2,2;5"),
                                      ("decide", ORACLE_BOUND),
                                      ("verify", "--max-n", "3")])
    def test_samples_below_one_exit3(self, capsys, isolated_cache, engine_gives_up, argv):
        # a --seed outside [0, 2^64) too: both are checked before any work,
        # whatever the vector
        for flag, bad in (("--samples", "0"), ("--samples", "-1"), ("--seed", "-1"),
                          ("--seed", str(2**64))):
            code, out, err = run(capsys, *argv, flag, bad)
            assert code == EXIT_USAGE and out == "" and flag in err
        assert not isolated_cache.exists()

    def test_largest_seed_accepted(self, capsys, engine_gives_up):
        code, out, _ = run(capsys, "decide", ORACLE_BOUND, "--json", "--seed", str(2**64 - 1))
        assert code == EXIT_DENSE and json.loads(out)["oracle"]["seed"] == 2**64 - 1

    def test_internal_error_exit3(self, capsys, monkeypatch):
        def boom(self, d):
            raise RuntimeError("engine failure")
        monkeypatch.setattr(Engine, "decide", boom)
        code, out, err = run(capsys, "decide", "1,2,2;5")
        assert code == EXIT_USAGE and out == ""
        assert "Traceback" in err and "RuntimeError: engine failure" in err


class TestCache:
    def test_io_errors_only_warn(self, capsys, monkeypatch, tmp_path):
        # a directory can be neither read nor appended to as a cache file
        monkeypatch.setenv("GRASSDENSE_CACHE", str(tmp_path))
        code, out, err = run(capsys, "decide", "1,2,2;5")
        assert code == EXIT_DENSE and out.startswith("DENSE")
        assert "warning: cache unreadable" in err and "warning: cache not written" in err
        assert "Traceback" not in err

    def test_round_trip(self, capsys, isolated_cache):
        run(capsys, "decide", "1,2,2;5", "--json")
        assert isolated_cache.exists()
        code, out, _ = run(capsys, "decide", "2,2,1;5")  # same canonical form
        assert code == EXIT_DENSE
        assert "(cached)" in out
        # one appended record, keyed by canonical form + oracle knobs
        lines = isolated_cache.read_text().splitlines()
        assert len(lines) == 1
        key = json.loads(lines[0])["key"]
        assert key == {"canonical": "(1,2^2;5)", "seed": 0, "samples": 3,
                       "version": __version__}

    def test_unversioned_record_not_served(self, capsys, isolated_cache):
        # records written before the key carried a version, and before it
        # lost the oracle and budget knobs, each with a wrong verdict
        planted = {"vector": {"dims": [1, 1, 2, 2], "n": 3}, "status": "Dense",
                   "method": "engine", "trivially_sparse": False, "trace": [],
                   "oracle": None, "version": __version__,
                   "key": {"canonical": "(1^2,2^2;3)", "oracle": "auto", "seed": 0,
                           "samples": 3, "budget": 50000}}
        old_shape = dict(planted, key=dict(planted["key"], version=__version__))
        isolated_cache.write_text(json.dumps(planted) + "\n" + json.dumps(old_shape) + "\n")
        code, out, _ = run(capsys, "decide", "1,1,2,2;3")
        assert code == EXIT_SPARSE
        assert out.startswith("SPARSE") and "(cached)" not in out

    def test_different_knobs_miss(self, capsys, isolated_cache):
        run(capsys, "decide", "1,2,2;5")
        _, out, _ = run(capsys, "decide", "1,2,2;5", "--seed", "1")
        assert "(cached)" not in out
        assert len(isolated_cache.read_text().splitlines()) == 2

    def test_no_home_directory(self, capsys, monkeypatch):
        # with no HOME and no passwd entry Path.home raises; --no-cache never
        # asks for it, and the default cache is skipped with one warning
        def no_home():
            raise RuntimeError("Could not determine home directory.")
        monkeypatch.delenv("GRASSDENSE_CACHE")
        monkeypatch.setattr(cli.Path, "home", no_home)
        code, out, err = run(capsys, "decide", "1,2,2;5", "--no-cache")
        assert (code, err) == (EXIT_DENSE, "") and out.startswith("DENSE")
        code, out, err = run(capsys, "decide", "1,2,2;5")
        assert code == EXIT_DENSE and out.startswith("DENSE")
        assert len(err.splitlines()) == 1 and err.startswith("warning: cache unusable")

    def test_no_cache_flag(self, capsys, isolated_cache):
        run(capsys, "decide", "1,2,2;5", "--no-cache")
        assert not isolated_cache.exists()

    def test_corrupt_line_skipped_with_warning(self, capsys, isolated_cache):
        run(capsys, "decide", "1,2,2;5")
        text = isolated_cache.read_text()
        isolated_cache.write_text("{not json\n" + text)
        code, out, err = run(capsys, "decide", "1,2,2;5")
        assert code == EXIT_DENSE
        assert "(cached)" in out
        assert "corrupt cache line 1" in err

    def test_record_after_cut_off_line_served(self, capsys, isolated_cache):
        # a crash mid-append leaves a last line with no newline
        isolated_cache.write_text('{"key": {"canonical": "(1^2,2^2;3)", "samp')
        run(capsys, "decide", "1,2,2;5")
        code, out, _ = run(capsys, "decide", "1,2,2;5")
        assert code == EXIT_DENSE and "(cached)" in out
        assert len(isolated_cache.read_text().splitlines()) == 2

    def test_hit_parses_only_its_canonical_form(self, capsys, isolated_cache, monkeypatch):
        for v in ("1,1,2,2;3", "1,2,2;5", "2,2,2;4", "3,3,4;5", "1,1,1;2"):
            run(capsys, "decide", v)
        parsed = []
        real = json.loads

        def loads(s, **kw):
            parsed.append(s)
            return real(s, **kw)
        monkeypatch.setattr(json, "loads", loads)
        code, out, _ = run(capsys, "decide", "1,2,2;5")
        assert code == EXIT_DENSE and "(cached)" in out
        # its own record and its complement's, which share the canonical form
        assert [real(s)["vector"]["dims"] for s in parsed] == [[1, 2, 2], [3, 3, 4]]

    def _cut_off(self, capsys, isolated_cache, vector):
        """decide's cache line for vector, cut off after the writer's prefix
        and the canonical form; the cache file is removed."""
        run(capsys, "decide", vector)
        line = isolated_cache.read_text()
        isolated_cache.unlink()
        cut = cli._RECORD_PREFIX + json.dumps(json.loads(line)["key"]["canonical"]) + ', "samp'
        assert line.startswith(cut)
        return cut

    def test_cut_off_own_record_warned_and_recomputed(self, capsys, isolated_cache):
        isolated_cache.write_text(self._cut_off(capsys, isolated_cache, "1,2,2;5") + "\n")
        self._recompute_despite(capsys)

    def test_cut_off_other_record_skipped_silently(self, capsys, isolated_cache):
        cut = self._cut_off(capsys, isolated_cache, "1,1,2,2;3")
        run(capsys, "decide", "1,2,2;5")
        isolated_cache.write_text(cut + "\n" + isolated_cache.read_text())
        code, out, err = run(capsys, "decide", "1,2,2;5")
        assert code == EXIT_DENSE and "(cached)" in out
        assert err == ""

    @pytest.mark.parametrize("argv", [("1,2,2;5",), (ORACLE_BOUND,)])
    def test_cached_reason_matches_fresh(self, capsys, engine_gives_up, argv):
        _, fresh, _ = run(capsys, "decide", *argv)
        _, cached, _ = run(capsys, "decide", *argv)
        assert cached == fresh.rstrip("\n") + " (cached)\n"

    def _recompute_despite(self, capsys, *argv):
        """decide 1,2,2;5 must ignore the planted cache line 1 and exit Dense."""
        code, out, err = run(capsys, "decide", "1,2,2;5", *argv)
        assert code == EXIT_DENSE and out.startswith("DENSE")
        assert "(cached)" not in out
        assert "corrupt cache line 1" in err
        return out

    def _plant(self, capsys, isolated_cache, edit):
        run(capsys, "decide", "1,2,2;5")
        rec = json.loads(isolated_cache.read_text())
        edit(rec)
        isolated_cache.write_text(json.dumps(rec) + "\n")

    def test_non_object_line_skipped(self, capsys, isolated_cache):
        isolated_cache.write_text("[1]\n")
        self._recompute_despite(capsys)

    def test_record_without_status_skipped(self, capsys, isolated_cache):
        self._plant(capsys, isolated_cache, lambda rec: rec.pop("status"))
        self._recompute_despite(capsys)

    def test_record_without_verdict_skipped(self, capsys, isolated_cache):
        # an Unknown record answers nothing: served, it ended in a KeyError
        self._plant(capsys, isolated_cache, lambda rec: rec.update(status="Unknown"))
        self._recompute_despite(capsys)

    def test_step_without_params_skipped(self, capsys, isolated_cache):
        self._plant(capsys, isolated_cache, lambda rec: rec["trace"][0].pop("params"))
        out = self._recompute_despite(capsys, "--trace")
        assert len(out.splitlines()) > 1

    def test_non_utf8_byte_costs_one_line(self, capsys, isolated_cache):
        run(capsys, "decide", "1,2,2;5")
        isolated_cache.write_bytes(b"\xff\n" + isolated_cache.read_bytes())
        code, out, err = run(capsys, "decide", "1,2,2;5")
        assert code == EXIT_DENSE and "(cached)" in out
        assert "corrupt cache line 1" in err

    def test_cached_trace_replays(self, capsys):
        run(capsys, "decide", "1,2,2;5")
        _, out, _ = run(capsys, "decide", "1,2,2;5", "--trace")
        assert "(cached)" in out
        assert any(label in out for label in RULE_LABELS.values())

    def test_cached_trace_matches_fresh(self, capsys):
        # a chain whose steps carry tuple params, which the cache stores as
        # JSON lists
        _, fresh, _ = run(capsys, "decide", "1,2,2,4,4;5", "--trace")
        _, cached, _ = run(capsys, "decide", "1,2,2,4,4;5", "--trace")
        assert "(cached)" in cached and "(cached)" not in fresh
        steps = fresh.splitlines()[1:]
        assert len(steps) == 4 and "subset=(3, 3, 4)" in fresh
        assert "length-4 table" in steps[-1]
        assert cached.splitlines()[1:] == steps

    def test_complement_served_its_own_record(self, capsys):
        # a vector and its complement share a key, not a certificate
        run(capsys, "decide", "1,2,2;5")
        _, out, _ = run(capsys, "decide", "3,3,4;5", "--json")
        _, fresh, _ = run(capsys, "decide", "3,3,4;5", "--json", "--no-cache")
        rec, fresh_rec = json.loads(out), json.loads(fresh)
        assert rec["vector"] == fresh_rec["vector"] == {"dims": [3, 3, 4], "n": 5}
        assert rec["trace"] == fresh_rec["trace"]
        _, cached, _ = run(capsys, "decide", "3,3,4;5", "--trace")
        _, fresh, _ = run(capsys, "decide", "3,3,4;5", "--trace", "--no-cache")
        assert "(cached)" in cached
        assert cached.splitlines()[1:] == fresh.splitlines()[1:]
        assert fresh.splitlines()[1].startswith("(3^2,4;5)  [complement/")


class TestOtherCommands:
    def test_verify_small_sweep(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-n", "4", "--samples", "1")
        assert code == EXIT_DENSE
        assert "0 unknown" in out
        assert "0 disagreements" in out

    def test_verify_reports_unknown_and_disagreement(self, capsys, monkeypatch):
        real_decide, real_oracle = Engine.decide, cli.oracle_decide

        def decide(self, d):
            return Verdict() if d == parse("1,1,2,2;3") else real_decide(self, d)

        def oracle_decide(d, samples, seed):
            rep = real_oracle(d, samples=samples, seed=seed)
            if d != parse("2,3,3;4"):
                return rep
            # every sample one above the dense answer: Monte Carlo sparse
            return dataclasses.replace(rep, stab_dims=tuple((p, t + 1) for p, t in rep.stab_dims))

        monkeypatch.setattr(Engine, "decide", decide)
        monkeypatch.setattr(cli, "oracle_decide", oracle_decide)
        code, out, _ = run(capsys, "verify", "--max-n", "4", "--samples", "1")
        assert code == EXIT_SPARSE
        assert "UNKNOWN (1^2,2^2;3)" in out.splitlines()
        (line,) = [s for s in out.splitlines() if s.startswith("DISAGREE")]
        assert line.startswith("DISAGREE (2,3^2;4): engine=Dense oracle=MonteCarloSparse")
        assert "1 unknown" in out and "1 disagreements" in out

    @pytest.mark.parametrize("size", [1, 2, 3, 4])
    def test_classify_text(self, capsys, size):
        code, out, _ = run(capsys, "classify", "--size", str(size))
        assert code == EXIT_DENSE
        with open(f"golden/size{size}_classification.txt") as fh:
            assert out == fh.read()

    @pytest.mark.parametrize("size", [1, 2, 3, 4])
    def test_classify_json_matches_golden(self, capsys, size):
        code, out, _ = run(capsys, "classify", "--size", str(size), "--json")
        assert code == EXIT_DENSE
        with open(f"golden/size{size}_classification.json") as fh:
            assert out == fh.read()

    def test_enumerate(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--max-n", "3", "--max-len", "3",
                           "--max-size", "2")
        assert code == EXIT_DENSE
        assert len(out.splitlines()) == 12

    def test_enumerate_json(self, capsys):
        _, out, _ = run(capsys, "enumerate", "--max-n", "2", "--max-len", "2", "--json")
        assert json.loads(out) == [{"dims": [1], "n": 2}, {"dims": [1, 1], "n": 2}]

    @pytest.mark.parametrize("argv,flag", [
        (("verify", "--max-n", "-3"), "--max-n"),
        (("verify", "--max-n", "1"), "--max-n"),
        (("enumerate", "--max-n", "-1", "--max-len", "3"), "--max-n"),
        (("enumerate", "--max-n", "1", "--max-len", "3"), "--max-n"),
        (("enumerate", "--max-n", "3", "--max-len", "0"), "--max-len"),
        (("enumerate", "--max-n", "3", "--max-len", "3", "--max-size", "0"), "--max-size"),
    ])
    def test_bad_size_exit3(self, capsys, argv, flag):
        # checked before any work: no vector is listed or checked
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("usage: ") and flag in err

    def test_family(self, capsys):
        code, out, _ = run(capsys, "family", "fibonacci", "--base", "1,1,1;2", "-k", "2")
        assert code == EXIT_DENSE
        assert out.splitlines() == ["(1^3,2;3)", "(1^3,2,3;5)", "(1^3,2,3,5;8)"]

    def test_family_bad_base_exit3(self, capsys):
        code, out, err = run(capsys, "family", "repeat", "--base", "1,1;3", "-k", "2")
        assert code == EXIT_USAGE and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_missing_subcommand_exit3(self, capsys):
        assert run(capsys, )[0] == EXIT_USAGE

    def test_unknown_flag_exit3(self, capsys, isolated_cache):
        # --oracle and --budget are gone, not ignored
        for flag in (("--bogus",), ("--oracle", "off"), ("--budget", "5")):
            code, out, err = run(capsys, "decide", "1;2", *flag)
            assert code == EXIT_USAGE and out == "" and "unrecognized" in err
        assert not isolated_cache.exists()

    def test_parser_reused_after_errors(self, capsys, isolated_cache, monkeypatch):
        first = run(capsys, "decide", "1,2,2;5")
        isolated_cache.unlink()
        # main reuses the parser built at import; an error in one call must not reach the next
        monkeypatch.setattr(cli, "_build_parser", lambda: pytest.fail("main built a parser"))
        assert run(capsys, "decide", "1,2,2;5", "--bogus")[0] == EXIT_USAGE
        for argv in (("decide", "5;2"), ("family", "repeat", "--base", "1,1;3", "-k", "2")):
            code, out, err = run(capsys, *argv)
            assert code == EXIT_USAGE and out == ""
            assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert not isolated_cache.exists()
        assert run(capsys, "decide", "1,2,2;5") == first


def test_console_script_installed():
    import shutil
    import subprocess
    exe = shutil.which("grassdense")
    assert exe is not None
    p = subprocess.run([exe, "decide", "1,1,2,2;3"], capture_output=True, text=True,
                       env={"PATH": "/usr/bin:/usr/local/bin",
                            "GRASSDENSE_CACHE": "/tmp/_gd_cli_test_cache.jsonl"})
    assert p.returncode == EXIT_SPARSE


# runs in a fresh interpreter: imports the package, then each argv of
# sys.argv[1] through cli.main, noting after each whether numpy is loaded
_NUMPY_PROBE = """
import contextlib, io, json, sys
import grassdense
from grassdense import cli
steps = [[None, "numpy" in sys.modules, ""]]
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    steps.append([code, "numpy" in sys.modules, out.getvalue()])
print(json.dumps(steps))
"""


def test_numpy_loads_only_when_the_oracle_runs(tmp_path):
    import grassdense
    src = os.path.dirname(os.path.dirname(grassdense.__file__))
    env = dict(os.environ, GRASSDENSE_CACHE=str(tmp_path / "verdicts.jsonl"),
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    engine_settled = [["decide", "1,2,2;5", "--no-cache"], ["classify", "--size", "3"],
                      ["enumerate", "--max-n", "5", "--max-len", "3"],
                      ["family", "fibonacci", "--base", "1,1,1;2", "-k", "3"]]
    oracle_bound = ["decide", "(7^2,9,14,20;22)", "--no-cache", "--json"]
    p = subprocess.run([sys.executable, "-c", _NUMPY_PROBE,
                        json.dumps(engine_settled + [oracle_bound])],
                       capture_output=True, text=True, env=env, timeout=300)
    assert p.returncode == 0, p.stderr
    steps = json.loads(p.stdout)
    assert [loaded for _, loaded, _ in steps] == [False] * 5 + [True]
    assert [code for code, _, _ in steps[1:]] == [EXIT_DENSE, 0, 0, 0, EXIT_SPARSE]
    assert json.loads(steps[-1][2])["method"] == "oracle"

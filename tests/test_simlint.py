"""The simlint static pass: per-rule snippets, suppression, baselines, CLI."""

import json
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.simlint import (
    RULES,
    apply_baseline,
    lint_paths,
    lint_source,
    load_baseline,
    write_baseline,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def rules_of(report):
    return [f.rule for f in report.findings]


class TestSim001WallClock:
    def test_time_time_flagged(self):
        src = "import time\n\ndef f():\n    return time.time()\n"
        assert rules_of(lint_source(src)) == ["SIM001"]

    def test_perf_counter_from_import_flagged(self):
        src = "from time import perf_counter\n\nt0 = perf_counter()\n"
        assert rules_of(lint_source(src)) == ["SIM001"]

    def test_datetime_now_flagged(self):
        src = ("from datetime import datetime\n"
               "stamp = datetime.now()\n")
        assert rules_of(lint_source(src)) == ["SIM001"]

    def test_sim_now_not_flagged(self):
        src = "def f(sim):\n    return sim.now\n"
        assert rules_of(lint_source(src)) == []

    def test_unrelated_time_attribute_not_flagged(self):
        # ``self.time`` or a local named ``time`` never resolves to the
        # module unless the module was imported.
        src = "def f(self):\n    return self.time.time()\n"
        assert rules_of(lint_source(src)) == []


class TestSim002GlobalRng:
    def test_random_random_flagged(self):
        src = "import random\n\nx = random.random()\n"
        assert rules_of(lint_source(src)) == ["SIM002"]

    def test_from_import_draw_flagged(self):
        src = "from random import randint\n\nx = randint(0, 7)\n"
        assert rules_of(lint_source(src)) == ["SIM002"]

    def test_seeded_stream_not_flagged(self):
        src = ("import random\n\n"
               "rng = random.Random(42)\n"
               "x = rng.random()\n")
        assert rules_of(lint_source(src)) == []

    def test_np_global_flagged_default_rng_not(self):
        src = ("import numpy as np\n\n"
               "bad = np.random.random(4)\n"
               "good = np.random.default_rng(0)\n")
        report = lint_source(src)
        assert rules_of(report) == ["SIM002"]
        assert report.findings[0].line == 3

    def test_random_seed_flagged(self):
        # Seeding the *global* RNG is still shared mutable state.
        src = "import random\n\nrandom.seed(0)\n"
        assert rules_of(lint_source(src)) == ["SIM002"]


class TestSim003SetIteration:
    def test_set_call_iteration_flagged(self):
        src = "for x in set(items):\n    handle(x)\n"
        assert rules_of(lint_source(src)) == ["SIM003"]

    def test_inferred_set_variable_flagged(self):
        src = ("hosts = {1, 2, 3}\n"
               "for h in hosts:\n"
               "    schedule(h)\n")
        assert rules_of(lint_source(src)) == ["SIM003"]

    def test_sorted_set_not_flagged(self):
        src = ("hosts = {1, 2, 3}\n"
               "for h in sorted(hosts):\n"
               "    schedule(h)\n")
        assert rules_of(lint_source(src)) == []

    def test_comprehension_over_set_flagged(self):
        src = "out = [f(x) for x in frozenset(xs)]\n"
        assert rules_of(lint_source(src)) == ["SIM003"]

    def test_dict_iteration_not_flagged(self):
        # Dict order is insertion order (3.7+): deterministic whenever
        # the insertions are, so it is deliberately not flagged.
        src = ("d = {}\n"
               "for k, v in d.items():\n"
               "    use(k, v)\n")
        assert rules_of(lint_source(src)) == []


class TestSim004Listings:
    def test_path_glob_flagged(self):
        src = "files = list(path.glob('*.npz'))\n"
        assert rules_of(lint_source(src)) == ["SIM004"]

    def test_os_listdir_flagged(self):
        src = "import os\n\nnames = os.listdir('.')\n"
        assert rules_of(lint_source(src)) == ["SIM004"]

    def test_sorted_glob_not_flagged(self):
        src = "files = sorted(path.glob('*.npz'))\n"
        assert rules_of(lint_source(src)) == []

    def test_iterdir_flagged(self):
        src = "for p in d.iterdir():\n    p.unlink()\n"
        assert rules_of(lint_source(src)) == ["SIM004"]


class TestSim005MutableDefaults:
    def test_list_default_flagged(self):
        src = "def f(items=[]):\n    return items\n"
        assert rules_of(lint_source(src)) == ["SIM005"]

    def test_dict_call_default_flagged(self):
        src = "def f(opts=dict()):\n    return opts\n"
        assert rules_of(lint_source(src)) == ["SIM005"]

    def test_kwonly_default_flagged(self):
        src = "def f(*, acc={}):\n    return acc\n"
        assert rules_of(lint_source(src)) == ["SIM005"]

    def test_none_default_not_flagged(self):
        src = "def f(items=None):\n    return items or []\n"
        assert rules_of(lint_source(src)) == []

    def test_tuple_default_not_flagged(self):
        src = "def f(items=()):\n    return items\n"
        assert rules_of(lint_source(src)) == []


class TestSim006UnitMixing:
    def test_ms_plus_seconds_flagged(self):
        src = "total = delay_ms + timeout_s\n"
        assert rules_of(lint_source(src)) == ["SIM006"]

    def test_us_minus_ms_flagged(self):
        src = "gap = end_us - start_ms\n"
        assert rules_of(lint_source(src)) == ["SIM006"]

    def test_same_unit_not_flagged(self):
        src = "total = delay_ms + grace_ms\n"
        assert rules_of(lint_source(src)) == []

    def test_seconds_aliases_agree(self):
        src = "total = delay_sec + timeout_s\n"
        assert rules_of(lint_source(src)) == []

    def test_unsuffixed_names_not_flagged(self):
        src = "busy = self.jam_time + backoff\n"
        assert rules_of(lint_source(src)) == []


class TestSim007NegativeTimeout:
    def test_bare_difference_flagged(self):
        src = ("def wait(sim, deadline):\n"
               "    yield sim.timeout(deadline - sim.now)\n")
        assert rules_of(lint_source(src)) == ["SIM007"]

    def test_max_clamp_not_flagged(self):
        src = ("def wait(sim, deadline):\n"
               "    yield sim.timeout(max(0.0, deadline - sim.now))\n")
        assert rules_of(lint_source(src)) == []

    def test_enclosing_while_guard_not_flagged(self):
        # The carrier-sense loop in net/medium.py.
        src = ("def wait(sim, busy_until):\n"
               "    while sim.now < busy_until:\n"
               "        yield sim.timeout(busy_until - sim.now)\n")
        assert rules_of(lint_source(src)) == []

    def test_sibling_if_guard_not_flagged(self):
        src = ("def wait(sim, deadline):\n"
               "    delay = 0.0\n"
               "    if deadline < sim.now:\n"
               "        raise ValueError\n"
               "    yield sim.timeout(deadline - sim.now)\n")
        assert rules_of(lint_source(src)) == []

    def test_constant_delay_not_flagged(self):
        src = "def wait(sim):\n    yield sim.timeout(0.2)\n"
        assert rules_of(lint_source(src)) == []


class TestSuppression:
    def test_ignore_comment_suppresses(self):
        src = "import random\n\nx = random.random()  # simlint: ignore[SIM002]\n"
        report = lint_source(src)
        assert report.findings == []
        assert [f.rule for f in report.suppressed] == ["SIM002"]
        assert report.ignore_comments == 1

    def test_ignore_wrong_rule_does_not_suppress(self):
        src = "import random\n\nx = random.random()  # simlint: ignore[SIM001]\n"
        assert rules_of(lint_source(src)) == ["SIM002"]

    def test_multiple_rules_in_one_comment(self):
        src = ("import random\n\n"
               "x = random.random()  # simlint: ignore[SIM001,SIM002]\n")
        assert lint_source(src).findings == []

    def test_docstring_mention_is_not_a_suppression(self):
        src = ('"""Docs say # simlint: ignore[SIM002] works."""\n'
               "import random\n\n"
               "x = random.random()\n")
        report = lint_source(src)
        assert rules_of(report) == ["SIM002"]
        assert report.ignore_comments == 0

    def test_select_and_ignore_filters(self):
        src = ("import random\n\n"
               "def f(items=[]):\n"
               "    return random.random()\n")
        assert rules_of(lint_source(src, select=["SIM005"])) == ["SIM005"]
        assert rules_of(lint_source(src, ignore=["SIM005"])) == ["SIM002"]

    def test_unknown_rule_id_rejected(self):
        with pytest.raises(ValueError, match="SIM999"):
            lint_source("x = 1\n", select=["SIM999"])

    def test_syntax_error_reported_not_raised(self):
        report = lint_source("def broken(:\n")
        assert report.error is not None
        assert report.findings == []


class TestBaseline:
    SRC = "import random\n\nx = random.random()\n"

    def test_round_trip(self, tmp_path):
        mod = tmp_path / "mod.py"
        mod.write_text(self.SRC)
        result = lint_paths([str(mod)])
        assert len(result.findings) == 1

        baseline = tmp_path / "baseline.json"
        write_baseline(baseline, result)
        accepted = load_baseline(baseline)
        new, baselined = apply_baseline(result, accepted)
        assert new == [] and baselined == 1

    def test_regression_detected(self, tmp_path):
        mod = tmp_path / "mod.py"
        mod.write_text(self.SRC)
        baseline = tmp_path / "baseline.json"
        write_baseline(baseline, lint_paths([str(mod)]))

        mod.write_text(self.SRC + "y = random.randint(0, 3)\n")
        new, baselined = apply_baseline(
            lint_paths([str(mod)]), load_baseline(baseline)
        )
        assert baselined == 1
        assert [f.rule for f in new] == ["SIM002"]
        assert new[0].line == 4

    def test_fingerprint_survives_line_shift(self, tmp_path):
        mod = tmp_path / "mod.py"
        mod.write_text(self.SRC)
        baseline = tmp_path / "baseline.json"
        write_baseline(baseline, lint_paths([str(mod)]))

        # Same offending line, pushed two lines down by a comment block.
        mod.write_text("# a\n# b\n" + self.SRC)
        new, baselined = apply_baseline(
            lint_paths([str(mod)]), load_baseline(baseline)
        )
        assert new == [] and baselined == 1


class TestCli:
    def test_lint_clean_file_exits_zero(self, tmp_path, capsys):
        mod = tmp_path / "clean.py"
        mod.write_text("x = 1\n")
        assert main(["lint", str(mod)]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_lint_finding_exits_one(self, tmp_path, capsys):
        mod = tmp_path / "dirty.py"
        mod.write_text("import random\nx = random.random()\n")
        assert main(["lint", str(mod)]) == 1
        out = capsys.readouterr().out
        assert "SIM002" in out and "dirty.py" in out

    def test_lint_json_format(self, tmp_path, capsys):
        mod = tmp_path / "dirty.py"
        mod.write_text("import random\nx = random.random()\n")
        assert main(["lint", str(mod), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["tool"] == "repro.simlint"
        assert payload["counts_by_rule"] == {"SIM002": 1}
        assert payload["findings"][0]["fingerprint"]

    def test_lint_stats(self, tmp_path, capsys):
        mod = tmp_path / "clean.py"
        mod.write_text("x = 1\n")
        assert main(["lint", str(mod), "--stats"]) == 0
        out = capsys.readouterr().out
        assert "files scanned" in out
        for rule in RULES:
            assert rule in out

    def test_lint_baseline_flow(self, tmp_path, capsys):
        mod = tmp_path / "dirty.py"
        mod.write_text("import random\nx = random.random()\n")
        baseline = tmp_path / "baseline.json"
        assert main(["lint", str(mod), "--baseline", str(baseline),
                     "--write-baseline"]) == 0
        assert main(["lint", str(mod), "--baseline", str(baseline)]) == 0
        mod.write_text("import random\nx = random.random()\n"
                       "y = random.choice([1, 2])\n")
        assert main(["lint", str(mod), "--baseline", str(baseline)]) == 1

    def test_lint_missing_baseline_is_usage_error(self, tmp_path):
        mod = tmp_path / "clean.py"
        mod.write_text("x = 1\n")
        assert main(["lint", str(mod), "--baseline",
                     str(tmp_path / "nope.json")]) == 2

    def test_lint_unknown_rule_is_usage_error(self, tmp_path):
        mod = tmp_path / "clean.py"
        mod.write_text("x = 1\n")
        assert main(["lint", str(mod), "--select", "SIM999"]) == 2

    def test_syntax_error_exits_one(self, tmp_path, capsys):
        mod = tmp_path / "broken.py"
        mod.write_text("def broken(:\n")
        assert main(["lint", str(mod)]) == 1
        assert "error" in capsys.readouterr().out


class TestRepoIsClean:
    def test_src_and_benchmarks_lint_clean(self):
        """The PR's acceptance bar: the tree has no open findings."""
        result = lint_paths(
            [str(REPO_ROOT / "src"), str(REPO_ROOT / "benchmarks"),
             str(REPO_ROOT / "bench")]
        )
        assert result.errors == []
        assert result.findings == [], "\n".join(
            f"{f.location()}: {f.rule} {f.message}" for f in result.findings
        )

    def test_committed_baseline_matches(self):
        baseline = REPO_ROOT / "results" / "simlint-baseline.json"
        accepted = load_baseline(baseline)
        result = lint_paths(
            [str(REPO_ROOT / "src"), str(REPO_ROOT / "benchmarks"),
             str(REPO_ROOT / "bench")]
        )
        new, _ = apply_baseline(result, accepted)
        assert new == []

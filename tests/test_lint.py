"""The determinism & contract linter (src/repro/lint/, CONTRACTS.md).

Two halves, mirroring the tentpole's acceptance criteria:

* every rule fires on a fixture snippet and is silenced by its
  suppression mechanism (``# noqa: REPRO-<id>`` pragma, module
  allowlist, ``__all__``, baseline);
* the real package is clean — ``lint_package()`` reports nothing beyond
  the committed ``lint_baseline.json``, which stays within its
  ≤5-finding budget.
"""

from pathlib import Path

import pytest

from repro.lint import (
    ALL_RULES,
    check_source,
    lint_package,
    load_baseline,
    run_lint,
    write_baseline,
)
from repro.lint.cli import main as lint_main

pytestmark = pytest.mark.lint

REPO_ROOT = Path(__file__).resolve().parents[1]


def rules_of(findings):
    return [f.rule for f in findings]


# --------------------------------------------------------------------- #
# D1 — no wall clock
# --------------------------------------------------------------------- #
class TestNoWallClock:
    def test_fires_on_time_time_in_deterministic_module(self):
        findings = check_source(
            "import time\n\ndef f():\n    return time.time()\n",
            rel="online/foo.py")
        assert rules_of(findings) == ["D1"]
        assert "time.time" in findings[0].message

    def test_fires_through_import_alias(self):
        findings = check_source(
            "import time as _clock\n\ndef f():\n"
            "    return _clock.perf_counter_ns()\n",
            rel="conflict/foo.py")
        assert rules_of(findings) == ["D1"]

    def test_fires_on_from_import(self):
        findings = check_source(
            "from time import perf_counter\n\ndef f():\n"
            "    return perf_counter()\n",
            rel="coloring/foo.py")
        assert rules_of(findings) == ["D1"]

    def test_fires_on_datetime_now(self):
        findings = check_source(
            "from datetime import datetime\n\ndef f():\n"
            "    return datetime.now()\n",
            rel="dipaths/foo.py")
        assert rules_of(findings) == ["D1"]

    def test_allowlist_suppresses_trace_and_benchmarks(self):
        source = "import time\n\ndef f():\n    return time.time()\n"
        assert check_source(source, rel="obs/trace.py") == []
        assert check_source(source, rel="service/service.py") == []
        assert check_source(source, rel="analysis/bench_foo.py") == []

    def test_noqa_pragma_suppresses(self):
        findings = check_source(
            "import time\n\ndef f():\n"
            "    return time.time()  # noqa: REPRO-D1 -- test fixture\n",
            rel="online/foo.py")
        assert findings == []

    def test_noqa_with_wrong_code_does_not_suppress(self):
        findings = check_source(
            "import time\n\ndef f():\n"
            "    return time.time()  # noqa: REPRO-D2\n",
            rel="online/foo.py")
        assert rules_of(findings) == ["D1"]

    def test_local_variable_named_time_is_not_flagged(self):
        findings = check_source(
            "def f(time):\n    return time.time()\n",
            rel="online/foo.py")
        assert findings == []


# --------------------------------------------------------------------- #
# D2 — no global RNG
# --------------------------------------------------------------------- #
class TestNoGlobalRng:
    def test_fires_on_module_level_random_call(self):
        findings = check_source(
            "import random\n\ndef f():\n    return random.randrange(10)\n",
            rel="core/foo.py")
        assert rules_of(findings) == ["D2"]

    def test_fires_on_from_import(self):
        findings = check_source(
            "from random import shuffle\n\ndef f(xs):\n    shuffle(xs)\n",
            rel="online/foo.py")
        assert rules_of(findings) == ["D2"]

    def test_constructing_an_rng_is_allowed(self):
        findings = check_source(
            "import random\n\ndef f(seed):\n"
            "    return random.Random(seed)\n",
            rel="online/foo.py")
        assert findings == []

    def test_drawing_from_injected_rng_is_allowed(self):
        findings = check_source(
            "def f(rng):\n    return rng.randrange(10)\n",
            rel="online/foo.py")
        assert findings == []

    def test_noqa_suppresses(self):
        findings = check_source(
            "import random\n\ndef f():\n"
            "    return random.random()  # noqa: REPRO-D2\n",
            rel="core/foo.py")
        assert findings == []


# --------------------------------------------------------------------- #
# D3 — unordered iteration
# --------------------------------------------------------------------- #
class TestUnorderedIteration:
    def test_fires_on_for_over_set_call(self):
        findings = check_source(
            "def f(xs):\n    for x in set(xs):\n        print(x)\n",
            rel="online/foo.py")
        assert rules_of(findings) == ["D3"]

    def test_fires_on_comprehension_over_set_literal(self):
        findings = check_source(
            "def f(a, b):\n    return [x for x in {a, b}]\n",
            rel="conflict/foo.py")
        assert rules_of(findings) == ["D3"]

    def test_fires_on_set_variable_pop(self):
        findings = check_source(
            "def f(xs):\n    pending = set(xs)\n    return pending.pop()\n",
            rel="graphs/foo.py")
        assert rules_of(findings) == ["D3"]

    def test_fires_on_list_of_set(self):
        findings = check_source(
            "def f(xs):\n    return list(set(xs))\n",
            rel="dipaths/foo.py")
        assert rules_of(findings) == ["D3"]

    def test_sorted_wrapping_is_clean(self):
        findings = check_source(
            "def f(xs):\n"
            "    for x in sorted(set(xs)):\n        print(x)\n"
            "    return sorted({x + 1 for x in xs})\n",
            rel="online/foo.py")
        assert findings == []

    def test_out_of_scope_module_is_clean(self):
        findings = check_source(
            "def f(xs):\n    for x in set(xs):\n        print(x)\n",
            rel="analysis/foo.py")
        assert findings == []

    def test_noqa_suppresses(self):
        findings = check_source(
            "def f(xs):\n"
            "    for x in set(xs):  # noqa: REPRO-D3\n        print(x)\n",
            rel="online/foo.py")
        assert findings == []


# --------------------------------------------------------------------- #
# D4 — exception discipline
# --------------------------------------------------------------------- #
class TestExceptionDiscipline:
    def test_fires_on_state_dependent_runtime_error(self):
        findings = check_source(
            "def f(self):\n"
            "    if self._journal and self._journal[-1] is None:\n"
            "        raise RuntimeError('journal out of step')\n",
            rel="online/foo.py")
        assert rules_of(findings) == ["D4"]

    def test_fires_on_value_error_guarded_by_local(self):
        findings = check_source(
            "def f(table, key):\n"
            "    members = table.get(key)\n"
            "    if members is None:\n"
            "        raise ValueError('no shard anchored there')\n",
            rel="online/foo.py")
        assert rules_of(findings) == ["D4"]

    def test_argument_validation_is_allowed(self):
        findings = check_source(
            "def f(count, rate):\n"
            "    if count < 0 or rate <= 0:\n"
            "        raise ValueError('count and rate must be positive')\n",
            rel="online/foo.py")
        assert findings == []

    def test_constructor_validation_is_allowed(self):
        findings = check_source(
            "class C:\n"
            "    def __init__(self, n):\n"
            "        if n < 1:\n"
            "            raise ValueError('n must be >= 1')\n",
            rel="conflict/foo.py")
        assert findings == []

    def test_typed_repro_exception_is_clean(self):
        findings = check_source(
            "from ..exceptions import EngineStateError\n\n"
            "def f(self):\n"
            "    if self._broken:\n"
            "        raise EngineStateError('bookkeeping broke')\n",
            rel="online/foo.py")
        assert findings == []

    def test_bare_except_fires_everywhere(self):
        findings = check_source(
            "def f():\n"
            "    try:\n        return 1\n"
            "    except:\n        return 2\n",
            rel="analysis/foo.py")
        assert rules_of(findings) == ["D4"]
        assert "bare" in findings[0].message

    def test_out_of_engine_scope_raises_are_allowed(self):
        findings = check_source(
            "def f(self):\n"
            "    if self._journal and self._journal[-1] is None:\n"
            "        raise RuntimeError('fine outside the engine')\n",
            rel="analysis/foo.py")
        assert findings == []

    def test_noqa_suppresses(self):
        findings = check_source(
            "def f(table, key):\n"
            "    members = table.get(key)\n"
            "    if members is None:\n"
            "        raise ValueError('x')  # noqa: REPRO-D4\n",
            rel="online/foo.py")
        assert findings == []


# --------------------------------------------------------------------- #
# M1 — metric namespaces
# --------------------------------------------------------------------- #
class TestMetricNamespace:
    def test_deterministic_namespace_is_clean(self):
        findings = check_source(
            "class Engine:\n"
            "    def __init__(self, metrics):\n"
            "        self._obs_init('engine', metrics)\n"
            "        self._m = self._obs_counter('admitted')\n",
            rel="online/foo.py")
        assert findings == []

    def test_diagnostic_namespace_requires_diagnostic_true(self):
        source = (
            "class Index:\n"
            "    def __init__(self, metrics):\n"
            "        self._obs_init('colorindex', metrics)\n"
            "        self._m = self._obs_counter('records'%s)\n")
        findings = check_source(source % "", rel="conflict/foo.py")
        assert rules_of(findings) == ["M1"]
        assert "diagnostic=True" in findings[0].message
        assert check_source(source % ", diagnostic=True",
                            rel="conflict/foo.py") == []

    def test_unknown_namespace_fires(self):
        findings = check_source(
            "def f(registry):\n"
            "    return registry.counter('bogus.name')\n",
            rel="online/foo.py")
        assert rules_of(findings) == ["M1"]

    def test_fstring_with_constant_prefix_is_checked(self):
        findings = check_source(
            "class Guard:\n"
            "    def __init__(self, metrics):\n"
            "        self._obs_init('guard', metrics)\n"
            "    def shed(self, tenant):\n"
            "        self._obs_counter(f'tenant.{tenant}.shed',\n"
            "                          diagnostic=True)\n",
            rel="online/foo.py")
        assert findings == []

    def test_direct_registry_call_in_known_namespace_is_clean(self):
        findings = check_source(
            "def f(registry):\n"
            "    return registry.gauge('result.wavelengths_used')\n",
            rel="online/foo.py")
        assert findings == []

    def test_noqa_suppresses(self):
        findings = check_source(
            "def f(registry):\n"
            "    return registry.counter('bogus.name')  # noqa: REPRO-M1\n",
            rel="online/foo.py")
        assert findings == []


# --------------------------------------------------------------------- #
# C1 — dead code
# --------------------------------------------------------------------- #
class TestDeadCode:
    def test_fires_on_unused_import(self):
        findings = check_source(
            "import json\n\ndef f():\n    return 1\n",
            rel="core/foo.py")
        assert rules_of(findings) == ["C1"]
        assert "json" in findings[0].message

    def test_used_import_is_clean(self):
        findings = check_source(
            "import json\n\ndef f(x):\n    return json.dumps(x)\n",
            rel="core/foo.py")
        assert findings == []

    def test_all_export_suppresses(self):
        findings = check_source(
            "from .engine import run\n\n__all__ = ['run']\n",
            rel="core/foo.py")
        assert findings == []

    def test_fires_on_dead_module_level_name(self):
        findings = check_source(
            "LIMIT = 10\n\ndef f():\n    return 1\n",
            rel="core/foo.py")
        assert rules_of(findings) == ["C1"]
        assert "LIMIT" in findings[0].message

    def test_future_import_and_dunders_are_exempt(self):
        findings = check_source(
            "from __future__ import annotations\n\n"
            "__version__ = '1.0'\n\ndef f():\n    return 1\n",
            rel="core/foo.py")
        assert findings == []

    def test_init_reexport_referenced_elsewhere_is_clean(self, tmp_path):
        package = tmp_path / "pkg"
        package.mkdir()
        (package / "__init__.py").write_text(
            "from .engine import run\n")
        (package / "engine.py").write_text(
            "def run():\n    return 1\n")
        (package / "user.py").write_text(
            "from pkg import run\n\n__all__ = ['run']\n")
        report = run_lint([package])
        assert report.findings == []

    def test_init_import_unreferenced_anywhere_fires(self, tmp_path):
        package = tmp_path / "pkg"
        package.mkdir()
        (package / "__init__.py").write_text("import json\n")
        report = run_lint([package])
        assert rules_of(report.findings) == ["C1"]


# --------------------------------------------------------------------- #
# baseline workflow + CLI
# --------------------------------------------------------------------- #
class TestBaselineAndCli:
    DIRTY = "import time\n\ndef f():\n    return time.time()\n"

    def test_baseline_grandfathers_and_goes_stale(self, tmp_path):
        target = tmp_path / "online"
        target.mkdir()
        (target / "__init__.py").write_text("")
        dirty = target / "foo.py"
        dirty.write_text(self.DIRTY)
        baseline_path = tmp_path / "lint_baseline.json"

        report = run_lint([target])
        assert rules_of(report.new_findings) == ["D1"]
        write_baseline(baseline_path, report.findings)
        assert len(load_baseline(baseline_path)) == 1

        grandfathered = run_lint([target], baseline=baseline_path)
        assert grandfathered.clean
        assert grandfathered.grandfathered == 1

        dirty.write_text("def f():\n    return 0.0\n")
        fixed = run_lint([target], baseline=baseline_path)
        assert fixed.clean and fixed.findings == []
        assert len(fixed.stale_baseline) == 1

    def test_cli_exit_codes_and_json(self, tmp_path, capsys):
        target = tmp_path / "online"
        target.mkdir()
        (target / "__init__.py").write_text("")
        (target / "foo.py").write_text(self.DIRTY)

        assert lint_main([str(target), "--no-baseline"]) == 1
        out = capsys.readouterr().out
        assert "D1" in out and "1 new finding" in out

        import json as json_module
        assert lint_main([str(target), "--no-baseline",
                          "--format", "json"]) == 1
        payload = json_module.loads(capsys.readouterr().out)
        assert payload["new"][0]["rule"] == "D1"

        baseline_path = tmp_path / "baseline.json"
        assert lint_main([str(target), "--baseline", str(baseline_path),
                          "--write-baseline"]) == 0
        capsys.readouterr()
        assert lint_main([str(target), "--baseline",
                          str(baseline_path)]) == 0
        assert "1 grandfathered" in capsys.readouterr().out

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ALL_RULES:
            assert rule.id in out


# --------------------------------------------------------------------- #
# the real package is clean
# --------------------------------------------------------------------- #
class TestRepositoryClean:
    def test_src_repro_clean_modulo_baseline(self):
        report = lint_package()
        assert report.new_findings == [], [
            f.render() for f in report.new_findings]

    def test_committed_baseline_within_budget(self):
        entries = load_baseline(REPO_ROOT / "lint_baseline.json")
        assert len(entries) <= 5

    def test_cli_on_real_tree_exits_zero(self):
        assert lint_main([str(REPO_ROOT / "src" / "repro"),
                          "--baseline",
                          str(REPO_ROOT / "lint_baseline.json")]) == 0

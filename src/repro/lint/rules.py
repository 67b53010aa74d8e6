"""The determinism & contract rules.

Each rule is a class with a stable ``id`` (used in ``# noqa: REPRO-<id>``
pragmas and the baseline file), a one-line ``title`` and a
``check(module, project)`` generator.  The invariants they enforce — and
the allowlists below — are documented for humans in ``CONTRACTS.md`` at
the repo root; keep the two in sync.

Scoping vocabulary (paths are package-relative, ``online/defrag.py``):

``DETERMINISTIC_PACKAGES``
    Modules whose behaviour must be a pure function of their inputs so
    the differential gates (E13–E19) can demand bit-identical decisions:
    the online engine, the conflict substrate, the colouring algorithms,
    the dipath machinery and the graph layer.

``ENGINE_PACKAGES``
    The subset whose *state-dependent* failures must surface as
    :mod:`repro.exceptions` types (rule D4) so callers can distinguish
    "you called me wrong" from "my bookkeeping broke".

``WALL_CLOCK_ALLOWLIST``
    Modules that measure wall-clock time *by design*: the tracing layer's
    explicit opt-in, the profiler, service latency sampling and the
    benchmark harnesses.  Everything else goes through ``# noqa`` with a
    justification or gets rejected.
"""

from __future__ import annotations

import ast
import builtins
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .engine import Finding, ModuleUnderLint, Project

__all__ = [
    "ALL_RULES",
    "DETERMINISTIC_PACKAGES",
    "DIAGNOSTIC_NAMESPACES",
    "DETERMINISTIC_NAMESPACES",
    "ENGINE_PACKAGES",
    "WALL_CLOCK_ALLOWLIST",
    "Rule",
    "rule_index",
]

DETERMINISTIC_PACKAGES: Tuple[str, ...] = (
    "online/", "conflict/", "coloring/", "dipaths/", "graphs/")

ENGINE_PACKAGES: Tuple[str, ...] = ("online/", "conflict/", "dipaths/")

#: D1 exemptions — modules that exist to measure time.  ``obs/trace.py``
#: is the wall-clock opt-in itself, ``obs/profiling.py`` is the
#: profiler, ``service/`` samples admission latency, ``analysis/bench_*``
#: are the benchmark harnesses and ``analysis/metrics.py`` provides
#: their shared ``timed()`` helper.
WALL_CLOCK_ALLOWLIST: Tuple[str, ...] = (
    "obs/trace.py",
    "obs/profiling.py",
    "service/",
    "analysis/bench_",
    "analysis/metrics.py",
)

#: Metric namespaces that must be byte-identical across traced and
#: untraced runs (compared by ``engine_fingerprint``).
DETERMINISTIC_NAMESPACES: Tuple[str, ...] = (
    "engine.", "defrag.", "result.", "faults.", "guard.", "service.")

#: Structure-dependent namespaces; every metric here must be registered
#: with ``diagnostic=True`` so it stays out of the fingerprint.
DIAGNOSTIC_NAMESPACES: Tuple[str, ...] = (
    "colorindex.", "journal.")

_WALL_CLOCK_CALLS: Set[str] = {
    "time.time", "time.time_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.process_time", "time.process_time_ns",
    "time.clock_gettime", "time.clock_gettime_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
}

#: ``random.Random(seed)`` constructs the injectable RNG the engine
#: requires; everything else on the module (implicitly the shared global
#: ``random.Random`` instance) is forbidden.
_ALLOWED_RANDOM_CALLS: Set[str] = {"random.Random", "random.SystemRandom"}

_BUILTIN_NAMES: Set[str] = set(dir(builtins))

#: Module-level dunders that are conventional API even when unreferenced.
_DUNDER_OK: Set[str] = {"__all__", "__version__", "__author__", "__doc__"}


def _matches(rel: str, patterns: Tuple[str, ...]) -> bool:
    """Prefix match against package-relative paths (``service/`` matches
    the whole package, ``analysis/bench_`` every benchmark module)."""
    return any(rel == p or rel.startswith(p) for p in patterns)


class Rule:
    """Base class: subclasses define ``id``, ``title`` and ``check``."""

    id: str = "?"
    title: str = ""

    def check(self, module: ModuleUnderLint,
              project: Project) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, module: ModuleUnderLint, node: ast.AST,
                message: str) -> Finding:
        return Finding(rule=self.id, path=module.path, rel=module.rel,
                       line=getattr(node, "lineno", 1),
                       col=getattr(node, "col_offset", 0), message=message)


class NoWallClock(Rule):
    """D1 — deterministic modules must not read the wall clock.

    A single ``time.time()`` on a decision path breaks bit-identical
    replay: the journal cannot reproduce it, and traced and untraced
    runs diverge.  Time must arrive through event timestamps.
    """

    id = "D1"
    title = "no wall-clock reads outside the timing allowlist"

    def check(self, module: ModuleUnderLint,
              project: Project) -> Iterator[Finding]:
        if _matches(module.rel, WALL_CLOCK_ALLOWLIST):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            target = module.resolve_call(node.func)
            if target in _WALL_CLOCK_CALLS:
                yield self.finding(
                    module, node,
                    f"wall-clock call {target}() in a deterministic "
                    f"module; take time from event timestamps or add "
                    f"the module to the allowlist")


class NoGlobalRng(Rule):
    """D2 — randomness must flow through an injected ``random.Random``.

    Calls on the ``random`` module hit the interpreter-global RNG whose
    state any import can perturb; seeded runs stop replaying.  Only
    constructing an RNG (``random.Random(seed)``) is allowed.
    """

    id = "D2"
    title = "no module-level random.* calls"

    def check(self, module: ModuleUnderLint,
              project: Project) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            target = module.resolve_call(node.func)
            if target is None or not target.startswith("random."):
                continue
            if target in _ALLOWED_RANDOM_CALLS:
                continue
            yield self.finding(
                module, node,
                f"global-RNG call {target}(); draw from an injected "
                f"random.Random instead")


class UnorderedIteration(Rule):
    """D3 — no order-dependent consumption of sets in deterministic code.

    Set iteration order varies with insertion history and (for str
    elements) hash randomisation, so iterating a set on a decision path
    makes tie-breaks run-dependent.  Wrap the set in ``sorted(...)``.
    """

    id = "D3"
    title = "no unordered set iteration in deterministic modules"

    def check(self, module: ModuleUnderLint,
              project: Project) -> Iterator[Finding]:
        if not _matches(module.rel, DETERMINISTIC_PACKAGES):
            return
        set_vars = self._set_bindings(module)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.For):
                if self._is_set_expr(node.iter, set_vars):
                    yield self.finding(
                        module, node.iter,
                        "iterating a set in arbitrary order; wrap it in "
                        "sorted(...)")
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                for gen in node.generators:
                    if self._is_set_expr(gen.iter, set_vars):
                        yield self.finding(
                            module, gen.iter,
                            "comprehension over a set in arbitrary order; "
                            "wrap it in sorted(...)")
            elif isinstance(node, ast.Call):
                yield from self._check_call(module, node, set_vars)

    def _check_call(self, module: ModuleUnderLint, node: ast.Call,
                    set_vars: Set[Tuple[int, str]]) -> Iterator[Finding]:
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("list", "tuple") \
                and len(node.args) == 1 \
                and self._is_set_expr(node.args[0], set_vars):
            yield self.finding(
                module, node,
                f"{func.id}(set) materialises an arbitrary order; use "
                f"sorted(...)")
        elif isinstance(func, ast.Attribute) and func.attr == "pop" \
                and not node.args \
                and self._is_set_expr(func.value, set_vars):
            yield self.finding(
                module, node,
                "set.pop() removes an arbitrary element; pop from a "
                "sorted list instead")
        elif isinstance(func, ast.Attribute) and func.attr == "join" \
                and len(node.args) == 1 \
                and self._is_set_expr(node.args[0], set_vars):
            yield self.finding(
                module, node,
                "join over a set concatenates in arbitrary order; use "
                "sorted(...)")

    @staticmethod
    def _is_set_literalish(expr: ast.expr) -> bool:
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return True
        return (isinstance(expr, ast.Call)
                and isinstance(expr.func, ast.Name)
                and expr.func.id in ("set", "frozenset"))

    def _is_set_expr(self, expr: ast.expr,
                     set_vars: Set[Tuple[int, str]]) -> bool:
        if self._is_set_literalish(expr):
            return True
        return (isinstance(expr, ast.Name)
                and (id(self._scope_of(expr)), expr.id) in set_vars)

    def _set_bindings(self,
                      module: ModuleUnderLint) -> Set[Tuple[int, str]]:
        """Names bound to a set construction, keyed by enclosing scope.

        One-pass, flow-insensitive: a name assigned a set expression
        anywhere in a function counts for that whole function, which is
        conservative in the right direction for a determinism lint.
        """
        bindings: Set[Tuple[int, str]] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Assign) and \
                    self._is_set_literalish(node.value):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        bindings.add((id(self._scope_of(target)), target.id))
        return bindings

    @staticmethod
    def _scope_of(node: ast.AST) -> ast.AST:
        current = getattr(node, "_lint_parent", None)
        while current is not None and not isinstance(
                current, (ast.FunctionDef, ast.AsyncFunctionDef,
                          ast.Lambda, ast.Module)):
            current = getattr(current, "_lint_parent", None)
        return current if current is not None else node


class ExceptionDiscipline(Rule):
    """D4 — engine failures must be typed; no bare ``except:``.

    A state-dependent ``raise RuntimeError`` in the engine is
    indistinguishable from a stdlib failure to callers and to the
    recovery layer; those must raise :mod:`repro.exceptions` types.
    Argument validation may keep plain ``ValueError``: a raise guarded
    only by conditions on parameters (or constants) is validation, one
    that consults mutated state is not.  Bare ``except:`` is forbidden
    everywhere — it swallows the typed failures this rule exists for.
    """

    id = "D4"
    title = "typed exceptions for engine state, no bare except"

    _FORBIDDEN = ("ValueError", "RuntimeError", "Exception")

    def check(self, module: ModuleUnderLint,
              project: Project) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield self.finding(
                    module, node,
                    "bare 'except:' swallows typed engine failures; "
                    "catch a specific exception")
        if not _matches(module.rel, ENGINE_PACKAGES):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc
            name: Optional[str] = None
            if isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name):
                name = exc.func.id
            elif isinstance(exc, ast.Name):
                name = exc.id
            if name not in self._FORBIDDEN:
                continue
            if self._is_argument_validation(module, node, name):
                continue
            yield self.finding(
                module, node,
                f"state-dependent {name} in an engine module; raise a "
                f"repro.exceptions type instead")

    def _is_argument_validation(self, module: ModuleUnderLint,
                                node: ast.Raise, name: str) -> bool:
        function = module.enclosing_function(node)
        if function is not None and getattr(function, "name", "") == \
                "__init__":
            return True                       # constructor validation
        if name != "ValueError":
            return False                      # RuntimeError is never that
        params = self._parameter_names(function)
        return all(self._test_is_parameter_only(module, test, params)
                   for test in module.guarding_tests(node))

    @staticmethod
    def _parameter_names(function: Optional[ast.AST]) -> Set[str]:
        if function is None or isinstance(function, ast.Lambda):
            return set()
        arguments = function.args
        names = {a.arg for a in arguments.posonlyargs}
        names.update(a.arg for a in arguments.args)
        names.update(a.arg for a in arguments.kwonlyargs)
        if arguments.vararg is not None:
            names.add(arguments.vararg.arg)
        if arguments.kwarg is not None:
            names.add(arguments.kwarg.arg)
        return names

    def _test_is_parameter_only(self, module: ModuleUnderLint,
                                test: ast.expr, params: Set[str]) -> bool:
        """Does the guard consult only parameters, module constants and
        builtins?  ``self.<attr>`` (one level) passes as configuration;
        deeper chains and local variables mean the guard reads state.
        """
        attribute_parts: Set[int] = set()
        for node in ast.walk(test):
            if isinstance(node, ast.Attribute):
                attribute_parts.add(id(node.value))
                depth, base = self._chain(node)
                if base is None:
                    return False
                if base.id in params:
                    if depth > 1:
                        return False
                elif base.id not in module.module_names \
                        and base.id not in _BUILTIN_NAMES:
                    return False
        for node in ast.walk(test):
            if isinstance(node, ast.Name) and \
                    isinstance(node.ctx, ast.Load) and \
                    id(node) not in attribute_parts:
                if node.id not in params \
                        and node.id not in module.module_names \
                        and node.id not in _BUILTIN_NAMES:
                    return False
        return True

    @staticmethod
    def _chain(node: ast.Attribute) -> Tuple[int, Optional[ast.Name]]:
        depth = 0
        current: ast.expr = node
        while isinstance(current, ast.Attribute):
            depth += 1
            current = current.value
        return depth, current if isinstance(current, ast.Name) else None


class MetricNamespace(Rule):
    """M1 — metric names must live in a documented namespace.

    The fingerprint/identity gates split metrics into deterministic
    namespaces (byte-compared across runs) and diagnostic ones
    (``diagnostic=True``, excluded from the fingerprint).  A metric
    outside both is invisible to that machinery; a structure-dependent
    metric registered without ``diagnostic=True`` breaks traced-vs-
    untraced identity.
    """

    id = "M1"
    title = "metric names in documented namespaces"

    _REGISTRY_METHODS = ("counter", "gauge", "histogram")
    _OBS_METHODS = ("_obs_counter", "_obs_gauge", "_obs_histogram")

    def check(self, module: ModuleUnderLint,
              project: Project) -> Iterator[Finding]:
        prefixes = self._class_prefixes(module)
        for node in ast.walk(module.tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)):
                continue
            attr = node.func.attr
            if attr in self._OBS_METHODS:
                prefix = self._enclosing_prefix(module, node, prefixes)
                if prefix is None:
                    continue
                name, exact = self._literal_prefix(node.args[0]) \
                    if node.args else (None, False)
                if name is None:
                    continue
                yield from self._validate(module, node,
                                          f"{prefix}.{name}", exact)
            elif attr in self._REGISTRY_METHODS and node.args:
                name, exact = self._literal_prefix(node.args[0])
                if name is None or "." not in name:
                    continue          # not a namespaced metric call
                yield from self._validate(module, node, name, exact)

    def _validate(self, module: ModuleUnderLint, node: ast.Call,
                  name: str, exact: bool) -> Iterator[Finding]:
        deterministic = self._in_namespace(name, exact,
                                           DETERMINISTIC_NAMESPACES)
        diagnostic = self._in_namespace(name, exact, DIAGNOSTIC_NAMESPACES)
        if not deterministic and not diagnostic:
            yield self.finding(
                module, node,
                f"metric '{name}' outside the documented namespaces "
                f"(see CONTRACTS.md)")
            return
        if diagnostic and not deterministic \
                and any(name.startswith(ns)
                        for ns in DIAGNOSTIC_NAMESPACES) \
                and not self._has_diagnostic_true(node):
            yield self.finding(
                module, node,
                f"structure-dependent metric '{name}' must be "
                f"registered with diagnostic=True")

    @staticmethod
    def _in_namespace(name: str, exact: bool,
                      namespaces: Tuple[str, ...]) -> bool:
        if exact:
            return any(name.startswith(ns) for ns in namespaces)
        # partial (f-string) name: compatible if the known prefix could
        # still land inside the namespace
        return any(name.startswith(ns) or ns.startswith(name)
                   for ns in namespaces)

    @staticmethod
    def _has_diagnostic_true(node: ast.Call) -> bool:
        for keyword in node.keywords:
            if keyword.arg == "diagnostic":
                return (isinstance(keyword.value, ast.Constant)
                        and keyword.value.value is True)
        return False

    @staticmethod
    def _literal_prefix(arg: ast.expr) -> Tuple[Optional[str], bool]:
        """(known name prefix, is-the-whole-name) for a metric-name arg."""
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            return arg.value, True
        if isinstance(arg, ast.JoinedStr):
            parts: List[str] = []
            for value in arg.values:
                if isinstance(value, ast.Constant) and \
                        isinstance(value.value, str):
                    parts.append(value.value)
                else:
                    return ("".join(parts) or None), False
            return ("".join(parts) or None), True
        return None, False

    def _class_prefixes(self, module: ModuleUnderLint) -> Dict[int, str]:
        """Class node id -> metric prefix passed to ``_obs_init``."""
        prefixes: Dict[int, str] = {}
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for inner in ast.walk(node):
                if isinstance(inner, ast.Call) \
                        and isinstance(inner.func, ast.Attribute) \
                        and inner.func.attr == "_obs_init" \
                        and inner.args \
                        and isinstance(inner.args[0], ast.Constant) \
                        and isinstance(inner.args[0].value, str):
                    prefixes[id(node)] = inner.args[0].value
        return prefixes

    @staticmethod
    def _enclosing_prefix(module: ModuleUnderLint, node: ast.AST,
                          prefixes: Dict[int, str]) -> Optional[str]:
        current = getattr(node, "_lint_parent", None)
        while current is not None:
            if isinstance(current, ast.ClassDef):
                return prefixes.get(id(current))
            current = getattr(current, "_lint_parent", None)
        return None


class DeadCode(Rule):
    """C1 — no unused imports or dead module-level names.

    Dead bindings are where determinism bugs hide: an unused
    ``import time`` invites the next wall-clock call, and a dead
    module-level constant suggests a contract that silently stopped
    being enforced.  ``__init__.py`` imports count as re-exports when
    some other scanned module (or ``__all__``) references them.
    """

    id = "C1"
    title = "no unused imports or dead module-level names"

    def check(self, module: ModuleUnderLint,
              project: Project) -> Iterator[Finding]:
        is_package_init = module.rel.endswith("__init__.py")
        for node, local, target in module.toplevel_imports:
            if module.name_loads.get(local):
                continue
            if local in module.all_names:
                continue
            if is_package_init and \
                    project.referenced_elsewhere(module.rel, local):
                continue
            label = local if local == target or target.startswith(local) \
                else f"{local} (from {target})"
            yield self.finding(module, node, f"unused import '{label}'")
        for name, node in module.assigned_names.items():
            if name in _DUNDER_OK or name in module.all_names:
                continue
            if module.name_loads.get(name):
                continue
            if name in module.string_words:
                continue              # quoted forward-reference annotations
            if project.referenced_elsewhere(module.rel, name):
                continue
            yield self.finding(module, node,
                               f"unused module-level name '{name}'")


ALL_RULES: Tuple[Rule, ...] = (
    NoWallClock(), NoGlobalRng(), UnorderedIteration(),
    ExceptionDiscipline(), MetricNamespace(), DeadCode(),
)


def rule_index() -> Dict[str, Rule]:
    return {rule.id: rule for rule in ALL_RULES}

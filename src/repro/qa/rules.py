"""Domain lint rules for the ReBudget reproduction (see ``docs/QA.md``).

Every rule encodes a correctness property this codebase has actually
been burned by (or is structurally exposed to):

* ``REPRO101`` float-equality — Theorem 1/2 quantities are floats;
  ``==``/``!=`` on them silently flips under fp noise.
* ``REPRO102`` mutable-default-arg — shared-state bugs across calls.
* ``REPRO103`` overbroad-except — swallowed tracebacks hide the exact
  silent-domain-violation class PR 2/3 shipped fixes for.
* ``REPRO104`` unseeded-rng — module-level ``np.random.*`` / ``random.*``
  state breaks the executor's determinism contract: a cell's result
  must depend on its spec alone.
* ``REPRO105`` worker-nondeterminism — a process-parallelism "race
  detector": walks the call graph from ``SweepExecutor`` worker entry
  points and flags module-level mutable-global access, wall-clock
  reads, and unordered-set iteration reachable inside workers.
* ``REPRO106`` dunder-all-drift — ``__all__`` must exist and agree with
  the module's public names, so ``from repro.x import *`` and the docs
  stay truthful.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .engine import Finding, ModuleRule, ProjectRule, Severity, SourceModule

__all__ = [
    "FloatEqualityRule",
    "MutableDefaultArgRule",
    "OverbroadExceptRule",
    "UnseededRngRule",
    "WorkerNondeterminismRule",
    "DunderAllDriftRule",
    "default_rules",
]


# ----------------------------------------------------------------------
# REPRO101: float equality
# ----------------------------------------------------------------------

def _is_floatish(node: ast.AST) -> bool:
    """Heuristic: does this expression obviously produce a float?"""
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id == "float"
    if isinstance(node, ast.UnaryOp):
        return _is_floatish(node.operand)
    if isinstance(node, ast.BinOp):
        return _is_floatish(node.left) or _is_floatish(node.right)
    return False


class FloatEqualityRule(ModuleRule):
    id = "REPRO101"
    name = "float-equality"
    severity = Severity.WARNING
    rationale = (
        "MUR/MBR/price/budget quantities are floats; == and != on them "
        "flip under rounding noise — use math.isclose (or an explicit "
        "exact-identity comparison with rel_tol=abs_tol=0, documented)."
    )

    def check(self, module: SourceModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left] + list(node.comparators)
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if _is_floatish(left) or _is_floatish(right):
                    symbol = "==" if isinstance(op, ast.Eq) else "!="
                    yield self.finding(
                        module,
                        node,
                        f"float {symbol} comparison; use math.isclose with an "
                        f"explicit tolerance (rel_tol=abs_tol=0 for documented "
                        f"exact identity)",
                    )
                    break


# ----------------------------------------------------------------------
# REPRO102: mutable default arguments
# ----------------------------------------------------------------------

_MUTABLE_FACTORIES = {
    "dict", "list", "set", "OrderedDict", "defaultdict", "deque", "Counter",
}


def _is_mutable_literal(node: Optional[ast.AST]) -> bool:
    if node is None:
        return False
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None
        )
        return name in _MUTABLE_FACTORIES
    return False


class MutableDefaultArgRule(ModuleRule):
    id = "REPRO102"
    name = "mutable-default-arg"
    severity = Severity.ERROR
    rationale = (
        "A mutable default is shared across every call; state leaks "
        "between epochs/sweep cells — default to None and materialize "
        "inside the function."
    )

    def check(self, module: SourceModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if _is_mutable_literal(default):
                    yield self.finding(
                        module,
                        default,
                        f"mutable default argument in {node.name}(); shared "
                        f"across calls — default to None instead",
                    )


# ----------------------------------------------------------------------
# REPRO103: bare / overbroad except that swallows the traceback
# ----------------------------------------------------------------------

_BROAD_EXCEPTIONS = {"Exception", "BaseException"}


def _handler_names(type_node: Optional[ast.AST]) -> List[str]:
    if type_node is None:
        return []
    nodes = type_node.elts if isinstance(type_node, ast.Tuple) else [type_node]
    names = []
    for node in nodes:
        if isinstance(node, ast.Name):
            names.append(node.id)
        elif isinstance(node, ast.Attribute):
            names.append(node.attr)
    return names


def _handler_preserves_error(handler: ast.ExceptHandler) -> bool:
    """Does the handler re-raise, log, or otherwise keep the traceback?"""
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise):
            return True
        if handler.name and isinstance(node, ast.Name) and node.id == handler.name:
            return True  # the bound exception object is used
        if isinstance(node, ast.Attribute):
            root = node
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in (
                "traceback", "logging", "logger", "log", "sys",
            ):
                return True
    return False


class OverbroadExceptRule(ModuleRule):
    id = "REPRO103"
    name = "overbroad-except"
    severity = Severity.WARNING
    rationale = (
        "bare/overbroad handlers that drop the exception hide silent "
        "domain violations (the executor's error isolation must capture "
        "the traceback, never discard it)."
    )

    def check(self, module: SourceModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(
                    module,
                    node,
                    "bare except: catches everything (including "
                    "KeyboardInterrupt) and hides the cause — name the "
                    "exception type",
                )
                continue
            if any(n in _BROAD_EXCEPTIONS for n in _handler_names(node.type)):
                if not _handler_preserves_error(node):
                    yield self.finding(
                        module,
                        node,
                        "except Exception that neither re-raises nor records "
                        "the traceback — the failure disappears silently",
                    )


# ----------------------------------------------------------------------
# REPRO104: unseeded nondeterminism via module-level RNG state
# ----------------------------------------------------------------------

#: numpy.random attributes that are *not* the legacy global-state API.
_NP_RANDOM_ALLOWED = {
    "SeedSequence", "default_rng", "Generator", "BitGenerator",
    "RandomState",  # explicit instance, caller controls the seed
    "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937",
}

#: stdlib ``random`` attributes acceptable without a seed argument.
_STDLIB_RANDOM_ALLOWED = {"Random", "SystemRandom"}


class UnseededRngRule(ModuleRule):
    id = "REPRO104"
    name = "unseeded-rng"
    severity = Severity.ERROR
    rationale = (
        "module-level np.random.* / random.* state is invisible to the "
        "SweepExecutor's determinism contract: results would depend on "
        "sharding and interleaving — draw from a generator seeded by a "
        "seed the cell's spec carries."
    )

    def check(self, module: SourceModule) -> Iterator[Finding]:
        numpy_aliases = {"numpy"}
        np_random_aliases: Set[str] = set()
        random_aliases: Set[str] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "numpy":
                        numpy_aliases.add(alias.asname or "numpy")
                    elif alias.name == "random":
                        random_aliases.add(alias.asname or "random")
                    elif alias.name == "numpy.random" and alias.asname:
                        np_random_aliases.add(alias.asname)
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random" and node.level == 0:
                    for alias in node.names:
                        yield self.finding(
                            module,
                            node,
                            f"'from random import {alias.name}' pulls "
                            f"module-level RNG state — use a seeded numpy "
                            f"generator instead",
                        )
                elif node.module == "numpy.random" and node.level == 0:
                    for alias in node.names:
                        if alias.name not in _NP_RANDOM_ALLOWED:
                            yield self.finding(
                                module,
                                node,
                                f"'from numpy.random import {alias.name}' "
                                f"uses the legacy global RNG — use "
                                f"default_rng/SeedSequence",
                            )

        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Attribute):
                continue
            # np.random.<attr> where np is a numpy alias
            value = node.value
            if (
                isinstance(value, ast.Attribute)
                and value.attr == "random"
                and isinstance(value.value, ast.Name)
                and value.value.id in numpy_aliases
            ) or (
                isinstance(value, ast.Name) and value.id in np_random_aliases
            ):
                if node.attr not in _NP_RANDOM_ALLOWED:
                    yield self.finding(
                        module,
                        node,
                        f"np.random.{node.attr} touches numpy's module-level "
                        f"global RNG — draw from a generator seeded by "
                        f"the caller (np.random.default_rng(seed))",
                    )
            # random.<attr> where random is the stdlib module
            elif (
                isinstance(value, ast.Name)
                and value.id in random_aliases
                and node.attr not in _STDLIB_RANDOM_ALLOWED
            ):
                yield self.finding(
                    module,
                    node,
                    f"random.{node.attr} uses the stdlib's module-level RNG "
                    f"state — derive a seeded generator instead",
                )


# ----------------------------------------------------------------------
# REPRO105: worker-process nondeterminism (call-graph race detector)
# ----------------------------------------------------------------------

def _call_name(node: ast.Call) -> Optional[str]:
    if isinstance(node.func, ast.Name):
        return node.func.id
    return None


class _ModuleIndex:
    """Per-module facts the race detector needs."""

    def __init__(self, module: SourceModule):
        self.module = module
        self.functions: Dict[str, ast.AST] = {}
        self.imported_functions: Dict[str, Tuple[str, str]] = {}
        self.mutable_globals: Dict[str, int] = {}
        self.executor_names: Set[str] = set()
        self.worker_entries: List[str] = []

        tree = module.tree
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.functions[node.name] = node
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and _is_mutable_literal(
                        node.value
                    ):
                        self.mutable_globals[target.id] = node.lineno
            elif isinstance(node, ast.AnnAssign):
                if isinstance(node.target, ast.Name) and _is_mutable_literal(
                    node.value
                ):
                    self.mutable_globals[node.target.id] = node.lineno
            elif isinstance(node, ast.ImportFrom):
                suffix = node.module or ""
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    self.imported_functions[alias.asname or alias.name] = (
                        suffix,
                        alias.name,
                    )

        # SweepExecutor(...) bindings and .run(<fn>, ...) call sites —
        # anywhere in the module, including inside functions.
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                if _call_name(node.value) == "SweepExecutor":
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            self.executor_names.add(target.id)
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            if node.func.attr != "run" or not node.args:
                continue
            owner = node.func.value
            is_executor = (
                isinstance(owner, ast.Name) and owner.id in self.executor_names
            ) or (
                isinstance(owner, ast.Call)
                and _call_name(owner) == "SweepExecutor"
            )
            if is_executor and isinstance(node.args[0], ast.Name):
                self.worker_entries.append(node.args[0].id)


class WorkerNondeterminismRule(ProjectRule):
    id = "REPRO105"
    name = "worker-nondeterminism"
    severity = Severity.ERROR
    rationale = (
        "code reachable from a SweepExecutor worker entry runs in N "
        "processes: module-level mutable globals silently fork per "
        "process, wall clocks and unordered-set iteration differ per "
        "worker — any of them breaks the workers=1 == workers=N "
        "determinism contract."
    )

    def check_project(self, modules: Sequence[SourceModule]) -> Iterator[Finding]:
        indexes = {m.name: _ModuleIndex(m) for m in modules}

        # Resolve a called simple name to (module_name, function_name).
        def resolve(index: _ModuleIndex, name: str) -> Optional[Tuple[str, str]]:
            if name in index.functions:
                return (index.module.name, name)
            if name in index.imported_functions:
                suffix, original = index.imported_functions[name]
                tail = suffix.split(".")[-1] if suffix else ""
                for mod_name, other in indexes.items():
                    if original in other.functions and (
                        not tail
                        or mod_name == suffix
                        or mod_name.endswith("." + tail)
                        or mod_name.split(".")[-1] == tail
                    ):
                        return (mod_name, original)
            return None

        # Breadth-first over the project call graph from worker entries.
        queue: List[Tuple[str, str, str]] = []  # (module, function, entry)
        for index in indexes.values():
            for entry in index.worker_entries:
                target = resolve(index, entry)
                if target is not None:
                    queue.append((*target, entry))
        visited: Set[Tuple[str, str]] = set()
        reachable: List[Tuple[str, str, str]] = []
        while queue:
            mod_name, fn_name, entry = queue.pop(0)
            if (mod_name, fn_name) in visited:
                continue
            visited.add((mod_name, fn_name))
            reachable.append((mod_name, fn_name, entry))
            index = indexes[mod_name]
            fn = index.functions[fn_name]
            for node in ast.walk(fn):
                if isinstance(node, ast.Call):
                    name = _call_name(node)
                    if name:
                        target = resolve(index, name)
                        if target is not None and target not in visited:
                            queue.append((*target, entry))

        for mod_name, fn_name, entry in reachable:
            index = indexes[mod_name]
            yield from self._check_function(
                index.module, index, fn_name, entry
            )

    def _check_function(
        self,
        module: SourceModule,
        index: _ModuleIndex,
        fn_name: str,
        entry: str,
    ) -> Iterator[Finding]:
        fn = index.functions[fn_name]
        via = f" (reachable from worker entry '{entry}')"
        # Names shadowed by parameters or local binds are not globals.
        local_names: Set[str] = set()
        args = fn.args
        for a in (
            list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        ):
            local_names.add(a.arg)
        if args.vararg:
            local_names.add(args.vararg.arg)
        if args.kwarg:
            local_names.add(args.kwarg.arg)
        declared_global: Set[str] = set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Global):
                declared_global.update(node.names)
            elif isinstance(node, ast.Name) and isinstance(
                node.ctx, (ast.Store, ast.Del)
            ):
                local_names.add(node.id)
        local_names -= declared_global

        flagged: Set[str] = set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Name) and node.id in index.mutable_globals:
                if node.id in local_names or node.id in flagged:
                    continue
                flagged.add(node.id)
                yield self.finding(
                    module,
                    node,
                    f"worker-reachable function '{fn_name}' touches "
                    f"module-level mutable global '{node.id}'{via}: each "
                    f"pool process sees its own copy and results may "
                    f"depend on sharding",
                )
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "time"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "time"
            ):
                yield self.finding(
                    module,
                    node,
                    f"worker-reachable function '{fn_name}' reads the wall "
                    f"clock (time.time){via}: worker-dependent values leak "
                    f"into results — pass timestamps in from the parent",
                )
            elif isinstance(node, ast.For) and self._iterates_set(node.iter):
                yield self.finding(
                    module,
                    node,
                    f"worker-reachable function '{fn_name}' iterates an "
                    f"unordered set{via}: iteration order varies per "
                    f"process (PYTHONHASHSEED) — sort first",
                )

    @staticmethod
    def _iterates_set(iter_node: ast.AST) -> bool:
        if isinstance(iter_node, (ast.Set, ast.SetComp)):
            return True
        return (
            isinstance(iter_node, ast.Call)
            and isinstance(iter_node.func, ast.Name)
            and iter_node.func.id in ("set", "frozenset")
        )


# ----------------------------------------------------------------------
# REPRO106: __all__ vs. public-name drift
# ----------------------------------------------------------------------

#: Script-style files conventionally exempt from the __all__ contract.
_ALL_EXEMPT_BASENAMES = {"__main__.py", "conftest.py", "setup.py"}


class DunderAllDriftRule(ModuleRule):
    id = "REPRO106"
    name = "dunder-all-drift"
    severity = Severity.WARNING
    rationale = (
        "__all__ is the package's public-API contract: stale names break "
        "star-imports, missing names hide API from docs and from this "
        "linter's downstream consumers."
    )

    def check(self, module: SourceModule) -> Iterator[Finding]:
        if module.basename in _ALL_EXEMPT_BASENAMES:
            return

        bound: Set[str] = set()
        public: List[Tuple[str, ast.AST]] = []
        reexported: List[Tuple[str, ast.AST]] = []
        all_node: Optional[ast.AST] = None
        all_names: Optional[List[str]] = None

        for node in module.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bound.add(node.name)
                if not node.name.startswith("_"):
                    public.append((node.name, node))
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if not isinstance(target, ast.Name):
                        continue
                    if target.id == "__all__":
                        all_node = node
                        try:
                            value = ast.literal_eval(node.value)
                            all_names = [str(v) for v in value]
                        except (ValueError, TypeError):
                            all_names = None  # dynamic __all__: skip checks
                        continue
                    bound.add(target.id)
                    if not target.id.startswith("_"):
                        public.append((target.id, node))
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                if node.target.id != "__all__":
                    bound.add(node.target.id)
                    if not node.target.id.startswith("_"):
                        public.append((node.target.id, node))
                else:
                    all_node = node
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    bound.add((alias.asname or alias.name).split(".")[0])
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    bound.add(local)
                    if not local.startswith("_"):
                        reexported.append((local, node))

        if all_node is None or all_names is None:
            exported = public + (reexported if module.is_package_init else [])
            if all_names is None and all_node is not None:
                return  # dynamic __all__ — nothing checkable
            if exported:
                yield Finding(
                    rule=self.id,
                    severity=self.severity,
                    path=module.path,
                    line=1,
                    col=0,
                    message=(
                        f"module defines {len(exported)} public name(s) but "
                        f"no __all__ — declare the public API explicitly"
                    ),
                )
            return

        seen_all = set(all_names)
        for name in all_names:
            if name not in bound:
                yield self.finding(
                    module,
                    all_node,
                    f"__all__ lists {name!r} but the module never binds it "
                    f"(stale export breaks 'from {module.name} import *')",
                )
        candidates = public + (reexported if module.is_package_init else [])
        reported: Set[str] = set()
        for name, node in candidates:
            if name not in seen_all and name not in reported:
                reported.add(name)
                yield self.finding(
                    module,
                    node,
                    f"public name {name!r} is missing from __all__ "
                    f"(API drift)",
                )


def default_rules() -> List[Rule]:
    """The full domain registry, in rule-id order."""
    return [
        FloatEqualityRule(),
        MutableDefaultArgRule(),
        OverbroadExceptRule(),
        UnseededRngRule(),
        WorkerNondeterminismRule(),
        DunderAllDriftRule(),
    ]

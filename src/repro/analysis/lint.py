"""AST determinism linter for the reproduction tree.

Byte-level determinism is the contract everything else leans on: campaign
fingerprints identify task results, derived seeds make sweeps comparable,
and "Juggler vs vanilla on the same workload" is only the *same* workload
because no module reaches outside the simulation for entropy.  This pass
bans the ways that contract silently breaks:

* **wall-clock** — ``time.time()`` & friends, ``datetime.now()``;
* **global-random** — the module-level ``random`` stream (and the
  cryptographic ``SystemRandom``), including unused ``import random``;
* **raw-rng** — ad-hoc ``random.Random(seed)`` construction instead of a
  named stream from :class:`repro.sim.rng.RngRegistry`;
* **mutable-default** — ``def f(x=[])``;
* **set-iteration** — iterating an unordered set into results;
* **float-ns** — float arithmetic landing in integer-nanosecond
  timestamp variables;
* **id-ordering** — ``id()``-based keys or ordering: CPython object
  addresses differ run to run, so any ``dict`` keyed (or list sorted)
  by ``id(obj)`` iterates in an unreproducible order;
* **unordered-pop** — ``dict.popitem()`` and argument-less ``set.pop()``
  remove an *arbitrary* element.

Which rules apply where is decided by :mod:`repro.analysis.policy`; any
single finding can be waived with a justified ``det: allow`` comment
pragma on the same or the preceding line (syntax in docs/analysis.md).
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass
from typing import Iterable, List, Optional

from repro.analysis.policy import (
    ALL_RULES,
    BAD_PRAGMA,
    FLOAT_NS,
    GLOBAL_RANDOM,
    ID_ORDERING,
    MUTABLE_DEFAULT,
    Policy,
    RAW_RNG,
    SET_ITERATION,
    UNORDERED_POP,
    WALL_CLOCK,
    module_exemptions,
    parse_pragmas,
    policy_for,
)

#: Functions on the ``time`` module that read host clocks.
_WALL_CLOCK_TIME_FNS = frozenset({
    "time", "monotonic", "perf_counter", "process_time",
    "time_ns", "monotonic_ns", "perf_counter_ns", "process_time_ns",
    "localtime", "gmtime",
})

#: Wall-clock constructors on ``datetime`` / ``datetime.datetime``.
_WALL_CLOCK_DATETIME_FNS = frozenset({"now", "utcnow", "today"})

#: ``random`` module attributes that are *not* the global stream.
_RANDOM_ALLOWED_ATTRS = frozenset({"Random"})

#: Builtins whose argument is consumed in iteration order.
_ORDER_SENSITIVE_CONSUMERS = frozenset({
    "list", "tuple", "enumerate", "iter", "reversed",
})

#: Variable names treated as integer-nanosecond timestamps.
_NS_NAME_SUFFIXES = ("_ns", "_since", "_deadline")
_NS_NAME_EXACT = frozenset({"now", "deadline", "timestamp", "flush_timestamp"})


def _is_ns_name(name: str) -> bool:
    return name in _NS_NAME_EXACT or name.endswith(_NS_NAME_SUFFIXES)


@dataclass(frozen=True)
class Finding:
    """One policy violation at a source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}: " \
               f"[{self.rule}] {self.message}"


class _Visitor(ast.NodeVisitor):
    """Single-pass collector for all rules of one module."""

    def __init__(self, path: str, policy: Policy, waived: frozenset):
        self.path = path
        self.policy = policy
        self.waived = waived
        self.findings: List[Finding] = []
        #: line numbers of ``import random`` statements, resolved at the
        #: end of the pass against whether the module name was ever used.
        self.random_import_lines: List[int] = []
        self.random_name_uses = 0
        #: names ever bound to a set display / set() / frozenset(), and
        #: argument-less ``.pop()`` sites on plain names — resolved at the
        #: end of the pass so assignment order does not matter.
        self.set_like_names: set = set()
        self.bare_pop_sites: List[ast.Call] = []

    # -- helpers -------------------------------------------------------------

    def _flag(self, node: ast.AST, rule: str, message: str) -> None:
        if rule in self.waived or not self.policy.enabled(rule):
            return
        self.findings.append(Finding(
            self.path, node.lineno, node.col_offset, rule, message))

    @staticmethod
    def _dotted(node: ast.AST) -> Optional[str]:
        """Render an attribute chain like ``datetime.datetime.now``."""
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name):
            parts.append(node.id)
            return ".".join(reversed(parts))
        return None

    # -- wall-clock / random imports ----------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == "random":
                self.random_import_lines.append(node.lineno)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "time":
            banned = [a.name for a in node.names
                      if a.name in _WALL_CLOCK_TIME_FNS]
            if banned:
                self._flag(node, WALL_CLOCK,
                           f"from time import {', '.join(banned)} reads "
                           "host clocks; use simulation time")
        elif node.module == "random":
            banned = [a.name for a in node.names
                      if a.name not in _RANDOM_ALLOWED_ATTRS]
            if banned:
                self._flag(node, GLOBAL_RANDOM,
                           f"from random import {', '.join(banned)} taps "
                           "the global stream; use repro.sim.rng")
        elif node.module == "datetime":
            # importing the type is fine; calling .now() is caught below
            pass
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if node.id == "random":
            self.random_name_uses += 1
        self.generic_visit(node)

    # -- calls: clocks, random stream, raw rng, iteration consumers ----------

    def visit_Call(self, node: ast.Call) -> None:
        dotted = self._dotted(node.func)
        if dotted is not None:
            head, _, tail = dotted.rpartition(".")
            if head in ("time",) and tail in _WALL_CLOCK_TIME_FNS:
                self._flag(node, WALL_CLOCK,
                           f"{dotted}() reads a host clock; thread the "
                           "simulation 'now' through instead")
            elif (tail in _WALL_CLOCK_DATETIME_FNS
                    and head.split(".")[0] in ("datetime", "date")):
                self._flag(node, WALL_CLOCK,
                           f"{dotted}() reads the host calendar clock")
            elif dotted == "random.Random":
                self._flag(node, RAW_RNG,
                           "random.Random(...) built in place; derive a "
                           "named stream from RngRegistry so draw counts "
                           "stay isolated per component")
            elif dotted == "random.SystemRandom":
                self._flag(node, GLOBAL_RANDOM,
                           "random.SystemRandom is OS entropy — never "
                           "reproducible")
            elif (head == "random"
                    and tail not in _RANDOM_ALLOWED_ATTRS):
                self._flag(node, GLOBAL_RANDOM,
                           f"{dotted}() draws from the hidden global "
                           "stream; use repro.sim.rng")
        if (isinstance(node.func, ast.Name) and node.func.id == "id"
                and node.args):
            self._flag(node, ID_ORDERING,
                       "id() yields a per-run object address; key or order "
                       "by a stable field or index instead")
        if isinstance(node.func, ast.Attribute):
            if node.func.attr == "popitem" and not node.args:
                self._flag(node, UNORDERED_POP,
                           ".popitem() removes an arbitrary entry; pop a "
                           "deterministic key (or next(iter(...)) after "
                           "sorting)")
            elif node.func.attr == "pop" and not node.args:
                if self._is_unordered_set(node.func.value):
                    self._flag(node, UNORDERED_POP,
                               "set.pop() removes an arbitrary element; "
                               "sort first or pop a known value")
                elif isinstance(node.func.value, ast.Name):
                    self.bare_pop_sites.append(node)
        if (isinstance(node.func, ast.Name)
                and node.func.id in _ORDER_SENSITIVE_CONSUMERS
                and node.args and self._is_unordered_set(node.args[0])):
            self._flag(node.args[0], SET_ITERATION,
                       f"{node.func.id}() materialises a set in hash "
                       "order; wrap the set in sorted()")
        if (isinstance(node.func, ast.Attribute)
                and node.func.attr == "join"
                and node.args and self._is_unordered_set(node.args[0])):
            self._flag(node.args[0], SET_ITERATION,
                       "str.join over a set concatenates in hash order; "
                       "wrap the set in sorted()")
        self.generic_visit(node)

    # -- set iteration --------------------------------------------------------

    @staticmethod
    def _is_unordered_set(node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("set", "frozenset"))

    def visit_For(self, node: ast.For) -> None:
        if self._is_unordered_set(node.iter):
            self._flag(node.iter, SET_ITERATION,
                       "for-loop over an unordered set; wrap in sorted()")
        self.generic_visit(node)

    def _check_comprehension(self, node) -> None:
        for gen in node.generators:
            if self._is_unordered_set(gen.iter):
                self._flag(gen.iter, SET_ITERATION,
                           "comprehension over an unordered set; wrap in "
                           "sorted()")
        self.generic_visit(node)

    visit_ListComp = _check_comprehension
    visit_DictComp = _check_comprehension
    visit_GeneratorExp = _check_comprehension

    def visit_SetComp(self, node: ast.SetComp) -> None:
        # Building a set is fine; only consuming one in order matters.
        self.generic_visit(node)

    # -- mutable defaults -----------------------------------------------------

    def _check_defaults(self, node) -> None:
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None]
        for default in defaults:
            if isinstance(default, (ast.List, ast.Dict, ast.Set,
                                    ast.ListComp, ast.DictComp, ast.SetComp)):
                self._flag(default, MUTABLE_DEFAULT,
                           f"mutable default argument in {node.name}(); "
                           "use None and construct inside")
            elif (isinstance(default, ast.Call)
                    and isinstance(default.func, ast.Name)
                    and default.func.id in ("list", "dict", "set")):
                self._flag(default, MUTABLE_DEFAULT,
                           f"mutable default argument in {node.name}(); "
                           "use None and construct inside")
        self.generic_visit(node)

    visit_FunctionDef = _check_defaults
    visit_AsyncFunctionDef = _check_defaults

    # -- float arithmetic on ns timestamps ------------------------------------

    @staticmethod
    def _target_ns_name(target: ast.AST) -> Optional[str]:
        if isinstance(target, ast.Name) and _is_ns_name(target.id):
            return target.id
        if isinstance(target, ast.Attribute) and _is_ns_name(target.attr):
            return target.attr
        return None

    @staticmethod
    def _has_float_arith(node: ast.AST) -> bool:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, float):
                return True
            if isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Div):
                # int(...) around the division makes the result integral
                # again, but the rounding mode is then explicit — require
                # it to be spelled //, int() or round() at the top level.
                return True
        return False

    @staticmethod
    def _is_integralised(node: ast.AST) -> bool:
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("int", "round"))

    def visit_Assign(self, node: ast.Assign) -> None:
        names = [n for n in (self._target_ns_name(t) for t in node.targets)
                 if n]
        if names and not self._is_integralised(node.value) \
                and self._has_float_arith(node.value):
            self._flag(node, FLOAT_NS,
                       f"float arithmetic assigned to ns timestamp "
                       f"'{names[0]}'; use //, int() or round()")
        if self._is_unordered_set(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.set_like_names.add(target.id)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        name = self._target_ns_name(node.target)
        if name and (isinstance(node.op, ast.Div)
                     or self._has_float_arith(node.value)):
            self._flag(node, FLOAT_NS,
                       f"float arithmetic folded into ns timestamp "
                       f"'{name}'; use //, int() or round()")
        self.generic_visit(node)

    # -- finalisation ---------------------------------------------------------

    def finish(self) -> None:
        """Resolve checks that need the whole module seen first."""
        # `import random` counts one Name use per import statement itself?
        # No: ast.Import carries no Name node, so uses are genuine ones.
        if self.random_import_lines and self.random_name_uses == 0:
            for lineno in self.random_import_lines:
                node = ast.Module(body=[], type_ignores=[])
                node.lineno, node.col_offset = lineno, 0  # type: ignore[attr-defined]
                self._flag(node, GLOBAL_RANDOM,
                           "import random is unused; drop it (streams come "
                           "from repro.sim.rng)")
        for call in self.bare_pop_sites:
            receiver = call.func.value  # type: ignore[attr-defined]
            if (isinstance(receiver, ast.Name)
                    and receiver.id in self.set_like_names):
                self._flag(call, UNORDERED_POP,
                           f"{receiver.id}.pop() on a set removes an "
                           "arbitrary element; sort first or pop a known "
                           "value")


def apply_pragmas(raw_findings: List[Finding], source: str,
                  path: str) -> List[Finding]:
    """Resolve ``det: allow`` pragmas against a raw finding list.

    A pragma on the finding's line (or the line above) naming the same
    rule waives it — but only with a justification after ``--``; a bare
    pragma becomes a ``bad-pragma`` finding itself, and so does a pragma
    naming a rule outside :data:`ALL_RULES`.  Returns findings sorted by
    location.
    """
    pragmas = parse_pragmas(source)
    findings: List[Finding] = []
    for finding in raw_findings:
        pragma = pragmas.get(finding.line) or pragmas.get(finding.line - 1)
        if pragma is not None and pragma.rule == finding.rule:
            if pragma.justification:
                continue  # waived, with a reason on record
            findings.append(Finding(
                path, pragma.line, 0, BAD_PRAGMA,
                f"pragma waives [{pragma.rule}] but gives no justification "
                "after '--'"))
            continue
        findings.append(finding)
    for pragma in pragmas.values():
        if pragma.rule not in ALL_RULES:
            findings.append(Finding(
                path, pragma.line, 0, BAD_PRAGMA,
                f"pragma names unknown rule '{pragma.rule}'"))
    findings.sort(key=lambda f: (f.line, f.col, f.rule))
    return findings


def lint_source(source: str, path: str,
                policy: Optional[Policy] = None) -> List[Finding]:
    """Lint one module's source text; returns findings after pragmas."""
    if policy is None:
        policy = policy_for(path)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [Finding(path, exc.lineno or 0, (exc.offset or 1) - 1,
                        "syntax-error", f"cannot parse: {exc.msg}")]
    visitor = _Visitor(path, policy, module_exemptions(path))
    visitor.visit(tree)
    visitor.finish()
    return apply_pragmas(visitor.findings, source, path)


def lint_file(path: str, policy: Optional[Policy] = None) -> List[Finding]:
    """Lint one file from disk."""
    with open(path, "r", encoding="utf-8") as handle:
        return lint_source(handle.read(), path, policy)


def iter_python_files(root: str) -> Iterable[str]:
    """Yield ``.py`` files under ``root`` in sorted, deterministic order."""
    if os.path.isfile(root):
        yield root
        return
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames
                             if d != "__pycache__"
                             and not d.endswith(".egg-info"))
        for name in sorted(filenames):
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)


def lint_tree(root: str) -> List[Finding]:
    """Lint every Python file under ``root`` with per-package policies."""
    findings: List[Finding] = []
    for path in iter_python_files(root):
        findings.extend(lint_file(path))
    return findings

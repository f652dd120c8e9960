"""Single-pass AST rule engine.

Each file is read, parsed, and walked exactly once.  Rules register the
node types they care about; the walker dispatches every node to the
rules subscribed to its type, so the cost per file is O(nodes) plus a
constant per rule -- adding a rule does not add a traversal.

The walker maintains the little bit of context rules need but the raw
AST lacks: resolved import aliases (``from random import Random as R``
still resolves ``R()`` to ``random.Random``), the current function
nesting depth (to tell module-level state from locals), and the source
lines (for ``# repro: noqa RPRxxx`` suppression and fingerprints).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.findings import Finding, Suggestion, assign_fingerprints
from repro.analysis.project import ProjectContext

__all__ = ["FileContext", "Rule", "analyze_source", "analyze_file"]

#: bump when rule semantics change -- invalidates the result cache.
#: "3": RPR003 rewritten on the dataflow substrate, RPR013/RPR014
#: added, findings carry autofix suggestions.
#: "4": RPR015 (mechanism construction goes through the registry).
#: "6": the flat-facade-alias rule retired with the aliases it guarded.
#: "7": the RPR012 fix hint names only the Supervisor.
ENGINE_VERSION = "7"

_NOQA = re.compile(r"#\s*repro:\s*noqa(?:\s+(?P<rules>[A-Z0-9, ]+))?")


class ImportMap:
    """Resolves dotted references through the file's import aliases."""

    def __init__(self, tree: ast.AST) -> None:
        self.modules: dict[str, str] = {}
        self.symbols: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else local
                    self.modules[local] = target
            elif isinstance(node, ast.ImportFrom) and node.module:
                if node.level:
                    continue  # relative imports never hit stdlib bans
                for alias in node.names:
                    local = alias.asname or alias.name
                    self.symbols[local] = f"{node.module}.{alias.name}"

    def dotted(self, node: ast.expr) -> list[str] | None:
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.append(node.id)
        parts.reverse()
        return parts

    def resolve(self, node: ast.expr) -> str | None:
        """Dotted name with the head resolved through imports.

        Returns e.g. ``"datetime.datetime.now"`` for ``datetime.now()``
        under ``from datetime import datetime``.  Unresolvable heads
        (local variables, attributes of unknown objects) are returned
        verbatim so rules can still pattern-match plain builtins.
        """
        parts = self.dotted(node)
        if not parts:
            return None
        head = parts[0]
        if head in self.symbols:
            return ".".join([self.symbols[head], *parts[1:]])
        if head in self.modules:
            return ".".join([self.modules[head], *parts[1:]])
        return ".".join(parts)


@dataclass
class FileContext:
    """Everything a rule may consult about the file under analysis."""

    rel_path: str
    source_lines: list[str]
    imports: ImportMap
    project: ProjectContext
    function_depth: int = 0
    _findings: list[Finding] = field(default_factory=list)
    #: per-file scratch space for substrates shared across rules (the
    #: dataflow pass computes once here, RPR003/013/014 all read it).
    scratch: dict = field(default_factory=dict)

    def report(
        self,
        node: ast.AST,
        rule: str,
        message: str,
        suggestion: Suggestion | None = None,
    ) -> None:
        self._findings.append(
            Finding(
                rule=rule,
                path=self.rel_path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                message=message,
                suggestion=suggestion,
            )
        )

    def report_at(
        self,
        line: int,
        col: int,
        rule: str,
        message: str,
        suggestion: Suggestion | None = None,
    ) -> None:
        self._findings.append(
            Finding(
                rule=rule,
                path=self.rel_path,
                line=line,
                col=col,
                message=message,
                suggestion=suggestion,
            )
        )


class Rule:
    """Base class: subscribe to node types, emit findings via ctx."""

    code: str = "RPR000"
    name: str = "base"
    summary: str = ""
    #: AST node classes this rule wants to see (empty: file-level only).
    node_types: tuple[type, ...] = ()

    def check(self, node: ast.AST, ctx: FileContext) -> None:  # pragma: no cover
        """Called once per matching node."""

    def check_file(self, tree: ast.Module, ctx: FileContext) -> None:
        """Called once per file after the node pass."""


_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _walk(
    node: ast.AST,
    ctx: FileContext,
    dispatch: dict[type, list[Rule]],
) -> None:
    for rule in dispatch.get(type(node), ()):
        rule.check(node, ctx)
    entering_function = isinstance(node, _FUNCTION_NODES)
    if entering_function:
        ctx.function_depth += 1
    for child in ast.iter_child_nodes(node):
        _walk(child, ctx, dispatch)
    if entering_function:
        ctx.function_depth -= 1


def _suppressed(finding: Finding, source_lines: list[str]) -> bool:
    if not 1 <= finding.line <= len(source_lines):
        return False
    match = _NOQA.search(source_lines[finding.line - 1])
    if not match:
        return False
    rules = match.group("rules")
    if not rules:
        return True  # blanket noqa
    codes = {code.strip() for code in rules.replace(",", " ").split()}
    return finding.rule in codes


def analyze_source(
    source: str,
    rel_path: str,
    rules: list[Rule],
    project: ProjectContext | None = None,
) -> list[Finding]:
    """Run ``rules`` over one file's text; returns fingerprinted findings."""
    project = project or ProjectContext()
    source_lines = source.splitlines()
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        finding = Finding(
            rule="RPR000",
            path=rel_path,
            line=exc.lineno or 1,
            col=(exc.offset or 1) - 1,
            message=f"file does not parse: {exc.msg}",
        )
        return assign_fingerprints([finding], source_lines)
    ctx = FileContext(
        rel_path=rel_path,
        source_lines=source_lines,
        imports=ImportMap(tree),
        project=project,
    )
    dispatch: dict[type, list[Rule]] = {}
    for rule in rules:
        for node_type in rule.node_types:
            dispatch.setdefault(node_type, []).append(rule)
    _walk(tree, ctx, dispatch)
    for rule in rules:
        rule.check_file(tree, ctx)
    kept = [f for f in ctx._findings if not _suppressed(f, source_lines)]
    return assign_fingerprints(kept, source_lines)


def analyze_file(
    path: Path,
    rel_path: str,
    rules: list[Rule],
    project: ProjectContext | None = None,
) -> list[Finding]:
    try:
        source = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return [
            Finding(
                rule="RPR000",
                path=rel_path,
                line=1,
                col=0,
                message=f"file is unreadable: {exc}",
                fingerprint="unreadable",
            )
        ]
    return analyze_source(source, rel_path, rules, project)

"""The repo-specific rule catalogue (RPR001..RPR015).

Each rule enforces one invariant the reproduction's determinism or PKI
correctness depends on; docs/STATIC_ANALYSIS.md ties every rule back to
the paper sections it protects.  Rules are single-node checks where
possible (dispatched by the engine in one pass) and fall back to a
file-level hook where the invariant spans statements (RPR005, and the
dataflow rules RPR003/RPR013/RPR014 via the shared taint substrate in
:mod:`repro.analysis.dataflow`) or files (RPR007, via the project
pre-pass).
"""

from __future__ import annotations

import ast
import re
from pathlib import PurePosixPath

from repro.analysis import dataflow
from repro.analysis.dataflow import WALL_CLOCK_CALLS as _WALL_CLOCK
from repro.analysis.engine import FileContext, Rule
from repro.analysis.project import is_experiment_module

__all__ = ["ALL_RULES", "default_rules", "rules_catalogue"]


class WallClockRule(Rule):
    code = "RPR001"
    name = "no-wall-clock"
    summary = (
        "host-clock reads are banned; all time flows through "
        "repro.net.clock.SimClock"
    )
    node_types = (ast.Call,)

    def check(self, node: ast.Call, ctx: FileContext) -> None:
        resolved = ctx.imports.resolve(node.func)
        if resolved in _WALL_CLOCK:
            ctx.report(
                node,
                self.code,
                f"call to {resolved}() reads the host clock; take a "
                "SimClock (repro.net.clock) or an explicit datetime instead",
            )


# --------------------------------------------------------------------------
# RPR002 -- no ambient randomness
# --------------------------------------------------------------------------


class AmbientRandomnessRule(Rule):
    code = "RPR002"
    name = "no-ambient-randomness"
    summary = (
        "randomness must come from an explicitly seeded random.Random "
        "threaded as a parameter"
    )
    node_types = (ast.Call,)

    def check(self, node: ast.Call, ctx: FileContext) -> None:
        resolved = ctx.imports.resolve(node.func)
        if resolved is None:
            return
        if resolved == "random.Random":
            if not node.args and not node.keywords:
                ctx.report(
                    node,
                    self.code,
                    "random.Random() without a seed is nondeterministic; "
                    "pass an explicit seed",
                )
            return
        if resolved == "random.SystemRandom" or resolved.startswith("secrets."):
            ctx.report(
                node,
                self.code,
                f"{resolved} draws OS entropy; results would differ per run",
            )
            return
        if resolved.startswith("random."):
            ctx.report(
                node,
                self.code,
                f"module-level {resolved}() uses the shared global RNG; "
                "construct random.Random(seed) and thread it as a parameter",
            )
            return
        if resolved in ("os.urandom", "uuid.uuid4"):
            ctx.report(
                node,
                self.code,
                f"{resolved}() is nondeterministic; derive bytes from a "
                "seeded RNG or a hash of the seed",
            )


# --------------------------------------------------------------------------
# RPR003 -- no unordered values flowing to emit boundaries (dataflow)
# --------------------------------------------------------------------------


class UnorderedEmitRule(Rule):
    code = "RPR003"
    name = "no-unordered-emit"
    summary = (
        "set/dict-view values must be sorted() before they flow into "
        "json, digests, or report tables -- tracked across statements"
    )

    def check_file(self, tree: ast.Module, ctx: FileContext) -> None:
        for flow in dataflow.file_flows(tree, ctx):
            if flow.category != dataflow.CAT_EMIT_UNORDERED:
                continue
            taint = flow.taint
            if taint.line != flow.sink_line:
                provenance = (
                    f"{taint.detail} constructed at line {taint.line} flows"
                )
            else:
                provenance = f"{taint.detail} reaches"
            ctx.report(
                flow.carrier,
                self.code,
                f"{provenance} into emit sink {flow.sink_name}(...) with "
                "no defined order; wrap it in sorted(...)",
                suggestion=flow.suggestion,
            )


# --------------------------------------------------------------------------
# RPR013 -- no ambient-RNG / wall-clock values in digest inputs (dataflow)
# --------------------------------------------------------------------------


class NondeterministicDigestInputRule(Rule):
    code = "RPR013"
    name = "no-nondeterministic-digest-input"
    summary = (
        "ambient-RNG or wall-clock *values* must not flow into corpus "
        "arrays, Calibration fields, or digest inputs"
    )

    def check_file(self, tree: ast.Module, ctx: FileContext) -> None:
        for flow in dataflow.file_flows(tree, ctx):
            if flow.category != dataflow.CAT_DIGEST_NONDET:
                continue
            taint = flow.taint
            source_kind = (
                "wall-clock" if taint.kind == dataflow.CLOCK else "ambient-RNG"
            )
            ctx.report(
                flow.carrier,
                self.code,
                f"{source_kind} value from {taint.detail} (line "
                f"{taint.line}) flows into {flow.sink_name}; corpus "
                "arrays, calibration fields, and digest inputs must be "
                "derived from the seed (SimClock / seeded random.Random)",
                suggestion=flow.suggestion,
            )


# --------------------------------------------------------------------------
# RPR014 -- stats exports go through the sorted-key helpers (dataflow)
# --------------------------------------------------------------------------


class StatsExportRule(Rule):
    code = "RPR014"
    name = "stats-export-via-as-dict"
    summary = (
        "FetchStats/FailureRecord values flowing to report emission "
        "must pass through the sorted-key .as_dict() export helpers"
    )

    def check_file(self, tree: ast.Module, ctx: FileContext) -> None:
        for flow in dataflow.file_flows(tree, ctx):
            if flow.category != dataflow.CAT_STATS_EXPORT:
                continue
            ctx.report(
                flow.carrier,
                self.code,
                f"{flow.taint.detail} (line {flow.taint.line}) flows into "
                f"{flow.sink_name}(...) around the export helper; use "
                ".as_dict() so key order and field derivation stay stable",
                suggestion=flow.suggestion,
            )


# --------------------------------------------------------------------------
# RPR004 -- exception taxonomy
# --------------------------------------------------------------------------

_TRANSPORT_EXCEPTIONS = frozenset(
    {
        "DnsError",
        "TimeoutError",
        "TimeoutError_",
        "TlsError",
        "ConnectionError",
        "ConnectionResetError",
        "ConnectionAbortedError",
        "BrokenPipeError",
        "gaierror",
    }
)
_TAXONOMY_NAMES = ("FailureClass", "FetchOutcome")
_TAXONOMY_PATHS = ("repro/net/", "repro/revocation/")


class ExceptionTaxonomyRule(Rule):
    code = "RPR004"
    name = "exception-taxonomy"
    summary = (
        "no bare/silent excepts; transport errors in net/revocation must "
        "map into FailureClass"
    )
    node_types = (ast.ExceptHandler,)

    def check(self, node: ast.ExceptHandler, ctx: FileContext) -> None:
        if node.type is None:
            ctx.report(
                node,
                self.code,
                "bare 'except:' swallows everything including "
                "KeyboardInterrupt; name the exceptions you expect",
            )
            return
        caught = self._caught_names(node.type)
        if {"Exception", "BaseException"} & caught and self._is_silent(node):
            ctx.report(
                node,
                self.code,
                "'except Exception: pass' hides failures from the "
                "FailureClass taxonomy; classify or re-raise",
            )
            return
        if not any(part in ctx.rel_path for part in _TAXONOMY_PATHS):
            return
        if caught & _TRANSPORT_EXCEPTIONS and not self._classifies(node):
            ctx.report(
                node,
                self.code,
                f"transport exception ({', '.join(sorted(caught & _TRANSPORT_EXCEPTIONS))}) "
                "caught without assigning a FailureClass/FetchOutcome; "
                "every network failure must land in the taxonomy",
            )

    @staticmethod
    def _caught_names(type_node: ast.expr) -> set[str]:
        nodes = (
            list(type_node.elts)
            if isinstance(type_node, ast.Tuple)
            else [type_node]
        )
        names: set[str] = set()
        for node in nodes:
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
        return names

    @staticmethod
    def _is_silent(node: ast.ExceptHandler) -> bool:
        return all(
            isinstance(stmt, ast.Pass)
            or (
                isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Constant)
                and stmt.value.value is Ellipsis
            )
            for stmt in node.body
        )

    @staticmethod
    def _classifies(node: ast.ExceptHandler) -> bool:
        for sub in ast.walk(ast.Module(body=node.body, type_ignores=[])):
            if isinstance(sub, ast.Raise):
                return True  # re-raising defers classification to a caller
            if isinstance(sub, ast.Name) and sub.id in _TAXONOMY_NAMES:
                return True
            if isinstance(sub, ast.Attribute) and sub.attr in _TAXONOMY_NAMES:
                return True
        return False


# --------------------------------------------------------------------------
# RPR005 -- enum-exhaustive dispatch
# --------------------------------------------------------------------------

_EXHAUSTIVE = re.compile(r"#\s*repro:\s*exhaustive\((?P<enum>\w+)\)")


class EnumExhaustiveRule(Rule):
    code = "RPR005"
    name = "enum-exhaustive"
    summary = (
        "exhaustive-dispatch annotations must reference every enum "
        "member; adding a member breaks the build until dispatchers "
        "catch up"
    )

    def check_file(self, tree: ast.Module, ctx: FileContext) -> None:
        statements = [
            node
            for node in ast.walk(tree)
            if isinstance(node, ast.stmt) and hasattr(node, "lineno")
        ]
        for line_no, text in enumerate(ctx.source_lines, start=1):
            match = _EXHAUSTIVE.search(text)
            if not match:
                continue
            enum_name = match.group("enum")
            stmt = self._statement_for(statements, line_no)
            if stmt is None:
                ctx.report_at(
                    line_no,
                    text.index("#"),
                    self.code,
                    f"exhaustive({enum_name}) annotation is not attached to "
                    "any statement",
                )
                continue
            members = ctx.project.enums.get(enum_name)
            if members is None:
                ctx.report_at(
                    line_no,
                    text.index("#"),
                    self.code,
                    f"exhaustive({enum_name}): no enum named {enum_name!r} "
                    "found in the analysed files",
                )
                continue
            referenced = {
                sub.attr
                for sub in ast.walk(stmt)
                if isinstance(sub, ast.Attribute)
                and self._qualifier(sub) == enum_name
            }
            missing = sorted(set(members) - referenced)
            if missing:
                ctx.report_at(
                    stmt.lineno,
                    stmt.col_offset,
                    self.code,
                    f"dispatch on {enum_name} is missing member(s) "
                    f"{', '.join(missing)}; handle them or drop the "
                    "exhaustive annotation",
                )

    @staticmethod
    def _qualifier(attr: ast.Attribute) -> str | None:
        value = attr.value
        if isinstance(value, ast.Name):
            return value.id
        if isinstance(value, ast.Attribute):
            return value.attr
        return None

    @staticmethod
    def _statement_for(
        statements: list[ast.stmt], line_no: int
    ) -> ast.stmt | None:
        """The statement an annotation on ``line_no`` attaches to.

        Convention: the comment sits either on the statement's first
        line (trailing) or on its own line directly above.
        """

        def span(stmt: ast.stmt) -> int:
            return (stmt.end_lineno or stmt.lineno) - stmt.lineno

        starting = [stmt for stmt in statements if stmt.lineno == line_no]
        if starting:
            return max(starting, key=span)
        following = [stmt for stmt in statements if stmt.lineno == line_no + 1]
        if following:
            return max(following, key=span)
        covering = [
            stmt
            for stmt in statements
            if stmt.lineno <= line_no <= (stmt.end_lineno or stmt.lineno)
        ]
        if covering:
            return min(covering, key=span)
        return None


# --------------------------------------------------------------------------
# RPR006 -- raw DER bytes outside repro/asn1
# --------------------------------------------------------------------------

#: X.690 tag numbers RFC 5280 structures actually use (repro.asn1.der.Tag).
_DER_TAGS = frozenset(
    {
        0x01,  # BOOLEAN
        0x02,  # INTEGER
        0x03,  # BIT STRING
        0x04,  # OCTET STRING
        0x05,  # NULL
        0x06,  # OID
        0x0A,  # ENUMERATED
        0x0C,  # UTF8String
        0x13,  # PrintableString
        0x16,  # IA5String
        0x17,  # UTCTime
        0x18,  # GeneralizedTime
        0x30,  # SEQUENCE
        0x31,  # SET
        0xA0,
        0xA1,
        0xA2,
        0xA3,  # common context-specific constructed tags
    }
)
_DER_HOME = "repro/asn1/"
_TAG_ENCODERS = ("encode_tlv", "encode_context")


class RawDerBytesRule(Rule):
    code = "RPR006"
    name = "raw-der-bytes"
    summary = (
        "DER tag/length literals outside repro/asn1 must use the named "
        "Tag constants"
    )
    node_types = (ast.Constant, ast.Call, ast.Compare)

    def check(self, node: ast.AST, ctx: FileContext) -> None:
        if _DER_HOME in ctx.rel_path:
            return
        if isinstance(node, ast.Constant):
            self._check_bytes(node, ctx)
        elif isinstance(node, ast.Call):
            self._check_encoder_call(node, ctx)
        elif isinstance(node, ast.Compare):
            self._check_tag_compare(node, ctx)

    def _check_bytes(self, node: ast.Constant, ctx: FileContext) -> None:
        value = node.value
        if (
            isinstance(value, bytes)
            and 1 <= len(value) <= 8
            and value[0] in _DER_TAGS
        ):
            ctx.report(
                node,
                self.code,
                f"bytes literal {value!r} starts with DER tag "
                f"0x{value[0]:02X}; build it via repro.asn1 "
                "(der.encode_tlv / der.Tag constants)",
            )

    def _check_encoder_call(self, node: ast.Call, ctx: FileContext) -> None:
        resolved = ctx.imports.resolve(node.func)
        if resolved is None:
            return
        if not any(
            resolved == name or resolved.endswith("." + name)
            for name in _TAG_ENCODERS
        ):
            return
        if node.args and isinstance(node.args[0], ast.Constant) and isinstance(
            node.args[0].value, int
        ):
            ctx.report(
                node.args[0],
                self.code,
                f"raw tag number 0x{node.args[0].value:02X} passed to "
                f"{resolved.rsplit('.', 1)[-1]}; use der.Tag constants",
            )

    def _check_tag_compare(self, node: ast.Compare, ctx: FileContext) -> None:
        if not (
            isinstance(node.left, ast.Attribute) and node.left.attr == "tag"
        ):
            return
        for op, comparator in zip(node.ops, node.comparators):
            if (
                isinstance(op, (ast.Eq, ast.NotEq))
                and isinstance(comparator, ast.Constant)
                and isinstance(comparator.value, int)
            ):
                ctx.report(
                    comparator,
                    self.code,
                    f".tag compared against raw 0x{comparator.value:02X}; "
                    "use der.Tag constants",
                )


# --------------------------------------------------------------------------
# RPR007 -- every experiment module is registered
# --------------------------------------------------------------------------


class ExperimentRegisteredRule(Rule):
    code = "RPR007"
    name = "experiment-registered"
    summary = (
        "every experiments/fig*/table*/section* module must be wired "
        "into runner.ALL_EXPERIMENTS"
    )

    def check_file(self, tree: ast.Module, ctx: FileContext) -> None:
        if not is_experiment_module(ctx.rel_path):
            return
        directory = str(PurePosixPath(ctx.rel_path).parent)
        if directory not in ctx.project.runner_dirs:
            return  # no runner here, nothing to register against
        registered = ctx.project.registrations.get(directory, ())
        module = PurePosixPath(ctx.rel_path).stem
        if module not in registered:
            ctx.report_at(
                1,
                0,
                self.code,
                f"experiment module {module!r} is not registered in "
                f"{directory}/runner.py ALL_EXPERIMENTS; run_all would "
                "silently skip it",
            )


# --------------------------------------------------------------------------
# RPR008 -- no float equality
# --------------------------------------------------------------------------


class FloatEqualityRule(Rule):
    code = "RPR008"
    name = "no-float-equality"
    summary = "== / != against float expressions; use tolerances instead"
    node_types = (ast.Compare,)

    def check(self, node: ast.Compare, ctx: FileContext) -> None:
        operands = [node.left, *node.comparators]
        for index, op in enumerate(node.ops):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            pair = (operands[index], operands[index + 1])
            if any(self._floatish(operand, ctx) for operand in pair):
                ctx.report(
                    node,
                    self.code,
                    "float equality is representation-dependent; use "
                    "math.isclose/pytest.approx or an ordered comparison",
                )
                return

    def _floatish(self, node: ast.expr, ctx: FileContext) -> bool:
        if isinstance(node, ast.Constant):
            return isinstance(node.value, float)
        if isinstance(node, ast.UnaryOp):
            return self._floatish(node.operand, ctx)
        if isinstance(node, ast.BinOp):
            return self._floatish(node.left, ctx) or self._floatish(
                node.right, ctx
            )
        if isinstance(node, ast.Call):
            return ctx.imports.resolve(node.func) == "float"
        return False


# --------------------------------------------------------------------------
# RPR009 -- no mutable default arguments
# --------------------------------------------------------------------------

_MUTABLE_CONSTRUCTORS = frozenset(
    {
        "list",
        "dict",
        "set",
        "bytearray",
        "collections.defaultdict",
        "collections.Counter",
        "collections.deque",
    }
)


class MutableDefaultRule(Rule):
    code = "RPR009"
    name = "no-mutable-default"
    summary = "mutable default arguments alias state across calls"
    node_types = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)

    def check(self, node: ast.AST, ctx: FileContext) -> None:
        args = node.args
        for default in [*args.defaults, *args.kw_defaults]:
            if default is None:
                continue
            if self._mutable(default, ctx):
                ctx.report(
                    default,
                    self.code,
                    "mutable default argument is shared across every call; "
                    "default to None and construct inside the function",
                )

    def _mutable(self, node: ast.expr, ctx: FileContext) -> bool:
        if isinstance(
            node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
        ):
            return True
        if isinstance(node, ast.Call):
            return ctx.imports.resolve(node.func) in _MUTABLE_CONSTRUCTORS
        return False


# --------------------------------------------------------------------------
# RPR010 -- no module-level RNG shared across parallel workers
# --------------------------------------------------------------------------


class SharedWorkerRngRule(Rule):
    code = "RPR010"
    name = "no-shared-worker-rng"
    summary = (
        "module-level random.Random instances are copied into run_all "
        "parallel workers and drift apart"
    )
    node_types = (ast.Assign, ast.AnnAssign)

    def check(self, node: ast.AST, ctx: FileContext) -> None:
        if ctx.function_depth:
            return
        value = node.value
        if value is None:
            return
        for sub in ast.walk(value):
            if isinstance(sub, ast.Call) and ctx.imports.resolve(sub.func) in (
                "random.Random",
                "random.SystemRandom",
            ):
                ctx.report(
                    sub,
                    self.code,
                    "module-level RNG instance: run_all(parallel=N) workers "
                    "each inherit a copy whose streams diverge from the "
                    "sequential run; construct the Random inside the "
                    "function that consumes it",
                )
                return


# --------------------------------------------------------------------------
# RPR011 -- seeded hypothesis
# --------------------------------------------------------------------------

_GIVEN = "hypothesis.given"
_SEED = "hypothesis.seed"
_SETTINGS = "hypothesis.settings"


class UnseededHypothesisRule(Rule):
    code = "RPR011"
    name = "seeded-hypothesis"
    summary = (
        "@given tests must be derandomized: @seed(...), "
        "@settings(derandomize=True), or an ancestor conftest loading a "
        "derandomize=True profile"
    )
    node_types = (ast.FunctionDef, ast.AsyncFunctionDef)

    def check(self, node: ast.AST, ctx: FileContext) -> None:
        has_given = False
        derandomized = False
        for decorator in node.decorator_list:
            target = decorator.func if isinstance(decorator, ast.Call) else decorator
            resolved = ctx.imports.resolve(target)
            if resolved == _GIVEN:
                has_given = True
            elif resolved == _SEED:
                derandomized = True
            elif (
                resolved == _SETTINGS
                and isinstance(decorator, ast.Call)
                and any(
                    kw.arg == "derandomize"
                    and isinstance(kw.value, ast.Constant)
                    and kw.value.value is True
                    for kw in decorator.keywords
                )
            ):
                derandomized = True
        if not has_given or derandomized:
            return
        if self._covered_by_conftest(ctx):
            return
        ctx.report(
            node,
            self.code,
            "@given test draws different examples every run; add "
            "@seed(...) or @settings(derandomize=True), or register+load "
            "a derandomize=True hypothesis profile in an ancestor "
            "conftest.py",
        )

    @staticmethod
    def _covered_by_conftest(ctx: FileContext) -> bool:
        directory = PurePosixPath(ctx.rel_path).parent
        return any(
            directory == PurePosixPath(root)
            or directory.is_relative_to(root)
            for root in ctx.project.derandomized_roots
        )


# --------------------------------------------------------------------------
# RPR012 -- worker pools live in repro.exec
# --------------------------------------------------------------------------

_EXEC_HOME = "repro/exec/"
#: pool/process constructors whose direct use bypasses the supervised
#: execution layer (docs/ROBUSTNESS.md).
_POOL_CONSTRUCTORS = frozenset(
    {
        "concurrent.futures.ProcessPoolExecutor",
        "concurrent.futures.ThreadPoolExecutor",
        "concurrent.futures.process.ProcessPoolExecutor",
        "concurrent.futures.thread.ThreadPoolExecutor",
        "multiprocessing.Pool",
        "multiprocessing.Process",
        "multiprocessing.pool.Pool",
    }
)


class PoolOutsideExecRule(Rule):
    code = "RPR012"
    name = "pool-in-exec-only"
    summary = (
        "process/thread pool construction outside repro/exec bypasses "
        "supervision, checkpointing, and fault injection"
    )
    node_types = (ast.Call,)

    def check(self, node: ast.AST, ctx: FileContext) -> None:
        if _EXEC_HOME in ctx.rel_path:
            return
        resolved = ctx.imports.resolve(node.func)
        if resolved not in _POOL_CONSTRUCTORS:
            return
        short = resolved.rsplit(".", 1)[-1]
        ctx.report(
            node,
            self.code,
            f"direct {short} construction: route fan-out through "
            "repro.exec.Supervisor so every pool gets deadlines, "
            "retries, and checkpoint support",
        )


# --------------------------------------------------------------------------
# RPR015 -- mechanism construction goes through the registry
# --------------------------------------------------------------------------

_MECHANISMS_HOME = "repro/mechanisms/"
#: the abstract base is fine to subclass/reference anywhere; only
#: *concrete* mechanism classes are registry-gated.
_MECHANISM_BASE = "RevocationMechanism"


class MechanismConstructionRule(Rule):
    code = "RPR015"
    name = "mechanism-via-registry"
    summary = (
        "direct construction of a concrete RevocationMechanism outside "
        "repro/mechanisms bypasses the registry (sweep order, name "
        "uniqueness, run_one's mechanism= restriction)"
    )
    node_types = (ast.Call,)

    def check(self, node: ast.AST, ctx: FileContext) -> None:
        if _MECHANISMS_HOME in ctx.rel_path:
            return
        resolved = ctx.imports.resolve(node.func)
        if resolved is None or not resolved.startswith("repro.mechanisms"):
            return
        short = resolved.rsplit(".", 1)[-1]
        if not short.endswith("Mechanism") or short == _MECHANISM_BASE:
            return
        ctx.report(
            node,
            self.code,
            f"direct {short}(...) construction: go through the registry "
            "(repro.mechanisms.create / create_suite, or "
            "study.mechanism_suite) so sweeps stay uniform and "
            "docs/MECHANISMS.md's conformance contract applies",
        )


ALL_RULES: tuple[type[Rule], ...] = (
    WallClockRule,
    AmbientRandomnessRule,
    UnorderedEmitRule,
    ExceptionTaxonomyRule,
    EnumExhaustiveRule,
    RawDerBytesRule,
    ExperimentRegisteredRule,
    FloatEqualityRule,
    MutableDefaultRule,
    SharedWorkerRngRule,
    UnseededHypothesisRule,
    PoolOutsideExecRule,
    NondeterministicDigestInputRule,
    StatsExportRule,
    MechanismConstructionRule,
)


def default_rules() -> list[Rule]:
    return [rule_cls() for rule_cls in ALL_RULES]


def rules_catalogue() -> list[dict]:
    return [
        {"code": cls.code, "name": cls.name, "summary": cls.summary}
        for cls in ALL_RULES
    ]

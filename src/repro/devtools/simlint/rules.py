"""The SIM rule set: one AST pass per file.

Every rule is deliberately *syntactic and precise* rather than clever: a
rule fires only on shapes it can prove (a call it resolved through the
file's own imports, a literal ``set(...)`` display, a string literal
argument).  Anything type-dependent it cannot prove is skipped, never
guessed -- false positives in a gating linter cost more than misses.

Rules
-----
SIM001  wall-clock reads (``time.time``/``perf_counter``/``datetime.now``)
SIM002  global or unseeded randomness (``random.*``, ``numpy.random.*``)
SIM003  order-dependent consumption of unordered sets
SIM004  event/counter string literals not in the declared registries
SIM005  sim-clock misuse (state mutation, negative ``advance``)
SIM006  mutable default arguments
SIM007  order-dependent ``+=`` accumulation over an unordered container
SIM008  incident/action/station string literals not in the declared taxonomies
SIM009  event callback (lambda passed to ``.schedule``) capturing a loop variable
"""

from __future__ import annotations

import ast

from repro.devtools.simlint.config import LintConfig
from repro.devtools.simlint.findings import Finding, normalise_snippet
from repro.devtools.simlint.registry import Registry

#: one-line summary per rule (rendered by ``lint --rules`` and the docs)
RULE_DOCS = {
    "SIM001": "wall-clock call (time.time/perf_counter/datetime.now)",
    "SIM002": "process-global or unseeded randomness (random.*, numpy.random.*)",
    "SIM003": "order-dependent consumption of an unordered set (iterate/sum/min/max/pop)",
    "SIM004": "event/counter string literal not declared in EVENT_KINDS / COUNTER_NAMES",
    "SIM005": "sim-clock misuse: direct state mutation or negative advance()",
    "SIM006": "mutable default argument (def f(x=[]) / field(default={...}))",
    "SIM007": "order-dependent accumulation (+= / sum) over an unordered set",
    "SIM008": "incident/action/station literal not declared in its taxonomy",
    "SIM009": "lambda scheduled in a loop captures the loop variable by reference",
}

#: canonical dotted names whose call result depends on the host's clock
WALLCLOCK_BANNED = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: ``random.<name>`` calls that construct an *injectable* generator rather
#: than touching the module-global one
RANDOM_MODULE_ALLOWED = frozenset({"random.Random"})

#: ``numpy.random.<name>`` constructors for seeded, injectable generators
NUMPY_RANDOM_ALLOWED = frozenset(
    {
        "default_rng",
        "Generator",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
        "MT19937",
    }
)

#: builtin constructors whose result is mutable (SIM006)
MUTABLE_CONSTRUCTORS = frozenset(
    {"list", "dict", "set", "bytearray", "deque", "defaultdict", "Counter", "OrderedDict"}
)

_AGGREGATORS = frozenset({"sum", "min", "max"})


def _dotted_name(node: ast.expr) -> str | None:
    """``a.b.c`` as a string, or None if the chain roots in a non-Name."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _is_set_display(node: ast.expr) -> bool:
    """A bare unordered-set expression: ``{a, b}``, ``set(...)``,
    ``frozenset(...)`` or a set comprehension."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


def _target_names(target: ast.expr) -> set[str]:
    """Every plain name bound by a for-loop target (handles tuple unpacking)."""
    if isinstance(target, ast.Name):
        return {target.id}
    if isinstance(target, ast.Starred):
        return _target_names(target.value)
    if isinstance(target, (ast.Tuple, ast.List)):
        out: set[str] = set()
        for elt in target.elts:
            out |= _target_names(elt)
        return out
    return set()


def _callee_tail(func: ast.expr) -> str | None:
    """The final identifier of a call target: ``Stage`` for both ``Stage(...)``
    and ``jobs.Stage(...)``."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _literal_arg(node: ast.Call, position: int, keyword: str) -> ast.Constant | None:
    """The string-literal argument at ``position`` or keyword ``keyword``,
    else None (variables and f-strings are skipped, never guessed)."""
    candidates: list[ast.expr] = []
    if len(node.args) > position:
        candidates.append(node.args[position])
    candidates.extend(kw.value for kw in node.keywords if kw.arg == keyword)
    for cand in candidates:
        if isinstance(cand, ast.Constant) and isinstance(cand.value, str):
            return cand
    return None


def _receiver_tail(func: ast.Attribute) -> str | None:
    """The last identifier of a method call's receiver: ``x`` in ``x.emit``,
    ``journal`` in ``self.cluster.journal.emit``."""
    value = func.value
    if isinstance(value, ast.Name):
        return value.id
    if isinstance(value, ast.Attribute):
        return value.attr
    return None


class RuleVisitor(ast.NodeVisitor):
    """Single-file pass collecting findings for every SIM rule."""

    def __init__(
        self,
        relpath: str,
        source_lines: list[str],
        config: LintConfig,
        registry: Registry,
    ):
        self.relpath = relpath
        self.source_lines = source_lines
        self.config = config
        self.registry = registry
        self.findings: list[Finding] = []
        #: local alias -> canonical module path ("np" -> "numpy")
        self.aliases: dict[str, str] = {}
        #: stack of {name -> is-known-set} scopes for set.pop() tracking
        self._set_vars: list[dict[str, bool]] = [{}]
        #: stack of enclosing for-loop target name sets (SIM009)
        self._loop_targets: list[frozenset[str]] = []
        #: AugAssign nodes already reported by SIM007 (nested set-loops
        #: would otherwise report the same accumulation once per level)
        self._sim007_seen: set[int] = set()
        self._clock_module = config.is_clock_module(relpath)

    # ------------------------------------------------------------- reporting

    def _report(self, node: ast.AST, rule: str, message: str) -> None:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        raw = self.source_lines[line - 1] if line <= len(self.source_lines) else ""
        self.findings.append(
            Finding(
                rule=rule,
                path=self.relpath,
                line=line,
                col=col + 1,
                message=message,
                snippet=normalise_snippet(raw),
            )
        )

    # --------------------------------------------------------------- imports

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            self.aliases[local] = alias.name if alias.asname else local
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module and node.level == 0:
            for alias in node.names:
                local = alias.asname or alias.name
                self.aliases[local] = f"{node.module}.{alias.name}"
        self.generic_visit(node)

    def _canonical(self, dotted: str) -> str | None:
        """Resolve ``np.random.rand`` -> ``numpy.random.rand`` through this
        file's imports; None if the head is not an imported name."""
        head, _, rest = dotted.partition(".")
        base = self.aliases.get(head)
        if base is None:
            return None
        return f"{base}.{rest}" if rest else base

    # ------------------------------------------------------------ set scopes

    def _push_scope(self) -> None:
        self._set_vars.append({})

    def _pop_scope(self) -> None:
        self._set_vars.pop()

    def _mark_set_var(self, name: str, is_set: bool) -> None:
        self._set_vars[-1][name] = is_set

    def _is_set_var(self, name: str) -> bool:
        for scope in reversed(self._set_vars):
            if name in scope:
                return scope[name]
        return False

    # ----------------------------------------------------------- definitions

    def _check_defaults(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        for default in [*node.args.defaults, *node.args.kw_defaults]:
            if default is not None and self._is_mutable_expr(default):
                self._report(
                    default,
                    "SIM006",
                    f"mutable default argument in {node.name}(); shared across "
                    "calls -- default to None (or field(default_factory=...))",
                )

    def _is_mutable_expr(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in MUTABLE_CONSTRUCTORS
        )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node)
        self._push_scope()
        self.generic_visit(node)
        self._pop_scope()

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_defaults(node)
        self._push_scope()
        self.generic_visit(node)
        self._pop_scope()

    # ------------------------------------------------------------ statements

    def visit_Assign(self, node: ast.Assign) -> None:
        # SIM005: clock state must only move through advance()/advance_to()
        for target in node.targets:
            self._check_clock_mutation(target)
            if isinstance(target, ast.Name):
                self._mark_set_var(target.id, _is_set_display(node.value))
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._check_clock_mutation(node.target)
        if isinstance(node.target, ast.Name) and node.value is not None:
            self._mark_set_var(node.target.id, _is_set_display(node.value))
        # SIM006 for dataclass-style ``x: set = field(default={...})`` is
        # caught through the field() call check in visit_Call
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_clock_mutation(node.target)
        self.generic_visit(node)

    def _check_clock_mutation(self, target: ast.expr) -> None:
        if self._clock_module:
            return
        if (
            isinstance(target, ast.Attribute)
            and target.attr == "now"
            and (_receiver_tail(target) or "").lower().endswith("clock")
        ):
            self._report(
                target,
                "SIM005",
                "direct mutation of sim-clock state; use clock.advance()/"
                "advance_to() so time stays monotone",
            )

    # ----------------------------------------------------------------- loops

    def _check_iter(self, iter_node: ast.expr) -> None:
        if _is_set_display(iter_node):
            self._report(
                iter_node,
                "SIM003",
                "iteration over an unordered set; order depends on "
                "PYTHONHASHSEED -- iterate sorted(...) instead",
            )

    def _visit_loop(self, node: ast.For | ast.AsyncFor) -> None:
        self._check_iter(node.iter)
        self._check_set_accumulation(node)
        self._loop_targets.append(frozenset(_target_names(node.target)))
        self.generic_visit(node)
        self._loop_targets.pop()

    visit_For = _visit_loop
    visit_AsyncFor = _visit_loop

    def _check_set_accumulation(self, node: ast.For | ast.AsyncFor) -> None:
        """SIM007: ``x += ...`` inside ``for _ in <known set>`` -- float
        accumulation folds in hash-seed order, so the rounded total drifts
        with PYTHONHASHSEED."""
        it = node.iter
        if not (isinstance(it, ast.Name) and self._is_set_var(it.id)):
            return
        for stmt in node.body:
            for sub in ast.walk(stmt):
                if (
                    isinstance(sub, ast.AugAssign)
                    and isinstance(sub.op, ast.Add)
                    and id(sub) not in self._sim007_seen
                ):
                    self._sim007_seen.add(id(sub))
                    self._report(
                        sub,
                        "SIM007",
                        f"accumulation over unordered set {it.id!r}; float "
                        "+= folds in hash-seed order -- iterate "
                        f"sorted({it.id}) instead",
                    )

    def _visit_comprehension(self, node) -> None:
        for gen in node.generators:
            self._check_iter(gen.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension

    # ----------------------------------------------------------------- calls

    def visit_Call(self, node: ast.Call) -> None:
        self._check_wallclock_and_random(node)
        self._check_set_aggregation(node)
        self._check_set_pop(node)
        self._check_registry_literals(node)
        self._check_kind_literals(node)
        self._check_schedule_lambda(node)
        self._check_clock_advance(node)
        self._check_field_default(node)
        self.generic_visit(node)

    def _check_wallclock_and_random(self, node: ast.Call) -> None:
        dotted = _dotted_name(node.func)
        if dotted is None:
            return
        canonical = self._canonical(dotted)
        if canonical is None:
            return
        if canonical in WALLCLOCK_BANNED:
            self._report(
                node,
                "SIM001",
                f"wall-clock call {canonical}(); sim results must come from "
                "SimClock (host timing belongs in perf/)",
            )
            return
        if canonical == "random" or canonical.startswith("random."):
            if canonical not in RANDOM_MODULE_ALLOWED and canonical != "random":
                self._report(
                    node,
                    "SIM002",
                    f"{canonical}() uses process-global RNG state; inject a "
                    "seeded random.Random / numpy default_rng instead",
                )
            return
        if canonical.startswith("numpy.random."):
            tail = canonical.rsplit(".", 1)[1]
            if tail not in NUMPY_RANDOM_ALLOWED:
                self._report(
                    node,
                    "SIM002",
                    f"{canonical}() draws from numpy's global RNG; use an "
                    "injected np.random.default_rng(seed) generator",
                )

    def _check_set_aggregation(self, node: ast.Call) -> None:
        if not (isinstance(node.func, ast.Name) and node.func.id in _AGGREGATORS and node.args):
            return
        arg0 = node.args[0]
        if _is_set_display(arg0):
            # min/max over a set are value-deterministic only for total
            # orders; float NaNs and custom keys make them seed-dependent,
            # and sum's float accumulation is order-dependent outright
            self._report(
                node,
                "SIM003",
                f"{node.func.id}() over an unordered set; aggregate over "
                "sorted(...) so the reduction order is fixed",
            )
            return
        # SIM007: sum() folding a variable this file *proved* is a set
        # (displays are SIM003's; variables need the scope tracking)
        if node.func.id != "sum":
            return
        src = arg0
        if isinstance(src, (ast.GeneratorExp, ast.ListComp)) and src.generators:
            src = src.generators[0].iter
        if isinstance(src, ast.Name) and self._is_set_var(src.id):
            self._report(
                node,
                "SIM007",
                f"sum() over unordered set {src.id!r}; float accumulation "
                f"folds in hash-seed order -- sum(sorted({src.id})) instead",
            )

    def _check_set_pop(self, node: ast.Call) -> None:
        func = node.func
        if not (
            isinstance(func, ast.Attribute)
            and func.attr == "pop"
            and not node.args
            and not node.keywords
        ):
            return
        recv = func.value
        if _is_set_display(recv) or (
            isinstance(recv, ast.Name) and self._is_set_var(recv.id)
        ):
            self._report(
                node,
                "SIM003",
                "set.pop() removes a hash-seed-dependent element; pop from "
                "sorted(...) or use an ordered structure",
            )

    def _check_registry_literals(self, node: ast.Call) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute) or not node.args:
            return
        arg0 = node.args[0]
        if not (isinstance(arg0, ast.Constant) and isinstance(arg0.value, str)):
            return
        tail = (_receiver_tail(func) or "").lower()
        if func.attr == "emit" and "journal" in tail:
            kinds = self.registry.event_kinds
            if kinds is not None and arg0.value not in kinds:
                self._report(
                    arg0,
                    "SIM004",
                    f"event kind {arg0.value!r} is not in the declared "
                    "EVENT_KINDS taxonomy",
                )
        elif func.attr in ("add", "inc") and "counter" in tail:
            names = self.registry.counter_names
            if names is None:
                return
            name = arg0.value
            if name in names:
                return
            if any(name.startswith(p) for p in self.registry.counter_prefixes):
                return
            self._report(
                arg0,
                "SIM004",
                f"counter {name!r} is not in the declared COUNTER_NAMES "
                "registry (sim/resources.py)",
            )

    #: SIM008 constructor -> (keyword carrying the literal, registry field,
    #: declaring module hint).  Only string *literals* are checked; a
    #: variable or f-string argument is the constructor's own __post_init__
    #: problem, not the linter's.
    _KIND_CONSTRUCTORS = {
        "Incident": ("kind", "incident_kinds", "INCIDENT_KINDS (heal/incidents.py)"),
        "Action": ("kind", "action_kinds", "ACTION_KINDS (heal/incidents.py)"),
        "Station": ("name", "station_names", "STATION_NAMES (engine/stations.py)"),
        "Stage": ("station", "station_names", "STATION_NAMES (engine/stations.py)"),
    }

    def _check_kind_literals(self, node: ast.Call) -> None:
        """SIM008: closed-taxonomy literals passed to the heal/engine
        constructors must be declared -- same contract SIM004 enforces for
        journal events and counters, resolved against the parsed registries."""
        spec = self._KIND_CONSTRUCTORS.get(_callee_tail(node.func) or "")
        if spec is None:
            return
        keyword, registry_field, declared_in = spec
        declared = getattr(self.registry, registry_field)
        if declared is None:
            return
        lit = _literal_arg(node, 0, keyword)
        if lit is None or lit.value in declared:
            return
        if registry_field == "station_names" and any(
            lit.value.startswith(p) for p in self.registry.station_prefixes
        ):
            return
        self._report(
            lit,
            "SIM008",
            f"{keyword} {lit.value!r} is not in the declared taxonomy "
            f"{declared_in}",
        )

    def _check_schedule_lambda(self, node: ast.Call) -> None:
        """SIM009: a lambda handed to ``.schedule(...)`` inside a for loop
        that reads the loop variable captures it *by reference* -- every
        queued callback sees the final iteration's value when it fires.
        The sanctioned fix binds a default: ``lambda t, e=ev: ...``."""
        if not self._loop_targets:
            return
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr == "schedule"):
            return
        live = frozenset().union(*self._loop_targets)
        values = [*node.args, *(kw.value for kw in node.keywords)]
        for arg in values:
            if not isinstance(arg, ast.Lambda):
                continue
            a = arg.args
            params = {p.arg for p in [*a.posonlyargs, *a.args, *a.kwonlyargs]}
            if a.vararg:
                params.add(a.vararg.arg)
            if a.kwarg:
                params.add(a.kwarg.arg)
            free = {
                n.id
                for n in ast.walk(arg.body)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            captured = sorted((free - params) & live)
            if captured:
                names = ", ".join(captured)
                self._report(
                    arg,
                    "SIM009",
                    f"scheduled lambda captures loop variable(s) {names} by "
                    "reference; bind with a default argument "
                    f"(lambda t, {captured[0]}={captured[0]}: ...)",
                )

    def _check_clock_advance(self, node: ast.Call) -> None:
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr == "advance" and node.args):
            return
        arg0 = node.args[0]
        negative = (
            isinstance(arg0, ast.UnaryOp)
            and isinstance(arg0.op, ast.USub)
            and isinstance(arg0.operand, ast.Constant)
            and isinstance(arg0.operand.value, (int, float))
        ) or (
            isinstance(arg0, ast.Constant)
            and isinstance(arg0.value, (int, float))
            and not isinstance(arg0.value, bool)
            and arg0.value < 0
        )
        if negative:
            self._report(
                node,
                "SIM005",
                "advance() by a negative constant would move simulated time "
                "backwards",
            )

    def _check_field_default(self, node: ast.Call) -> None:
        if not (isinstance(node.func, ast.Name) and node.func.id == "field"):
            return
        for kw in node.keywords:
            if kw.arg == "default" and self._is_mutable_expr(kw.value):
                self._report(
                    kw.value,
                    "SIM006",
                    "field(default=<mutable>) shares one object across "
                    "instances; use field(default_factory=...)",
                )


def run_rules(
    relpath: str,
    source: str,
    config: LintConfig,
    registry: Registry,
) -> list[Finding]:
    """All findings for one file's source text, before suppressions."""
    tree = ast.parse(source)
    visitor = RuleVisitor(relpath, source.splitlines(), config, registry)
    visitor.visit(tree)
    return visitor.findings

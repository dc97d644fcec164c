"""Domain rules: unit dimensions, float equality, atomic writes, clocks.

The paper's quantities all live in plain ``float``\\ s (see
:mod:`repro.utils.units`): work in FLOP, energy in joules, time in
seconds, speed in FLOP/s, power in W, efficiency in FLOP/J, accuracy as
a fraction.  Python will happily add any of them together; the rules
here won't.

The dimension engine is deliberately conservative — a quantity is
tracked only when its dimension is *known* (constructed through a
``repro.utils.units`` helper, read from a curated attribute/parameter
table of the core API, or derived by multiplying/dividing known
quantities).  Unknown stays unknown and never flags; a lint rule that
cries wolf gets suppressed wholesale and protects nothing.
"""

from __future__ import annotations

import ast
import re
from typing import TYPE_CHECKING, Dict, Iterator, Optional, Tuple, Union

from . import Rule
from ..finding import Severity
from ..registry import register_rule

if TYPE_CHECKING:
    from ..engine import LintContext
    from ..finding import Finding

__all__ = [
    "Dim",
    "POLY",
    "DIM_WORK",
    "DIM_ENERGY",
    "DIM_TIME",
    "DIM_RATE",
    "DIM_POWER",
    "DIM_EFFICIENCY",
    "DIM_ACCURACY",
    "dim_name",
    "infer_dim",
    "build_env",
]

# -- the dimension algebra -----------------------------------------------------
#
# A dimension is a 4-tuple of exponents over the base quantities
# (FLOP, J, s, accuracy).  Derived units fall out of the arithmetic:
# FLOP/s = (1,0,-1,0), W = J/s = (0,1,-1,0), FLOP/J = (1,-1,0,0).

Dim = Tuple[int, int, int, int]

DIM_WORK: Dim = (1, 0, 0, 0)
DIM_ENERGY: Dim = (0, 1, 0, 0)
DIM_TIME: Dim = (0, 0, 1, 0)
DIM_ACCURACY: Dim = (0, 0, 0, 1)
DIM_RATE: Dim = (1, 0, -1, 0)
DIM_POWER: Dim = (0, 1, -1, 0)
DIM_EFFICIENCY: Dim = (1, -1, 0, 0)

#: Sentinel for numeric literals: compatible with every dimension
#: (``2 * energy`` scales joules; ``energy + 5`` adds joules).
POLY = "poly"

_DIM_NAMES = {
    DIM_WORK: "work [FLOP]",
    DIM_ENERGY: "energy [J]",
    DIM_TIME: "time [s]",
    DIM_ACCURACY: "accuracy [fraction]",
    DIM_RATE: "speed [FLOP/s]",
    DIM_POWER: "power [W]",
    DIM_EFFICIENCY: "efficiency [FLOP/J]",
    (0, 0, 0, 0): "dimensionless",
}


def dim_name(dim: Dim) -> str:
    """Human name for a dimension (exponent form for exotic products)."""
    known = _DIM_NAMES.get(dim)
    if known is not None:
        return known
    parts = []
    for exp, unit in zip(dim, ("FLOP", "J", "s", "acc")):
        if exp:
            parts.append(unit if exp == 1 else f"{unit}^{exp}")
    return "·".join(parts) if parts else "dimensionless"


#: ``repro.utils.units`` constructors → the dimension they *produce*.
_CONSTRUCTOR_DIMS: Dict[str, Dim] = {
    "tflop": DIM_WORK,
    "gflop": DIM_WORK,
    "tflops": DIM_RATE,
    "gflops": DIM_RATE,
    "gflops_per_watt": DIM_EFFICIENCY,
    "joules": DIM_ENERGY,
    "watt_hours": DIM_ENERGY,
}

#: Display converters → the dimension their argument must already have.
_DISPLAY_ARG_DIMS: Dict[str, Dim] = {
    "as_tflop": DIM_WORK,
    "as_gflop": DIM_WORK,
    "as_tflops": DIM_RATE,
    "as_gflops_per_watt": DIM_EFFICIENCY,
    "as_watt_hours": DIM_ENERGY,
}

#: Curated attribute dimensions of the core API (Task, Machine, Schedule,
#: ProblemInstance, DurableWindow, BurnRateMonitor ...).  Exact names only.
_ATTRIBUTE_DIMS: Dict[str, Dim] = {
    # energy
    "energy": DIM_ENERGY,
    "total_energy": DIM_ENERGY,
    "cum_energy": DIM_ENERGY,
    "budget": DIM_ENERGY,
    "energy_budget": DIM_ENERGY,
    "energy_spent": DIM_ENERGY,
    "energy_joules": DIM_ENERGY,
    "budget_joules": DIM_ENERGY,
    # time
    "deadline": DIM_TIME,
    "release": DIM_TIME,
    "window_seconds": DIM_TIME,
    "horizon": DIM_TIME,
    "duration": DIM_TIME,
    "elapsed": DIM_TIME,
    "runtime_seconds": DIM_TIME,
    "deadline_seconds": DIM_TIME,
    "solver_timeout": DIM_TIME,
    "retry_after_seconds": DIM_TIME,
    "backoff_seconds": DIM_TIME,
    # speed / power / work / efficiency
    "speed": DIM_RATE,
    "power": DIM_POWER,
    "total_power": DIM_POWER,
    "idle_power": DIM_POWER,
    "work": DIM_WORK,
    "efficiency": DIM_EFFICIENCY,
    # accuracy
    "accuracy": DIM_ACCURACY,
    "mean_accuracy": DIM_ACCURACY,
    "total_accuracy": DIM_ACCURACY,
    "accuracy_floor": DIM_ACCURACY,
    "theta": DIM_ACCURACY,
}

#: Bare-name fallback (parameters and locals named after their unit).
_NAME_DIMS: Dict[str, Dim] = {
    "energy": DIM_ENERGY,
    "energy_budget": DIM_ENERGY,
    "energy_spent": DIM_ENERGY,
    "cum_energy": DIM_ENERGY,
    "budget": DIM_ENERGY,
    "joules": DIM_ENERGY,
    "deadline": DIM_TIME,
    "horizon": DIM_TIME,
    "duration": DIM_TIME,
    "elapsed": DIM_TIME,
    "seconds": DIM_TIME,
    "window_seconds": DIM_TIME,
    "timeout": DIM_TIME,
    "speed": DIM_RATE,
    "power": DIM_POWER,
    "work": DIM_WORK,
    "efficiency": DIM_EFFICIENCY,
    "accuracy": DIM_ACCURACY,
    "theta": DIM_ACCURACY,
}

_SCOPE_TYPES = (ast.FunctionDef, ast.AsyncFunctionDef)

DimResult = Optional[Union[Dim, str]]  # a Dim, POLY, or None (unknown)
Env = Dict[str, Dim]


def _units_call_name(func: ast.expr) -> Optional[str]:
    """The units-helper name a call targets, if any (``tflops``/``u.tflops``)."""
    if isinstance(func, ast.Name):
        name = func.id
    elif isinstance(func, ast.Attribute):
        name = func.attr
    else:
        return None
    if name in _CONSTRUCTOR_DIMS or name in _DISPLAY_ARG_DIMS:
        return name
    return None


def infer_dim(node: ast.expr, env: Env) -> DimResult:
    """The dimension of an expression, or ``POLY``/``None``.

    ``POLY`` (numeric literals) unifies with anything; ``None`` means
    unknown and is never reported against.
    """
    if isinstance(node, ast.Constant):
        return POLY if isinstance(node.value, (int, float)) and not isinstance(node.value, bool) else None
    if isinstance(node, ast.Name):
        if node.id in env:
            return env[node.id]
        return _NAME_DIMS.get(node.id)
    if isinstance(node, ast.Attribute):
        return _ATTRIBUTE_DIMS.get(node.attr)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        return infer_dim(node.operand, env)
    if isinstance(node, ast.Call):
        name = _units_call_name(node.func)
        if name in _CONSTRUCTOR_DIMS:
            return _CONSTRUCTOR_DIMS[name]
        if name in _DISPLAY_ARG_DIMS:
            return None  # display floats leave the dimension system
        return None
    if isinstance(node, ast.BinOp):
        left = infer_dim(node.left, env)
        right = infer_dim(node.right, env)
        if isinstance(node.op, (ast.Add, ast.Sub)):
            if left == POLY:
                return right
            if right == POLY:
                return left
            if left is None or right is None:
                return None
            return left if left == right else None
        if isinstance(node.op, ast.Mult):
            # A numeric literal in a product may be a *hidden* dimensioned
            # constant ("* 8.0" meaning 8 seconds), so POLY poisons the
            # product to unknown rather than acting as a pure scalar.
            if left == POLY or right == POLY or left is None or right is None:
                return None
            return _combine(left, right, +1)
        if isinstance(node.op, ast.Div):
            if left == POLY or right == POLY or left is None or right is None:
                return None
            return _combine(left, right, -1)
        return None
    if isinstance(node, ast.IfExp):
        body = infer_dim(node.body, env)
        orelse = infer_dim(node.orelse, env)
        return body if body == orelse else None
    return None


def _combine(a: Dim, b: Dim, sign: int) -> Dim:
    return tuple(x + sign * y for x, y in zip(a, b))  # type: ignore[return-value]


def build_env(scope: ast.AST) -> Env:
    """Name → dimension for one scope (module body or function body).

    Walks assignments in source order, skipping nested function/class
    scopes; parameters contribute through the bare-name table inside
    :func:`infer_dim`, so only explicit assignments land here.
    """
    env: Env = {}
    for stmt in _scope_statements(scope):
        targets: list = []
        value: Optional[ast.expr] = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        elif isinstance(stmt, ast.AugAssign):
            targets, value = [stmt.target], stmt.value
        if value is None:
            continue
        dim = infer_dim(value, env)
        for target in targets:
            if isinstance(target, ast.Name):
                if dim is not None and dim != POLY:
                    env[target.id] = dim  # type: ignore[assignment]
                else:
                    env.pop(target.id, None)
    return env


def _scope_statements(scope: ast.AST) -> Iterator[ast.stmt]:
    """All statements of ``scope``, not descending into nested scopes."""
    body = getattr(scope, "body", [])
    stack = list(body)
    while stack:
        stmt = stack.pop(0)
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
            continue
        yield stmt
        for field in ("body", "orelse", "finalbody", "handlers"):
            for child in getattr(stmt, field, []):
                if isinstance(child, ast.ExceptHandler):
                    stack.extend(child.body)
                elif isinstance(child, ast.stmt):
                    stack.append(child)


def _env_for(node: ast.AST, ctx: "LintContext") -> Env:
    """The (cached) dimension environment of ``node``'s enclosing scope."""
    scope: ast.AST = ctx.tree
    for anc in ctx.ancestors(node):
        if isinstance(anc, _SCOPE_TYPES):
            scope = anc
            break
    cache = ctx.cache.setdefault("dim_envs", {})
    key = id(scope)
    if key not in cache:
        cache[key] = build_env(scope)
    return cache[key]


# -- RL001: unit-dimension mismatches ------------------------------------------


@register_rule
class UnitDimensionRule(Rule):
    """RL001 — adding seconds to joules (and friends) is always a bug."""

    code = "RL001"
    name = "unit-dimension-mismatch"
    rationale = (
        "All quantities are plain floats in SI units (see repro.utils.units); "
        "the type system cannot tell joules from seconds, so dimension errors "
        "survive until a feasibility audit fails at runtime.  Adding or "
        "comparing quantities of different dimensions, or re-converting an "
        "already-converted quantity, is flagged at parse time instead."
    )
    severity = Severity.ERROR
    node_types = (ast.BinOp, ast.Compare, ast.Call)

    def visit(self, node: ast.AST, ctx: "LintContext") -> Iterator[Finding]:
        if isinstance(node, ast.BinOp):
            yield from self._check_binop(node, ctx)
        elif isinstance(node, ast.Compare):
            yield from self._check_compare(node, ctx)
        elif isinstance(node, ast.Call):
            yield from self._check_conversion(node, ctx)

    def _check_binop(self, node: ast.BinOp, ctx: "LintContext") -> Iterator[Finding]:
        if not isinstance(node.op, (ast.Add, ast.Sub)):
            return
        env = _env_for(node, ctx)
        left = infer_dim(node.left, env)
        right = infer_dim(node.right, env)
        if left in (None, POLY) or right in (None, POLY) or left == right:
            return
        op = "add" if isinstance(node.op, ast.Add) else "subtract"
        yield self.finding(
            ctx,
            node,
            f"cannot {op} {dim_name(right)} {'to' if op == 'add' else 'from'} "
            f"{dim_name(left)}; convert through repro.utils.units first",
        )

    def _check_compare(self, node: ast.Compare, ctx: "LintContext") -> Iterator[Finding]:
        if len(node.ops) != 1 or not isinstance(node.ops[0], (ast.Lt, ast.LtE, ast.Gt, ast.GtE)):
            return
        env = _env_for(node, ctx)
        left = infer_dim(node.left, env)
        right = infer_dim(node.comparators[0], env)
        if left in (None, POLY) or right in (None, POLY) or left == right:
            return
        yield self.finding(
            ctx,
            node,
            f"ordering comparison between {dim_name(left)} and {dim_name(right)} "
            f"can never be meaningful",
        )

    def _check_conversion(self, node: ast.Call, ctx: "LintContext") -> Iterator[Finding]:
        name = _units_call_name(node.func)
        if name is None or not node.args:
            return
        env = _env_for(node, ctx)
        arg = infer_dim(node.args[0], env)
        if arg in (None, POLY):
            return
        if name in _CONSTRUCTOR_DIMS:
            yield self.finding(
                ctx,
                node,
                f"{name}() expects a raw magnitude but was given "
                f"{dim_name(arg)} — double conversion",
            )
        elif name in _DISPLAY_ARG_DIMS and arg != _DISPLAY_ARG_DIMS[name]:
            yield self.finding(
                ctx,
                node,
                f"{name}() expects {dim_name(_DISPLAY_ARG_DIMS[name])} "
                f"but was given {dim_name(arg)}",
            )


# -- RL002: float equality on physical quantities ------------------------------

#: Identifier fragments marking a value as a continuous physical float.
_FLOAT_NAME_PATTERN = re.compile(
    r"energy|joule|watt|accurac|theta|latenc|deadline|budget|duration|elapsed|burn",
    re.IGNORECASE,
)


def _is_domain_float(node: ast.expr, env: Env) -> bool:
    dim = infer_dim(node, env)
    if dim not in (None, POLY) and dim != (0, 0, 0, 0):
        return True
    if isinstance(node, ast.Name):
        return bool(_FLOAT_NAME_PATTERN.search(node.id))
    if isinstance(node, ast.Attribute):
        return bool(_FLOAT_NAME_PATTERN.search(node.attr))
    return False


def _is_zero_literal(node: ast.expr) -> bool:
    return isinstance(node, ast.Constant) and isinstance(node.value, (int, float)) and node.value == 0


def _is_non_numeric_literal(node: ast.expr) -> bool:
    """Strings/None/bools: equality against them is a sentinel check."""
    return isinstance(node, ast.Constant) and (
        isinstance(node.value, (str, bytes, bool)) or node.value is None
    )


@register_rule
class FloatEqualityRule(Rule):
    """RL002 — ``==`` on energy/accuracy/time floats needs a tolerance."""

    code = "RL002"
    name = "float-equality"
    rationale = (
        "Energies, accuracies and times are accumulated floats; two "
        "mathematically equal computations rarely compare `==` after "
        "different summation orders.  Require math.isclose()/an explicit "
        "tolerance.  Comparisons against a literal 0 are exempt (a value "
        "*set* to zero compares exactly), as is tests/ — determinism "
        "suites assert bit-identical results on purpose."
    )
    severity = Severity.WARNING
    node_types = (ast.Compare,)
    exclude = ("tests/*", "*/tests/*")

    def visit(self, node: ast.Compare, ctx: "LintContext") -> Iterator[Finding]:
        if len(node.ops) != 1 or not isinstance(node.ops[0], (ast.Eq, ast.NotEq)):
            return
        left, right = node.left, node.comparators[0]
        if _is_zero_literal(left) or _is_zero_literal(right):
            return
        if _is_non_numeric_literal(left) or _is_non_numeric_literal(right):
            return
        env = _env_for(node, ctx)
        if _is_domain_float(left, env) or _is_domain_float(right, env):
            op = "==" if isinstance(node.ops[0], ast.Eq) else "!="
            yield self.finding(
                ctx,
                node,
                f"float {op} on a physical quantity; use math.isclose() or an "
                f"explicit tolerance",
            )


# -- RL003: non-atomic state-file writes ---------------------------------------

_WRITE_MODES = re.compile(r"w")


def _write_mode(call: ast.Call) -> Optional[str]:
    """The truncating write mode a call opens with, if any."""
    mode: Optional[ast.expr] = None
    if isinstance(call.func, ast.Name) and call.func.id == "open":
        if len(call.args) >= 2:
            mode = call.args[1]
    elif isinstance(call.func, ast.Attribute) and call.func.attr == "open":
        if call.args:
            mode = call.args[0]
    else:
        return None
    for kw in call.keywords:
        if kw.arg == "mode":
            mode = kw.value
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return mode.value if _WRITE_MODES.search(mode.value) else None
    return None


@register_rule
class AtomicWriteRule(Rule):
    """RL003 — state files must go through ``repro.utils.atomic_write``."""

    code = "RL003"
    name = "non-atomic-write"
    rationale = (
        "A process killed mid-write leaves a truncated file under the final "
        "name — corrupt snapshots, instances and metric exports.  Every "
        "truncating write of persistent state must go through "
        "repro.utils.atomic_write (temp file + fsync + rename).  Append-only "
        "journal segments ('a'/'x' modes) are exempt: appends are the WAL's "
        "own crash-safety mechanism."
    )
    severity = Severity.ERROR
    node_types = (ast.Call,)
    include = ("*/repro/*", "repro/*")
    exclude = ("*/repro/utils/fileio.py",)

    def visit(self, node: ast.Call, ctx: "LintContext") -> Iterator[Finding]:
        if isinstance(node.func, ast.Attribute) and node.func.attr in ("write_text", "write_bytes"):
            yield self.finding(
                ctx,
                node,
                f".{node.func.attr}() is not crash-safe; use repro.utils.atomic_write",
            )
            return
        mode = _write_mode(node)
        if mode is not None:
            yield self.finding(
                ctx,
                node,
                f"open(..., {mode!r}) truncates in place; use repro.utils.atomic_write",
            )


# -- RL004: wall clocks in scheduling paths ------------------------------------


@register_rule
class MonotonicClockRule(Rule):
    """RL004 — deadlines and timeouts must use a monotonic clock."""

    code = "RL004"
    name = "wall-clock-in-scheduling-path"
    rationale = (
        "time.time() jumps under NTP steps and DST; a deadline or timeout "
        "computed from it can fire years late or instantly.  Scheduling, "
        "timeout and serving paths must use time.monotonic() (or "
        "perf_counter for durations).  Telemetry is excluded: span "
        "wall_start is deliberately wall-clock for cross-host correlation."
    )
    severity = Severity.ERROR
    node_types = (ast.Call,)
    include = (
        "*/repro/algorithms/*",
        "*/repro/exact/*",
        "*/repro/baselines/*",
        "*/repro/resilience/*",
        "*/repro/online/*",
        "*/repro/durability/*",
        "*/repro/simulator/*",
        "*/repro/observe/*",
        "*/repro/server.py",
    )

    def visit(self, node: ast.Call, ctx: "LintContext") -> Iterator[Finding]:
        func = node.func
        is_wall = (
            isinstance(func, ast.Attribute)
            and func.attr == "time"
            and isinstance(func.value, ast.Name)
            and func.value.id == "time"
        )
        if not is_wall and isinstance(func, ast.Name) and func.id == "time":
            is_wall = bool(re.search(r"from\s+time\s+import\s+[^\n]*\btime\b", ctx.source))
        if is_wall:
            yield self.finding(
                ctx,
                node,
                "wall-clock time.time() in a scheduling/timeout path; use "
                "time.monotonic() (time.perf_counter() for durations)",
            )


# -- RL005: raw FLOP-scale factors ---------------------------------------------

#: The scale factors repro.utils.units exists to encapsulate.
_SCALE_VALUES = {1e9, 1e12}
_SCALE_SPELLING = re.compile(r"^(1e\+?(9|12)|10\s*\*\*\s*(9|12))$", re.IGNORECASE)


@register_rule
class RawScaleFactorRule(Rule):
    """RL005 — ``x / 1e9`` hides a unit conversion; name it."""

    code = "RL005"
    name = "raw-scale-factor"
    rationale = (
        "Multiplying or dividing by a bare 1e9/1e12 is a unit conversion "
        "with the unit erased — the single source of the paper's "
        "TFLOPS/GFLOPS-per-watt conversions is repro.utils.units.  Use "
        "tflops()/gflops()/as_tflop()/as_gflop()/gflops_per_watt() so the "
        "conversion is named and greppable.  (1e3/1e6 second-display "
        "conversions are out of scope: ms/µs formatting is not a FLOP "
        "scale.)"
    )
    severity = Severity.WARNING
    node_types = (ast.BinOp,)
    include = ("*/repro/*", "repro/*")
    exclude = ("*/repro/utils/units.py",)

    def visit(self, node: ast.BinOp, ctx: "LintContext") -> Iterator[Finding]:
        if not isinstance(node.op, (ast.Mult, ast.Div)):
            return
        for operand in (node.left, node.right):
            if (
                isinstance(operand, ast.Constant)
                and isinstance(operand.value, (int, float))
                and float(operand.value) in _SCALE_VALUES
                and _SCALE_SPELLING.match(ctx.segment(operand).strip())
            ):
                yield self.finding(
                    ctx,
                    node,
                    f"raw scale factor {ctx.segment(operand).strip()}; use the "
                    f"repro.utils.units helpers so the conversion is named",
                )

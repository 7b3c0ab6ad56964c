"""Bytecode-level effect analysis of players, specs, and replay folds.

Walks compiled Python code with :mod:`dis` and classifies instructions
into the effects the layer discipline cares about:

* **log appends** — ``ctx.emit(NAME, ...)`` sites, with the event name
  resolved when it is a constant, a module global, or a closure cell
  holding a string;
* **underlay calls** — ``ctx.call(NAME, ...)`` sites, with the callee
  name resolved the same way and the argument count recovered from the
  matching ``CALL`` instruction (stack-depth matched);
* **query points and critical sections** — ``ctx.query()`` /
  ``ctx.enter_critical()`` / ``ctx.exit_critical()``;
* **nondeterminism sources** — reads of the ``time``/``random``/
  ``uuid``/``secrets`` modules and the ``id``/``input``/``globals``/
  ``vars`` builtins (resolved through ``__globals__``, so a local
  function that happens to be *named* ``time`` is not flagged);
* **unordered iteration** — ``for``-loops over freshly built sets;
* **raw log access** — any touch of ``ctx.buffer``.

Mini-C and mini-assembly implementations carry no useful Python
bytecode (their players are interpreter closures), so
:func:`analyze_impl` walks their syntax trees instead
(``Call``/``PrimCall`` nodes), produced by duck-typing on the AST
dataclasses — this module never imports :mod:`repro.core` or the
language packages at import time.

**Soundness caveats** (see DESIGN.md): the analysis is linear — it does
not follow jumps, so effects inside dead branches still count
(over-approximation), and an event name it cannot resolve statically
degrades the summary to *inexact* rather than guessing.  Rules consume
the ``exact`` flag and stay silent when the analysis lost precision:
findings are meant to be true positives.
"""

from __future__ import annotations

import builtins
import dis
import types
import weakref
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Tuple

# Effect op kinds, in program order.
OP_QUERY = "query"
OP_EMIT = "emit"
OP_CALL = "call"          # ctx.call(<prim>) — resolves in the underlay
OP_LOCAL_CALL = "localcall"  # same-unit call (mini-C / asm)
OP_ENTER = "enter"
OP_EXIT = "exit"

#: One effect op: (kind, resolved name or None, nargs or None, line).
EffectOp = Tuple[str, Optional[str], Optional[int], int]

_NONDET_MODULES = {"time", "random", "uuid", "secrets"}
_NONDET_BUILTINS = {"id", "input", "globals", "vars"}

_CALL_OPS = {
    "CALL", "CALL_METHOD", "CALL_FUNCTION", "CALL_FUNCTION_KW",
    "CALL_FUNCTION_EX", "CALL_KW",
}
#: Call ops whose oparg is the positional argument count.
_SIMPLE_CALL_OPS = {"CALL", "CALL_METHOD", "CALL_FUNCTION"}

_CTX_METHOD_OPS = {"LOAD_METHOD", "LOAD_ATTR"}
_CTX_LOAD_OPS = {"LOAD_FAST", "LOAD_FAST_CHECK", "LOAD_DEREF", "LOAD_CLASSDEREF"}

_MISSING = object()


@dataclass
class EffectSummary:
    """The statically derived effects of one player/spec function."""

    name: str = "<code>"
    file: str = "<unknown>"
    line: int = 0
    ops: Tuple[EffectOp, ...] = ()
    emits: FrozenSet[str] = frozenset()
    dynamic_emit: bool = False     # an emit whose name did not resolve
    dynamic_call: bool = False     # a ctx.call whose name did not resolve
    nondet: Tuple[Tuple[str, int], ...] = ()       # (description, line)
    set_iterations: Tuple[int, ...] = ()           # lines
    buffer_access: Tuple[int, ...] = ()            # lines
    referenced_fns: Tuple[Callable, ...] = ()      # for transitive emit

    @property
    def calls(self) -> Tuple[EffectOp, ...]:
        return tuple(op for op in self.ops if op[0] == OP_CALL)

    @property
    def local_calls(self) -> Tuple[EffectOp, ...]:
        return tuple(op for op in self.ops if op[0] == OP_LOCAL_CALL)

    @property
    def location(self) -> str:
        return f"{self.file}:{self.line}"


_SUMMARY_MEMO: "weakref.WeakKeyDictionary[Callable, EffectSummary]" = (
    weakref.WeakKeyDictionary()
)


def analyze_function(fn: Callable) -> EffectSummary:
    """The effect summary of a plain Python function (memoized)."""
    fn = getattr(fn, "__wrapped__", fn) if _is_trivial_wrapper(fn) else fn
    try:
        cached = _SUMMARY_MEMO.get(fn)
    except TypeError:  # unhashable callable
        cached = None
    if cached is not None:
        return cached
    code = getattr(fn, "__code__", None)
    if code is None:
        return EffectSummary(name=getattr(fn, "__name__", "<callable>"),
                             dynamic_emit=True, dynamic_call=True)
    closure_map: Dict[str, Any] = {}
    if fn.__closure__:
        for var, cell in zip(code.co_freevars, fn.__closure__):
            try:
                closure_map[var] = cell.cell_contents
            except ValueError:  # empty cell
                pass
    summary = _analyze_code(
        code, getattr(fn, "__globals__", {}), closure_map,
        qualname=getattr(fn, "__qualname__", code.co_name),
    )
    try:
        _SUMMARY_MEMO[fn] = summary
    except TypeError:
        pass
    return summary


def _is_trivial_wrapper(fn: Callable) -> bool:
    """Whether ``fn`` declares a ``__wrapped__`` worth analyzing instead.

    ``private_prim`` wraps its payload in a one-line forwarding
    generator; analyzing the wrapper would anchor findings at
    ``interface.py``.  Only unwrap explicit ``__wrapped__`` markers.
    """
    wrapped = getattr(fn, "__wrapped__", None)
    return callable(wrapped)


def _analyze_code(
    code: types.CodeType,
    globals_map: Dict[str, Any],
    closure_map: Dict[str, Any],
    qualname: str = "",
    ctx_name: Optional[str] = None,
) -> EffectSummary:
    if ctx_name is None:
        ctx_name = code.co_varnames[0] if code.co_argcount >= 1 else "ctx"
    instrs = list(dis.get_instructions(code))
    depth_after = _stack_depths(instrs)

    ops: List[EffectOp] = []
    emits: set = set()
    dynamic_emit = False
    dynamic_call = False
    nondet: List[Tuple[str, int]] = []
    set_iterations: List[int] = []
    buffer_access: List[int] = []
    referenced: List[Callable] = []
    line = code.co_firstlineno

    def resolve(name: str) -> Any:
        if name in closure_map:
            return closure_map[name]
        if name in globals_map:
            return globals_map[name]
        return getattr(builtins, name, _MISSING)

    for i, ins in enumerate(instrs):
        if ins.starts_line is not None:
            line = ins.starts_line

        # --- ctx.<attr> uses ------------------------------------------------
        if (
            ins.opname in _CTX_METHOD_OPS
            and i > 0
            and instrs[i - 1].opname in _CTX_LOAD_OPS
            and instrs[i - 1].argval == ctx_name
        ):
            attr = ins.argval
            if attr == "query":
                ops.append((OP_QUERY, None, None, line))
            elif attr == "enter_critical":
                ops.append((OP_ENTER, None, None, line))
            elif attr == "exit_critical":
                ops.append((OP_EXIT, None, None, line))
            elif attr == "buffer":
                buffer_access.append(line)
            elif attr in ("emit", "call"):
                name = _first_arg_name(instrs, i, resolve)
                if attr == "emit":
                    if name is None:
                        dynamic_emit = True
                    else:
                        emits.add(name)
                    ops.append((OP_EMIT, name, None, line))
                else:
                    nargs = _matching_call_nargs(instrs, i, depth_after)
                    if name is None:
                        dynamic_call = True
                    # The first ctx.call argument is the primitive name;
                    # the primitive itself receives the rest.
                    prim_nargs = nargs - 1 if nargs else None
                    ops.append((OP_CALL, name, prim_nargs, line))
            continue

        # --- global reads ----------------------------------------------------
        if ins.opname == "LOAD_GLOBAL":
            value = resolve(ins.argval)
            source = _nondet_source(ins.argval, value)
            if source is not None:
                nondet.append((source, line))
            elif isinstance(value, types.FunctionType):
                referenced.append(value)
        elif ins.opname in ("LOAD_DEREF", "LOAD_CLASSDEREF"):
            value = closure_map.get(ins.argval, _MISSING)
            if isinstance(value, types.FunctionType):
                referenced.append(value)
            elif value is not _MISSING:
                source = _nondet_source(ins.argval, value)
                if source is not None:
                    nondet.append((source, line))

        # --- unordered iteration ----------------------------------------------
        elif ins.opname == "GET_ITER" and _iterates_fresh_set(
            instrs, i, resolve
        ):
            set_iterations.append(line)

    # Nested code objects (comprehensions, inner defs): same globals, no
    # resolvable closure — their effects join the parent summary, ordered
    # after the parent's own ops (an over-approximation, documented).
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            nested = _analyze_code(
                const, globals_map, {}, qualname=f"{qualname}.{const.co_name}",
                ctx_name=ctx_name,
            )
            ops.extend(nested.ops)
            emits |= nested.emits
            dynamic_emit |= nested.dynamic_emit
            dynamic_call |= nested.dynamic_call
            nondet.extend(nested.nondet)
            set_iterations.extend(nested.set_iterations)
            buffer_access.extend(nested.buffer_access)
            referenced.extend(nested.referenced_fns)

    return EffectSummary(
        name=qualname or code.co_name,
        file=code.co_filename,
        line=code.co_firstlineno,
        ops=tuple(ops),
        emits=frozenset(emits),
        dynamic_emit=dynamic_emit,
        dynamic_call=dynamic_call,
        nondet=tuple(nondet),
        set_iterations=tuple(set_iterations),
        buffer_access=tuple(buffer_access),
        referenced_fns=tuple(referenced),
    )


def _stack_depths(instrs: List[dis.Instruction]) -> List[int]:
    """Stack depth *after* each instruction, simulated linearly.

    Jumps are not followed; the depths are exact inside straight-line
    expressions (where we use them — to match a method load with its
    ``CALL``) and merely approximate across branches.
    """
    depth = 0
    out: List[int] = []
    for ins in instrs:
        try:
            if ins.opcode >= dis.HAVE_ARGUMENT:
                depth += dis.stack_effect(ins.opcode, ins.arg, jump=False)
            else:
                depth += dis.stack_effect(ins.opcode)
        except ValueError:
            pass
        out.append(depth)
    return out


def _first_arg_name(
    instrs: List[dis.Instruction],
    method_index: int,
    resolve: Callable[[str], Any],
) -> Optional[str]:
    """Statically resolve the first argument of ``ctx.emit``/``ctx.call``."""
    j = method_index + 1
    while j < len(instrs) and instrs[j].opname in ("PUSH_NULL", "PRECALL"):
        j += 1
    if j >= len(instrs):
        return None
    ins = instrs[j]
    if ins.opname == "LOAD_CONST":
        return ins.argval if isinstance(ins.argval, str) else None
    if ins.opname == "LOAD_GLOBAL":
        value = resolve(ins.argval)
        return value if isinstance(value, str) else None
    if ins.opname in ("LOAD_DEREF", "LOAD_CLASSDEREF"):
        value = resolve(ins.argval)
        return value if isinstance(value, str) else None
    return None


def _matching_call_nargs(
    instrs: List[dis.Instruction],
    method_index: int,
    depth_after: List[int],
    window: int = 200,
) -> Optional[int]:
    """The positional arg count of the CALL matching a ctx method load.

    The call expression started one instruction earlier (the ``ctx``
    load); its value leaves exactly one item above that starting depth.
    The first call op landing at that depth is ours.  Keyword-argument
    calls and EX calls return ``None`` (unknown arity).
    """
    start_depth = (
        depth_after[method_index - 2] if method_index >= 2 else 0
    )
    limit = min(len(instrs), method_index + window)
    kw_pending = False
    for j in range(method_index + 1, limit):
        ins = instrs[j]
        if ins.opname == "KW_NAMES":
            kw_pending = True
        if ins.opname in _CALL_OPS and depth_after[j] == start_depth + 1:
            if kw_pending or ins.opname not in _SIMPLE_CALL_OPS:
                return None
            return ins.arg
    return None


def _nondet_source(name: str, value: Any) -> Optional[str]:
    if isinstance(value, types.ModuleType) and value.__name__ in _NONDET_MODULES:
        return f"module {value.__name__!r}"
    if name in _NONDET_BUILTINS and value is getattr(builtins, name, _MISSING):
        return f"builtin {name}()"
    return None


def _iterates_fresh_set(
    instrs: List[dis.Instruction],
    iter_index: int,
    resolve: Callable[[str], Any],
    window: int = 8,
) -> bool:
    """Whether the GET_ITER consumes a freshly-built set.

    Heuristic: a ``BUILD_SET``, a constant frozenset (how the compiler
    folds ``for x in {1, 2, 3}``), or a call of the ``set``/``frozenset``
    builtin within a few instructions before the GET_ITER.  Constant
    frozensets used for ``in`` tests never reach GET_ITER, so they do
    not trip this.  An order-restoring builtin (``sorted``, ``list``,
    ``tuple``, ``min``, ``max``, ``sum``) in the same window launders
    the set — ``for x in sorted(set(xs))`` is replay-safe.
    """
    saw_set_source = False
    for j in range(max(0, iter_index - window), iter_index):
        ins = instrs[j]
        if ins.opname in ("BUILD_SET", "SET_UPDATE"):
            saw_set_source = True
        elif ins.opname == "LOAD_CONST" and isinstance(ins.argval, frozenset):
            saw_set_source = True
        elif ins.opname == "LOAD_GLOBAL":
            value = resolve(ins.argval)
            if value is set or value is frozenset:
                saw_set_source = True
            elif value in (sorted, list, tuple, min, max, sum):
                return False
    return saw_set_source


# --- in-place mutation of a parameter -----------------------------------------

#: Methods that mutate a list/dict/set receiver in place.
MUTATING_METHODS = frozenset(
    {"append", "pop", "extend", "remove", "clear", "update", "insert"}
)

_LOAD_VALUE_OPS = {"LOAD_FAST", "LOAD_FAST_CHECK", "LOAD_DEREF"}
_PART_OPS = {"LOAD_ATTR", "LOAD_METHOD", "BINARY_SUBSCR"}
#: Stack rotations of older interpreters: op -> items rotated.
_ROTATIONS = {"ROT_TWO": 2, "ROT_THREE": 3, "ROT_FOUR": 4}
#: Ops that only consume stack items (or touch none): nothing they
#: leave on the stack is a fresh value.
_CONSUMING_PREFIXES = (
    "POP_", "STORE_", "DELETE_", "JUMP", "RETURN", "RAISE", "RERAISE",
    "SETUP_", "END_", "NOP", "RESUME", "PRECALL", "KW_NAMES", "CACHE",
    "EXTENDED_ARG", "COPY_FREE_VARS", "MAKE_CELL",
)


def param_mutations(fn: Callable) -> Tuple[Tuple[str, int], ...]:
    """In-place mutations of ``fn``'s first parameter: ``(what, line)``.

    Flags a call of a :data:`MUTATING_METHODS` method, an item or
    attribute assignment, and an item or attribute ``del`` whose target
    is the parameter or a part of it (an attribute or item reached from
    it, such as ``state.ready.append(x)``).  Nested functions and
    comprehensions that close over the parameter are searched too.

    The walk tracks, per stack slot, whether the value is the parameter
    or a part of it; like the rest of this module it does not follow
    jumps, and it does not follow aliases (``s = state``) or the
    augmented operators (``state += [x]``), whose effect depends on the
    runtime type.
    """
    code = getattr(fn, "__code__", None)
    if code is None or code.co_argcount < 1:
        return ()
    return tuple(_param_mutations(code, code.co_varnames[0]))


def _param_mutations(code: types.CodeType, param: str) -> List[Tuple[str, int]]:
    out: List[Tuple[str, int]] = []
    stack: List[bool] = []  # per slot: the parameter or a part of it?

    def part(depth: int) -> bool:
        return len(stack) >= depth and stack[-depth]

    line = code.co_firstlineno
    for ins in dis.get_instructions(code):
        if ins.starts_line is not None:
            line = ins.starts_line
        op = ins.opname
        if op in _LOAD_VALUE_OPS:
            stack.append(ins.argval == param)
            continue
        if op in ("COPY", "DUP_TOP"):
            stack.append(part(ins.arg if op == "COPY" else 1))
            continue
        if op == "DUP_TOP_TWO":
            stack.extend([part(2), part(1)])
            continue
        if op == "SWAP":
            if len(stack) >= ins.arg:
                stack[-1], stack[-ins.arg] = stack[-ins.arg], stack[-1]
            continue
        if op in _ROTATIONS:
            if len(stack) >= _ROTATIONS[op]:
                stack.insert(len(stack) - _ROTATIONS[op] + 1, stack.pop())
            continue

        what = None
        if op in ("LOAD_ATTR", "LOAD_METHOD") and part(1):
            if ins.argval in MUTATING_METHODS:
                what = f"calls .{ins.argval}()"
        elif op in ("STORE_SUBSCR", "DELETE_SUBSCR") and part(2):
            what = "item assignment" if op == "STORE_SUBSCR" else "item del"
        elif op == "STORE_SLICE" and part(3):
            what = "slice assignment"
        elif op in ("STORE_ATTR", "DELETE_ATTR") and part(1):
            verb = "assignment" if op == "STORE_ATTR" else "del"
            what = f"attribute {verb} .{ins.argval}"
        if what is not None:
            out.append((what, line))

        try:
            effect = dis.stack_effect(
                ins.opcode, ins.arg if ins.opcode >= dis.HAVE_ARGUMENT else None,
                jump=False,
            )
        except ValueError:
            effect = 0
        depth = max(len(stack) + effect, 0)
        if op in _PART_OPS:
            # An attribute or item of the parameter is part of it.
            pops = 2 if op == "BINARY_SUBSCR" else 1
            derived = part(pops)
            del stack[max(len(stack) - pops, 0):]
            stack.extend([derived] * (depth - len(stack)))
        elif op.startswith(_CONSUMING_PREFIXES):
            del stack[depth:]
            stack.extend([False] * (depth - len(stack)))
        else:
            # Everything else leaves one fresh value on top.
            del stack[max(depth - 1, 0):]
            stack.extend([False] * (depth - len(stack)))

    for const in code.co_consts:
        if isinstance(const, types.CodeType) and param in const.co_freevars:
            out.extend(_param_mutations(const, param))
    return out


# --- restartable specifications -----------------------------------------------

#: :func:`restartability` verdicts.
NEVER_SUSPENDS = "never-suspends"
RESTARTABLE = "restartable"
NOT_RESTARTABLE = "not-restartable"

#: Ops that set up a frame or pad a call and touch no state.
_FILLER_OPS = frozenset({
    "GEN_START", "COPY_FREE_VARS", "MAKE_CELL", "RETURN_GENERATOR", "RESUME",
    "NOP", "PUSH_NULL", "PRECALL", "CACHE", "EXTENDED_ARG",
})
#: One per suspension site: a ``yield`` on every version, the
#: ``yield from`` of 3.10 (later versions yield from inside a SEND loop).
_YIELD_OPS = frozenset({"YIELD_VALUE", "YIELD_FROM"})
_JUMP_OPCODES = frozenset(dis.hasjrel) | frozenset(dis.hasjabs)

_RESTART_MEMO: Dict[types.CodeType, str] = {}


def restartability(fn: Callable) -> str:
    """Whether a suspended call of the generator ``fn`` can be restarted.

    * :data:`NEVER_SUSPENDS` — the code has no yield, so a call runs to
      completion on its first resumption (``push``, private primitives).
    * :data:`RESTARTABLE` — the body begins with ``yield from
      ctx.query()`` (``ctx`` the first parameter), yields nowhere else,
      and no jump reaches back to that query.  A call suspended at the
      query is then resumed by calling ``fn`` again with the same
      arguments and advancing it to the query: nothing before the query
      runs twice.
    * :data:`NOT_RESTARTABLE` — anything else, or no code to inspect.

    Decided once per code object, from bytecode, identically on Python
    3.10 to 3.12.
    """
    code = getattr(fn, "__code__", None)
    if code is None:
        return NOT_RESTARTABLE
    verdict = _RESTART_MEMO.get(code)
    if verdict is None:
        verdict = _RESTART_MEMO[code] = _restartability(code)
    return verdict


def _restartability(code: types.CodeType) -> str:
    instrs = list(dis.get_instructions(code))
    yields = sum(ins.opname in _YIELD_OPS for ins in instrs)
    if yields == 0:
        return NEVER_SUSPENDS
    if yields > 1 or code.co_argcount < 1:
        return NOT_RESTARTABLE
    ops = [
        ins for prev, ins in zip([None, *instrs], instrs)
        if ins.opname not in _FILLER_OPS
        and not (ins.opname == "POP_TOP" and prev is not None
                 and prev.opname == "RETURN_GENERATOR")
    ]
    if len(ops) < 6:
        return NOT_RESTARTABLE
    load, method, call, get_iter, none, send = ops[:6]
    leading_query = (
        load.opname in _CTX_LOAD_OPS and load.argval == code.co_varnames[0]
        and method.opname in _CTX_METHOD_OPS and method.argval == "query"
        and call.opname in _SIMPLE_CALL_OPS and call.arg == 0
        and get_iter.opname == "GET_YIELD_FROM_ITER"
        and none.opname == "LOAD_CONST" and none.argval is None
        and send.opname in ("SEND", "YIELD_FROM")
    )
    if not leading_query:
        return NOT_RESTARTABLE
    # A jump back to the query would suspend there again with loop
    # state; the yield-from's own resend loop is the one exception.
    for ins in instrs:
        if (
            ins.opcode in _JUMP_OPCODES
            and ins.opname != "JUMP_BACKWARD_NO_INTERRUPT"
            and isinstance(ins.argval, int)
            and ins.argval <= send.offset
        ):
            return NOT_RESTARTABLE
    return RESTARTABLE


# --- mini-C / mini-asm AST analysis ----------------------------------------


def analyze_impl(impl: Any) -> EffectSummary:
    """The effect summary of a :class:`~repro.core.module.FuncImpl`.

    Dispatches on ``impl.lang``: Python spec players analyze by
    bytecode; mini-C and assembly implementations analyze by walking
    their AST (``impl.source``).  An implementation with no analyzable
    body returns a fully-inexact summary, which silences every rule
    that needs precision.
    """
    lang = getattr(impl, "lang", "spec")
    source = getattr(impl, "source", None)
    if lang == "spec" or source is None:
        return analyze_function(impl.player)
    file, line = _impl_location(impl, lang)
    return analyze_ast_function(
        source, name=getattr(impl, "name", "<impl>"), file=file, line=line,
    )


def unit_of_impl(impl: Any) -> Optional[Any]:
    """The translation unit an interpreted impl belongs to, if reachable.

    C/asm players close over their interpreter, which holds the unit;
    we fish it out so same-unit calls resolve without a language import.
    """
    player = getattr(impl, "player", None)
    closure = getattr(player, "__closure__", None) or ()
    for cell in closure:
        try:
            value = cell.cell_contents
        except ValueError:
            continue
        unit = getattr(value, "unit", None)
        if unit is not None and hasattr(unit, "functions"):
            return unit
        if hasattr(value, "functions") and not callable(value):
            return value
    return None


def _impl_location(impl: Any, tag: str) -> Tuple[str, int]:
    locate = getattr(impl, "location", None)
    if callable(locate):
        where = locate()
        if ":" in where:
            file, _, line = where.rpartition(":")
            try:
                return file, int(line)
            except ValueError:
                pass
    return f"<{tag}:{getattr(impl, 'name', '?')}>", 0


def analyze_ast_function(
    source: Any, name: str = "<ast>", file: str = "<unknown>", line: int = 0,
) -> EffectSummary:
    """Walk a mini-C ``CFunction`` or mini-asm ``AsmFunction`` body.

    Mini-C bodies are statement trees whose ``Call`` nodes may hit
    either the underlay or a same-unit function — both are recorded as
    ``OP_CALL`` and disambiguated by the discipline checker, which has
    the unit in hand.  Assembly bodies are flat instruction tuples
    where ``PrimCall`` targets the underlay and ``Call`` stays local.
    """
    body = getattr(source, "body", None)
    ops: List[EffectOp] = []
    if isinstance(body, (tuple, list)):  # asm: flat instruction sequence
        for ins in body:
            type_name = type(ins).__name__
            if type_name == "PrimCall":
                ops.append((OP_CALL, getattr(ins, "prim", None),
                            getattr(ins, "nargs", None), line))
            elif type_name == "Call":
                ops.append((OP_LOCAL_CALL, getattr(ins, "fn", None),
                            getattr(ins, "nargs", None), line))
    elif body is not None:  # mini-C: statement tree
        stack: List[Any] = [body]
        while stack:
            node = stack.pop(0)
            if node is None:
                continue
            if type(node).__name__ == "Call":
                args = getattr(node, "args", ())
                ops.append(
                    (OP_CALL, getattr(node, "fn", None), len(args), line)
                )
                continue
            for fname in _dataclass_fields(node):
                value = getattr(node, fname, None)
                if isinstance(value, (tuple, list)):
                    stack.extend(v for v in value if _is_stmt_like(v))
                elif _is_stmt_like(value):
                    stack.append(value)
    return EffectSummary(name=name, file=file, line=line, ops=tuple(ops))


def _dataclass_fields(node: Any) -> Tuple[str, ...]:
    fields = getattr(type(node), "__dataclass_fields__", None)
    return tuple(fields) if fields else ()


def _is_stmt_like(value: Any) -> bool:
    """AST nodes worth descending into: dataclasses that are not leaves."""
    if value is None or isinstance(
        value, (str, int, float, bool, bytes, frozenset)
    ):
        return False
    return hasattr(type(value), "__dataclass_fields__")


# --- transitive emit closure -------------------------------------------------


def may_emit(
    fn_or_impl: Any,
    prim_lookup: Optional[Callable[[str], Any]] = None,
    _seen: Optional[set] = None,
    local_lookup: Optional[Callable[[str], Any]] = None,
) -> Tuple[FrozenSet[str], bool]:
    """``(names, exact)`` — every event name the code can append.

    Resolves ``ctx.call`` sites through ``prim_lookup`` (the underlay)
    into the callee specification's own emits, recursively; directly
    referenced Python functions (helpers, linked players, private-prim
    payloads) are included too.  ``exact`` is False as soon as any emit
    name, callee, or referenced object resists static resolution — in
    which case producibility rules must stay silent.
    """
    seen = _seen if _seen is not None else set()
    key = id(fn_or_impl)
    if key in seen:
        return frozenset(), True
    seen.add(key)

    if hasattr(fn_or_impl, "player"):  # FuncImpl
        summary = analyze_impl(fn_or_impl)
    elif hasattr(fn_or_impl, "spec"):  # Prim
        return may_emit(fn_or_impl.spec, prim_lookup, seen, local_lookup)
    elif callable(fn_or_impl):
        summary = analyze_function(fn_or_impl)
    else:
        return frozenset(), False

    names = set(summary.emits)
    exact = not summary.dynamic_emit
    for kind, callee, _nargs, _line in summary.ops:
        if kind == OP_CALL:
            if callee is None:
                exact = False
                continue
            target = None
            if local_lookup is not None:
                target = local_lookup(callee)
            if target is None and prim_lookup is not None:
                target = prim_lookup(callee)
            if target is None:
                exact = False
                continue
            sub, sub_exact = may_emit(target, prim_lookup, seen, local_lookup)
            names |= sub
            exact &= sub_exact
        elif kind == OP_LOCAL_CALL:
            target = local_lookup(callee) if (
                local_lookup is not None and callee is not None
            ) else None
            if target is None:
                exact = False
                continue
            sub, sub_exact = may_emit(target, prim_lookup, seen, local_lookup)
            names |= sub
            exact &= sub_exact
    for ref in summary.referenced_fns:
        sub, sub_exact = may_emit(ref, prim_lookup, seen, local_lookup)
        names |= sub
        exact &= sub_exact
    return frozenset(names), exact

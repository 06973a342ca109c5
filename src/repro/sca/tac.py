"""Three-address code (TAC) intermediate representation.

The paper's static code analysis operates on typed three-address code
produced from Java bytecode (Section 5).  We define the equivalent IR here:

* a small instruction set covering assignments, arithmetic, branches,
  iteration, opaque value calls, and the record API
  (``getField``/``setField``/copy/projection/concat constructors/``emit``);
* a textual parser so UDFs can be written exactly like the paper's
  Section 3 listings (including the ``if $a < 0 goto L`` sugar, which is
  lowered to a compare followed by a branch);
* :class:`TACFunction`, the unit the analyzer, interpreter, and the
  CPython bytecode front-end all share.
"""

from __future__ import annotations

import dataclasses
import re
from dataclasses import dataclass, field
from typing import Any, Callable

from ..core.errors import AnalysisError

# ---------------------------------------------------------------------------
# Operands
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Var:
    """A TAC variable reference."""

    name: str

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


@dataclass(frozen=True, slots=True)
class Lit:
    """A literal constant operand."""

    value: Any

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return repr(self.value)


Operand = Var | Lit


@dataclass(frozen=True, slots=True)
class FuncRef:
    """Compile-time reference to an opaque helper callable."""

    name: str


# ---------------------------------------------------------------------------
# Instructions
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Instr:
    """Base class for TAC instructions."""

    def defined_var(self) -> str | None:
        return getattr(self, "dst", None)

    def used_operands(self) -> tuple[Operand, ...]:
        return ()


@dataclass(frozen=True, slots=True)
class Const(Instr):
    dst: str
    value: Any


@dataclass(frozen=True, slots=True)
class Assign(Instr):
    dst: str
    src: Operand

    def used_operands(self) -> tuple[Operand, ...]:
        return (self.src,)


@dataclass(frozen=True, slots=True)
class BinOp(Instr):
    dst: str
    op: str
    left: Operand
    right: Operand

    def used_operands(self) -> tuple[Operand, ...]:
        return (self.left, self.right)


@dataclass(frozen=True, slots=True)
class UnOp(Instr):
    dst: str
    op: str
    operand: Operand

    def used_operands(self) -> tuple[Operand, ...]:
        return (self.operand,)


@dataclass(frozen=True, slots=True)
class GetField(Instr):
    """``dst := getField(rec, pos)`` — the record API read accessor."""

    dst: str
    rec: Var
    pos: Operand

    def used_operands(self) -> tuple[Operand, ...]:
        return (self.rec, self.pos)


@dataclass(frozen=True, slots=True)
class SetField(Instr):
    """``setField(rec, pos, value)`` — the record API write accessor."""

    rec: Var
    pos: Operand
    value: Operand

    def used_operands(self) -> tuple[Operand, ...]:
        return (self.rec, self.pos, self.value)


@dataclass(frozen=True, slots=True)
class CopyRec(Instr):
    """``dst := copy(src)`` — implicit-copy output record constructor."""

    dst: str
    src: Var

    def used_operands(self) -> tuple[Operand, ...]:
        return (self.src,)


@dataclass(frozen=True, slots=True)
class NewRec(Instr):
    """``dst := newrec(src)`` — implicit-projection output constructor."""

    dst: str
    src: Var

    def used_operands(self) -> tuple[Operand, ...]:
        return (self.src,)


@dataclass(frozen=True, slots=True)
class ConcatRec(Instr):
    """``dst := concat(a, b)`` — binary concatenation constructor."""

    dst: str
    left: Var
    right: Var

    def used_operands(self) -> tuple[Operand, ...]:
        return (self.left, self.right)


@dataclass(frozen=True, slots=True)
class Emit(Instr):
    rec: Var

    def used_operands(self) -> tuple[Operand, ...]:
        return (self.rec,)


@dataclass(frozen=True, slots=True)
class Call(Instr):
    """Opaque value-level call; ``dst`` may be ``None`` for discarded results."""

    dst: str | None
    func: str
    args: tuple[Operand, ...]

    def defined_var(self) -> str | None:
        return self.dst

    def used_operands(self) -> tuple[Operand, ...]:
        return self.args


@dataclass(frozen=True, slots=True)
class GetItem(Instr):
    dst: str
    seq: Var
    index: Operand

    def used_operands(self) -> tuple[Operand, ...]:
        return (self.seq, self.index)


@dataclass(frozen=True, slots=True)
class IterNew(Instr):
    dst: str
    src: Operand

    def used_operands(self) -> tuple[Operand, ...]:
        return (self.src,)


@dataclass(frozen=True, slots=True)
class IterNext(Instr):
    """Advance an iterator; jump to ``exhausted_target`` when done."""

    dst: str
    iterator: Var
    exhausted_target: int

    def used_operands(self) -> tuple[Operand, ...]:
        return (self.iterator,)


@dataclass(frozen=True, slots=True)
class IfTrue(Instr):
    cond: Operand
    target: int

    def used_operands(self) -> tuple[Operand, ...]:
        return (self.cond,)


@dataclass(frozen=True, slots=True)
class IfFalse(Instr):
    cond: Operand
    target: int

    def used_operands(self) -> tuple[Operand, ...]:
        return (self.cond,)


@dataclass(frozen=True, slots=True)
class Goto(Instr):
    target: int


@dataclass(frozen=True, slots=True)
class Return(Instr):
    pass


def jump_targets(instr: Instr) -> tuple[int, ...]:
    if isinstance(instr, (IfTrue, IfFalse)):
        return (instr.target,)
    if isinstance(instr, IterNext):
        return (instr.exhausted_target,)
    if isinstance(instr, Goto):
        return (instr.target,)
    return ()


def falls_through(instr: Instr) -> bool:
    return not isinstance(instr, (Goto, Return))


# ---------------------------------------------------------------------------
# TACFunction
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class TACFunction:
    """A UDF in three-address-code form.

    ``params`` are the record-bearing parameters (the collector is implicit:
    emission is the ``Emit`` instruction).  ``env`` maps opaque call names to
    Python callables so TAC functions remain executable.
    """

    name: str
    params: tuple[str, ...]
    instructions: tuple[Instr, ...]
    env: dict[str, Callable] = field(default_factory=dict)

    def __post_init__(self) -> None:
        n = len(self.instructions)
        for idx, instr in enumerate(self.instructions):
            for target in jump_targets(instr):
                if target < 0 or target > n:
                    raise AnalysisError(
                        f"{self.name}: instruction {idx} jumps to invalid "
                        f"target {target}"
                    )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TACFunction({self.name}, {len(self.instructions)} instrs)"


# ---------------------------------------------------------------------------
# Textual parser (paper-style listings)
# ---------------------------------------------------------------------------

_TOKEN_NUM = re.compile(r"^-?\d+(\.\d+)?$")
_TOKEN_STR = re.compile(r"^'([^']*)'$")
_LABEL = re.compile(r"^(\w+):$")
_HEADER = re.compile(r"^(\w+)\(([^)]*)\):?$")

_BINOPS = ("<=", ">=", "==", "!=", "<", ">", "+", "-", "*", "//", "/", "%")


def _parse_operand(token: str) -> Operand:
    token = token.strip()
    if token.startswith("$"):
        return Var(token)
    if _TOKEN_NUM.match(token):
        return Lit(float(token) if "." in token else int(token))
    m = _TOKEN_STR.match(token)
    if m:
        return Lit(m.group(1))
    if token == "true":
        return Lit(True)
    if token == "false":
        return Lit(False)
    if token == "null":
        return Lit(None)
    raise AnalysisError(f"cannot parse operand {token!r}")


def _split_args(argstr: str) -> list[str]:
    return [a.strip() for a in argstr.split(",")] if argstr.strip() else []


class _LabelRef:
    """Placeholder for a not-yet-resolved jump target."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name


def parse_tac(text: str, env: dict[str, Callable] | None = None) -> TACFunction:
    """Parse a textual TAC listing into a :class:`TACFunction`.

    The syntax mirrors the paper's Section 3 examples::

        f2(InputRecord $ir):
            $a := getField($ir, 0)
            if $a < 0 goto L1
            $or := copy($ir)
            emit($or)
        L1:
            return
    """
    lines = [ln.strip() for ln in text.strip().splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise AnalysisError("empty TAC listing")

    header = _HEADER.match(lines[0])
    if not header:
        raise AnalysisError(f"bad TAC header: {lines[0]!r}")
    name = header.group(1)
    params = []
    for part in _split_args(header.group(2)):
        pieces = part.split()
        params.append(pieces[-1])  # drop optional type annotation

    labels: dict[str, int] = {}
    instrs: list[Instr] = []
    temp_counter = [0]
    for ln in lines[1:]:
        m = _LABEL.match(ln)
        if m:
            labels[m.group(1)] = len(instrs)
            continue
        instrs.extend(_parse_statement(ln, temp_counter))

    resolved: list[Instr] = []
    for idx, instr in enumerate(instrs):
        resolved.append(_resolve_targets(instr, labels, name, idx))
    return TACFunction(name, tuple(params), tuple(resolved), env or {})


def _resolve_targets(instr: Instr, labels: dict[str, int], fname: str, idx: int) -> Instr:
    def resolve(value):
        if isinstance(value, _LabelRef):
            if value.name not in labels:
                raise AnalysisError(
                    f"{fname}: instruction {idx} jumps to unknown label "
                    f"{value.name!r}"
                )
            return labels[value.name]
        return value

    if isinstance(instr, (IfTrue, IfFalse, Goto)):
        return dataclasses.replace(instr, target=resolve(instr.target))
    if isinstance(instr, IterNext):
        return dataclasses.replace(
            instr, exhausted_target=resolve(instr.exhausted_target)
        )
    return instr


def _fresh_temp(counter: list[int]) -> str:
    counter[0] += 1
    return f"$cmp{counter[0]}"


def _parse_statement(ln: str, temp_counter: list[int]) -> list[Instr]:
    if ln == "return":
        return [Return()]
    if ln.startswith("goto "):
        return [Goto(_LabelRef(ln[5:].strip()))]  # type: ignore[arg-type]
    if ln.startswith("emit(") and ln.endswith(")"):
        return [Emit(Var(ln[5:-1].strip()))]
    if ln.startswith("setField(") and ln.endswith(")"):
        args = _split_args(ln[len("setField(") : -1])
        if len(args) != 3:
            raise AnalysisError(f"setField needs 3 arguments: {ln!r}")
        return [
            SetField(Var(args[0]), _parse_operand(args[1]), _parse_operand(args[2]))
        ]
    if ln.startswith("if ") or ln.startswith("ifnot "):
        negate = ln.startswith("ifnot ")
        rest = ln[6:] if negate else ln[3:]
        if " goto " not in rest:
            raise AnalysisError(f"malformed branch: {ln!r}")
        cond_str, label = rest.rsplit(" goto ", 1)
        cond_str = cond_str.strip()
        target = _LabelRef(label.strip())
        for op in _BINOPS:
            padded = f" {op} "
            if padded in cond_str:
                left, right = cond_str.split(padded, 1)
                tmp = _fresh_temp(temp_counter)
                compare = BinOp(tmp, op, _parse_operand(left), _parse_operand(right))
                branch_cls = IfFalse if negate else IfTrue
                return [compare, branch_cls(Var(tmp), target)]  # type: ignore[arg-type]
        cond = _parse_operand(cond_str)
        branch_cls = IfFalse if negate else IfTrue
        return [branch_cls(cond, target)]  # type: ignore[arg-type]
    if ":=" in ln:
        dst_str, rhs = ln.split(":=", 1)
        dst = dst_str.strip()
        if not dst.startswith("$"):
            raise AnalysisError(f"destination must be a $variable: {ln!r}")
        rhs = rhs.strip()
        if rhs.startswith("next(") and " else " in rhs:
            call_part, label = rhs.rsplit(" else ", 1)
            if not call_part.endswith(")"):
                raise AnalysisError(f"malformed next: {ln!r}")
            it = call_part[len("next(") : -1].strip()
            return [IterNext(dst, Var(it), _LabelRef(label.strip()))]  # type: ignore[arg-type]
        return [_parse_rhs(dst, rhs)]
    raise AnalysisError(f"cannot parse statement {ln!r}")


def _parse_rhs(dst: str, rhs: str) -> Instr:
    for fname, cls in (("getField", GetField), ("getitem", GetItem)):
        if rhs.startswith(fname + "(") and rhs.endswith(")"):
            args = _split_args(rhs[len(fname) + 1 : -1])
            if len(args) != 2:
                raise AnalysisError(f"{fname} needs 2 arguments: {rhs!r}")
            return cls(dst, Var(args[0]), _parse_operand(args[1]))
    for fname in ("copy", "newrec", "iter"):
        if rhs.startswith(fname + "(") and rhs.endswith(")"):
            args = _split_args(rhs[len(fname) + 1 : -1])
            if len(args) != 1:
                raise AnalysisError(f"{fname} needs 1 argument: {rhs!r}")
            operand = _parse_operand(args[0])
            if fname == "iter":
                return IterNew(dst, operand)
            if not isinstance(operand, Var):
                raise AnalysisError(f"{fname} needs a variable: {rhs!r}")
            return CopyRec(dst, operand) if fname == "copy" else NewRec(dst, operand)
    if rhs.startswith("concat(") and rhs.endswith(")"):
        args = _split_args(rhs[len("concat(") : -1])
        if len(args) != 2:
            raise AnalysisError(f"concat needs 2 arguments: {rhs!r}")
        return ConcatRec(dst, Var(args[0]), Var(args[1]))
    if rhs.startswith("call "):
        m = re.match(r"^call\s+(\w+)\(([^)]*)\)$", rhs)
        if not m:
            raise AnalysisError(f"malformed call: {rhs!r}")
        args = tuple(_parse_operand(a) for a in _split_args(m.group(2)))
        return Call(dst, m.group(1), args)
    for op in _BINOPS:
        padded = f" {op} "
        if padded in rhs:
            left, right = rhs.split(padded, 1)
            return BinOp(dst, op, _parse_operand(left), _parse_operand(right))
    if rhs.startswith("-") and rhs[1:].strip().startswith("$"):
        return UnOp(dst, "neg", _parse_operand(rhs[1:].strip()))
    if rhs.startswith("not "):
        return UnOp(dst, "not", _parse_operand(rhs[4:].strip()))
    operand = _parse_operand(rhs)
    if isinstance(operand, Lit):
        return Const(dst, operand.value)
    return Assign(dst, operand)

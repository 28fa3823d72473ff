"""Guard predicates over finite-domain variables.

Guards label the branch flows of alternative and loop states. They are
boolean expressions in a deliberately small language:

    expr := 'true' | var | var '==' literal | 'not' expr
          | expr 'and' expr | expr 'or' expr | '(' expr ')'

Literals are integers or the keywords true/false. Bare variables must be
bound to booleans. Domains are finite, so every assignment of a guard's
variables can be enumerated.
"""

from __future__ import annotations

import itertools
import re
from typing import Iterator, Union

Value = Union[bool, int]


class PredicateError(ValueError):
    """Malformed predicate text or evaluation failure."""


class UnboundVariableError(PredicateError):
    """A predicate referenced a variable absent from the environment."""


class _Frozen:
    """An immutable record: its fields are the slots `_fields` names.
    Assignment and deletion are refused, so `__init__` fills the slots
    through object's `__setattr__` or the slots' descriptors. The repr
    lists the fields."""

    __slots__ = _fields = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__name__}({fields})"


class _FrozenValue(_Frozen):
    """A frozen record that is a value: equal only to a record of its own
    class with equal fields, and hashed as the tuple of its fields."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        # the class test keeps And(a, b) != Or(a, b)
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self):
        # copy and pickle rebuild a value through __init__, not __setattr__
        return self.__class__, self._values()


# a record's own __setattr__ refuses, so __init__ fills the slots through object's
_set = object.__setattr__


class TrueLit(_FrozenValue):
    __slots__ = ()


class Var(_FrozenValue):
    __slots__ = _fields = ("name",)

    def __init__(self, name: str):
        _set(self, "name", name)


class Eq(_FrozenValue):
    __slots__ = _fields = ("name", "value")

    def __init__(self, name: str, value: Value):
        _set(self, "name", name)
        _set(self, "value", value)


class Not(_FrozenValue):
    __slots__ = _fields = ("inner",)

    def __init__(self, inner: Pred):
        _set(self, "inner", inner)


class _Binary(_FrozenValue):
    __slots__ = _fields = ("left", "right")

    def __init__(self, left: Pred, right: Pred):
        _set(self, "left", left)
        _set(self, "right", right)


class And(_Binary):
    __slots__ = ()


class Or(_Binary):
    __slots__ = ()


Pred = Union[TrueLit, Var, Eq, Not, And, Or]

TRUE = TrueLit()

_TOKEN = re.compile(r"\s*(==|\(|\)|-?\d+|[A-Za-z_][A-Za-z0-9_]*)")
_KEYWORDS = {"true", "false", "not", "and", "or"}


def _tokenize(text: str) -> list[str]:
    tokens, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise PredicateError(f"bad character in predicate at {text[pos:]!r}")
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


# The deepest nesting parse_predicate accepts: a variable test is one
# level; `not`, `and`, `or` and parentheses each add one above their
# operands. The parser and every walk over a predicate recurse per level.
MAX_DEPTH = 100


def _above(*depths: int) -> int:
    depth = max(depths) + 1
    if depth > MAX_DEPTH:
        raise PredicateError(f"predicate nests deeper than {MAX_DEPTH} levels")
    return depth


class _Parser:
    # each rule returns its node and the node's depth

    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0
        self.open = 0  # `not`s and parentheses around the current token

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise PredicateError("unexpected end of predicate")
        self.pos += 1
        return tok

    def parse(self) -> Pred:
        node, _ = self.or_expr()
        if self.peek() is not None:
            raise PredicateError(f"trailing tokens after predicate: {self.tokens[self.pos:]}")
        return node

    def or_expr(self) -> tuple[Pred, int]:
        node, depth = self.and_expr()
        while self.peek() == "or":
            self.take()
            right, right_depth = self.and_expr()
            node, depth = Or(node, right), _above(depth, right_depth)
        return node, depth

    def and_expr(self) -> tuple[Pred, int]:
        node, depth = self.unary()
        while self.peek() == "and":
            self.take()
            right, right_depth = self.unary()
            node, depth = And(node, right), _above(depth, right_depth)
        return node, depth

    def unary(self) -> tuple[Pred, int]:
        if self.peek() == "not":
            self.take()
            self.open = _above(self.open)
            inner, depth = self.unary()
            self.open -= 1
            return Not(inner), _above(depth)
        return self.atom()

    def atom(self) -> tuple[Pred, int]:
        tok = self.take()
        if tok == "(":
            self.open = _above(self.open)
            node, depth = self.or_expr()
            if self.take() != ")":
                raise PredicateError("unbalanced parenthesis")
            self.open -= 1
            return node, _above(depth)
        if tok == "true":
            return TRUE, 1
        if tok in _KEYWORDS or tok in {"==", ")"} or re.fullmatch(r"-?\d+", tok):
            raise PredicateError(f"unexpected token {tok!r}")
        if self.peek() == "==":
            self.take()
            return Eq(tok, self._literal()), 1
        return Var(tok), 1

    def _literal(self) -> Value:
        tok = self.take()
        if tok == "true":
            return True
        if tok == "false":
            return False
        if re.fullmatch(r"-?\d+", tok):
            return int(tok)
        raise PredicateError(f"expected literal after '==', got {tok!r}")


def parse_predicate(text: str) -> Pred:
    return _Parser(_tokenize(text)).parse()


def _prec(p: Pred) -> int:
    if isinstance(p, Or):
        return 1
    if isinstance(p, And):
        return 2
    if isinstance(p, Not):
        return 3
    return 4


def to_text(p: Pred) -> str:
    """Canonical text form; parse_predicate(to_text(p)) == p for any tree."""
    if isinstance(p, TrueLit):
        return "true"
    if isinstance(p, Var):
        return p.name
    if isinstance(p, Eq):
        lit = {True: "true", False: "false"}.get(p.value) if isinstance(p.value, bool) else str(p.value)
        return f"{p.name} == {lit}"
    if isinstance(p, Not):
        inner = to_text(p.inner)
        return f"not ({inner})" if _prec(p.inner) < 3 else f"not {inner}"
    if isinstance(p, (And, Or)):
        op = "and" if isinstance(p, And) else "or"
        mine = _prec(p)
        lt = to_text(p.left)
        rt = to_text(p.right)
        # left-assoc grammar: parenthesize a right child of equal precedence
        if _prec(p.left) < mine:
            lt = f"({lt})"
        if _prec(p.right) <= mine:
            rt = f"({rt})"
        return f"{lt} {op} {rt}"
    raise TypeError(f"not a predicate node: {p!r}")


def strict_eq(a: Value, b: Value) -> bool:
    # avoid True == 1 surprises across bool/int domains
    return isinstance(a, bool) == isinstance(b, bool) and a == b


def eval_pred(p: Pred, env: dict[str, Value]) -> bool:
    if isinstance(p, TrueLit):
        return True
    if isinstance(p, Var):
        if p.name not in env:
            raise UnboundVariableError(p.name)
        val = env[p.name]
        if not isinstance(val, bool):
            raise PredicateError(f"variable {p.name!r} used as boolean but bound to {val!r}")
        return val
    if isinstance(p, Eq):
        if p.name not in env:
            raise UnboundVariableError(p.name)
        return strict_eq(env[p.name], p.value)
    if isinstance(p, Not):
        return not eval_pred(p.inner, env)
    if isinstance(p, And):
        return eval_pred(p.left, env) and eval_pred(p.right, env)
    if isinstance(p, Or):
        return eval_pred(p.left, env) or eval_pred(p.right, env)
    raise TypeError(f"not a predicate node: {p!r}")


def free_vars(p: Pred) -> frozenset[str]:
    if isinstance(p, (Var, Eq)):
        return frozenset([p.name])
    if isinstance(p, Not):
        return free_vars(p.inner)
    if isinstance(p, (And, Or)):
        return free_vars(p.left) | free_vars(p.right)
    return frozenset()


def bool_vars(p: Pred) -> frozenset[str]:
    """The variables p tests as booleans: bare, not compared with `==`."""
    if isinstance(p, Var):
        return frozenset([p.name])
    if isinstance(p, Not):
        return bool_vars(p.inner)
    if isinstance(p, (And, Or)):
        return bool_vars(p.left) | bool_vars(p.right)
    return frozenset()


def assignments(domains: dict[str, tuple[Value, ...]]) -> Iterator[dict[str, Value]]:
    """All total assignments over the given finite domains, in a stable order."""
    names = sorted(domains)
    for combo in itertools.product(*(domains[n] for n in names)):
        yield dict(zip(names, combo))

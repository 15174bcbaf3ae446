"""Compiling SchemaSQL_d into the tabular algebra.

The same route as Theorem 4.5: a query is a conjunctive expression over
the flattened ``Facts(Rel, Tid, Attr, Val)`` relation, compiled through
FO + while + new (here: FO only — SchemaSQL_d queries are nonrecursive)
into tabular algebra by the Theorem 4.1 compiler.

Copy plan: one ``Facts`` copy per access pair (tuple variable × attribute
term), plus one anchor copy for every tuple variable, relation variable,
or attribute variable that no access pair covers.  Shared variables become
equality selections; literal relation/attribute names become constant
selections; WHERE ``=``/``<>`` become (differences over) selections; the
SELECT list projects, renames to the aliases, and extends with constant
columns for literals.
"""

from __future__ import annotations

from ..core import EvaluationError, Name, Symbol
from ..algebra.programs import Program
from ..relational import (
    Assign,
    ConstColumn,
    Difference,
    Expr,
    FWProgram,
    Product,
    Project,
    Rel,
    RenameAttr,
    SelectConst,
    SelectEq,
    compile_program as compile_fw_to_ta,
)
from ..schemalog import FACTS_SCHEMA
from .ast import (
    AttrVarDecl,
    ColumnRef,
    Condition,
    Expression,
    Literal,
    RelVarDecl,
    SchemaSQLQuery,
    TupleVarDecl,
    VarRef,
)
from .evaluate import QueryInfo, validate_query

__all__ = ["query_to_expression", "compile_to_fw", "compile_to_ta"]

FACTS = "Facts"


class _Plan:
    """Columns of the big conjunctive expression."""

    def __init__(self, info: QueryInfo):
        self.info = info
        self.copies: list[dict] = []  # one entry per Facts copy
        self.pair_column: dict[tuple, str] = {}  # access pair -> V column
        self.var_column: dict[str, str] = {}  # rel/attr var -> column

    def new_copy(self) -> tuple[str, str, str, str]:
        index = len(self.copies)
        columns = (f"R{index}", f"T{index}", f"A{index}", f"V{index}")
        self.copies.append({})
        return columns


def _build_expression(info: QueryInfo) -> tuple[Expr, _Plan]:
    plan = _Plan(info)
    equalities: list[tuple[str, str]] = []
    constants: list[tuple[str, Symbol]] = []

    tuple_rel_col: dict[str, str] = {}
    tuple_tid_col: dict[str, str] = {}

    def anchor_tuple_var(var: str, rel_col: str, tid_col: str) -> None:
        decl = info.tuple_vars[var]
        if var in tuple_tid_col:
            equalities.append((tuple_tid_col[var], tid_col))
            equalities.append((tuple_rel_col[var], rel_col))
            return
        tuple_tid_col[var] = tid_col
        tuple_rel_col[var] = rel_col
        if decl.source_is_var:
            if decl.source in plan.var_column:
                equalities.append((plan.var_column[decl.source], rel_col))
            else:
                plan.var_column[decl.source] = rel_col
        else:
            constants.append((rel_col, Name(decl.source)))

    expr: Expr | None = None

    def add_copy() -> tuple[str, str, str, str]:
        nonlocal expr
        columns = plan.new_copy()
        copy: Expr = Rel(FACTS)
        for attr, column in zip(FACTS_SCHEMA, columns):
            copy = RenameAttr(copy, attr, column)
        expr = copy if expr is None else Product(expr, copy)
        return columns

    # one copy per access pair
    for pair in info.access_pairs:
        tuple_var, attr, attr_is_var = pair
        rel_col, tid_col, attr_col, val_col = add_copy()
        anchor_tuple_var(tuple_var, rel_col, tid_col)
        plan.pair_column[pair] = val_col
        if attr_is_var:
            if attr in plan.var_column:
                equalities.append((plan.var_column[attr], attr_col))
            else:
                plan.var_column[attr] = attr_col
                # tie the attribute variable to its declared source below
        else:
            constants.append((attr_col, Name(attr)))

    # anchors for tuple variables never accessed
    for var in info.tuple_vars:
        if var not in tuple_tid_col:
            rel_col, tid_col, _attr_col, _val_col = add_copy()
            anchor_tuple_var(var, rel_col, tid_col)

    # anchors and domain constraints for attribute variables
    for var, decl in info.attr_vars.items():
        rel_col, _tid_col, attr_col, _val_col = add_copy()
        if var in plan.var_column:
            equalities.append((plan.var_column[var], attr_col))
        else:
            plan.var_column[var] = attr_col
        if decl.source_is_var:
            if decl.source in plan.var_column:
                equalities.append((plan.var_column[decl.source], rel_col))
            else:
                plan.var_column[decl.source] = rel_col
        else:
            constants.append((rel_col, Name(decl.source)))

    # anchors for relation variables never touched
    for var in info.rel_vars:
        if var not in plan.var_column:
            rel_col, _tid_col, _attr_col, _val_col = add_copy()
            plan.var_column[var] = rel_col

    assert expr is not None  # queries have at least one FROM item
    for column, symbol in constants:
        expr = SelectConst(expr, column, symbol)
    for left, right in equalities:
        expr = SelectEq(expr, left, right)
    return expr, plan


def _expression_column(expression: Expression, plan: _Plan) -> str | None:
    """The column an expression reads, or None for literals."""
    if isinstance(expression, Literal):
        return None
    if isinstance(expression, VarRef):
        return plan.var_column[expression.var]
    assert isinstance(expression, ColumnRef)
    return plan.pair_column[
        (expression.tuple_var, expression.attr, expression.attr_is_var)
    ]


def _apply_condition(expr: Expr, condition: Condition, plan: _Plan) -> Expr:
    left_col = _expression_column(condition.left, plan)
    right_col = _expression_column(condition.right, plan)

    def equal(e: Expr) -> Expr:
        if left_col is None and right_col is None:
            same = condition.left.symbol == condition.right.symbol  # type: ignore[union-attr]
            return e if same else Difference(e, e)
        if left_col is None:
            return SelectConst(e, right_col, condition.left.symbol)  # type: ignore[union-attr]
        if right_col is None:
            return SelectConst(e, left_col, condition.right.symbol)  # type: ignore[union-attr]
        return SelectEq(e, left_col, right_col)

    if condition.op == "=":
        return equal(expr)
    return Difference(expr, equal(expr))


def query_to_expression(query: SchemaSQLQuery) -> Expr:
    """The relational expression computing the query's result.

    Output schema: the SELECT aliases, in order.
    """
    info = validate_query(query)
    expr, plan = _build_expression(info)
    for condition in query.where:
        expr = _apply_condition(expr, condition, plan)

    used: list[str] = []
    slots: list[tuple[str, str]] = []  # (alias, source column)
    const_slots: list[tuple[str, Symbol]] = []
    duplicates = 0
    for item in query.select:
        column = _expression_column(item.expression, plan)
        if column is None:
            const_slots.append((item.alias, item.expression.symbol))  # type: ignore[union-attr]
            continue
        if column in used:
            dup = f"D{duplicates}"
            duplicates += 1
            copy = RenameAttr(Project(expr, [column]), column, dup)
            expr = SelectEq(Product(expr, copy), column, dup)
            column = dup
        used.append(column)
        slots.append((item.alias, column))

    expr = Project(expr, [column for (_a, column) in slots])
    for alias, column in slots:
        expr = RenameAttr(expr, column, alias)
    for alias, symbol in const_slots:
        expr = ConstColumn(expr, alias, symbol)
    return Project(expr, [item.alias for item in query.select])


def compile_to_fw(query: SchemaSQLQuery) -> FWProgram:
    """The FO + while + new program binding the INTO relation."""
    from ..context import current
    from ..obs.trace import NULL_SPAN as _NULL_SPAN

    ctx = current()
    if ctx.governor is not None:
        ctx.governor.check(op="compile.schemasql")
    with (
        ctx.tracer.span(
            "compile.schemasql",
            select_items=len(query.select),
            conditions=len(query.where),
        )
        if ctx.tracer is not None
        else _NULL_SPAN
    ):
        return FWProgram([Assign(query.into, query_to_expression(query))])


def compile_to_ta(query: SchemaSQLQuery) -> Program:
    """The tabular algebra program computing the query over ``Facts``."""
    return compile_fw_to_ta(compile_to_fw(query), {FACTS: FACTS_SCHEMA})

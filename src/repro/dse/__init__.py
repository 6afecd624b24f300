"""Design-space exploration: sweeps, evaluation, Pareto fronts, reports."""

from repro.dse.explorer import (
    sparse_a_space,
    sparse_ab_space,
    sparse_b_space,
)
from repro.dse.evaluate import (
    BaselineDesign,
    ConfigDesign,
    Design,
    DesignEvaluation,
    DesignLike,
    EvalSettings,
    GriffinDesign,
    as_design,
    category_speedup,
    category_speedups,
    evaluate_design,
    evaluate_designs,
    parse_design,
)
from repro.dse.figures import bar_chart, scatter_plot
from repro.dse.pareto import dominates, pareto_front, pareto_ranks
from repro.dse.report import format_table, select_optimal

__all__ = [
    "sparse_a_space",
    "sparse_b_space",
    "sparse_ab_space",
    "EvalSettings",
    "Design",
    "DesignLike",
    "ConfigDesign",
    "GriffinDesign",
    "BaselineDesign",
    "DesignEvaluation",
    "as_design",
    "parse_design",
    "category_speedup",
    "category_speedups",
    "evaluate_design",
    "evaluate_designs",
    "dominates",
    "pareto_front",
    "pareto_ranks",
    "bar_chart",
    "scatter_plot",
    "format_table",
    "select_optimal",
]

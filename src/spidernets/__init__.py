"""Spider graphs: construction, exact indicators, and small-world asymptotics."""

from spidernets.closed_form import (
    ConsistencyError,
    alpha_runs,
    closed_form_report,
    delta_groups,
    density_closed,
    diameter_closed,
    gamma_groups,
    h_index_closed,
)
from spidernets.graph_core import (
    Graph,
    Indicators,
    all_indicators,
    h_index_of_groups,
)
from spidernets.small_world import (
    GrowthDirection,
    SmallWorldNotion,
    SmallWorldVerdict,
    classify,
    ratio_steps,
    verdict_table,
)
from spidernets.spiders import (
    SpiderParams,
    build_spider,
    edge_count,
    export_spider,
    node_count,
    normalize,
    pair_count,
)

__all__ = [
    "ConsistencyError",
    "Graph",
    "GrowthDirection",
    "Indicators",
    "SmallWorldNotion",
    "SmallWorldVerdict",
    "SpiderParams",
    "all_indicators",
    "alpha_runs",
    "build_spider",
    "classify",
    "closed_form_report",
    "delta_groups",
    "density_closed",
    "diameter_closed",
    "edge_count",
    "export_spider",
    "gamma_groups",
    "h_index_closed",
    "h_index_of_groups",
    "node_count",
    "normalize",
    "pair_count",
    "ratio_steps",
    "verdict_table",
]

import itertools

from hypothesis import strategies as st

from references import build_graph
from spidernets.spiders import normalize


@st.composite
def graphs(draw, max_nodes=20):
    """Arbitrary simple graphs, connected or not."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    pairs = list(itertools.combinations(range(n), 2))
    if not pairs:
        return build_graph(n, [])
    edges = draw(st.lists(st.sampled_from(pairs), max_size=min(len(pairs), 60)))
    return build_graph(n, edges)


@st.composite
def connected_graphs(draw, max_nodes=16):
    """Connected graphs built from a random spanning tree plus extra edges."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    edges = []
    for v in range(1, n):
        u = draw(st.integers(min_value=0, max_value=v - 1))
        edges.append((u, v))
    pairs = list(itertools.combinations(range(n), 2))
    extra = draw(st.lists(st.sampled_from(pairs), max_size=30)) if pairs else []
    return build_graph(n, edges + extra)


spider_params = st.builds(
    normalize,
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=5),
)


def _expand(groups) -> tuple[int, ...]:
    """The array that non-increasing (value, count) groups stand for."""
    values: list[int] = []
    for value, count in groups:
        values += [value] * count
    return tuple(values)


def _expand_runs(runs) -> tuple[int, ...]:
    """The array that linear runs (first, last, a, b) stand for."""
    return tuple(a + b * j for first, last, a, b in runs for j in range(first, last + 1))


def format_array(values) -> str:
    """An array as the CLI prints it: its entries space-separated."""
    return " ".join(str(v) for v in values)

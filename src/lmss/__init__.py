"""Local maximum stable set families, greedoid checks, graph compositions."""

from types import ModuleType as _ModuleType

from .graph import (
    FIXTURE_NAMES,
    EdgeListError,
    Graph,
    Graph6Error,
    closed_neighborhood,
    complete,
    cycle,
    edge_count,
    edgeless,
    format_vertex_set,
    from_edge_list,
    is_complete,
    is_connected,
    is_tree,
    labeled_trees,
    named_fixture,
    parse_edge_list_text,
    parse_graph6,
    parse_vertex_set,
    path,
    random_graph,
    random_tree,
    to_graph6,
    tree_from_pruefer,
)
from .greedoid import (
    ACCESSIBILITY_FAIL,
    EXCHANGE_FAIL,
    GREEDOID,
    GreedoidVerdict,
    accessibility_chain,
    check_accessibility,
    check_exchange,
    is_greedoid,
)
from .ops import (
    CompositeGraph,
    composition,
    corona,
    disjoint_union,
    lexicographic_product,
    zykov_sum,
)
from .stable import (
    SetFamily,
    alpha,
    enumerate_stable_sets,
    is_local_max_stable,
    is_stable,
    min_nonempty_size,
    omega,
    psi,
)
from .theorems import (
    THEOREM_IDS,
    TheoremReport,
    corpus_graphs,
    corpus_upto,
    instance_from_graphs,
    run_on_instance,
    sweep,
    verify_composition_specializations,
    verify_corona_corollary,
    verify_corona_lemma,
    verify_corona_theorem,
    verify_nemhauser_trotter,
    verify_tree_greedoid,
    verify_union_prop,
    verify_zykov_bound,
    verify_zykov_characterization,
)

__all__ = [name for name in dir()
           if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)]
__version__ = "0.1.0"

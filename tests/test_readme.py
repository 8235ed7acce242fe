"""README's library example runs as written, against a pinned public surface."""

import re
import subprocess
import sys
from pathlib import Path

import lmss

ROOT = Path(__file__).resolve().parent.parent


def test_library_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    # -I ignores PYTHONPATH, so lmss comes from this checkout's src alone
    setup = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r})\n"
    proc = subprocess.run([sys.executable, "-I", "-c", setup + block],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


# every name `import lmss` exports; adding or removing one edits this list
PUBLIC_NAMES = [
    "ACCESSIBILITY_FAIL", "CompositeGraph", "EXCHANGE_FAIL", "EdgeListError",
    "FIXTURE_NAMES", "GREEDOID", "Graph", "Graph6Error", "GreedoidVerdict", "SetFamily",
    "THEOREM_IDS", "TheoremReport", "accessibility_chain", "alpha",
    "check_accessibility", "check_exchange", "closed_neighborhood", "complete",
    "composition", "corona", "corpus_graphs", "corpus_upto", "cycle", "disjoint_union",
    "edge_count", "edgeless", "enumerate_stable_sets", "format_vertex_set",
    "from_edge_list", "instance_from_graphs", "is_complete",
    "is_connected", "is_greedoid", "is_local_max_stable", "is_stable", "is_tree",
    "labeled_trees", "lexicographic_product", "min_nonempty_size", "named_fixture",
    "omega", "parse_edge_list_text", "parse_graph6", "parse_vertex_set", "path", "psi",
    "random_graph", "random_tree", "run_on_instance", "sweep", "to_graph6",
    "tree_from_pruefer", "verify_composition_specializations",
    "verify_corona_corollary", "verify_corona_lemma", "verify_corona_theorem",
    "verify_nemhauser_trotter", "verify_tree_greedoid", "verify_union_prop",
    "verify_zykov_bound", "verify_zykov_characterization", "zykov_sum",
]


def test_public_surface_is_pinned():
    assert sorted(lmss.__all__) == PUBLIC_NAMES

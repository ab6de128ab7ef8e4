"""Per-layer metrics read from a cProfile trace of a workload.

cProfile sees every call, including those made through ``from .x import y``
bindings, so the package needs no instrumentation.  Functions are found by
their code objects, so the names survive edits that move lines.  A listed
function that cannot be found is reported apart from one that was never
called: its metrics are left out and the run fails, so a rename never reads
as a gain.
"""

from __future__ import annotations

import inspect
import os
import sys
from typing import Dict, List, Optional, Tuple

LAYERS = ("groups", "cocycles", "algebra", "generators", "decomposition",
          "semilinear", "census", "files", "cli")

# <module>.<function> -> which end-to-end figure it should move.
FUNCTIONS = (
    "cocycles.validate_cocycle",            # ops_per_s on sweep and census
    "cocycles.BinaryTable.__post_init__",   # ops_per_s on sweep and census
    "cocycles.vee",                         # sweep
    "cocycles.pointwise_product",           # sweep
    "cocycles.compare",                     # sweep
    "cocycles.waterhouse",                  # sweep
    "algebra.AlgebraContext.__eq__",        # sweep
    "algebra._closure_mask",                # sweep
    "algebra.MonomialIdeal.__post_init__",  # sweep
    "algebra.ideal_lattice_op",             # sweep
    "algebra.AlgebraContext.__init__",      # census and query
    "algebra.radical_powers",               # census and query
    "algebra.nk_partition",                 # census and query
    "algebra.classify_annihilators",        # census and query
    "decomposition.cocycle_from_chain",     # sweep
    "decomposition.cocycle_mod_ideal",      # sweep
    "decomposition.check_identity",         # sweep
    "decomposition.morphism_check",         # sweep
    "decomposition.decompose_by_classes",   # sweep and query
    "decomposition.decompose_by_bstar",     # sweep and query
    "generators.all_generators",            # sweep and query
    "generators.principal_via_generators",  # sweep and query
    "census.enumerate_cocycles",            # census
    "census.census_records",                # census
    "census.enumerate_ideals",              # sweep
    "census.descending_multichains",        # sweep
    "semilinear.search_realization",        # query op_p90_ms
    "semilinear.chain_lift",                # sweep and query
    "semilinear.padded_lift",               # sweep and query
    "semilinear.cocycle_from_r",            # sweep and query
    "groups.group_from_table",              # query op_p50_ms and setup_s
    "files.parse_artifacts",                # query op_p50_ms and setup_s
    "cli._build_parser",                    # query op_p50_ms and ops_per_s
    "cli.run_command",                      # query op_p50_ms and ops_per_s
)

# ratio name -> (cached function, the builder it calls only on a miss)
CACHE_RATIOS = {
    "decomposition.chain_cache_hit_ratio": ("decomposition.cocycle_from_chain", "decomposition._finish"),
    "decomposition.mod_cache_hit_ratio": ("decomposition.cocycle_mod_ideal", "decomposition._finish"),
    "algebra.lattice_cache_hit_ratio": ("algebra.ideal_lattice_op", "algebra._ideal_from_mask"),
}

Label = Tuple[str, int, str]


def metric_names() -> List[str]:
    names = []
    for function in FUNCTIONS:
        names += [f"{function}.calls", f"{function}.us_per_call"]
    names += list(CACHE_RATIOS)
    names += [f"{layer}.self_share" for layer in LAYERS]
    return names


def _label(package: str, dotted: str) -> Optional[Label]:
    module, *path = dotted.split(".")
    obj = sys.modules.get(f"{package}.{module}")
    for attr in path:
        obj = getattr(obj, attr, None)
    code = getattr(inspect.unwrap(obj), "__code__", None) if obj is not None else None
    return (code.co_filename, code.co_firstlineno, code.co_name) if code else None


def layer_metrics(stats: Dict, package: str) -> Tuple[Dict[str, float], List[str]]:
    """Call counts, inclusive time per call, cache hit ratios and the share
    of self time per module, from ``pstats.Stats(...).stats``, and the
    listed names that do not resolve to a function of the package."""
    out: Dict[str, float] = {}
    labels = {name: _label(package, name) for name in FUNCTIONS}
    for parent, child in CACHE_RATIOS.values():
        labels.setdefault(child, _label(package, child))
    missing = sorted(name for name, label in labels.items() if label is None)

    def row(name: str):
        return stats.get(labels[name], (0, 0, 0.0, 0.0, {}))

    for name in FUNCTIONS:
        if labels[name] is None:
            continue
        _, calls, _, cumulative, _ = row(name)
        out[f"{name}.calls"] = calls
        out[f"{name}.us_per_call"] = cumulative / calls * 1e6 if calls else 0.0
    for ratio, (parent, child) in CACHE_RATIOS.items():
        if labels[parent] is None or labels[child] is None:
            continue
        base = row(parent)[1]
        misses = row(child)[4].get(labels[parent], (0,))[0]
        out[ratio] = 1.0 - misses / base if base else 0.0
    files = {}
    for layer in LAYERS:
        module = sys.modules.get(f"{package}.{layer}")
        if module is None:
            missing.append(layer)
        else:
            files[os.path.abspath(module.__file__)] = layer
    total = sum(entry[2] for entry in stats.values()) or 1.0
    share = dict.fromkeys(files.values(), 0.0)
    for label, entry in stats.items():
        layer = files.get(label[0]) if isinstance(label, tuple) else None
        if layer is not None:
            share[layer] += entry[2]
    for layer in share:
        out[f"{layer}.self_share"] = share[layer] / total
    return out, missing


def top_cumulative(stats: Dict, root: str, count: int = 10) -> List[str]:
    """The ``count`` functions with the most inclusive time, one line each."""
    rows = sorted(stats.items(), key=lambda item: item[1][3], reverse=True)[:count]
    lines = []
    for (filename, line, name), (_, calls, _, cumulative, _) in rows:
        where = os.path.relpath(filename, root) if filename.startswith(root) else filename
        lines.append(f"{cumulative:10.3f} s {calls:9d} calls  {where}:{line}({name})")
    return lines

"""Regenerate every paper table/figure from the command line.

Usage::

    python -m repro.evaluation                    # all figures, default scale
    python -m repro.evaluation fig51 fig62        # selected figures
    python -m repro.evaluation --list
    python -m repro.evaluation --out artifacts/   # also write .txt + stats JSON
    python -m repro.evaluation --machine cray5    # run on another machine model
"""

from __future__ import annotations

import inspect
import json
import sys
import time

from . import (
    ablation_aggregation,
    ablation_consistency_mode,
    ablation_lazy_size,
    ablation_view_alignment,
    backend_scaling_study,
    bench_ablation_suite,
    bench_suite,
    bench_sweep_suite,
    bulk_transport_study,
    combining_containers_study,
    combining_study,
    composition_backend_study,
    consistency_backend_study,
    fig27_constructor,
    fig28_local_methods,
    fig29_methods_weak,
    fig30_method_flavours,
    fig31_remote_fraction,
    fig32_local_remote_sizes,
    fig33_generic_algorithms,
    fig34_memory_study,
    fig39_plist_methods,
    fig40_parray_vs_plist,
    fig41_placement,
    fig42_plist_vs_pvector,
    fig43_euler_tour_weak,
    fig44_euler_applications,
    fig49_50_pgraph_methods,
    fig51_find_sources,
    fig52_partition_comparison,
    fig53_55_graph_algorithms,
    fig56_pagerank_meshes,
    fig59_mapreduce_wordcount,
    fig60_assoc_algorithms,
    fig62_row_min,
    lookup_cache_study,
    mcm_demonstrations,
    migration_backend_study,
    migration_graph_study,
    migration_skew_study,
    mixed_mode_topology_study,
    nested_backend_study,
    nested_groups_study,
    nested_study,
    paragraph_backend_study,
    paragraph_study,
    sort_transport_study,
)

DRIVERS = {
    "fig27": fig27_constructor,
    "fig28": fig28_local_methods,
    "fig29": fig29_methods_weak,
    "fig30": fig30_method_flavours,
    "fig31": fig31_remote_fraction,
    "fig32": fig32_local_remote_sizes,
    "fig33": fig33_generic_algorithms,
    "fig34": fig34_memory_study,
    "fig39": fig39_plist_methods,
    "fig40": fig40_parray_vs_plist,
    "fig41": fig41_placement,
    "fig42": fig42_plist_vs_pvector,
    "fig43": fig43_euler_tour_weak,
    "fig44": fig44_euler_applications,
    "fig49_50": fig49_50_pgraph_methods,
    "fig51": fig51_find_sources,
    "fig52": fig52_partition_comparison,
    "fig53_55": fig53_55_graph_algorithms,
    "fig56": fig56_pagerank_meshes,
    "fig59": fig59_mapreduce_wordcount,
    "fig60": fig60_assoc_algorithms,
    "fig62": fig62_row_min,
    "fig62_mp": composition_backend_study,
    "mcm": mcm_demonstrations,
    "mcm_mp": consistency_backend_study,
    "backend": backend_scaling_study,
    "bulk_transport": bulk_transport_study,
    "combining": combining_study,
    "combining_containers": combining_containers_study,
    "mixed_mode_topology": mixed_mode_topology_study,
    "migration": migration_skew_study,
    "migration_graph": migration_graph_study,
    "migration_mp": migration_backend_study,
    "lookup_cache": lookup_cache_study,
    "paragraph": paragraph_study,
    "paragraph_mp": paragraph_backend_study,
    "nested": nested_study,
    "nested_mp": nested_backend_study,
    "nested_groups": nested_groups_study,
    "bench": bench_suite,
    "bench_sweep": bench_sweep_suite,
    "bench_ablations": bench_ablation_suite,
    "sort_transport": sort_transport_study,
    "ablation_aggregation": ablation_aggregation,
    "ablation_alignment": ablation_view_alignment,
    "ablation_consistency": ablation_consistency_mode,
    "ablation_lazy_size": ablation_lazy_size,
}


def _pop_option(args: list, flag: str) -> str | None:
    """Remove ``flag VALUE`` from ``args``; returns VALUE (or None)."""
    if flag not in args:
        return None
    i = args.index(flag)
    args.pop(i)
    if i >= len(args):
        print(f"{flag} requires a value", file=sys.stderr)
        raise SystemExit(2)
    return args.pop(i)


def _json_default(obj):
    if hasattr(obj, "item"):  # numpy scalars
        return obj.item()
    return str(obj)


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if "--list" in args:
        print("\n".join(DRIVERS))
        return 0
    out_dir = _pop_option(args, "--out")
    machine = _pop_option(args, "--machine")
    selected = args or list(DRIVERS)
    unknown = [a for a in selected if a not in DRIVERS]
    if unknown:
        print(f"unknown figures: {unknown}; use --list", file=sys.stderr)
        return 2
    if out_dir is not None:
        import pathlib

        out_path = pathlib.Path(out_dir)
        out_path.mkdir(parents=True, exist_ok=True)
    stats = {}
    for name in selected:
        driver = DRIVERS[name]
        kwargs = {}
        if machine and "machine" in inspect.signature(driver).parameters:
            kwargs["machine"] = machine
        t0 = time.perf_counter()
        result = driver(**kwargs)
        dt = time.perf_counter() - t0
        print(result.format_table())
        print(f"[{name}: regenerated in {dt:.2f}s wall]\n")
        stats[name] = {"wall_seconds": round(dt, 3), **result.as_dict()}
        if out_dir is not None:
            (out_path / f"{name}.txt").write_text(result.format_table() + "\n")
    if out_dir is not None:
        payload = {"machine_override": machine, "figures": stats}
        (out_path / "stats.json").write_text(
            json.dumps(payload, indent=2, default=_json_default) + "\n")
        print(f"[artifacts written to {out_path}/]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

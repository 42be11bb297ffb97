"""
Child processes of the traced run; each starts fresh, so caches are cold.

  python perfbench/child.py trace OUT -- ARGS...
      Run `growthdiag ARGS` in this process with spans around the calls the
      CLI and the library make into each module's public functions, and
      write the spans, cache snapshots, local-rule case counts and the
      fills seen to OUT (one JSON line, then one with the time the writing
      ended).  Stdout and the exit code are the CLI's own.

  python perfbench/child.py replay IN OUT
      Refill each growth diagram listed in IN square by square through the
      public local_rule_* functions, timing every call, and write the time
      and count per case (a)-(f) to OUT.

PYTHONPATH must hold the package's src directory.
"""
from __future__ import annotations

import json
import sys
import time

from spans import CASES, Tracer, square_case

# Public cover functions whose lru caches are snapshotted after the run.
CACHED = (
    ("compositions", "binword_covers"),
    ("compositions", "lifted_covers"),
    ("trees", "lattice_covers"),
    ("trees", "reflected_bracket_covers"),
    ("trees", "delete_rightmost"),
)


def _vertex_rank(v) -> int:
    """Rank of a composition (sum of parts) or a binary tree (node count)."""
    if not v:
        return 0
    if isinstance(v[0], int):
        return sum(v)
    nodes, stack = 0, [v]
    while stack:
        node = stack.pop()
        if node is not None:
            nodes += 1
            stack.extend(node)
    return nodes


class _JsonProxy:
    """Stands in for the json module inside the CLI, tracing dumps."""

    def __init__(self, module, dumps):
        self._module = module
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(self._module, name)


def _patch(tracer: Tracer, owner, attr: str, name, aggregate: bool = False) -> None:
    fn = getattr(owner, attr, None)
    if fn is not None:
        setattr(owner, attr, tracer.wrap(fn, name, aggregate))


def install(tracer: Tracer, cli, fills: list) -> None:
    """Wrap the names through which the CLI and library call across modules.

    Each module holds its own binding of an imported function, so a
    function is wrapped in every module that calls it.  Names that no
    longer exist are skipped and their metrics stay absent or zero.
    """
    from growthdiagrams import graphs, growth, ribbons

    fill = getattr(growth, "build_growth_diagram", None)
    if fill is not None:
        def recorded_fill(p, family, *args, **kwargs):
            grid = fill(p, family, *args, **kwargs)
            fills.append((family, tuple(p), grid))
            return grid
        for module in (cli, growth):
            if hasattr(module, "build_growth_diagram"):
                module.build_growth_diagram = tracer.wrap(recorded_fill, "growth.fill")

    for module in (cli, growth):
        _patch(tracer, module, "convert_chains", "growth.convert")
        _patch(tracer, module, "labeled_tree_to_json_obj", "trees.render")
    _patch(tracer, growth, "tree_to_text", "trees.render", aggregate=True)
    _patch(tracer, cli, "parse_permutation", "permutations.parse")
    _patch(tracer, cli, "growth_insert", "growth.growth_insert")
    _patch(tracer, cli, "hypoplactic_insert", "ribbons.hypoplactic_insert")
    _patch(tracer, cli, "shadow_lines", "ribbons.shadow_lines")
    _patch(tracer, cli, "render_tableau", "ribbons.render")
    _patch(tracer, cli, "bst_insert", "trees.bst_insert")
    _patch(tracer, cli, "labeled_tree_to_text", "trees.render")
    if hasattr(cli, "json"):
        cli.json = _JsonProxy(cli.json, tracer.wrap(cli.json.dumps, "cli.render"))
    _patch(tracer, getattr(growth, "GrowthGrid", None), "to_json_obj", "cli.render")
    _patch(tracer, getattr(ribbons, "RibbonShapedTableau", None), "to_json_obj", "cli.render")

    _patch(tracer, graphs, "check_duality", "graphs.duality")
    _patch(tracer, graphs, "path_count_identity", "graphs.path_count")
    _patch(tracer, getattr(graphs, "GradedGraph", None), "vertices_at",
           lambda g, n: f"graphs.enumerate.rank{n}")
    # U_k is built for up_matrix(g, k) and, transposed, for down_matrix(g, k + 1)
    _patch(tracer, graphs, "up_matrix", lambda g, n: f"graphs.build.rank{n}")
    _patch(tracer, graphs, "down_matrix", lambda g, n: f"graphs.build.rank{n - 1}")
    # a product is filed under the rank of the square matrix D U or U D it yields
    _patch(tracer, graphs, "matmul",
           lambda a, b: f"graphs.matmul.rank{_vertex_rank(a.row_vertices[0]) if a.row_vertices else 0}")


def _grid_cases(grid) -> dict[str, int]:
    counts = dict.fromkeys(CASES, 0)
    v = grid.vertices
    for i in range(1, grid.n + 1):
        for j in range(1, grid.n + 1):
            alpha = 1 if (j, i) in grid.marks else 0
            counts[square_case(v[i - 1][j - 1], v[i][j - 1], v[i - 1][j], alpha)] += 1
    return counts


def _cache_snapshot(package) -> dict:
    snapshot = {}
    for module_name, fn_name in CACHED:
        fn = getattr(getattr(package, module_name, None), fn_name, None)
        info = getattr(fn, "cache_info", None)
        if info is not None:
            hits, misses, _, currsize = info()
            snapshot[f"{module_name}.{fn_name}"] = {"hits": hits, "misses": misses, "currsize": currsize}
    return snapshot


def trace(out_path: str, argv: list[str]) -> int:
    tracer = Tracer()
    fills: list = []
    with tracer.span("cli.import"):
        import growthdiagrams
        import growthdiagrams.cli as cli
    install(tracer, cli, fills)
    code = 1
    try:
        with tracer.span("cli.main"):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        main_end = time.perf_counter()
        cases = dict.fromkeys(CASES, 0)
        for _, _, grid in fills:
            for case, k in _grid_cases(grid).items():
                cases[case] += k
        record = tracer.to_json_obj()
        record.update(
            main_end=main_end,
            caches=_cache_snapshot(growthdiagrams),
            cases=cases if fills else {},
            fills=[[family, list(p)] for family, p, _ in fills],
        )
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
            # the end of this bookkeeping, which the tracing overhead excludes
            fh.write(json.dumps({"post_end": time.perf_counter()}) + "\n")
    return code


def replay(in_path: str, out_path: str) -> int:
    import growthdiagrams

    rules = {
        "composition": ((), getattr(growthdiagrams, "local_rule_composition", None)),
        "tree": (None, getattr(growthdiagrams, "local_rule_tree", None)),
    }
    with open(in_path, encoding="utf-8") as fh:
        fills = json.load(fh)
    counts = dict.fromkeys(CASES, 0)
    seconds = dict.fromkeys(CASES, 0.0)
    clock = time.perf_counter
    for family, p in fills:
        empty, rule = rules[family]
        if rule is None:
            counts = {}
            break
        n = len(p)
        g = [[empty] * (n + 1) for _ in range(n + 1)]
        # the anti-diagonal sweep build_growth_diagram uses
        for s in range(2, 2 * n + 1):
            for i in range(max(1, s - n), min(n, s - 1) + 1):
                j = s - i
                t, x, y = g[i - 1][j - 1], g[i][j - 1], g[i - 1][j]
                alpha = 1 if p[j - 1] == i else 0
                start = clock()
                g[i][j] = rule(t, x, y, alpha)
                elapsed = clock() - start
                case = square_case(t, x, y, alpha)
                counts[case] += 1
                seconds[case] += elapsed
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"counts": counts, "seconds": seconds if counts else {}}, fh)
    return 0


if __name__ == "__main__":
    mode, *rest = sys.argv[1:]
    if mode == "trace" and rest[1:2] == ["--"]:
        sys.exit(trace(rest[0], rest[2:]))
    if mode == "replay":
        sys.exit(replay(rest[0], rest[1]))
    sys.exit("usage: child.py trace OUT -- ARGS... | child.py replay IN OUT")

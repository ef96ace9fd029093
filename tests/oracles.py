"""Independent oracles shared by several test files. pytest does not
collect this module (it is not named `test_*.py`)."""


def dfs_paths(vertices, edges, max_len):
    """Composable edge sequences (start, names) of length at most max_len,
    by depth-first extension; edges is a list of (name, src, tgt)."""
    tgt = {e: t for e, _, t in edges}
    paths = [(v, ()) for v in vertices]
    frontier = list(paths)
    for _ in range(max_len):
        nxt = []
        for start, es in frontier:
            at = tgt[es[-1]] if es else start
            for e, s, _ in edges:
                if s == at:
                    nxt.append((start, es + (e,)))
        paths.extend(nxt)
        frontier = nxt
    return paths

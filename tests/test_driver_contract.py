"""Driver contract (__ray_entry__): every oracle key has a queries()
entry, every callable is well-formed, and entry() runs the flagship at
sf0.001 producing rows with a stable schema."""

import __ray_entry__ as entrymod


def test_oracle_keys_subset_of_queries():
    q = entrymod.queries()
    o = entrymod.oracle_sql()
    missing = set(o) - set(q)
    assert not missing, f"oracle_sql keys without queries(): {missing}"
    assert all(callable(f) for f in q.values())
    # every oracle is a non-empty SQL string over the registered views
    assert all(isinstance(s, str) and "SELECT" in s.upper()
               for s in o.values())


def test_readme_query_counts_match_registry():
    """README's oracled and internal query counts are the registries'."""
    import os
    import re

    from vertex_ray.pipelines.op_queries import OP_QUERIES_INTERNAL

    readme = os.path.join(os.path.dirname(entrymod.__file__), "README.md")
    with open(readme) as f:
        text = " ".join(f.read().split())
    m = re.search(r"queries\(\)` entries \((\d+)\).*?a further (\d+) internal",
                  text)
    assert m, "README no longer states the query counts"
    assert (int(m.group(1)), int(m.group(2))) == (
        len(entrymod.queries()), len(OP_QUERIES_INTERNAL))


def test_entry_smoke(ray_session):
    ds = entrymod.entry()
    n = ds.count() if hasattr(ds, "count") else len(ds)
    assert n > 0
    names = (ds.schema().names if hasattr(ds, "schema") and callable(ds.schema)
             else list(ds.columns))
    assert "series_key" in names or "conv_id" in names

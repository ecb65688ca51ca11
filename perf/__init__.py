"""The repo's benchmark of record: one statement stream, five
configurations, a per-layer time budget.  See ``perf/README.md``."""

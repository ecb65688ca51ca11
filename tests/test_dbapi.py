"""DB-API 2.0 front-end: connect/Connection/Cursor, prepared statements.

Covers the PEP 249 surface (paramstyles, fetch methods, description,
closed-handle errors), the template-reuse guarantees (executemany over a
parametrised statement compiles once and hits the recycler on every
repeat), the unified compile→bind→run pipeline (SQL statements, named
templates and builder programs all run through
:meth:`PreparedStatement.run`), concurrent cursors over one shared pool,
and the spill-directory lifecycle of the connection context manager.
"""

from __future__ import annotations

import datetime
import os
import threading

import numpy as np
import pytest

import repro
from repro import (
    InterfaceError,
    NotSupportedError,
    ProgrammingError,
)
from repro.core.admission import CreditAdmission
from repro.core.eviction import BenefitEviction
from repro.sql import planner as planner_module


@pytest.fixture
def conn():
    rng = np.random.default_rng(7)
    n = 5_000
    with repro.connect() as c:
        c.create_table(
            "sales",
            {"sale_id": "int64", "region": "U8", "amount": "float64",
             "sold_at": "datetime64[D]"},
            {
                "sale_id": np.arange(n),
                "region": rng.choice(["N", "S", "E", "W"], n),
                "amount": np.round(rng.random(n) * 100, 2),
                "sold_at": np.datetime64("2025-01-01")
                + rng.integers(0, 365, n).astype("timedelta64[D]"),
            },
        )
        yield c


class TestModuleGlobals:
    def test_pep249_module_attributes(self):
        assert repro.apilevel == "2.0"
        assert repro.threadsafety == 2
        assert repro.paramstyle == "qmark"

    def test_exception_hierarchy(self):
        assert issubclass(ProgrammingError, repro.DatabaseError)
        assert issubclass(repro.DatabaseError, repro.Error)
        assert issubclass(InterfaceError, repro.Error)
        # SQL front-end errors are DB-API ProgrammingErrors.
        from repro.errors import (
            CatalogError,
            InterpreterError,
            SqlSyntaxError,
            StorageError,
            UpdateError,
        )

        assert issubclass(SqlSyntaxError, ProgrammingError)
        # Engine errors are rebased onto the DB-API branches, so
        # `except repro.Error` catches everything the cursor can raise.
        assert issubclass(CatalogError, ProgrammingError)
        assert issubclass(InterpreterError, repro.OperationalError)
        assert issubclass(StorageError, repro.OperationalError)
        assert issubclass(UpdateError, repro.DataError)

    def test_engine_errors_caught_as_dbapi_error(self, conn):
        cur = conn.cursor()
        with pytest.raises(repro.Error):
            cur.execute("select * from nosuch")


class TestParamstyles:
    def test_qmark_equals_inline(self, conn):
        cur = conn.cursor()
        inline = cur.execute(
            "select count(*) from sales where amount >= 50"
        ).fetchone()
        qmark = cur.execute(
            "select count(*) from sales where amount >= ?", (50,)
        ).fetchone()
        assert inline == qmark

    def test_named_equals_inline(self, conn):
        cur = conn.cursor()
        inline = cur.execute(
            "select count(*) from sales where amount between 20 and 70"
        ).fetchone()
        named = cur.execute(
            "select count(*) from sales where amount between :lo and :hi",
            {"lo": 20, "hi": 70},
        ).fetchone()
        assert inline == named

    def test_placeholder_and_inline_share_template(self, conn):
        cur = conn.cursor()
        cur.execute("select count(*) from sales where amount >= 30")
        cur.execute("select count(*) from sales where amount >= ?", (30,))
        # Exact repeat through a placeholder: full hits.
        assert cur.stats.hits == cur.stats.n_marked > 0

    def test_date_parameters(self, conn):
        cur = conn.cursor()
        inline = cur.execute(
            "select count(*) from sales "
            "where sold_at >= date '2025-06-01'"
        ).fetchone()
        for value in (datetime.date(2025, 6, 1),
                      np.datetime64("2025-06-01")):
            assert cur.execute(
                "select count(*) from sales where sold_at >= ?",
                (value,),
            ).fetchone() == inline

    def test_in_list_placeholders(self, conn):
        cur = conn.cursor()
        inline = cur.execute(
            "select count(*) from sales where region in ('N', 'S')"
        ).fetchone()
        assert cur.execute(
            "select count(*) from sales where region in (?, ?)",
            ("N", "S"),
        ).fetchone() == inline

    def test_wrong_arity(self, conn):
        cur = conn.cursor()
        with pytest.raises(ProgrammingError):
            cur.execute("select count(*) from sales where amount >= ?",
                        (1, 2))
        with pytest.raises(ProgrammingError):
            cur.execute("select count(*) from sales where amount >= ?")

    def test_missing_named_parameter(self, conn):
        cur = conn.cursor()
        with pytest.raises(ProgrammingError):
            cur.execute("select count(*) from sales where amount >= :lo",
                        {"hi": 1})

    def test_mixed_styles_rejected(self, conn):
        cur = conn.cursor()
        with pytest.raises(ProgrammingError):
            cur.execute(
                "select count(*) from sales "
                "where amount >= ? and amount < :hi", (1,)
            )

    def test_params_on_placeholder_free_statement(self, conn):
        cur = conn.cursor()
        with pytest.raises(ProgrammingError):
            cur.execute("select count(*) from sales", (1,))

    def test_limit_placeholder_rejected(self, conn):
        cur = conn.cursor()
        with pytest.raises(ProgrammingError):
            cur.execute("select sale_id from sales limit ?", (5,))

    def test_null_and_sequence_values_rejected(self, conn):
        cur = conn.cursor()
        with pytest.raises(ProgrammingError):
            cur.execute("select count(*) from sales where amount >= ?",
                        (None,))

    def test_kind_mismatch_on_repeat_bind(self, conn):
        cur = conn.cursor()
        cur.execute("select count(*) from sales where amount >= ?", (3,))
        # A later bind whose *type* differs from the compiling bind must
        # be a DB-API error, not a raw numpy one.
        with pytest.raises(ProgrammingError):
            cur.execute("select count(*) from sales where amount >= ?",
                        ("3",))
        with pytest.raises(ProgrammingError):
            cur.execute("select count(*) from sales where amount >= 'x'")

    def test_wrong_kind_first_bind_does_not_poison_template(self, conn):
        """A wrong-typed FIRST bind fails at plan time (the catalogue
        knows the column dtype) and must not cache a mis-kinded plan
        that rejects every later correct execution of the template."""
        cur = conn.cursor()
        sql = "select count(*) from sales where amount >= ?"
        with pytest.raises(ProgrammingError):
            cur.execute(sql, ("oops",))
        # The same statement text, correctly typed, works afterwards...
        assert cur.execute(sql, (50.0,)).fetchone()[0] > 0
        # ...as do the inline twin and a range probe of the same column
        # (the pool must not hold entries with unorderable bounds).
        assert cur.execute(
            "select count(*) from sales where amount >= 50.0"
        ).fetchone()[0] > 0
        assert cur.execute(
            "select count(*) from sales where amount < ?", (10.0,)
        ).fetchone()[0] >= 0

    def test_wrong_kind_named_and_in_list(self, conn):
        cur = conn.cursor()
        with pytest.raises(ProgrammingError):
            cur.execute("select count(*) from sales where amount >= :lo",
                        {"lo": "oops"})
        with pytest.raises(ProgrammingError):
            cur.execute("select count(*) from sales where region in (?, ?)",
                        (1, 2))
        with pytest.raises(ProgrammingError):
            cur.execute("select count(*) from sales "
                        "where sold_at >= ?", (17,))

    def test_datetime_with_time_of_day_rejected(self, conn):
        cur = conn.cursor()
        with pytest.raises(ProgrammingError):
            cur.execute("select count(*) from sales where sold_at >= ?",
                        (datetime.datetime(2025, 6, 1, 12, 30),))
        with pytest.raises(ProgrammingError):
            cur.execute("select count(*) from sales where sold_at >= ?",
                        (np.datetime64("2025-06-01T12:30"),))
        # Day-exact values are allowed in either type.
        cur.execute("select count(*) from sales where sold_at >= ?",
                    (datetime.datetime(2025, 6, 1),))
        cur.execute("select count(*) from sales where sold_at >= ?",
                    (np.datetime64("2025-06-01T00:00"),))

    def test_extra_named_parameters_rejected(self, conn):
        cur = conn.cursor()
        with pytest.raises(ProgrammingError):
            cur.execute("select count(*) from sales where amount >= :lo",
                        {"lo": 1, "loo": 2})


class TestExecutemany:
    def test_compiles_once_hits_every_repeat(self, conn, monkeypatch):
        compiles = []
        real = planner_module.compile_tokens

        def counting(catalog, tokens, key=None):
            compiles.append(key)
            return real(catalog, tokens, key)

        monkeypatch.setattr(planner_module, "compile_tokens", counting)
        cur = conn.cursor()
        n = 8
        sql = ("select region, sum(amount) as total from sales "
               "where amount >= ? group by region order by total desc")
        cur.executemany(sql, [(10 + i,) for i in range(n)])
        assert len(compiles) == 1           # template compiled once
        assert len(cur.stats_batch) == n
        # Recycler hits on every parameter set after the first.
        assert all(s.hits > 0 for s in cur.stats_batch[1:])
        assert sum(1 for s in cur.stats_batch if s.hits > 0) >= n - 1
        # The last set's result remains fetchable.
        assert cur.fetchall()

    def test_empty_batch_clears_previous_result(self, conn):
        cur = conn.cursor()
        cur.execute("select region from sales group by region")
        cur.executemany("select count(*) from sales where amount >= ?",
                        [])
        assert cur.description is None
        assert cur.rowcount == -1
        assert cur.stats is None
        with pytest.raises(ProgrammingError):
            cur.fetchone()                  # no stale rows

    def test_executemany_named(self, conn):
        cur = conn.cursor()
        cur.executemany(
            "select count(*) from sales where amount >= :lo",
            [{"lo": v} for v in (10, 20, 30)],
        )
        assert len(cur.stats_batch) == 3
        assert all(s.hits > 0 for s in cur.stats_batch[1:])


class TestBakedLiteralVariants:
    """Literals compiled into the plan must not alias across instances."""

    def test_limit_variants_get_distinct_plans(self, conn):
        cur = conn.cursor()
        cur.execute("select sale_id from sales order by sale_id limit 10")
        assert cur.rowcount == 10
        cur.execute("select sale_id from sales order by sale_id limit 20")
        assert cur.rowcount == 20
        cur.execute("select sale_id from sales order by sale_id "
                    "limit 10 offset 5")
        assert cur.fetchone() == (5,)

    def test_substring_bound_variants(self, conn):
        conn.create_table("words", {"w": "U16"},
                          {"w": ["alpha", "bravo", "charlie"]})
        cur = conn.cursor()
        two = cur.execute(
            "select substring(w, 1, 2) from words limit 1"
        ).fetchone()
        three = cur.execute(
            "select substring(w, 1, 3) from words limit 1"
        ).fetchone()
        assert (two[0], three[0]) == ("al", "alp")

    def test_prepared_cache_is_bounded(self, conn):
        db = conn.database
        for i in range(db.PREPARED_CACHE_SIZE + 100):
            db.execute(f"select count(*) from sales where sale_id >= {i}")
        assert len(db._prepared) <= db.PREPARED_CACHE_SIZE

    def test_variant_list_is_bounded(self, conn):
        db = conn.database
        for i in range(1, db.VARIANTS_PER_KEY + 20):
            assert db.execute(
                f"select sale_id from sales order by sale_id limit {i}"
            ).value.rows()[-1] == (i - 1,)
        assert all(len(v) <= db.VARIANTS_PER_KEY
                   for v in db._sql_cache.values())


class TestFetching:
    def test_description_and_rowcount(self, conn):
        cur = conn.cursor()
        cur.execute(
            "select region, count(*) as n, sum(amount) as total "
            "from sales group by region order by region"
        )
        names = [d[0] for d in cur.description]
        codes = [d[1] for d in cur.description]
        assert names == ["region", "n", "total"]
        assert codes == ["STRING", "INTEGER", "FLOAT"]
        assert all(len(d) == 7 for d in cur.description)
        assert cur.rowcount == 4

    def test_fetchone_exhaustion(self, conn):
        cur = conn.cursor()
        cur.execute("select region from sales group by region")
        seen = 0
        while cur.fetchone() is not None:
            seen += 1
        assert seen == 4
        assert cur.fetchone() is None

    def test_fetchmany_default_arraysize(self, conn):
        cur = conn.cursor()
        cur.execute("select region from sales group by region")
        assert len(cur.fetchmany()) == 1    # arraysize defaults to 1
        assert len(cur.fetchmany(2)) == 2
        assert len(cur.fetchall()) == 1

    def test_iteration(self, conn):
        cur = conn.cursor()
        cur.execute("select region from sales group by region "
                    "order by region")
        assert [r[0] for r in cur] == ["E", "N", "S", "W"]

    def test_fetch_without_execute(self, conn):
        cur = conn.cursor()
        with pytest.raises(ProgrammingError):
            cur.fetchone()

    def test_failed_execute_clears_previous_result(self, conn):
        cur = conn.cursor()
        cur.execute("select region from sales group by region")
        with pytest.raises(repro.Error):
            cur.execute("select * from nosuch")
        # The first statement's rows must not masquerade as the second's.
        assert cur.description is None and cur.rowcount == -1
        with pytest.raises(ProgrammingError):
            cur.fetchall()


class TestClosedHandles:
    def test_closed_cursor(self, conn):
        cur = conn.cursor()
        cur.execute("select count(*) from sales")
        cur.close()
        with pytest.raises(InterfaceError):
            cur.execute("select count(*) from sales")
        with pytest.raises(InterfaceError):
            cur.fetchone()

    def test_closed_connection(self):
        conn = repro.connect()
        conn.create_table("t", {"x": "int64"}, {"x": range(5)})
        cur = conn.cursor()
        conn.close()
        assert conn.closed
        with pytest.raises(InterfaceError):
            conn.cursor()
        with pytest.raises(InterfaceError):
            cur.execute("select count(*) from t")
        conn.close()                        # idempotent

    def test_rollback_not_supported(self, conn):
        with pytest.raises(NotSupportedError):
            conn.rollback()

    def test_commit_is_noop(self, conn):
        conn.commit()


class TestConcurrentCursors:
    def test_threads_share_pool_through_one_connection(self, conn):
        sql = ("select region, sum(amount) as total from sales "
               "where amount >= ? group by region order by total desc")
        reference = conn.cursor().execute(sql, (25,)).fetchall()
        n_threads, repeats = 4, 6
        results, errors, stats = [], [], []
        barrier = threading.Barrier(n_threads)

        def worker():
            try:
                cur = conn.cursor()         # cursor per thread
                barrier.wait(timeout=10)
                for _ in range(repeats):
                    results.append(cur.execute(sql, (25,)).fetchall())
                # Session stats are captured here: dead threads'
                # sessions are pruned from the connection later.
                stats.append(conn.session().stats)
            except Exception as exc:        # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker)
                   for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert all(r == reference for r in results)
        # Each thread ran through its own session...
        assert len(stats) == n_threads
        assert len({id(s) for s in stats}) == n_threads
        # ...and the shared pool produced cross-session (global) hits.
        assert sum(s.global_hits for s in stats) > 0
        conn.database.recycler.check_invariants()

    @pytest.mark.stress
    def test_many_threads_mixed_styles_bounded_pool(self, tmp_path):
        """One Session per thread under churn: many threads hammer one
        connection with qmark/named/inline instances of one template
        over a bounded two-tier pool; results stay correct and the pool
        invariants hold throughout."""
        rng = np.random.default_rng(41)
        n = 20_000
        with repro.connect(max_bytes=300_000, subsumption=False,
                           spill_dir=str(tmp_path / "spill")) as conn:
            conn.create_table(
                "t", {"x": "int64"},
                {"x": rng.integers(0, 5000, n)},
            )
            x = conn.database.catalog.table("t").column_array("x")
            bounds = [int(b) for b in
                      rng.choice([500, 1500, 2500, 3500], 40)]
            expected = {b: int((x >= b).sum()) for b in bounds}
            errors = []
            barrier = threading.Barrier(8)

            def worker(i):
                try:
                    cur = conn.cursor()
                    barrier.wait(timeout=30)
                    for j, b in enumerate(bounds):
                        style = (i + j) % 3
                        if style == 0:
                            cur.execute("select count(*) from t "
                                        "where x >= ?", (b,))
                        elif style == 1:
                            cur.execute("select count(*) from t "
                                        "where x >= :lo", {"lo": b})
                        else:
                            cur.execute("select count(*) from t "
                                        f"where x >= {b}")
                        assert cur.fetchone()[0] == expected[b]
                except Exception as exc:    # pragma: no cover
                    errors.append(exc)

            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            # Every thread bound into one shared template...
            stats = conn.database.compile_cache_stats
            assert stats.misses <= 2        # qmark/named + maybe a race
            assert stats.hit_ratio > 0.95
            conn.database.recycler.check_invariants()


class TestSpillLifecycle:
    def test_context_manager_removes_run_dir(self, tmp_path):
        spill = str(tmp_path / "spill")
        rng = np.random.default_rng(3)
        # Distinct single-bound selects whose results individually fit
        # under the memory limit but collectively overflow it (the
        # test_spill.py recipe); subsumption off so every bound admits.
        with repro.connect(spill_dir=spill, max_bytes=400_000,
                           subsumption=False) as conn:
            # Freeze the store's clock: I/O then measures free, so every
            # victim is worth demoting (see test_spill.py).
            conn.database.recycler.spill.clock = lambda: 0.0
            conn.create_table(
                "t", {"x": "int64"},
                {"x": rng.integers(0, 5000, 40_000)},
            )
            cur = conn.cursor()
            for i in range(12):
                cur.execute("select count(*) from t where x >= ?",
                            (2500 + 150 * i,))
                conn.database.recycler.check_invariants()
            # The disk tier is genuinely populated...
            assert conn.database.pool_spilled_bytes > 0
            # ...and a placeholder repeat promotes from it.
            cur.execute("select count(*) from t where x >= ?", (2500,))
            assert cur.stats.promoted_hits > 0
            conn.database.recycler.check_invariants()
            run_dir = conn.database.recycler.spill.directory
            assert os.path.isdir(run_dir)
            assert os.listdir(run_dir)      # spill files on disk
        assert not os.path.isdir(run_dir)
        assert os.listdir(spill) == []      # base dir left clean

    def test_attached_engine_not_closed(self):
        db = repro.Database()
        db.create_table("t", {"x": "int64"}, {"x": range(10)})
        with repro.connect(database=db) as conn:
            assert conn.cursor().execute(
                "select count(*) from t").fetchone() == (10,)
        assert not db.closed                # attached, not owned
        assert db.execute("select count(*) from t").value.scalar() == 10

    def test_attach_rejects_extra_config(self):
        db = repro.Database()
        with pytest.raises(InterfaceError):
            repro.connect(database=db, max_bytes=1)

    def test_closed_engine_rejects_work(self):
        with repro.connect() as conn:
            conn.create_table("t", {"x": "int64"}, {"x": range(5)})
            db = conn.database
        # The owned engine closed with the connection: no silent
        # repopulation of a torn-down pool.
        for work in (
            lambda: db.execute("select count(*) from t"),
            lambda: db.run_template("anything"),
            lambda: db.insert("t", {"x": [1]}),
            lambda: db.delete_oids("t", [0]),
            lambda: db.update_column("t", "x", [0], [9]),
            lambda: db.create_table("u", {"y": "int64"}, {"y": [1]}),
            lambda: db.drop_table("t"),
            lambda: db.add_foreign_key("fk", "t", "x", "t", "x"),
            db.session,
        ):
            with pytest.raises(InterfaceError, match="closed"):
                work()

    def test_dead_thread_sessions_pruned(self, conn):
        def run():
            conn.cursor().execute("select count(*) from sales")

        for _ in range(6):
            t = threading.Thread(target=run)
            t.start()
            t.join()
        # A registration from a live thread prunes the dead threads'.
        conn.cursor().execute("select count(*) from sales")
        alive = [t for t, _s in conn._sessions if t.is_alive()]
        assert len(conn._sessions) == len(alive) <= 2


class TestConnectKwargs:
    def test_engine_options_forwarded(self):
        with repro.connect(admission=CreditAdmission(credits=2),
                           eviction=BenefitEviction(),
                           max_entries=64) as conn:
            rec = conn.database.recycler
            assert isinstance(rec.admission, CreditAdmission)
            assert rec.admission.initial_credits == 2
            assert isinstance(rec.eviction, BenefitEviction)
            assert rec.config.max_entries == 64

    def test_naive_engine(self):
        with repro.connect(recycle=False) as conn:
            assert conn.database.recycler is None

    def test_unknown_option_is_interface_error(self):
        with pytest.raises(InterfaceError, match="max_byte"):
            repro.connect(max_byte=1)


class TestUnifiedPipeline:
    """SQL, named templates and builder programs share one run path."""

    def test_prepare_template_runs_builder_program(self, conn):
        db = conn.database
        q = db.builder("big_sales")
        lo = q.param("lo")
        q.scan("sales")
        q.filter_range("sales", "amount", lo=lo)
        q.select_scalar("n", q.agg_scalar("count"))
        program = q.build()
        stmt = db.prepare_template(program)
        assert isinstance(stmt, repro.PreparedTemplate)
        r = stmt.run({"lo": 50.0})
        expected = db.execute(
            "select count(*) from sales where amount >= ?", (50.0,)
        ).value.scalar()
        assert r.value.scalar() == expected
        # A repeat through the same pipeline is a recycler hit.
        assert stmt.run({"lo": 50.0}).stats.hits > 0

    def test_run_template_by_name_via_pipeline(self, conn):
        db = conn.database
        q = db.builder("cnt_by_region")
        q.scan("sales")
        region = q.col("sales", "region")
        keys = q.groupby([region])
        q.select([("region", keys[0]), ("n", q.agg_count())],
                 order_by=[(keys[0], True)])
        db.register_template(q.build())
        via_template = db.run_template("cnt_by_region").value.rows()
        via_cursor = conn.cursor().execute_template(
            "cnt_by_region").fetchall()
        via_sql = conn.cursor().execute(
            "select region, count(*) as n from sales "
            "group by region order by region").fetchall()
        assert via_template == via_cursor == via_sql

    def test_template_bind_rejects_sequences(self, conn):
        db = conn.database
        q = db.builder("t_seq")
        lo = q.param("lo")
        q.scan("sales")
        q.filter_range("sales", "amount", lo=lo)
        q.select_scalar("n", q.agg_scalar("count"))
        stmt = db.prepare_template(q.build())
        with pytest.raises(ProgrammingError):
            stmt.run((50.0,))

    def test_statement_run_on_engine_interpreter(self, conn):
        db = conn.database
        stmt = db.prepare("select count(*) from sales where amount >= ?")
        assert stmt.run((10.0,)).value.scalar() == db.execute(
            "select count(*) from sales where amount >= 10.0"
        ).value.scalar()


class TestCompileCacheStats:
    def test_repeat_bind_is_zero_parse_plan_work(self, conn, monkeypatch):
        """Acceptance: re-executing a prepared statement with new
        parameters does no parse/plan work (compile-cache hit)."""
        db = conn.database
        cur = conn.cursor()
        sql = "select count(*) from sales where amount >= :lo"
        cur.execute(sql, {"lo": 10.0})
        before = db.compile_cache_stats

        def bomb(*a, **k):                  # pragma: no cover
            raise AssertionError("parse/plan work on a repeat bind")

        monkeypatch.setattr(planner_module, "compile_tokens", bomb)
        for lo in (20.0, 30.0, 40.0):
            cur.execute(sql, {"lo": lo})
        after = db.compile_cache_stats
        assert after.misses == before.misses        # no new compiles
        assert after.hits == before.hits + 3
        assert after.hit_ratio > before.hit_ratio

    def test_counters_span_statement_texts(self, conn):
        db = conn.database
        base = db.compile_cache_stats
        cur = conn.cursor()
        # Distinct texts, one template: the first compiles, the inline
        # twin and the named form both bind into the cached plan.
        cur.execute("select count(*) from sales where amount >= ?",
                    (60.0,))
        cur.execute("select count(*) from sales where amount >= 70.0")
        cur.execute("select count(*) from sales where amount >= :lo",
                    {"lo": 80.0})
        got = db.compile_cache_stats
        assert got.misses == base.misses + 1
        assert got.hits == base.hits + 2


def _fresh_sales_db():
    rng = np.random.default_rng(11)
    n = 4_000
    db = repro.Database()
    db.create_table(
        "sales",
        {"sale_id": "int64", "region": "U8", "amount": "float64"},
        {
            "sale_id": np.arange(n),
            "region": rng.choice(["N", "S", "E", "W"], n),
            "amount": np.round(rng.random(n) * 100, 2),
        },
    )
    return db


class TestPlaceholderHitParity:
    """qmark, named and inline instances are one template: same key,
    same plan, and — run as the same workload on fresh engines — the
    recycler produces *identical* per-query hit counts."""

    BOUNDS = [10.0, 30.0, 10.0, 50.0, 30.0, 10.0, 70.0, 50.0]

    def test_template_keys_identical(self):
        db = _fresh_sales_db()
        keys = {
            db.prepare("select count(*) from sales "
                       "where amount >= ?").key,
            db.prepare("select count(*) from sales "
                       "where amount >= :lo").key,
            db.prepare("select count(*) from sales "
                       "where amount >= 10.0").key,
        }
        assert len(keys) == 1

    def test_recycler_hits_identical_across_styles(self):
        def hits_inline():
            db = _fresh_sales_db()
            return [
                db.execute("select count(*) from sales "
                           f"where amount >= {b}").stats.hits
                for b in self.BOUNDS
            ]

        def hits_qmark():
            db = _fresh_sales_db()
            cur = repro.connect(database=db).cursor()
            return [
                cur.execute("select count(*) from sales "
                            "where amount >= ?", (b,)).stats.hits
                for b in self.BOUNDS
            ]

        def hits_named():
            db = _fresh_sales_db()
            cur = repro.connect(database=db).cursor()
            return [
                cur.execute("select count(*) from sales "
                            "where amount >= :lo", {"lo": b}).stats.hits
                for b in self.BOUNDS
            ]

        inline, qmark, named = hits_inline(), hits_qmark(), hits_named()
        assert inline == qmark == named
        assert sum(inline) > 0              # repeats actually hit


class TestBindLiteralsHardening:
    def test_in_list_arity_mismatch(self, conn):
        db = conn.database
        stmt = db.prepare(
            "select count(*) from sales where region in ('N', 'S', 'E')"
        )
        stmt.bind()
        with pytest.raises(ProgrammingError):
            db.bind_literals(stmt._compiled, ["N", "S"])

    def test_missing_scalar_literal(self, conn):
        db = conn.database
        stmt = db.prepare("select count(*) from sales where amount >= 10")
        stmt.bind()
        with pytest.raises(ProgrammingError):
            db.bind_literals(stmt._compiled, [])


class TestWorkloadParamSequences:
    def test_run_workload_with_sequences(self, conn):
        from repro.bench import run_workload

        sql = "select count(*) from sales where amount >= ?"
        items = [(sql, (10 * i,)) for i in range(8)]
        result = run_workload(conn.database, items, sessions=4)
        assert not result.errors
        serial = [
            conn.cursor().execute(sql, p).fetchone()[0]
            for _sql, p in items
        ]
        concurrent = [v.scalar() for v in result.values()]
        assert concurrent == serial

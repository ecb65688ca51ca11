"""TPC-H refresh functions RF1 (new sales) and RF2 (old sales removal).

The paper's update experiments (§7.4) inject blocks of refresh statements
into the query batch: "each block of updates inserts a set of new customer
orders, which effectively adds 7-8 rows into orders and 25-56 rows into
lineitem ... Similarly, it deletes a set of old orders from both tables."

:class:`RefreshStream` reproduces that: each ``update_block`` performs one
RF1 insert batch and one RF2 delete batch against the database; each
bumps the written tables' column versions, and the recycler drops the
intermediates derived from the old ones (§6.4 invalidation).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.db import Database
from repro.workloads.tpch.generator import (
    PRIORITIES,
    SHIPINSTRUCT,
    SHIPMODES,
)


class RefreshStream:
    """Generates and applies RF1/RF2 blocks against a loaded TPC-H db."""

    def __init__(self, db: Database, seed: int = 99,
                 orders_per_block: int = 8):
        self.db = db
        self.rng = np.random.default_rng(seed)
        self.orders_per_block = orders_per_block
        self._next_orderkey = int(
            db.catalog.table("orders").column_array("o_orderkey").max() + 1
        )

    # ------------------------------------------------------------------
    def rf1_insert(self) -> int:
        """Insert a batch of new orders with 1-7 lineitems each.

        Returns the number of lineitem rows added.
        """
        db = self.db
        rng = self.rng
        n_orders = self.orders_per_block
        n_cust = db.catalog.table("customer").nrows
        n_part = db.catalog.table("part").nrows
        n_supp = db.catalog.table("supplier").nrows

        keys = np.arange(self._next_orderkey,
                         self._next_orderkey + n_orders, dtype=np.int64)
        self._next_orderkey += n_orders
        odate = (np.datetime64("1998-01-01")
                 + rng.integers(0, 180, n_orders).astype("timedelta64[D]"))
        lines_per_order = rng.integers(1, 8, n_orders)
        l_order = np.repeat(keys, lines_per_order)
        n_line = len(l_order)
        l_part = rng.integers(0, n_part, n_line).astype(np.int64)
        l_supp = (l_part + rng.integers(0, 4, n_line)
                  * (n_supp // 4 + 1)) % n_supp
        qty = rng.integers(1, 51, n_line).astype(np.float64)
        price = np.round(qty * rng.uniform(90.0, 190.0, n_line), 2)
        odate_per_line = np.repeat(odate, lines_per_order)
        ship = odate_per_line + rng.integers(1, 122, n_line).astype(
            "timedelta64[D]")

        orders_rows = {
            "o_orderkey": keys,
            "o_custkey": rng.integers(0, n_cust, n_orders).astype(np.int64),
            "o_orderstatus": np.full(n_orders, "O", dtype="U1"),
            "o_totalprice": np.round(
                np.bincount(l_order - keys[0], weights=price,
                            minlength=n_orders), 2
            ),
            "o_orderdate": odate.astype("datetime64[D]"),
            "o_orderpriority": rng.choice(PRIORITIES, n_orders),
            "o_clerk": np.array([f"Clerk#{i:09d}" for i in range(n_orders)]),
            "o_shippriority": np.zeros(n_orders, dtype=np.int64),
            "o_comment": np.full(n_orders, "refresh order"),
        }
        line_rows = {
            "l_orderkey": l_order,
            "l_partkey": l_part,
            "l_suppkey": l_supp.astype(np.int64),
            "l_linenumber": np.concatenate(
                [np.arange(1, k + 1) for k in lines_per_order]
            ).astype(np.int64),
            "l_quantity": qty,
            "l_extendedprice": price,
            "l_discount": np.round(rng.integers(0, 11, n_line) / 100.0, 2),
            "l_tax": np.round(rng.integers(0, 9, n_line) / 100.0, 2),
            "l_returnflag": np.full(n_line, "N", dtype="U1"),
            "l_linestatus": np.full(n_line, "O", dtype="U1"),
            "l_shipdate": ship.astype("datetime64[D]"),
            "l_commitdate": (odate_per_line + np.timedelta64(45, "D")
                             ).astype("datetime64[D]"),
            "l_receiptdate": (ship + np.timedelta64(7, "D")
                              ).astype("datetime64[D]"),
            "l_shipinstruct": rng.choice(SHIPINSTRUCT, n_line),
            "l_shipmode": rng.choice(SHIPMODES, n_line),
            "l_comment": np.full(n_line, "refresh line"),
        }
        db.insert("orders", orders_rows)
        db.insert("lineitem", line_rows)
        return n_line

    def rf2_delete(self) -> int:
        """Delete the oldest orders (and their lineitems).

        Returns the number of lineitem rows removed.
        """
        db = self.db
        orders = db.catalog.table("orders")
        lineitem = db.catalog.table("lineitem")
        n = self.orders_per_block
        dates = orders.column_array("o_orderdate")
        victims = np.argsort(dates, kind="stable")[:n]
        victim_keys = orders.column_array("o_orderkey")[victims]
        line_oids = np.nonzero(
            np.isin(lineitem.column_array("l_orderkey"), victim_keys)
        )[0]
        db.delete_oids("lineitem", line_oids)
        db.delete_oids("orders", victims)
        return len(line_oids)

    def update_block(self) -> Dict[str, int]:
        """One paper-style update block: RF1 inserts then RF2 deletes."""
        inserted = self.rf1_insert()
        deleted = self.rf2_delete()
        return {"inserted_lines": inserted, "deleted_lines": deleted}

"""Advanced end-to-end semantics through the full Calvin stack."""

from repro import CalvinDB, ClientProfile


def make_db(partitions=2):
    db = CalvinDB(num_partitions=partitions, seed=11)

    @db.procedure("put")
    def put(ctx):
        for key, value in ctx.args:
            ctx.write(key, value)

    @db.procedure("remove")
    def remove(ctx):
        for key in ctx.args:
            ctx.delete(key)

    @db.procedure("sum_all")
    def sum_all(ctx):
        return sum(ctx.read(key) or 0 for key in sorted(ctx.txn.read_set, key=repr))

    @db.procedure("rmw")
    def rmw(ctx):
        key = ctx.args
        ctx.write(key, (ctx.read(key) or 0) + 1)
        return ctx.read(key)  # read-your-write

    return db


class TestDeletes:
    def test_delete_through_stack(self):
        db = make_db()
        db.load({"a": 1, "b": 2})
        result = db.execute("remove", ("a",), read_set=["a"], write_set=["a"])
        assert result.committed
        assert db.get("a") is None
        assert db.get("b") == 2

    def test_delete_then_reinsert(self):
        db = make_db()
        db.load({"a": 1})
        db.execute("remove", ("a",), read_set=["a"], write_set=["a"])
        db.execute("put", (("a", 99),), read_set=[], write_set=["a"])
        assert db.get("a") == 99

    def test_multipartition_delete(self):
        db = make_db()
        db.load({"x1": 1, "x2": 2, "x3": 3, "x4": 4})
        keys = ["x1", "x2", "x3", "x4"]  # hash across both partitions
        result = db.execute("remove", tuple(keys), read_set=keys, write_set=keys)
        assert result.committed
        assert all(db.get(key) is None for key in keys)


class TestBlindWritesAndReadOnly:
    def test_blind_write_empty_read_set(self):
        db = make_db()
        result = db.execute(
            "put", (("fresh", 7),), read_set=[], write_set=["fresh"]
        )
        assert result.committed
        assert db.get("fresh") == 7

    def test_read_only_multipartition(self):
        db = make_db()
        data = {f"k{i}": i for i in range(8)}
        db.load(data)
        result = db.execute("sum_all", None, read_set=list(data), write_set=[])
        assert result.committed
        assert result.value == sum(range(8))

    def test_read_your_write_through_stack(self):
        db = make_db()
        db.load({"c": 10})
        result = db.execute("rmw", "c", read_set=["c"], write_set=["c"])
        assert result.value == 11


class TestOrderingDeterminism:
    def test_same_epoch_order_is_submission_order(self):
        # Two increments submitted back-to-back land in one epoch and
        # must apply in submission order at the same sequencer.
        db = make_db(partitions=1)

        @db.procedure("append")
        def append(ctx):
            log = ctx.read("log") or ()
            ctx.write("log", log + (ctx.args,))

        db.load({"log": ()})
        # Submit both without waiting (bypass the sync facade): use the
        # cluster driver directly.
        from repro.net.messages import ClientSubmit
        from repro.partition.catalog import NodeId, node_address
        from repro.txn.transaction import Transaction

        cluster = db.cluster
        cluster.start()
        for label in ("first", "second"):
            txn = Transaction.create(
                txn_id=cluster.next_txn_id(), procedure="append", args=label,
                read_set=["log"], write_set=["log"], origin_partition=0,
            )
            cluster.network.send(
                ("driver", 0, 0), node_address(NodeId(0, 0)),
                ClientSubmit(txn), 256,
            )
        cluster.sim.run(until=cluster.sim.now + 0.1)
        assert db.get("log") == ("first", "second")

    def test_conflicting_txns_serialize(self):
        db = make_db(partitions=1)

        @db.procedure("double")
        def double(ctx):
            ctx.write("v", (ctx.read("v") or 0) * 2)

        @db.procedure("inc")
        def inc(ctx):
            ctx.write("v", (ctx.read("v") or 0) + 1)

        db.load({"v": 1})
        from repro.net.messages import ClientSubmit
        from repro.partition.catalog import NodeId, node_address
        from repro.txn.transaction import Transaction

        cluster = db.cluster
        cluster.start()
        for procedure in ("inc", "double"):
            txn = Transaction.create(
                txn_id=cluster.next_txn_id(), procedure=procedure, args=None,
                read_set=["v"], write_set=["v"], origin_partition=0,
            )
            cluster.network.send(
                ("driver", 0, 0), node_address(NodeId(0, 0)),
                ClientSubmit(txn), 256,
            )
        cluster.sim.run(until=cluster.sim.now + 0.1)
        assert db.get("v") == 4  # (1+1)*2, submission order


class TestCrashAndLowConsistencyReads:
    def test_snapshot_read_from_replica(self):
        from repro import CalvinCluster, ClusterConfig, Microbenchmark

        workload = Microbenchmark(mp_fraction=0.0, hot_set_size=5, cold_set_size=50)
        config = ClusterConfig(
            num_partitions=1, num_replicas=2, replication_mode="async", seed=3
        )
        cluster = CalvinCluster(config, workload=workload)
        cluster.load_workload_data()
        cluster.add_clients(ClientProfile(per_partition=2, max_txns=5))
        cluster.run(duration=0.2)
        cluster.quiesce()
        key = ("hot", 0, 0)
        assert cluster.snapshot_read(key, replica=1) == cluster.snapshot_read(key, replica=0)

    def test_crash_node_silences_address(self):
        from repro import CalvinCluster, ClusterConfig, Microbenchmark

        workload = Microbenchmark()
        config = ClusterConfig(
            num_partitions=1, num_replicas=2, replication_mode="async", seed=3
        )
        cluster = CalvinCluster(config, workload=workload)
        cluster.crash_node(1, 0)
        assert cluster.node(1, 0).crashed
        # Messages to the crashed node are dropped silently.
        cluster.network.send(("x",), cluster.node(1, 0).address, "msg")
        cluster.sim.run()

    def test_node_stats_shape(self):
        db = make_db()
        db.load({"a": 1})
        db.execute("rmw", "a", read_set=["a"], write_set=["a"])
        stats = db.cluster.node_stats()
        assert len(stats) == 2
        for values in stats.values():
            assert set(values) >= {"admitted", "completed", "worker_utilization"}

"""Property-based tests (hypothesis) on core invariants."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import CalvinCluster, ClientProfile, ClusterConfig, Microbenchmark, check_serializability
from repro.scheduler import DeterministicLockManager
from repro.sim import Simulator
from repro.storage import KVStore, ZigZagCheckpointer
from repro.txn.transaction import SequencedTxn, Transaction

# ---------------------------------------------------------------------------
# Lock manager: deterministic grants match a reference model
# ---------------------------------------------------------------------------

KEYS = ["a", "b", "c", "d"]

txn_footprints = st.lists(
    st.tuples(
        st.sets(st.sampled_from(KEYS), min_size=0, max_size=3),  # reads
        st.sets(st.sampled_from(KEYS), min_size=0, max_size=3),  # writes
    ).filter(lambda rw: rw[0] | rw[1]),
    min_size=1,
    max_size=8,
)


@given(txn_footprints)
@settings(max_examples=200, deadline=None)
def test_lock_manager_grants_all_eventually_in_order(footprints):
    """Acquiring in order and releasing each ready txn must eventually
    grant every transaction, in a serial order consistent with conflicts."""
    ready = []
    manager = DeterministicLockManager(ready.append)
    stxns = []
    for index, (reads, writes) in enumerate(footprints):
        txn = Transaction.create(index + 1, "p", None, reads, writes)
        stxn = SequencedTxn((0, 0, index), txn)
        stxns.append(stxn)
        manager.acquire(stxn, reads, writes)

    completed = []
    guard = 0
    while len(completed) < len(stxns):
        guard += 1
        assert guard < 10_000, "lock manager failed to drain (deadlock?)"
        assert ready, "no ready transaction but work remains (stall)"
        stxn = ready.pop(0)
        completed.append(stxn)
        manager.release(stxn)

    # Conflicting pairs must complete in sequence order.
    position = {stxn.seq: i for i, stxn in enumerate(completed)}
    for i, first in enumerate(stxns):
        for second in stxns[i + 1:]:
            w1 = first.txn.write_set
            w2 = second.txn.write_set
            conflict = (
                (w1 & second.txn.all_keys()) or (w2 & first.txn.all_keys())
            )
            if conflict:
                assert position[first.seq] < position[second.seq]
    assert manager.active_txns == 0


# ---------------------------------------------------------------------------
# KVStore fingerprint: permutation invariance
# ---------------------------------------------------------------------------

@given(
    st.dictionaries(st.integers(0, 50), st.integers(-5, 5), min_size=0, max_size=20),
    st.randoms(use_true_random=False),
)
@settings(max_examples=100, deadline=None)
def test_fingerprint_permutation_invariant(data, rng):
    store_a, store_b = KVStore(), KVStore()
    items = list(data.items())
    for key, value in items:
        store_a.put(key, value)
    rng.shuffle(items)
    for key, value in items:
        store_b.put(key, value)
    assert store_a.fingerprint() == store_b.fingerprint()


# ---------------------------------------------------------------------------
# Zig-Zag checkpoint: snapshot equals begin-time state under any
# interleaving of writes/deletes with dump slices
# ---------------------------------------------------------------------------

operations = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.integers(0, 9), st.integers(0, 99)),
        st.tuples(st.just("delete"), st.integers(0, 9), st.none()),
        st.tuples(st.just("dump"), st.integers(1, 4), st.none()),
    ),
    max_size=30,
)


@given(
    st.dictionaries(st.integers(0, 9), st.integers(0, 99), max_size=10),
    operations,
)
@settings(max_examples=200, deadline=None)
def test_zigzag_snapshot_is_begin_time_state(initial, ops):
    store = KVStore()
    store.load_bulk(dict(initial))
    expected = store.snapshot()
    checkpointer = ZigZagCheckpointer(store, 0)
    checkpointer.begin(epoch=0, now=0.0)
    for op, key, value in ops:
        if op == "put":
            store.put(key, value)
        elif op == "delete":
            store.delete(key)
        else:
            checkpointer.dump_slice(key)
    while checkpointer.pending:
        checkpointer.dump_slice(3)
    snapshot = checkpointer.finish(now=1.0)
    assert snapshot.data == expected


# ---------------------------------------------------------------------------
# Whole system: serializability and determinism for random seeds/shapes
# ---------------------------------------------------------------------------

@given(
    seed=st.integers(0, 10_000),
    partitions=st.integers(1, 3),
    mp_fraction=st.sampled_from([0.0, 0.3, 1.0]),
    hot=st.sampled_from([1, 5, 100]),
)
@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_random_cluster_serializable(seed, partitions, mp_fraction, hot):
    workload = Microbenchmark(
        mp_fraction=mp_fraction, hot_set_size=hot, cold_set_size=60
    )
    cluster = CalvinCluster(
        ClusterConfig(num_partitions=partitions, seed=seed), workload=workload
    )
    cluster.load_workload_data()
    cluster.add_clients(ClientProfile(per_partition=4, max_txns=8))
    cluster.run(duration=0.15)
    cluster.quiesce()
    assert check_serializability(cluster) == 4 * partitions * 8


# ---------------------------------------------------------------------------
# Simulator: event ordering is stable under arbitrary schedules
# ---------------------------------------------------------------------------

@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=30))
@settings(max_examples=100, deadline=None)
def test_simulator_executes_in_time_then_fifo_order(delays):
    sim = Simulator()
    fired = []
    for index, delay in enumerate(delays):
        sim.schedule(delay, lambda i=index, d=delay: fired.append((d, i)))
    sim.run()
    # Stable sort by time: equal-time callbacks keep scheduling order.
    assert fired == sorted(fired, key=lambda pair: (pair[0], pair[1]))

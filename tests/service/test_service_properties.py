"""Property tests: the service cache, token buckets, eventual consistency."""

import tempfile

from hypothesis import given, strategies as st

from repro.experiments.fleet import FLEET_CODEC_VERSION
from repro.experiments.parallel import CODEC_VERSION, ResultCache
from repro.netsim.events import EventLoop
from repro.service import ReconciliationService, ServiceConfig, TokenBucket

KEYS = st.sampled_from([f"k{i}" for i in range(8)])

# An op is ("get", key) or ("put", key, payload-int).
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("get"), KEYS),
        st.tuples(st.just("put"), KEYS, st.integers(0, 99)),
    ),
    max_size=60,
)


def shard_entry(payload: int) -> dict:
    """A cache entry the service accepts as a shard result."""
    return {
        "version": FLEET_CODEC_VERSION,
        "codec": CODEC_VERSION,
        "shard_index": payload,
        "ues": [],
        "metrics": {},
    }


class TestTieredCacheModel:
    """The service's cache front over the on-disk ``ResultCache``: every
    entry put is served from disk, and every lookup counts as exactly one
    hit or one miss (``hits_memory`` stays 0)."""

    @given(ops=OPS)
    def test_disk_tier_round_trips_evicted_entries(self, ops):
        with tempfile.TemporaryDirectory() as tmp:
            cache = ReconciliationService(disk_cache=ResultCache(tmp)).cache
            model: dict = {}
            hits = misses = 0
            for op in ops:
                if op[0] == "get":
                    got = cache.get(op[1])
                    assert got == model.get(op[1])
                    hits += got is not None
                    misses += got is None
                else:
                    _, key, payload = op
                    model[key] = shard_entry(payload)
                    cache.put(key, model[key])
            for key, value in model.items():
                assert cache.get(key) == value
            assert cache.hits_disk == hits + len(model)
            assert cache.misses == misses
            assert cache.hits_memory == 0


class TestTokenBucket:
    @given(
        rate=st.floats(0.1, 50.0, allow_nan=False),
        capacity=st.floats(1.0, 40.0, allow_nan=False),
        deltas=st.lists(st.floats(0.0, 5.0, allow_nan=False), max_size=40),
    )
    def test_refill_never_exceeds_capacity_nor_goes_negative(
        self, rate, capacity, deltas
    ):
        bucket = TokenBucket(rate, capacity)
        now = 0.0
        for delta in deltas:
            now += delta
            bucket.try_acquire(now)
            assert 0.0 <= bucket.tokens <= capacity + 1e-9

    @given(rate=st.floats(0.5, 20.0, allow_nan=False))
    def test_acquire_succeeds_exactly_capacity_times_at_t0(self, rate):
        capacity = 5.0
        bucket = TokenBucket(rate, capacity)
        grants = sum(bucket.try_acquire(0.0) for _ in range(10))
        assert grants == 5

    @given(
        rate=st.floats(0.5, 20.0, allow_nan=False),
        spend=st.integers(1, 5),
    )
    def test_waiting_out_the_shortfall_suffices(self, rate, spend):
        bucket = TokenBucket(rate, capacity=5.0)
        for _ in range(5):
            assert bucket.try_acquire(0.0)
        assert not bucket.try_acquire(0.0, spend)
        # Waiting exactly (spend - tokens) / rate makes the acquire succeed.
        assert bucket.try_acquire((spend - bucket.tokens) / rate, spend)

    def test_clock_running_backwards_is_an_error(self):
        bucket = TokenBucket(1.0, 1.0)
        bucket.try_acquire(5.0)
        try:
            bucket.try_acquire(4.0)
        except ValueError:
            return
        raise AssertionError("backwards clock must raise")


class TestEventualConsistency:
    """Rejected claims retried with backoff settle exactly once."""

    @given(
        n_claims=st.integers(5, 30),
        rate=st.floats(1.0, 4.0, allow_nan=False),
        seed=st.integers(0, 2**16),
    )
    def test_probe_burst_settles_under_rate_limiting(self, n_claims, rate, seed):
        loop = EventLoop()
        service = ReconciliationService(
            loop=loop,
            config=ServiceConfig(
                workers=2,
                queue_depth=4,
                vendor_rate_hz=rate,
                vendor_burst=2.0,
                probe_service_time_s=0.01,
            ),
        )
        service.start()
        import random

        rng = random.Random(seed)

        def submit(ref, attempt):
            if service.is_settled(ref):
                return
            admission = service.submit(
                {"id": f"{ref}#{attempt}", "ref": ref, "vendor": "v0", "kind": "probe"}
            )
            if not admission.accepted:
                assert admission.reason in ("rate-limited", "backpressure")
                loop.schedule(0.2 + rng.random() * 0.2, submit, ref, attempt + 1)

        # The whole burst lands inside one second: far above the bucket
        # rate, so rate limiting and backpressure must both engage and
        # the retry loop must drain them all eventually.
        for i in range(n_claims):
            loop.schedule(rng.random(), submit, f"probe-{i}", 0)
        loop.run()
        service.close()
        assert service.settled_count() == n_claims
        assert service.crashed_workers() == []
        # Exactly-once: each logical ref settled a single time.
        settled = service.metrics.counter("service.settled", kind="probe").value
        assert settled == n_claims

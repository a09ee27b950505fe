"""Unit tests for :mod:`repro.store` — the columnar shard store.

The packed-key layout, round-trip bit-exactness, vectorized hit/miss
partitioning, the corruption/truncation → recompute fallback,
model-version staleness, concurrent-writer merging, the pinned shard
address, and the planner over a store (cold/warm identity, partial
fills, resumed sessions, recovery from every kind of damaged shard).
"""

from __future__ import annotations

import dataclasses
import json
import shutil

import numpy as np
import pytest

from repro.apps.matmul_gpu import MatmulGPUApp
from repro.machines.specs import K40C, P100
from repro.simgpu.calibration import K40C_CAL, P100_CAL
from repro.store import ColumnarStore, shard_key
from repro.store.columnar import StoreIntegrityWarning
from repro.sweep import EvalPlanner, SweepRequest
from repro.sweep.keys import pack_configs, pack_keys, unique_keys, unpack_keys


def _p100_key(n=4096):
    return shard_key(P100, P100_CAL, n)


def _rows(count=8, seed=3):
    rng = np.random.default_rng(seed)
    bs = rng.integers(1, 33, count)
    g = rng.integers(1, 9, count)
    r = np.arange(1, count + 1)  # distinct r => distinct packed keys
    t = rng.uniform(1.0, 100.0, count)
    e = rng.uniform(100.0, 9000.0, count)
    return bs, g, r, t, e


def _packed(*configs):
    """Packed keys of ``(bs, g, r)`` triples."""
    bs, g, r = np.array(configs, dtype=np.int64).reshape(-1, 3).T
    return pack_keys(bs, g, r)


class TestPacking:
    def test_pack_unpack_roundtrip(self):
        cfgs = [(1, 1, 1), (32, 8, 24), (32, 1, 120), (7, 3, 11)]
        bs, g, r = unpack_keys(_packed(*cfgs))
        assert list(zip(bs.tolist(), g.tolist(), r.tolist())) == cfgs

    def test_pack_orders_lexicographically(self):
        low, high = _packed((1, 8, 120), (2, 1, 1))
        assert high > low
        low, high = _packed((4, 1, 120), (4, 2, 1))
        assert high > low

    def test_pack_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            _packed((0, 1, 1))
        with pytest.raises(ValueError):
            _packed((1, 1, 1 << 21))

    def test_pack_configs_matches_scalar(self):
        configs = MatmulGPUApp(P100).sweep_configs()
        packed, bs, g, r = pack_configs(configs)
        assert packed.tolist() == [
            (c.bs << 42) | (c.g << 21) | c.r for c in configs
        ]
        assert bs.dtype == np.int64 and len(bs) == len(configs)
        assert [a.tolist() for a in unpack_keys(packed)] == [
            bs.tolist(), g.tolist(), r.tolist()
        ]

    @pytest.mark.parametrize("size", [0, 1, 2, 500])
    def test_unique_keys_matches_np_unique(self, size):
        packed = np.random.default_rng(size).integers(0, 40, size)
        np.testing.assert_array_equal(unique_keys(packed), np.unique(packed))


class TestShardKey:
    def test_digest_distinguishes_identity(self):
        base = _p100_key()
        assert _p100_key(n=8192).digest != base.digest
        assert shard_key(K40C, P100_CAL, 4096).digest != base.digest
        perturbed = dataclasses.replace(
            P100_CAL, e_lane_j=P100_CAL.e_lane_j * 1.2
        )
        assert shard_key(P100, perturbed, 4096).digest != base.digest

    def test_shard_address_is_pinned(self):
        """Existing stores stay warm: the digest payload still names the
        vectorized backend, exactly as when shards were written."""
        key = shard_key(P100, P100_CAL, 10240)
        assert key.filename == (
            "nvidia-p100-pcie-n10240-vectorized-d6c55ee8cdd801c1.npy"
        )
        assert key.digest == (
            "d6c55ee8cdd801c129530e9ed43ce85f696366d4ae2a595464113a0a36e7c4fe"
        )

    def test_key_is_stable_across_equal_copies(self):
        """The address is derived from content, not object identity:
        a pickled spec and a copied calibration land on the same
        shard."""
        import pickle

        clone = shard_key(
            pickle.loads(pickle.dumps(P100)),
            dataclasses.replace(P100_CAL),
            4096,
        )
        assert clone == _p100_key()

    def test_filename_is_digest_derived(self):
        key = _p100_key()
        assert key.digest[:16] in key.filename
        assert key.filename.endswith(".npy")
        assert key.meta_filename.endswith(".meta.json")
        assert key.meta_filename.startswith(key.stem)


class TestColumnarStore:
    def test_roundtrip_is_bit_exact(self, tmp_path):
        store = ColumnarStore(tmp_path)
        key = _p100_key()
        bs, g, r, t, e = _rows()
        store.append(key, bs, g, r, t, e)

        fresh = ColumnarStore(tmp_path)
        packed = pack_keys(bs, g, r)
        times, energies, hit = fresh.lookup(key, packed)
        assert hit.all()
        # Exact per-lane equality in request order, regardless of the
        # shard's internal (sorted) layout:
        np.testing.assert_array_equal(times, t)
        np.testing.assert_array_equal(energies, e)

    def test_lookup_partitions_hits_and_misses(self, tmp_path):
        store = ColumnarStore(tmp_path)
        key = _p100_key()
        bs, g, r, t, e = _rows()
        store.append(key, bs, g, r, t, e)
        times, energies, hit = store.lookup(
            key, _packed((31, 7, 99), (bs[0], g[0], r[0]))
        )
        assert list(hit) == [False, True]
        assert np.isnan(times[0]) and np.isnan(energies[0])
        assert times[1] == t[0] and energies[1] == e[0]

    def test_append_merges_and_existing_rows_win(self, tmp_path):
        store = ColumnarStore(tmp_path)
        key = _p100_key()
        store.append(key, [4], [2], [12], [1.5], [300.0])
        # Same config, different (wrong) value: the original must win.
        n_rows = store.append(key, [4, 8], [2, 2], [12, 12], [9.9, 2.5], [1.0, 500.0])
        assert n_rows == 2
        times, energies, hit = store.lookup(
            key,
            _packed((4, 2, 12), (8, 2, 12)),
        )
        assert hit.all()
        assert times[0] == 1.5 and energies[0] == 300.0
        assert times[1] == 2.5 and energies[1] == 500.0

    def test_concurrent_writers_converge_to_union(self, tmp_path):
        """Two store handles appending disjoint rows both survive."""
        key = _p100_key()
        a = ColumnarStore(tmp_path)
        b = ColumnarStore(tmp_path)
        a.append(key, [4], [2], [12], [1.0], [10.0])
        # b never saw a's write; its append must re-read and merge.
        b.append(key, [8], [2], [12], [2.0], [20.0])
        fresh = ColumnarStore(tmp_path)
        _, _, hit = fresh.lookup(
            key,
            _packed((4, 2, 12), (8, 2, 12)),
        )
        assert hit.all()
        assert len(list(tmp_path.glob(".*.tmp"))) == 0  # no leftovers

    def test_corrupted_shard_reads_as_empty(self, tmp_path):
        store = ColumnarStore(tmp_path)
        key = _p100_key()
        bs, g, r, t, e = _rows()
        store.append(key, bs, g, r, t, e)
        store.shard_path(key).write_bytes(b"this is not a zip archive")
        fresh = ColumnarStore(tmp_path)
        with pytest.warns(StoreIntegrityWarning, match="corrupt"):
            _, _, hit = fresh.lookup(key, _packed((4, 2, 12)))
        assert not hit.any()
        assert fresh.corrupt_shards == 1

    def test_truncated_shard_reads_as_empty(self, tmp_path):
        store = ColumnarStore(tmp_path)
        key = _p100_key()
        bs, g, r, t, e = _rows()
        store.append(key, bs, g, r, t, e)
        path = store.shard_path(key)
        path.write_bytes(path.read_bytes()[:100])  # torn write
        fresh = ColumnarStore(tmp_path)
        with pytest.warns(StoreIntegrityWarning, match="corrupt"):
            _, _, hit = fresh.lookup(key, _packed((4, 2, 12)))
        assert not hit.any()
        assert fresh.corrupt_shards == 1

    def test_shard_at_wrong_address_is_rejected(self, tmp_path):
        """A shard copied to another identity's filename never lies."""
        store = ColumnarStore(tmp_path)
        key = _p100_key()
        other = _p100_key(n=8192)
        bs, g, r, t, e = _rows()
        store.append(key, bs, g, r, t, e)
        shutil.copy(store.shard_path(key), store.shard_path(other))
        shutil.copy(store.meta_path(key), store.meta_path(other))
        fresh = ColumnarStore(tmp_path)
        packed = pack_keys(bs, g, r)
        with pytest.warns(StoreIntegrityWarning, match="stale"):
            _, _, hit = fresh.lookup(other, packed)
        assert not hit.any()
        assert fresh.stale_shards == 1  # identity mismatch, not corruption

    def test_stale_model_version_is_rejected(self, tmp_path, monkeypatch):
        """A version bump must orphan old shards, not serve them."""
        store = ColumnarStore(tmp_path)
        old_key = _p100_key()
        bs, g, r, t, e = _rows()
        store.append(old_key, bs, g, r, t, e)

        monkeypatch.setattr("repro.sweep.keys.MODEL_VERSION", "gpu-matmul/999")
        monkeypatch.setattr(
            "repro.store.columnar.MODEL_VERSION", "gpu-matmul/999"
        )
        new_key = _p100_key()
        assert new_key.digest != old_key.digest  # distinct address
        fresh = ColumnarStore(tmp_path)
        packed = pack_keys(bs, g, r)
        _, _, hit = fresh.lookup(new_key, packed)
        assert not hit.any()
        # Even a byte-copy of the stale shard to the new address fails
        # the soundness check (its meta carries the old version+digest).
        shutil.copy(store.shard_path(old_key), fresh.shard_path(new_key))
        shutil.copy(store.meta_path(old_key), fresh.meta_path(new_key))
        fresh2 = ColumnarStore(tmp_path)
        with pytest.warns(StoreIntegrityWarning, match="stale"):
            _, _, hit = fresh2.lookup(new_key, packed)
        assert not hit.any()
        assert fresh2.stale_shards == 1  # old version at new address


class TestUnknownDeviceShards:
    """Mismatched shards are stale whatever device the sidecar names."""

    @staticmethod
    def _ghost_key(n=4096):
        ghost = dataclasses.replace(P100, name="Ghost GPU 9000")
        return shard_key(ghost, P100_CAL, n)

    def test_unregistered_device_is_stale(self, tmp_path):
        """A sidecar naming a device the registry has never heard of
        is one more identity mismatch: warn and recompute."""
        store = ColumnarStore(tmp_path)
        ghost_key = self._ghost_key()
        bs, g, r, t, e = _rows()
        store.append(ghost_key, bs, g, r, t, e)
        # Identity mismatch (the real-world shape: a model-version bump
        # or moved file) while the sidecar names an unregistered device.
        target = _p100_key()
        shutil.copy(store.shard_path(ghost_key), store.shard_path(target))
        shutil.copy(store.meta_path(ghost_key), store.meta_path(target))
        fresh = ColumnarStore(tmp_path)
        packed = pack_keys(bs, g, r)
        with pytest.warns(StoreIntegrityWarning, match="stale"):
            _, _, hit = fresh.lookup(target, packed)
        assert not hit.any()
        assert fresh.stale_shards == 1

    def test_registered_device_stays_on_quiet_stale_path(self, tmp_path):
        """Same mismatch with a *known* device name: warn and recompute."""
        store = ColumnarStore(tmp_path)
        key = _p100_key()
        other = _p100_key(n=8192)
        bs, g, r, t, e = _rows()
        store.append(key, bs, g, r, t, e)
        shutil.copy(store.shard_path(key), store.shard_path(other))
        shutil.copy(store.meta_path(key), store.meta_path(other))
        fresh = ColumnarStore(tmp_path)
        packed = pack_keys(bs, g, r)
        with pytest.warns(StoreIntegrityWarning, match="stale"):
            _, _, hit = fresh.lookup(other, packed)
        assert not hit.any()
        assert fresh.stale_shards == 1

    def test_matching_shard_never_consults_the_registry(self, tmp_path):
        """A sound shard for an unregistered device still serves."""
        store = ColumnarStore(tmp_path)
        ghost_key = self._ghost_key()
        bs, g, r, t, e = _rows()
        store.append(ghost_key, bs, g, r, t, e)
        fresh = ColumnarStore(tmp_path)
        packed = pack_keys(bs, g, r)
        _, _, hit = fresh.lookup(ghost_key, packed)
        assert hit.all()


class TestShardFormatV2:
    """Whole-shard loads: each shard is read and checked once."""

    @pytest.fixture()
    def tel(self):
        from repro import obs

        prev = obs.get_telemetry()
        tel = obs.set_telemetry(obs.Telemetry("summary"))
        yield tel
        obs.set_telemetry(prev)

    def _seed(self, tmp_path, count=256):
        store = ColumnarStore(tmp_path)
        key = _p100_key()
        bs, g, r, t, e = _rows(count)
        store.append(key, bs, g, r, t, e)
        return key, bs, g, r, t, e

    def test_contains_partitions_hits_and_misses(self, tmp_path, tel):
        key, bs, g, r, t, e = self._seed(tmp_path)
        fresh = ColumnarStore(tmp_path)
        packed = pack_keys(bs, g, r)
        probe = np.concatenate([packed[:5], _packed((31, 7, 999))])
        hit = fresh.contains(key, probe)
        assert list(hit) == [True] * 5 + [False]
        assert tel.counters["store.shard.hits"] == 5
        assert tel.counters["store.shard.misses"] == 1

    def test_open_shards_warms_the_cache(self, tmp_path, monkeypatch):
        a = _p100_key()
        b = _p100_key(n=8192)
        store = ColumnarStore(tmp_path)
        bs, g, r, t, e = _rows()
        store.append(a, bs, g, r, t, e)
        store.append(b, bs, g, r, t, e)
        fresh = ColumnarStore(tmp_path)
        reads = []
        read = fresh._read_shard
        monkeypatch.setattr(
            fresh, "_read_shard", lambda key: reads.append(key) or read(key)
        )
        fresh.open_shards([a, b, a])  # duplicates are read once
        assert reads == [a, b]
        _, _, hit = fresh.lookup(a, pack_keys(bs, g, r))
        assert hit.all()
        assert reads == [a, b]  # served from the cache

    def test_torn_pair_missing_sidecar_is_corrupt(self, tmp_path):
        key, bs, g, r, t, e = self._seed(tmp_path)
        store = ColumnarStore(tmp_path)
        store.meta_path(key).unlink()
        packed = pack_keys(bs, g, r)
        with pytest.warns(StoreIntegrityWarning, match="corrupt"):
            _, _, hit = store.lookup(key, packed)
        assert not hit.any()

    def test_torn_pair_row_count_mismatch_is_corrupt(self, tmp_path):
        key, bs, g, r, t, e = self._seed(tmp_path)
        store = ColumnarStore(tmp_path)
        meta = json.loads(store.meta_path(key).read_text())
        meta["points"] += 1
        store.meta_path(key).write_text(json.dumps(meta))
        with pytest.warns(StoreIntegrityWarning, match="corrupt"):
            _, _, hit = store.lookup(key, _packed((4, 2, 12)))
        assert not hit.any()


def _edit_sidecar(**fields):
    def damage(store, key):
        meta = json.loads(store.meta_path(key).read_text())
        meta.update(fields)
        store.meta_path(key).write_text(json.dumps(meta))

    return damage


def _miscount_sidecar(store, key):
    meta = json.loads(store.meta_path(key).read_text())
    _edit_sidecar(points=meta["points"] + 1)(store, key)


def _rewrite_block(transform):
    def damage(store, key):
        path = store.shard_path(key)
        np.save(path, transform(np.load(path, allow_pickle=False)))

    return damage


def _set_objective(row, value):
    """Overwrite the first point's ``time_s`` (row 4) or ``energy_j``
    (row 5) lane with ``value``."""

    def transform(block):
        block[row, 0] = np.float64(value).view(np.int64)
        return block

    return _rewrite_block(transform)


def _truncate(path):
    path.write_bytes(path.read_bytes()[:100])


#: Ways a shard on disk can go bad, and the warning each must raise.
#: Every one must be recomputed and rewritten, never served.
DAMAGED_SHARDS = {
    "torn-sidecar": (
        lambda s, k: s.meta_path(k).write_text(
            s.meta_path(k).read_text()[:20]
        ),
        "corrupt",
    ),
    "sidecar-not-an-object": (
        lambda s, k: s.meta_path(k).write_text("[1, 2, 3]"), "corrupt"
    ),
    "foreign-format": (_edit_sidecar(format="other/9"), "corrupt"),
    "row-count-mismatch": (_miscount_sidecar, "corrupt"),
    "scalar-backend": (_edit_sidecar(backend="scalar"), "stale"),
    "other-size": (_edit_sidecar(n=4097), "stale"),
    "other-device": (_edit_sidecar(device=P100.name), "stale"),
    "other-digest": (_edit_sidecar(digest="0" * 64), "stale"),
    "old-model-version": (
        _edit_sidecar(model_version="gpu-matmul/0"), "stale"
    ),
    "float-block": (
        _rewrite_block(lambda b: b.view(np.float64)), "corrupt"
    ),
    "flat-block": (_rewrite_block(np.ravel), "corrupt"),
    "five-row-block": (_rewrite_block(lambda b: b[:5]), "corrupt"),
    "unsorted-keys": (_rewrite_block(lambda b: b[:, ::-1]), "corrupt"),
    "duplicate-keys": (
        _rewrite_block(lambda b: b[:, [0, *range(b.shape[1] - 1)]]),
        "corrupt",
    ),
    "nan-time": (_set_objective(4, np.nan), "corrupt"),
    "negative-energy": (_set_objective(5, -1.0), "corrupt"),
    "infinite-energy": (_set_objective(5, np.inf), "corrupt"),
    "truncated-block": (lambda s, k: _truncate(s.shard_path(k)), "corrupt"),
    "missing-sidecar": (lambda s, k: s.meta_path(k).unlink(), "corrupt"),
    "missing-block": (lambda s, k: s.shard_path(k).unlink(), "corrupt"),
}


class TestPlannerWithStore:
    def test_cold_then_warm_is_bit_identical(self, tmp_path):
        reference = EvalPlanner().sweep("p100", 4096)
        cold = EvalPlanner(store_dir=tmp_path)
        assert cold.sweep("p100", 4096) == reference
        assert cold.stats.computed == len(reference)

        warm = EvalPlanner(store_dir=tmp_path)
        assert warm.sweep("p100", 4096) == reference
        assert warm.stats.computed == 0
        assert warm.stats.store_hits == len(reference)

    def test_interrupted_session_resumes(self, tmp_path):
        """A session that died before writing one of its shards
        recomputes exactly that shard's points on the next run."""
        reqs = [SweepRequest(device="k40c", n=n) for n in (2048, 4096, 8192)]
        first = EvalPlanner(store_dir=tmp_path)
        first.add_all(reqs)
        first.execute()
        full = [first.evaluate_configs(r, r.configs()) for r in reqs]
        lost = shard_key(K40C, K40C_CAL, 4096)
        first.store.shard_path(lost).unlink()
        first.store.meta_path(lost).unlink()

        resumed = EvalPlanner(store_dir=tmp_path)
        resumed.add_all(reqs)
        resumed.execute()
        assert [resumed.evaluate_configs(r, r.configs()) for r in reqs] == full
        assert resumed.stats.computed == len(reqs[1].configs())
        assert resumed.stats.store_hits == (
            len(reqs[0].configs()) + len(reqs[2].configs())
        )

    @pytest.mark.parametrize(
        "damage,reason",
        list(DAMAGED_SHARDS.values()),
        ids=list(DAMAGED_SHARDS),
    )
    def test_damaged_shard_is_recomputed_and_healed(
        self, tmp_path, damage, reason
    ):
        full = EvalPlanner(store_dir=tmp_path).sweep("k40c", 4096)
        damage(ColumnarStore(tmp_path), shard_key(K40C, K40C_CAL, 4096))
        planner = EvalPlanner(store_dir=tmp_path)
        with pytest.warns(StoreIntegrityWarning, match=reason):
            assert planner.sweep("k40c", 4096) == full
        assert planner.stats.computed == len(full)
        healed = EvalPlanner(store_dir=tmp_path)
        assert healed.sweep("k40c", 4096) == full
        assert healed.stats.computed == 0

    def test_partial_store_fills_only_misses(self, tmp_path):
        req = SweepRequest(device="k40c", n=4096)
        configs = req.configs()
        half = len(configs) // 2
        EvalPlanner(store_dir=tmp_path).evaluate_configs(req, configs[:half])

        rest = EvalPlanner(store_dir=tmp_path)
        points = rest.evaluate_configs(req, configs)
        assert points == EvalPlanner().evaluate_configs(req, configs)
        assert rest.stats.store_hits == half
        assert rest.stats.computed == len(configs) - half

    def test_corrupted_shard_recomputed_transparently(self, tmp_path):
        full = EvalPlanner(store_dir=tmp_path).sweep("k40c", 4096)
        key = shard_key(K40C, K40C_CAL, 4096)
        planner = EvalPlanner(store_dir=tmp_path)
        planner.store.shard_path(key).write_bytes(b"garbage")
        with pytest.warns(StoreIntegrityWarning, match="corrupt"):
            assert planner.sweep("k40c", 4096) == full
        assert planner.stats.computed == len(full)
        # The recomputation healed the shard on disk.
        healed = EvalPlanner(store_dir=tmp_path)
        assert healed.sweep("k40c", 4096) == full
        assert healed.stats.computed == 0

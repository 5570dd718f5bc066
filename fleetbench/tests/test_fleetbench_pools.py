"""Seeded pools: unique traffic never repeats a byte string, within a
run or against the warm template, and the seed alone fixes the run's
inputs."""

import pytest

from fleetbench import pools
from fleetbench.common import BenchError
from fleetbench.traffic import Stream


@pytest.fixture(scope="module")
def pool(tmp_path_factory):
    root = tmp_path_factory.mktemp("fleetbench") / "pool"
    pools.build_pool(root, st_variants=3, mt_variants=2,
                     template_entries=12, st_bugs=("bc-1.06", "tidy-34132-2"),
                     mt_bugs=("python-2.1.1-1",), record_bugs=("bc-1.06",))
    return pools.read_pool(root)


def template_blobs(pool):
    from repro.fleet.store import ReportStore

    store = ReportStore(pool.template)
    return {store.path_of(entry).read_bytes() for entry in store.entries()}


def drain(stream):
    uploads = []
    while True:
        try:
            uploads.append(stream.next())
        except BenchError:
            return uploads


def test_every_pool_blob_has_an_oracle_verdict(pool):
    assert pool.st and pool.mt and pool.corrupt
    assert all(item.digest for item in pool.st + pool.mt)
    assert all(item.digest is None for item in pool.corrupt)
    assert len(template_blobs(pool)) == 12


def test_unique_traffic_is_byte_distinct(pool):
    uploads = drain(Stream("st-warm", 7, pool.st, pool.st_bases))
    blobs = [upload.blob for upload in uploads]
    assert len(blobs) == len(pool.st)            # exhausts, never repeats
    assert len(set(blobs)) == len(blobs)
    assert not set(blobs) & template_blobs(pool)
    assert len({upload.upload_id for upload in uploads}) == len(uploads)


def test_duplicates_repeat_earlier_blobs_under_fresh_ids(pool):
    stream = Stream("mt-dup", 3, pool.mt, pool.mt_bases,
                    duplicate_share=0.8)
    uploads = [stream.next() for _ in range(len(pool.mt) * 5)]
    seen = set()
    for upload in uploads:
        if upload.label.startswith("duplicate"):
            assert upload.blob in seen
        else:
            assert upload.blob not in seen
            seen.add(upload.blob)
    assert len(seen) == len(pool.mt)
    assert len({upload.upload_id for upload in uploads}) == len(uploads)


def test_corrupt_uploads_are_interleaved_and_rejected(pool):
    stream = Stream("st-warm", 1, pool.st, pool.st_bases,
                    corrupt=pool.corrupt, corrupt_every=3)
    uploads = [stream.next() for _ in range(6)]
    assert [upload.digest is None for upload in uploads] == [
        False, False, True, False, False, True]


def test_seed_fixes_the_inputs(pool):
    def ids_and_blobs(seed):
        stream = Stream("st-warm", seed, pool.st, pool.st_bases)
        return [(u.upload_id, u.blob) for u in
                (stream.next() for _ in range(5))]

    assert ids_and_blobs(4) == ids_and_blobs(4)
    assert ids_and_blobs(4) != ids_and_blobs(5)


def test_record_oracle(pool):
    (entry,) = pool.record
    assert entry["name"] == "bc-1.06"
    assert entry["digest"] and len(entry["sha256"]) == 64

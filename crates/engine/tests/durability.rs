//! Engine-level durability: background compaction under live search
//! traffic, threshold triggering, and reopen after crash/compaction.

use hd_core::api::AnnIndex;
use hd_core::dataset::{generate, DatasetProfile};
use hd_engine::{Engine, EngineParams};
use hd_index::{HdIndexParams, QueryParams, RefSelection};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

fn index_params() -> HdIndexParams {
    HdIndexParams {
        tau: 4,
        hilbert_order: 8,
        num_references: 5,
        ref_selection: RefSelection::Sss { f: 0.3 },
        domain: (0.0, 255.0),
        random_partitioning: None,
        build_cache_pages: 64,
        query_cache_pages: 32,
        seed: 13,
    }
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("hd_engine_durability")
        .join(format!("{name}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Spin until no background compaction is in flight (bounded).
fn quiesce(engine: &Engine) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while engine.compacting() {
        assert!(Instant::now() < deadline, "compaction never finished");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Deleting past the density threshold schedules a background compaction
/// on the worker pool, and searches keep running (and keep returning
/// well-formed answers) the whole time. Afterwards the engine reopens
/// with its id space intact even though the shard heaps shrank.
#[test]
fn background_compaction_races_searches_then_reopens() {
    let n = 1200usize;
    let k = 10usize;
    let (data, queries) = generate(&DatasetProfile::SIFT, n, 8, 29);
    let dir = scratch("bg_compact");
    let params = EngineParams {
        shards: 3,
        threads: 4,
        cache_budget_pages: 512,
        build_budget_bytes: 0,
        index: index_params(),
        compaction_threshold: Some(0.10),
    };
    let engine = Engine::build(&data, &params, &dir).unwrap();
    let qp = QueryParams::triangular(128, 64, k);

    // Delete ~25% of the corpus while searcher threads hammer the engine.
    // The threshold is 10%, so every shard must compact at least once.
    let deleted: Vec<u64> = (0..n as u64)
        .filter(|id| id.wrapping_mul(2_654_435_761) % 100 < 25)
        .collect();
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        for _ in 0..3 {
            let (engine, queries, qp, stop) = (&engine, &queries, &qp, &stop);
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    for q in queries.iter() {
                        let result = engine.search(q, qp).unwrap();
                        assert_eq!(result.len(), k);
                        for w in result.windows(2) {
                            assert!(w[0].dist <= w[1].dist);
                        }
                    }
                }
            });
        }
        for &id in &deleted {
            engine.delete(id).unwrap();
        }
        quiesce(&engine);
        stop.store(true, Ordering::Relaxed);
    });

    // Every shard crossed the threshold, so compactions actually ran and
    // drove every shard back below it: what tombstones remain are under
    // 10% of stored slots in aggregate (per-shard bound implies it).
    let stats = AnnIndex::stats(&engine);
    assert!(
        stats.write.compactions >= 1,
        "no background compaction ever installed"
    );
    assert_eq!(engine.len(), n as u64, "id space must survive compaction");
    assert_eq!(stats.live_len, (n - deleted.len()) as u64);
    let residual = (stats.stored_len - stats.live_len) as f64 / stats.stored_len as f64;
    assert!(
        residual < 0.10,
        "residual tombstone density {residual:.3} still above the threshold"
    );
    // The heaps really shrank: ~25% of the corpus is gone, so stored slots
    // must sit well below the build-time count.
    assert!(
        stats.stored_len < n as u64,
        "no heap ever shrank: {} stored of {n} built",
        stats.stored_len
    );

    // Durable across reopen: same id space, same live set, deleted ids
    // refuse further deletes with the compacted-away diagnostic.
    engine.save().unwrap();
    drop(engine);
    let reopened = Engine::open(&dir, &params).unwrap();
    assert_eq!(reopened.len(), n as u64);
    assert_eq!(AnnIndex::stats(&reopened).live_len, (n - deleted.len()) as u64);
    let err = reopened.delete(deleted[0]).unwrap_err();
    assert!(
        err.to_string().contains("compacted away"),
        "unexpected error: {err}"
    );
    for q in queries.iter().take(2) {
        assert_eq!(reopened.search(q, &qp).unwrap().len(), k);
    }
    std::fs::remove_dir_all(dir).ok();
}

/// Write+search stress: concurrent inserters, deleters and searchers with
/// background compaction enabled. The engine must stay coherent — exact
/// global length, every surviving insert findable at distance 0.
#[test]
fn concurrent_writes_searches_and_compactions_stay_coherent() {
    const INSERTS: usize = 60;
    let n = 900usize;
    let (data, queries) = generate(&DatasetProfile::SIFT, n, 6, 31);
    let dir = scratch("stress");
    let params = EngineParams {
        shards: 3,
        threads: 4,
        cache_budget_pages: 512,
        build_budget_bytes: 0,
        index: index_params(),
        compaction_threshold: Some(0.08),
    };
    let engine = Engine::build(&data, &params, &dir).unwrap();
    let qp = QueryParams::triangular(96, 48, 5);
    let needle = |i: usize| -> Vec<f32> {
        (0..128).map(|d| ((d * 11 + i * 3) % 256) as f32).collect()
    };

    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        for _ in 0..2 {
            let (engine, queries, qp, stop) = (&engine, &queries, &qp, &stop);
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    for q in queries.iter() {
                        engine.search(q, qp).unwrap();
                    }
                }
            });
        }
        // Writer: inserts race deletes, deletes race background
        // compactions of whatever shard crosses the threshold first.
        let (engine, stop) = (&engine, &stop);
        s.spawn(move || {
            for i in 0..INSERTS {
                let id = engine.insert(&needle(i)).unwrap();
                assert_eq!(id, (n + i) as u64, "global ids must stay sequential");
                for j in 0..4 {
                    let victim = ((i * 4 + j) * 13 % n) as u64;
                    // A victim may already be gone (deleted, or deleted and
                    // compacted away) — only "unknown id" style errors are
                    // acceptable, never a crash or a wrong delete.
                    let _ = engine.delete(victim);
                }
            }
            stop.store(true, Ordering::Relaxed);
        });
    });
    quiesce(&engine);

    assert_eq!(engine.len(), (n + INSERTS) as u64);
    let wide = QueryParams::triangular(n + INSERTS, n + INSERTS, 1);
    for i in 0..INSERTS {
        let global = (n + i) as u64;
        let hit = engine.search(&needle(i), &wide).unwrap()[0];
        assert_eq!((hit.id, hit.dist), (global, 0.0), "insert {i} lost in the race");
    }
    let stats = AnnIndex::stats(&engine);
    assert!(stats.live_len <= stats.stored_len);
    assert!(stats.write.wal_records >= (INSERTS as u64));
    std::fs::remove_dir_all(dir).ok();
}

/// `compact_now` on a quiescent engine is exact: answers before and after
/// are identical, and reclaimed disk shows up in `disk_bytes`.
#[test]
fn compact_now_is_transparent_to_search() {
    let n = 600usize;
    let (data, queries) = generate(&DatasetProfile::SIFT, n, 6, 37);
    let dir = scratch("compact_now");
    let params = EngineParams {
        shards: 2,
        threads: 2,
        cache_budget_pages: 256,
        build_budget_bytes: 0,
        index: index_params(),
        compaction_threshold: None,
    };
    let engine = Engine::build(&data, &params, &dir).unwrap();
    for id in (0..n as u64).filter(|id| id % 3 == 0) {
        engine.delete(id).unwrap();
    }
    // Saturated budgets: exact answers over the live set on both sides.
    let qp = QueryParams::triangular(n, n, 10);
    let before: Vec<_> = queries.iter().map(|q| engine.search(q, &qp).unwrap()).collect();
    let disk_before = engine.disk_bytes();

    assert_eq!(engine.compact_now().unwrap(), 2, "both shards had tombstones");
    for (qi, q) in queries.iter().enumerate() {
        assert_eq!(
            engine.search(q, &qp).unwrap(),
            before[qi],
            "compact_now changed query {qi}"
        );
    }
    assert!(
        engine.disk_bytes() < disk_before,
        "compaction reclaimed nothing: {} -> {}",
        disk_before,
        engine.disk_bytes()
    );
    // Second call: nothing left to do.
    assert_eq!(engine.compact_now().unwrap(), 0);
    std::fs::remove_dir_all(dir).ok();
}

/// Non-finite vectors are refused at the engine edge: a query with a NaN
/// coordinate and an insert with `inf` both fail with `InvalidInput`, and
/// neither burns an id nor leaves a trace in later answers.
#[test]
fn non_finite_vectors_are_invalid_input() {
    let n = 600usize;
    let (data, queries) = generate(&DatasetProfile::SIFT, n, 3, 41);
    let dir = scratch("non_finite");
    let params = EngineParams {
        shards: 2,
        threads: 2,
        compaction_threshold: None,
        ..EngineParams::new(index_params())
    };
    let engine = Engine::build(&data, &params, &dir).unwrap();
    let qp = QueryParams::triangular(128, 32, 10);
    let before = engine.search(queries.get(0), &qp).unwrap();

    let mut bad = queries.get(0).to_vec();
    bad[5] = f32::NAN;
    let err = engine.search(&bad, &qp).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
    bad[5] = f32::INFINITY;
    let err = engine.insert(&bad).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");

    assert_eq!(
        engine.len(),
        n as u64,
        "a refused insert must not take an id"
    );
    assert_eq!(AnnIndex::stats(&engine).live_len, n as u64);
    assert_eq!(engine.search(queries.get(0), &qp).unwrap(), before);
    assert_eq!(engine.insert(queries.get(1)).unwrap(), n as u64);
    std::fs::remove_dir_all(dir).ok();
}

/// A shard written outside the engine (two inserts straight into shard 1)
/// breaks round-robin placement. Reopening must refuse it, naming the
/// shard, instead of serving until the next insert fails after it was
/// already logged.
#[test]
fn open_refuses_shard_watermarks_off_round_robin() {
    let (data, _) = generate(&DatasetProfile::SIFT, 1000, 1, 43);
    let dir = scratch("watermarks");
    let params = EngineParams {
        shards: 2,
        threads: 2,
        compaction_threshold: None,
        ..EngineParams::new(index_params())
    };
    drop(Engine::build(&data, &params, &dir).unwrap());
    {
        let mut shard = hd_index::HdIndex::open(hd_engine::shard::shard_dir(&dir, 1), 0).unwrap();
        shard.insert(data.get(0)).unwrap();
        shard.insert(data.get(1)).unwrap();
        shard.save().unwrap();
    }
    let err = Engine::open(&dir, &params).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    assert!(err.to_string().contains("shard 1"), "{err}");
    std::fs::remove_dir_all(dir).ok();
}

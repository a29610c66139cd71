//! `mixed-write`: one durable writer (autocommit, one WAL commit per op;
//! inserts and deletes of random live ids at 1:1) beside one reader issuing
//! single queries, on an engine whose background compaction triggers
//! repeatedly within a run.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hd_core::api::{AnnIndex, SearchRequest};
use hd_core::dataset::{generate, Dataset, DatasetProfile};
use hd_core::ground_truth::ground_truth_knn;
use hd_engine::{Engine, EngineParams};
use hd_index::HdIndexParams;
use rand::{Rng, SeedableRng};

use crate::layers::{self, LayerInputs};
use crate::record::Machine;
use crate::stats::{self, OpLog};
use crate::trace::Tracer;
use crate::{Args, Outcome, Phase, ENGINE_THREADS};

const N: usize = 20_000;
/// Vectors the writer cycles through for its inserts.
const INSERT_POOL: usize = 20_000;
const QUERIES: usize = 200;
const SHARDS: usize = 2;
const K: usize = 10;
const CANDIDATES: usize = 256;
const REFINE: usize = 64;
/// Tombstone density that schedules a background compaction: about 500
/// deletes per shard, so at [`WRITES_PER_S`] each shard compacts every few
/// seconds.
const COMPACTION_THRESHOLD: f64 = 0.05;
/// The writer's schedule (open loop): one op due every 1/rate seconds,
/// whether or not the previous one has finished. A closed-loop writer
/// saturates the append gate and starves the reader (see CHANGES.md).
const WRITES_PER_S: f64 = 500.0;
const CACHE_PAGES: usize = 16_384;
/// How long the end of a run waits for in-flight compactions to settle.
const SETTLE: Duration = Duration::from_secs(60);

fn params() -> EngineParams {
    EngineParams {
        shards: SHARDS,
        threads: ENGINE_THREADS,
        cache_budget_pages: CACHE_PAGES,
        build_budget_bytes: 0,
        index: HdIndexParams {
            query_cache_pages: CACHE_PAGES,
            ..HdIndexParams::for_profile(&DatasetProfile::SIFT)
        },
        compaction_threshold: Some(COMPACTION_THRESHOLD),
    }
}

fn request() -> SearchRequest {
    SearchRequest::new(K)
        .with_candidates(CANDIDATES)
        .with_refine(REFINE)
}

/// The writer's view of the store: what every acknowledged write implies.
struct Ledger {
    /// Expected liveness per global id; `None` after a failed write, whose
    /// effect is unknown.
    expect: Vec<Option<bool>>,
    /// Ids the writer may delete next.
    live: Vec<u64>,
    /// Insert-pool row behind each inserted id.
    inserted: std::collections::HashMap<u64, usize>,
    inserts: usize,
    rng: rand::rngs::StdRng,
}

impl Ledger {
    fn new(n: usize, seed: u64) -> Self {
        Self {
            expect: vec![Some(true); n],
            live: (0..n as u64).collect(),
            inserted: std::collections::HashMap::new(),
            inserts: 0,
            rng: rand::rngs::StdRng::seed_from_u64(seed ^ 0x5752_4954_4553),
        }
    }

    /// Checks every id with a known expectation against `engine`.
    fn check(&self, engine: &Engine, when: &str, errors: &mut Vec<String>) {
        for (id, want) in self.expect.iter().enumerate() {
            if let Some(want) = want {
                if engine.contains_live(id as u64) != *want {
                    errors.push(format!(
                        "{when}: id {id} should be {}",
                        if *want { "live" } else { "deleted" }
                    ));
                }
            }
        }
    }
}

/// Issues writes on a fixed schedule. Each write's latency is measured
/// from when it was due, so a stall also charges the writes queued behind
/// it. Returns the log and the largest lateness in milliseconds.
fn writer(
    engine: &Engine,
    pool: &Dataset,
    ledger: &mut Ledger,
    stop: &AtomicBool,
    tr: &mut Tracer,
) -> (OpLog, f64) {
    let mut log = OpLog::default();
    let mut max_late_ms = 0.0f64;
    let started = Instant::now();
    let mut op = 0u64;
    while !stop.load(Ordering::Relaxed) {
        let due = started + Duration::from_secs_f64(op as f64 / WRITES_PER_S);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        } else {
            max_late_ms = max_late_ms.max((now - due).as_secs_f64() * 1e3);
        }
        op += 1;
        let from_due = || due.elapsed().as_secs_f64() * 1e3;
        if op % 2 == 1 {
            let row = ledger.inserts % pool.len();
            let v = pool.get(row);
            ledger.inserts += 1;
            match tr.time("phase.insert", op, || engine.insert(v)) {
                (Ok(id), _) => {
                    log.ok(from_due());
                    let id = id as usize;
                    if ledger.expect.len() <= id {
                        ledger.expect.resize(id + 1, None);
                    }
                    ledger.expect[id] = Some(true);
                    ledger.live.push(id as u64);
                    ledger.inserted.insert(id as u64, row);
                }
                (Err(_), _) => log.fail(),
            }
        } else {
            let at = ledger.rng.gen_range(0..ledger.live.len());
            let id = ledger.live.swap_remove(at);
            let (res, _) = tr.time("phase.delete", op, || engine.delete(id));
            ledger.expect[id as usize] = match res {
                Ok(()) => {
                    log.ok(from_due());
                    Some(false)
                }
                Err(_) => {
                    log.fail();
                    None
                }
            };
        }
    }
    (log, max_late_ms)
}

fn reader(
    engine: &Engine,
    queries: &[Vec<f32>],
    seconds: f64,
    started: Instant,
    tr: &mut Tracer,
) -> OpLog {
    let mut log = OpLog::default();
    let req = request();
    let mut i = 0usize;
    while started.elapsed().as_secs_f64() < seconds {
        let q = &queries[i % queries.len()];
        match tr.time("phase.search", i as u64, || {
            AnnIndex::search(engine, q, &req)
        }) {
            (Ok(_), ms) => log.ok(ms),
            (Err(_), _) => log.fail(),
        }
        i += 1;
    }
    log
}

fn window(
    engine: &Engine,
    pool: &Dataset,
    queries: &[Vec<f32>],
    ledger: &mut Ledger,
    seconds: f64,
    tracer: &mut Tracer,
) -> Phase {
    let stop = AtomicBool::new(false);
    let started = Instant::now();
    let mut wtr = tracer.fork();
    let mut rtr = tracer.fork();
    let ((writes, write_lag_ms), queries_log) = std::thread::scope(|s| {
        let stop = &stop;
        let wtr = &mut wtr;
        let w_handle = s.spawn(move || writer(engine, pool, ledger, stop, wtr));
        let reads = reader(engine, queries, seconds, started, &mut rtr);
        stop.store(true, Ordering::Relaxed);
        (w_handle.join().expect("writer thread"), reads)
    });
    tracer.absorb(wtr);
    tracer.absorb(rtr);
    Phase {
        queries: queries_log,
        writes,
        write_lag_ms,
        wall_s: started.elapsed().as_secs_f64(),
        cpu_s: 0.0,
    }
}

/// Mean recall@k of the engine's answers against exact search over the
/// live vectors.
fn live_recall(
    engine: &Engine,
    ledger: &Ledger,
    base: &Dataset,
    pool: &Dataset,
    queries: &[Vec<f32>],
) -> std::io::Result<f64> {
    let n = base.len();
    let mut live = Dataset::new(base.dim());
    let mut ids = Vec::new();
    for (id, state) in ledger.expect.iter().enumerate() {
        if *state == Some(true) {
            live.push(if id < n {
                base.get(id)
            } else {
                pool.get(ledger.inserted[&(id as u64)])
            });
            ids.push(id as u64);
        }
    }
    let qs = Dataset::from_flat(base.dim(), queries.concat());
    let truth = ground_truth_knn(&live, &qs, K, ENGINE_THREADS);
    let mut sum = 0.0;
    for (q, t) in queries.iter().zip(truth) {
        let t: Vec<_> = t
            .into_iter()
            .map(|mut nb| {
                nb.id = ids[nb.id as usize];
                nb
            })
            .collect();
        sum += stats::recall(&t, &AnnIndex::search(engine, q, &request())?.neighbors);
    }
    Ok(sum / queries.len() as f64)
}

pub fn run(args: &Args, tracer: &mut Tracer) -> std::io::Result<Outcome> {
    let profile = DatasetProfile::SIFT;
    let (corpus, queries) = generate(&profile, N + INSERT_POOL, QUERIES, args.seed);
    let (base, pool) = corpus.as_flat().split_at(N * profile.dim);
    let base = Dataset::from_flat(profile.dim, base.to_vec());
    let pool = Dataset::from_flat(profile.dim, pool.to_vec());
    let queries: Vec<Vec<f32>> = queries.iter().map(<[f32]>::to_vec).collect();
    let params = params();
    let work = crate::work_dir(args.workload)?;
    let dir = work.join("engine");

    let (engine, setup_s) = crate::repeated_setup(
        crate::setups(args),
        |_| {
            let engine = Engine::build(&base, &params, &dir)?;
            AnnIndex::search(&engine, &queries[0], &request())?;
            Ok(engine)
        },
        |engine| {
            drop(engine);
            std::fs::remove_dir_all(&dir)
        },
    )?;

    let mut ledger = Ledger::new(N, args.seed);
    let before = AnnIndex::stats(&engine);
    let (phase, traced) = crate::timed_windows(args, tracer, |seconds, tr| {
        window(&engine, &pool, &queries, &mut ledger, seconds, tr)
    });
    let after = AnnIndex::stats(&engine);
    let io_phase = after.io.since(&before.io);
    let compactions = after.write.compactions - before.write.compactions;
    let settle = Instant::now();
    while engine.compacting() && settle.elapsed() < SETTLE {
        std::thread::sleep(Duration::from_millis(10));
    }

    let mut errors = Vec::new();
    ledger.check(&engine, "before reopen", &mut errors);
    let recall = live_recall(&engine, &ledger, &base, &pool, &queries)?;
    let space_amp = crate::space_amp(&engine);
    drop(engine);
    let engine = Engine::open(&dir, &params)?;
    ledger.check(&engine, "after reopen", &mut errors);

    let layers = if args.trace {
        let qp = engine
            .serve_params()
            .resolve(&request(), engine.len() as usize);
        layers::measure(
            LayerInputs {
                engine: Arc::new(engine),
                params: &params,
                data: &base,
                queries: &queries,
                qp,
                batch: Some(1),
                io_phase,
                compactions,
                scratch: &work,
            },
            tracer,
        )?
    } else {
        drop(engine);
        Vec::new()
    };
    std::fs::remove_dir_all(&work)?;
    Ok(Outcome {
        machine: Machine {
            nproc: crate::nproc(),
            engine_threads: ENGINE_THREADS,
            server_threads: 0,
            client_threads: 2,
        },
        config: vec![
            ("n".into(), N as f64),
            ("dim".into(), profile.dim as f64),
            ("queries".into(), QUERIES as f64),
            ("shards".into(), SHARDS as f64),
            ("k".into(), K as f64),
            ("candidates".into(), CANDIDATES as f64),
            ("refine".into(), REFINE as f64),
            ("compaction_threshold".into(), COMPACTION_THRESHOLD),
            ("compactions".into(), compactions as f64),
            (
                "cache_budget_bytes".into(),
                (CACHE_PAGES * hd_storage::DEFAULT_PAGE_SIZE) as f64,
            ),
            ("build_budget_bytes".into(), 0.0),
        ],
        setup_s,
        phase,
        traced,
        recall: (recall, QUERIES),
        io: io_phase,
        space_amp,
        errors,
        layers,
        notes: vec![
            "acknowledged writes are checked before and after a clean drop and reopen; \
             a crash that discards unflushed bytes is out of scope"
                .into(),
        ],
    })
}

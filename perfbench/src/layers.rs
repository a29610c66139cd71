//! Per-layer measurements for a traced run.
//!
//! Every number here comes from a span the benchmark records around one
//! call into a layer's public function, made on the workload's own data
//! and knobs, or from a public counter the program already exposes
//! (`SearchTrace`, `IndexStats`, `WriteStats`, `ServerMetrics`,
//! `BuildStats`). A layer's self time is its call time minus the time of
//! the call into the layer below on the same inputs
//! ([`crate::stats::self_time`]).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{self, BufReader};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hd_btree::BTree;
use hd_core::api::{AnnIndex, IoSnapshot, SearchRequest};
use hd_core::dataset::Dataset;
use hd_core::distance::{l2_sq, l2_sq_bounded};
use hd_core::partition::Partitioning;
use hd_core::pool::WorkerPool;
use hd_core::topk::{Neighbor, TopK};
use hd_engine::shard::shard_dir;
use hd_engine::{Engine, EngineParams};
use hd_hilbert::HilbertCurve;
use hd_index::filters::{keep_smallest, ptolemaic_lb, triangular_lb};
use hd_index::meta::IndexMeta;
use hd_index::{rdb, BuildOpts, HdIndex, QueryParams, ReferenceSet};
use hd_server::{dto, Coalescer, Server, ServerConfig, ServerMetrics};
use hd_storage::{
    BufferPool, BuildBudget, CacheBudget, Pager, VectorHeap, Wal, WalRecord, DEFAULT_PAGE_SIZE,
};
use hd_telemetry::json::Json;

use crate::http::{self, Client, CANDIDATES, K, REFINE};
use crate::record::Measured;
use crate::stats;
use crate::trace::Tracer;
use crate::CLIENT_THREADS;

/// Queries replayed through each layer.
const PROBE_QUERIES: usize = 64;
/// Requests per client in the coalescer and served probes.
const PROBE_REQUESTS: usize = 300;
/// Engine writes, B+-tree inserts and WAL commits per probe.
const PROBE_WRITES: usize = 100;
/// Repetitions inside one span for calls too short to time singly.
const REPEAT: usize = 100;

/// One per-layer metric: what it is and where a change to its layer
/// should, and should not, show end to end.
pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub moves: &'static str,
    pub flat_on: &'static str,
}

const fn lm(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
    flat_on: &'static str,
) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better,
        moves,
        flat_on,
    }
}

const SERVED: &str = "qps, query_p50_ms on serve-passthrough and serve-point";
const COALESCED: &str = "qps, query_p50_ms on serve-point";
const SCAN: &str = "qps, query_p50_ms on engine-scan";
const WRITE: &str = "write_p50_ms, write_ops_s on mixed-write";

/// Every per-layer metric a traced run reports, in report order.
#[rustfmt::skip]
pub const LAYERS: &[LayerMetric] = &[
    lm("minihttp.read_request_us", "us", "lower", SERVED, "engine-scan, mixed-write"),
    lm("server.parse_query_us", "us", "lower", SERVED, "engine-scan, mixed-write"),
    lm("server.serialize_us", "us", "lower", SERVED, "engine-scan, mixed-write"),
    lm("server.self_us", "us", "lower", SERVED, "engine-scan, mixed-write"),
    lm("coalescer.turnaround_us", "us", "lower", COALESCED, "serve-passthrough, engine-scan"),
    lm("coalescer.wait_us", "us", "lower", COALESCED, "serve-passthrough, engine-scan"),
    lm("coalescer.mean_batch", "count", "higher", "qps on serve-point", "serve-passthrough, engine-scan"),
    lm("engine.batch_us", "us", "lower", "qps on engine-scan", "mixed-write writes"),
    lm("engine.query_us", "us", "lower", "query_p50_ms on every workload", "mixed-write writes"),
    lm("engine.dispatch_floor_us", "us", "lower", "qps on serve-passthrough and serve-point", "mixed-write writes"),
    lm("engine.self_us", "us", "lower", "qps on engine-scan", "mixed-write writes"),
    lm("engine.insert_us", "us", "lower", WRITE, "serve-point, engine-scan"),
    lm("engine.delete_us", "us", "lower", WRITE, "serve-point, engine-scan"),
    lm("engine.compact_s", "s", "lower", "write_p99_ms, query_p99_ms on mixed-write", "serve-point, engine-scan"),
    lm("engine.compactions", "count", "higher", "space_amp on mixed-write", "serve-point, serve-passthrough, engine-scan (only the probe's compact_now there)"),
    lm("engine.fsyncs_per_write", "count", "lower", WRITE, "serve-point, engine-scan"),
    lm("engine.max_tombstone_density", "ratio", "lower", "space_amp, recall on mixed-write", "serve-point, engine-scan"),
    lm("index.query_us", "us", "lower", SCAN, "serve-point, mixed-write writes"),
    lm("index.ref_dists_us", "us", "lower", SCAN, "serve-point, mixed-write writes"),
    lm("index.candidates_us", "us", "lower", SCAN, "serve-point, mixed-write writes"),
    lm("index.refine_us", "us", "lower", SCAN, "serve-point, mixed-write writes"),
    lm("index.scanned", "count", "lower", SCAN, "serve-point, mixed-write writes"),
    lm("index.kappa", "count", "lower", SCAN, "serve-point, mixed-write writes"),
    lm("index.candidate_yield", "ratio", "higher", SCAN, "serve-point, mixed-write writes"),
    lm("index.refine_evals", "count", "lower", SCAN, "serve-point, mixed-write writes"),
    lm("index.abandon_ratio", "ratio", "higher", SCAN, "serve-point, mixed-write writes"),
    lm("index.pages_read", "count", "lower", "physical_reads_per_query on engine-scan and serve-passthrough", "serve-point, mixed-write writes"),
    lm("index.logical_reads", "count", "lower", "logical_reads_per_query on engine-scan and serve-passthrough", "mixed-write writes"),
    lm("index.build_s", "s", "lower", "setup_s on engine-scan", "query metrics everywhere"),
    lm("index.spilled_runs", "count", "lower", "setup_s on engine-scan", "query metrics everywhere"),
    lm("index.spilled_bytes", "bytes", "lower", "setup_s on engine-scan", "query metrics everywhere"),
    lm("filters.triangular_ns", "ns", "lower", "qps on engine-scan", "serve-point"),
    lm("filters.ptolemaic_ns", "ns", "lower", "qps on engine-scan", "serve-point"),
    lm("reference.distances_to_us", "us", "lower", "qps on engine-scan", "serve-point"),
    lm("btree.seek_us", "us", "lower", "qps on engine-scan", "serve-point"),
    lm("btree.scan_ns", "ns", "lower", "qps on engine-scan", "serve-point"),
    lm("btree.pages_per_seek", "count", "lower", "qps on engine-scan", "serve-point"),
    lm("btree.insert_us", "us", "lower", "write_p50_ms on mixed-write", "serve-point"),
    lm("hilbert.encode_ns", "ns", "lower", "qps on engine-scan; write_p50_ms on mixed-write", "serve-point"),
    lm("buffer.hit_ratio", "ratio", "higher", "physical_reads_per_query, qps on engine-scan and serve-passthrough", "serve-point"),
    lm("pager.read_us", "us", "lower", "qps on engine-scan and serve-passthrough", "serve-point"),
    lm("heap.block_fetch_us", "us", "lower", "qps on engine-scan and serve-passthrough", "serve-point"),
    lm("wal.commit_us", "us", "lower", "write_p50_ms on mixed-write", "serve-point"),
    lm("distance.l2_bounded_ns", "ns", "lower", "qps on engine-scan", "mixed-write writes"),
    lm("topk.push_ns", "ns", "lower", "qps on engine-scan", "mixed-write writes"),
    lm("pool.handoff_us", "us", "lower", "qps on serve-passthrough and serve-point", "mixed-write writes"),
];

/// What the layer probes run on: the workload's engine, data and knobs.
pub struct LayerInputs<'a> {
    pub engine: Arc<Engine>,
    pub params: &'a EngineParams,
    pub data: &'a Dataset,
    pub queries: &'a [Vec<f32>],
    /// The workload's query knobs.
    pub qp: QueryParams,
    /// Queries per engine call; `None` takes the coalescer's mean batch.
    pub batch: Option<usize>,
    /// The engine's IO ledger over the timed window.
    pub io_phase: IoSnapshot,
    /// Compactions installed during the timed window.
    pub compactions: u64,
    pub scratch: &'a Path,
}

/// Samples per metric name; each metric reports their median.
#[derive(Default)]
struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    fn add(&mut self, name: &'static str, v: f64) {
        self.0.entry(name).or_default().push(v);
    }

    fn median(&self, name: &str) -> f64 {
        self.0.get(name).map_or(f64::NAN, |v| stats::median(v))
    }
}

fn other(e: impl std::fmt::Display) -> io::Error {
    io::Error::other(e.to_string())
}

/// Runs every probe and returns the metrics of [`LAYERS`], in order.
pub fn measure(inp: LayerInputs, tr: &mut Tracer) -> io::Result<Vec<Measured>> {
    tr.set_recording(true);
    let mut s = Samples::default();
    let queries: Vec<&[f32]> = inp
        .queries
        .iter()
        .take(PROBE_QUERIES)
        .map(Vec::as_slice)
        .collect();
    let engine = inp.engine;

    let mean_batch = served_probes(&engine, &queries, tr, &mut s)?;
    s.add("coalescer.mean_batch", mean_batch);
    let batch = inp.batch.unwrap_or(mean_batch.round().max(1.0) as usize);
    engine_probes(&engine, &queries, &inp.qp, batch, tr, &mut s)?;
    // Compactions installed: the timed window's background ones plus those
    // of the write probe's `compact_now`, so the count moves on every
    // workload.
    let compactions0 = crate::compactions(&engine);
    write_probes(&engine, &queries, tr, &mut s)?;
    s.add(
        "engine.compactions",
        (inp.compactions + crate::compactions(&engine) - compactions0) as f64,
    );
    let io = inp.io_phase;
    s.add(
        "buffer.hit_ratio",
        1.0 - io.physical_reads as f64 / io.logical_reads.max(1) as f64,
    );

    let dir = engine.dir().to_path_buf();
    let shards = engine.shards();
    let engine =
        Arc::try_unwrap(engine).map_err(|_| other("engine still shared after the probes"))?;
    drop(engine);
    index_replay(
        &dir, shards, inp.params, &queries, &inp.qp, batch, tr, &mut s,
    )?;
    storage_probes(
        &shard_dir(&dir, 0),
        inp.params,
        &queries,
        &inp.qp,
        inp.scratch,
        tr,
        &mut s,
    )?;
    build_probe(inp.data, shards, inp.params, inp.scratch, tr, &mut s)?;

    // An unmeasured metric reads NaN, which the result line refuses.
    Ok(LAYERS
        .iter()
        .map(|m| {
            let n = s.0.get(m.name).map_or(0, Vec::len) as u64;
            Measured::new(m.name, m.unit, s.median(m.name), n)
        })
        .collect())
}

/// minihttp, the DTO layer, the coalescer and a served round trip, all at
/// serve-point's knobs. Returns the coalescer's mean batch.
fn served_probes(
    engine: &Arc<Engine>,
    queries: &[&[f32]],
    tr: &mut Tracer,
    s: &mut Samples,
) -> io::Result<f64> {
    let config = ServerConfig {
        save_on_shutdown: false,
        ..ServerConfig::default()
    };
    let req = SearchRequest::new(K)
        .with_candidates(CANDIDATES)
        .with_refine(REFINE);
    let qp = engine.serve_params().resolve(&req, engine.len() as usize);
    let dim = AnnIndex::dim(engine.as_ref());
    let requests: Vec<Vec<u8>> = queries
        .iter()
        .map(|q| http::query_request(&http::query_body(q, K, CANDIDATES, REFINE)))
        .collect();
    for (i, bytes) in requests.iter().enumerate() {
        let op = i as u64;
        let (parsed, ms) = tr.time("minihttp.read_request", op, || {
            minihttp::read_request(
                &mut BufReader::new(&bytes[..]),
                &minihttp::Limits::default(),
            )
        });
        s.add("minihttp.read_request_us", ms * 1e3);
        let request = parsed
            .map_err(|e| other(format!("{e:?}")))?
            .ok_or_else(|| other("empty request"))?;
        let (dto, ms) = tr.time("dto.parse_query", op, || {
            dto::parse_query(&request.body, config.max_body_bytes, dim)
        });
        s.add("server.parse_query_us", ms * 1e3);
        dto.map_err(other)?;
        let answer = engine.search(queries[i], &qp)?;
        let (written, ms) = tr.time("server.serialize", op, || {
            let body = Json::Obj(vec![
                ("neighbors".into(), dto::neighbors_json(&answer)),
                ("coalesced".into(), Json::Bool(true)),
            ])
            .render();
            let mut out = Vec::new();
            minihttp::Response::json(200, body)
                .write_to(&mut out, true)
                .map(|()| out.len())
        });
        s.add("server.serialize_us", ms * 1e3);
        written?;
    }

    // The coalescer alone: two submitters, the server's default policy.
    let metrics = ServerMetrics::new();
    let (batches0, sizes0) = (metrics.batches_total.get(), metrics.batch_size.sum());
    let coalescer = Coalescer::start(
        Arc::clone(engine),
        config.queue_capacity,
        config.max_batch,
        config.max_wait_us,
        metrics.clone(),
    );
    let turnaround = concurrent(tr, |c, tr| {
        (0..PROBE_REQUESTS)
            .map(|i| {
                let q = queries[(c + i * CLIENT_THREADS) % queries.len()].to_vec();
                let (res, ms) =
                    tr.time("coalescer.submit_wait", (c as u64) << 32 | i as u64, || {
                        coalescer.submit(q, req).map(|ticket| ticket.wait())
                    });
                match res {
                    Ok(Ok(_)) => Ok(ms * 1e3),
                    Ok(Err(e)) => Err(e),
                    Err(e) => Err(other(format!("coalescer refused a query: {e:?}"))),
                }
            })
            .collect()
    })?;
    drop(coalescer);
    let batches = metrics.batches_total.get() - batches0;
    let mean_batch = (metrics.batch_size.sum() - sizes0) as f64 / batches.max(1) as f64;
    let turnaround_us = stats::median(&turnaround);
    for v in &turnaround {
        s.add("coalescer.turnaround_us", *v);
    }

    // The engine call the coalescer makes, at the batch size it formed.
    let b = (mean_batch.round() as usize).max(1);
    let mut batch_us = Vec::new();
    for i in 0..PROBE_REQUESTS {
        let batch: Vec<&[f32]> = (0..b)
            .map(|j| queries[(i * b + j) % queries.len()])
            .collect();
        let (res, ms) = tr.time("engine.search_batch.coalesced", i as u64, || {
            engine.search_batch(batch.iter().copied(), &qp)
        });
        res?;
        batch_us.push(ms * 1e3);
    }
    s.add(
        "coalescer.wait_us",
        stats::self_time(turnaround_us, &[stats::median(&batch_us)]),
    );

    // A served round trip over a real socket.
    let server = Server::bind(Arc::clone(engine), config)?;
    let addr = server.addr();
    let roundtrip = concurrent(tr, |c, tr| {
        let mut client = Client::connect(addr)?;
        (0..PROBE_REQUESTS)
            .map(|i| {
                let qi = (c + i * CLIENT_THREADS) % requests.len();
                let (res, ms) = tr.time("server.roundtrip", (c as u64) << 32 | i as u64, || {
                    client.roundtrip(&requests[qi])
                });
                match res? {
                    (200, _) => Ok(ms * 1e3),
                    (status, _) => Err(other(format!("served probe answered {status}"))),
                }
            })
            .collect()
    })?;
    server.shutdown()?;
    s.add(
        "server.self_us",
        stats::self_time(stats::median(&roundtrip), &[turnaround_us]),
    );
    Ok(mean_batch)
}

/// Runs `client(c, tracer)` on each of [`CLIENT_THREADS`] threads and
/// returns every sample they produce.
fn concurrent(
    tr: &mut Tracer,
    client: impl Fn(usize, &mut Tracer) -> io::Result<Vec<f64>> + Sync,
) -> io::Result<Vec<f64>> {
    let results: Vec<(io::Result<Vec<f64>>, Tracer)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENT_THREADS)
            .map(|c| {
                let mut t = tr.fork();
                let client = &client;
                scope.spawn(move || (client(c, &mut t), t))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("probe thread"))
            .collect()
    });
    let mut all = Vec::new();
    for (r, t) in results {
        tr.absorb(t);
        all.extend(r?);
    }
    Ok(all)
}

/// `Engine::search_batch` at the workload's knobs and batch size, the
/// same call at k = candidates = refine = 1, and the worker pool's
/// hand-off.
fn engine_probes(
    engine: &Engine,
    queries: &[&[f32]],
    qp: &QueryParams,
    batch: usize,
    tr: &mut Tracer,
    s: &mut Samples,
) -> io::Result<()> {
    for chunk in queries.chunks(batch) {
        engine.search_batch(chunk.iter().copied(), qp)?;
    }
    let floor = QueryParams {
        alpha: 1,
        beta: 1,
        gamma: 1,
        k: 1,
        filter: qp.filter,
    };
    for (ci, chunk) in queries.chunks(batch).enumerate() {
        let (res, ms) = tr.time("engine.search_batch", ci as u64, || {
            engine.search_batch(chunk.iter().copied(), qp)
        });
        res?;
        s.add("engine.batch_us", ms * 1e3);
        for _ in chunk {
            s.add("engine.query_us", ms * 1e3 / chunk.len() as f64);
        }
        let (res, ms) = tr.time("engine.dispatch_floor", ci as u64, || {
            engine.search_batch(chunk.iter().copied(), &floor)
        });
        res?;
        s.add("engine.dispatch_floor_us", ms * 1e3);
    }
    let pool = WorkerPool::new(engine.threads());
    for i in 0..PROBE_REQUESTS {
        let tasks =
            (0..engine.shards()).map(|si| (si, Box::new(|| {}) as Box<dyn FnOnce() + Send>));
        let ((), ms) = tr.time("pool.run_scoped", i as u64, || pool.run_scoped(tasks));
        s.add("pool.handoff_us", ms * 1e3);
    }
    Ok(())
}

/// Durable inserts and deletes through the engine, then a forced
/// compaction of the tombstones they leave.
fn write_probes(
    engine: &Engine,
    queries: &[&[f32]],
    tr: &mut Tracer,
    s: &mut Samples,
) -> io::Result<()> {
    let commits0 = AnnIndex::stats(engine).write.wal_commits;
    let mut ids = Vec::with_capacity(PROBE_WRITES);
    for i in 0..PROBE_WRITES {
        let (id, ms) = tr.time("engine.insert", i as u64, || {
            engine.insert(queries[i % queries.len()])
        });
        ids.push(id?);
        s.add("engine.insert_us", ms * 1e3);
    }
    for (i, id) in ids.iter().enumerate() {
        let (res, ms) = tr.time("engine.delete", i as u64, || engine.delete(*id));
        res?;
        s.add("engine.delete_us", ms * 1e3);
    }
    let commits = AnnIndex::stats(engine).write.wal_commits - commits0;
    s.add(
        "engine.fsyncs_per_write",
        commits as f64 / (2 * PROBE_WRITES) as f64,
    );
    s.add(
        "engine.max_tombstone_density",
        engine.health().max_tombstone_density,
    );
    let (res, ms) = tr.time("engine.compact_now", 0, || engine.compact_now());
    res?;
    s.add("engine.compact_s", ms / 1e3);
    let settle = Instant::now();
    while engine.compacting() && settle.elapsed() < Duration::from_secs(60) {
        std::thread::sleep(Duration::from_millis(10));
    }
    Ok(())
}

/// Replays the probe queries through `HdIndex::knn_traced` on every shard,
/// reopened under the engine's cache budget, batch by batch as the engine
/// runs them, and subtracts each replayed batch's time from the reopened
/// engine's time for the same batch, per query.
#[allow(clippy::too_many_arguments)]
fn index_replay(
    dir: &Path,
    shards: usize,
    params: &EngineParams,
    queries: &[&[f32]],
    qp: &QueryParams,
    batch: usize,
    tr: &mut Tracer,
    s: &mut Samples,
) -> io::Result<()> {
    // The engine time the replay is subtracted from. A reopened index
    // answers more slowly than one just built (about 1.5x per batch on
    // engine-scan), and the shards below are reopened, so this is taken
    // on the engine reopened from the same directory.
    let engine = Engine::open(dir, params)?;
    for chunk in queries.chunks(batch) {
        engine.search_batch(chunk.iter().copied(), qp)?;
    }
    let mut engine_batch_us = Vec::new();
    for (ci, chunk) in queries.chunks(batch).enumerate() {
        let (res, ms) = tr.time("engine.search_batch.reopened", ci as u64, || {
            engine.search_batch(chunk.iter().copied(), qp)
        });
        res?;
        engine_batch_us.push(ms * 1e3);
    }
    drop(engine);

    let budget =
        (params.cache_budget_pages > 0).then(|| CacheBudget::new(params.cache_budget_pages));
    let indexes = (0..shards)
        .map(|si| {
            HdIndex::open_with(
                shard_dir(dir, si),
                params.index.query_cache_pages,
                budget.clone(),
            )
        })
        .collect::<io::Result<Vec<_>>>()?;
    for q in queries {
        for index in &indexes {
            index.knn(q, qp)?;
        }
    }
    // Each engine call hands every shard one task on its worker pool that
    // sweeps the whole batch; the replay does the same on a pool of the
    // same size, so the shards overlap as they do inside the engine.
    let pool = WorkerPool::new(params.threads);
    for (ci, chunk) in queries.chunks(batch).enumerate() {
        let parent = tr.open("index.replay_batch", ci as u64);
        let mut sweeps: Vec<_> = indexes.iter().map(|_| (tr.fork(), Vec::new())).collect();
        let t0 = Instant::now();
        pool.run_scoped(sweeps.iter_mut().zip(&indexes).enumerate().map(
            |(si, ((t, out), index))| {
                let task: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                    for q in chunk {
                        let (res, ms) =
                            t.time("index.knn_traced", ci as u64, || index.knn_traced(q, qp));
                        out.push(res.map(|(_, trace)| (ms, trace)));
                    }
                });
                (si, task)
            },
        ));
        let below_us = t0.elapsed().as_secs_f64() * 1e6;
        tr.close(parent);
        for (worker, traces) in sweeps {
            for res in traces {
                let (ms, t) = res?;
                s.add("index.query_us", ms * 1e3);
                s.add("index.ref_dists_us", t.ref_dist_nanos as f64 / 1e3);
                s.add("index.candidates_us", t.candidate_nanos as f64 / 1e3);
                s.add("index.refine_us", t.refine_nanos as f64 / 1e3);
                s.add("index.scanned", t.scanned as f64);
                s.add("index.kappa", t.kappa as f64);
                s.add(
                    "index.candidate_yield",
                    t.kappa as f64 / t.scanned.max(1) as f64,
                );
                s.add("index.refine_evals", t.refine_evals as f64);
                s.add(
                    "index.abandon_ratio",
                    t.refine_abandoned as f64 / t.refine_evals.max(1) as f64,
                );
                s.add("index.pages_read", t.physical_reads as f64);
                s.add("index.logical_reads", t.logical_reads as f64);
            }
            tr.absorb_under(worker, parent);
        }
        s.add(
            "engine.self_us",
            stats::self_time(engine_batch_us[ci], &[below_us]) / chunk.len() as f64,
        );
    }
    Ok(())
}

/// Hilbert keys, the B+-tree, the reference set, the filters, the heap,
/// the pager, the distance kernel, top-k and the WAL, on shard 0's files
/// and the probe queries.
fn storage_probes(
    shard: &Path,
    params: &EngineParams,
    queries: &[&[f32]],
    qp: &QueryParams,
    scratch: &Path,
    tr: &mut Tracer,
    s: &mut Samples,
) -> io::Result<()> {
    let meta = IndexMeta::read(shard)?;
    let file = |pred: &dyn Fn(&str) -> bool| -> io::Result<std::path::PathBuf> {
        std::fs::read_dir(shard)?
            .filter_map(Result::ok)
            .map(|e| e.path())
            .find(|p| p.file_name().and_then(|n| n.to_str()).is_some_and(pred))
            .ok_or_else(|| other(format!("no matching file in {}", shard.display())))
    };
    let tree_path = file(&|n| n.starts_with("tree_0.") && n.ends_with(".rdb"))?;
    let heap_path = file(&|n| n.ends_with(".heap"))?;
    let partitioning = Partitioning::from_groups(meta.dim, meta.groups.clone());
    let curve = HilbertCurve::new(partitioning.group(0).len(), meta.omega);
    let refs =
        ReferenceSet::from_parts(meta.ref_ids.clone(), meta.ref_vectors.clone(), meta.metric);
    let cache = params.index.query_cache_pages;
    let tree = BTree::open(Arc::new(BufferPool::new(
        Pager::open(&tree_path, DEFAULT_PAGE_SIZE)?,
        cache,
    )))?;
    let heap = VectorHeap::open(&heap_path, meta.dim, cache, meta.n)?;
    let heap_pager = Pager::open(&heap_path, DEFAULT_PAGE_SIZE)?;
    let (lo, hi) = meta.domain;
    let m = refs.m();
    let slot_of = |id: u64| -> Option<u64> {
        match &meta.id_map {
            None => Some(id),
            Some(map) => map.binary_search(&id).ok().map(|s| s as u64),
        }
    };
    let mut keys = Vec::with_capacity(queries.len());
    let mut page = vec![0u8; DEFAULT_PAGE_SIZE];
    for (qi, q) in queries.iter().enumerate() {
        let op = qi as u64;
        let sub = partitioning.project(q, 0);
        let (hk, ms) = tr.time("hilbert.encode_floats*100", op, || {
            let mut hk = curve.encode_floats(black_box(&sub), lo, hi);
            for _ in 1..REPEAT {
                hk = black_box(curve.encode_floats(black_box(&sub), lo, hi));
            }
            hk
        });
        s.add("hilbert.encode_ns", ms * 1e6 / REPEAT as f64);
        let probe = rdb::encode_probe_key(&hk);

        let logical0 = tree.pool().stats().logical_reads;
        let (cursor, ms) = tr.time("btree.seek", op, || tree.seek(&probe));
        s.add("btree.seek_us", ms * 1e3);
        s.add(
            "btree.pages_per_seek",
            (tree.pool().stats().logical_reads - logical0) as f64,
        );
        let mut fwd = cursor?;
        let mut bwd = fwd.clone();
        let (scan, ms) = tr.time("btree.scan", op, || -> io::Result<(Vec<u64>, Vec<f32>)> {
            bwd.retreat()?;
            let mut ids = Vec::with_capacity(qp.alpha);
            let mut rows = Vec::with_capacity(qp.alpha * m);
            while ids.len() < qp.alpha && (fwd.valid() || bwd.valid()) {
                if fwd.valid() {
                    ids.push(rdb::decode_id(fwd.key()));
                    rdb::decode_value_into(fwd.value(), &mut rows);
                    fwd.advance()?;
                }
                if ids.len() < qp.alpha && bwd.valid() {
                    ids.push(rdb::decode_id(bwd.key()));
                    rdb::decode_value_into(bwd.value(), &mut rows);
                    bwd.retreat()?;
                }
            }
            Ok((ids, rows))
        });
        let (ids, rows) = scan?;
        s.add("btree.scan_ns", ms * 1e6 / ids.len().max(1) as f64);

        let mut qd = Vec::with_capacity(m);
        let ((), ms) = tr.time("reference.distances_to", op, || {
            refs.distances_to(q, &mut qd)
        });
        s.add("reference.distances_to_us", ms * 1e3);
        let row = |i: usize| &rows[i * m..(i + 1) * m];
        let (tri, ms) = tr.time("filters.triangular_lb", op, || {
            (0..ids.len())
                .map(|i| (triangular_lb(&qd, row(i)), i))
                .collect::<Vec<_>>()
        });
        s.add("filters.triangular_ns", ms * 1e6 / ids.len().max(1) as f64);
        let (ptol, ms) = tr.time("filters.ptolemaic_lb", op, || {
            (0..ids.len())
                .map(|i| ptolemaic_lb(&qd, row(i), &refs))
                .sum::<f32>()
        });
        black_box(ptol);
        s.add("filters.ptolemaic_ns", ms * 1e6 / ids.len().max(1) as f64);

        // This tree's γ survivors stand in for the query's κ candidates.
        let mut slots: Vec<u64> = keep_smallest(tri, qp.gamma)
            .into_iter()
            .filter_map(|(_, i)| slot_of(ids[i]))
            .collect();
        slots.sort_unstable();
        slots.dedup();
        let mut vectors = Vec::with_capacity(slots.len() * meta.dim);
        let (res, ms) = tr.time("heap.get_block_into", op, || -> io::Result<()> {
            let mut arena = Vec::new();
            for run in slots.chunk_by(|a, b| heap.page_of(*a) == heap.page_of(*b)) {
                heap.get_block_into(run, &mut arena)?;
                vectors.extend_from_slice(&arena);
            }
            Ok(())
        });
        res?;
        s.add("heap.block_fetch_us", ms * 1e3);
        for (pi, run) in slots
            .chunk_by(|a, b| heap.page_of(*a) == heap.page_of(*b))
            .enumerate()
        {
            let (res, ms) = tr.time("pager.read_page", op << 32 | pi as u64, || {
                heap_pager.read_page(heap.page_of(run[0]), &mut page)
            });
            res?;
            s.add("pager.read_us", ms * 1e3);
        }

        let rows_n = slots.len().max(1);
        let dists: Vec<f32> = vectors.chunks(meta.dim).map(|v| l2_sq(q, v)).collect();
        let mut sorted = dists.clone();
        sorted.sort_by(f32::total_cmp);
        let bound = sorted
            .get(qp.k.min(sorted.len()).saturating_sub(1))
            .copied()
            .unwrap_or(f32::INFINITY);
        let (sum, ms) = tr.time("distance.l2_sq_bounded", op, || {
            vectors
                .chunks(meta.dim)
                .map(|v| l2_sq_bounded(q, v, bound))
                .sum::<f32>()
        });
        black_box(sum);
        s.add("distance.l2_bounded_ns", ms * 1e6 / rows_n as f64);
        let (kept, ms) = tr.time("topk.push", op, || {
            let mut tk = TopK::new(qp.k);
            for (i, d) in dists.iter().enumerate() {
                tk.push(Neighbor::new(slots[i], *d));
            }
            tk.len()
        });
        black_box(kept);
        s.add("topk.push_ns", ms * 1e6 / rows_n as f64);
        keys.push((hk, qd));
    }

    // Inserts into a copy of the tree, at the probe queries' own keys.
    let copy = scratch.join("probe_tree.rdb");
    std::fs::copy(&tree_path, &copy)?;
    let mut tree = BTree::open(Arc::new(BufferPool::new(
        Pager::open(&copy, DEFAULT_PAGE_SIZE)?,
        cache,
    )))?;
    for i in 0..PROBE_WRITES {
        let (hk, qd) = &keys[i % keys.len()];
        let key = rdb::encode_key(hk, u64::MAX - i as u64);
        let value = rdb::encode_value(qd);
        let (res, ms) = tr.time("btree.insert", i as u64, || tree.insert(&key, &value));
        res?;
        s.add("btree.insert_us", ms * 1e3);
    }
    drop(tree);
    std::fs::remove_file(&copy)?;

    let wal_path = scratch.join("probe.wal");
    let wal = Wal::create(&wal_path)?;
    for i in 0..PROBE_WRITES {
        let record = WalRecord::Insert {
            id: i as u64,
            vector: queries[i % queries.len()].to_vec(),
        };
        let (res, ms) = tr.time("wal.append_commit", i as u64, || {
            wal.append(&record).and_then(|_| wal.commit())
        });
        res?;
        s.add("wal.commit_us", ms * 1e3);
    }
    drop(wal);
    std::fs::remove_file(&wal_path)
}

/// `HdIndex::build_with` over shard 0's share of the corpus under its
/// share of the workload's build budget (the engine's shards build in
/// parallel against one budget).
fn build_probe(
    data: &Dataset,
    shards: usize,
    params: &EngineParams,
    scratch: &Path,
    tr: &mut Tracer,
    s: &mut Samples,
) -> io::Result<()> {
    let mut slice = Dataset::new(data.dim()).with_metric(data.metric());
    for i in (0..data.len()).step_by(shards) {
        slice.push(data.get(i));
    }
    let opts = BuildOpts {
        build_budget: (params.build_budget_bytes > 0)
            .then(|| BuildBudget::new(params.build_budget_bytes / shards)),
        ..BuildOpts::default()
    };
    let dir = scratch.join("probe_build");
    let (index, ms) = tr.time("hd_index.build_with", 0, || {
        HdIndex::build_with(&slice, &params.index, &dir, opts)
    });
    let stats = index?.build_stats();
    s.add("index.build_s", ms / 1e3);
    s.add("index.spilled_runs", stats.spilled_runs as f64);
    s.add("index.spilled_bytes", stats.spilled_bytes as f64);
    std::fs::remove_dir_all(&dir)
}

pub fn print_table(layers: &[Measured]) {
    let widths = [30usize, 14, 6, 8, 7, 44, 28];
    hd_bench::table::header(
        "per-layer (traced run)",
        &[
            "metric",
            "value",
            "unit",
            "samples",
            "better",
            "should move",
            "flat on",
        ],
        &widths,
    );
    for (m, spec) in layers.iter().zip(LAYERS) {
        hd_bench::table::row(
            &[
                m.name.clone(),
                format!("{:.4}", m.value),
                m.unit.clone(),
                m.samples.to_string(),
                spec.better.to_string(),
                spec.moves.to_string(),
                spec.flat_on.to_string(),
            ],
            &widths,
        );
    }
}

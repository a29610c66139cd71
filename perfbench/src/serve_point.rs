//! The served workloads: a real `hd_server` under two closed-loop
//! keep-alive clients sending cheap single-vector queries.
//!
//! * `serve-point` runs the server on its default configuration
//!   (coalescing on) over an index that fits the page cache.
//! * `serve-passthrough` turns coalescing off, so every request goes
//!   straight to the engine, over the same corpus with a page cache half
//!   the index's size, so page reads reach the files.

use std::sync::Arc;
use std::time::Instant;

use hd_core::dataset::{generate, DatasetProfile};
use hd_core::ground_truth::ground_truth_knn;
use hd_core::topk::Neighbor;
use hd_engine::{Engine, EngineParams};
use hd_index::HdIndexParams;
use hd_server::{Server, ServerConfig};

use crate::http::{self, Client, CANDIDATES, K, REFINE};
use crate::layers::{self, LayerInputs};
use crate::record::Machine;
use crate::stats::{self, OpLog};
use crate::trace::Tracer;
use crate::{Args, Outcome, Phase, CLIENT_THREADS, ENGINE_THREADS};

const N: usize = 50_000;
const QUERIES: usize = 512;
const SHARDS: usize = 4;

/// How a served workload configures the server and the engine's cache.
#[derive(Debug, Clone, Copy)]
pub struct Served {
    pub coalescing: bool,
    pub cache_pages: usize,
}

/// `serve-point`: coalescing on, and a page-cache budget about three times
/// the index (≈ 12.5k pages), so the working set fits.
pub const POINT: Served = Served {
    coalescing: true,
    cache_pages: 40_960,
};

/// `serve-passthrough`: coalescing off, and a page-cache budget half the
/// index.
pub const PASSTHROUGH: Served = Served {
    coalescing: false,
    cache_pages: 6_144,
};

fn params(served: Served) -> EngineParams {
    let profile = DatasetProfile::SIFT;
    EngineParams {
        shards: SHARDS,
        threads: ENGINE_THREADS,
        cache_budget_pages: served.cache_pages,
        build_budget_bytes: 0,
        index: HdIndexParams {
            query_cache_pages: served.cache_pages,
            ..HdIndexParams::for_profile(&profile)
        },
        compaction_threshold: None,
    }
}

/// The body the server renders for `neighbors`.
fn expected_body(neighbors: &[Neighbor], coalesced: bool) -> Vec<u8> {
    hd_telemetry::json::Json::Obj(vec![
        (
            "neighbors".into(),
            hd_server::dto::neighbors_json(neighbors),
        ),
        (
            "coalesced".into(),
            hd_telemetry::json::Json::Bool(coalesced),
        ),
    ])
    .render()
    .into_bytes()
}

/// Whether a served body answers with the same ids as `Engine::search`:
/// byte equality with the expected rendering, else equal parsed ids.
fn same_answer(body: &[u8], expected: &[u8], ids: &[u64]) -> bool {
    body == expected || http::answer_ids(body).is_some_and(|got| got == ids)
}

/// One closed-loop window: each client keeps one request in flight on its
/// own connection and checks every answer as it arrives. Returns the phase
/// and the mismatches found.
fn window(
    addr: std::net::SocketAddr,
    requests: &[Vec<u8>],
    expected: &[(Vec<u8>, Vec<u64>)],
    seconds: f64,
    tracer: &mut Tracer,
) -> (Phase, Vec<String>) {
    let started = Instant::now();
    let results: Vec<(OpLog, Vec<String>, Tracer)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENT_THREADS)
            .map(|c| {
                let mut tr = tracer.fork();
                s.spawn(move || {
                    let mut log = OpLog::default();
                    let mut errors = Vec::new();
                    let mut client = Client::connect(addr).ok();
                    let mut i = 0usize;
                    while started.elapsed().as_secs_f64() < seconds {
                        let qi = (c + i * CLIENT_THREADS) % requests.len();
                        let op = (c as u64) << 32 | i as u64;
                        i += 1;
                        let Some(conn) = client.as_mut() else {
                            log.fail();
                            client = Client::connect(addr).ok();
                            continue;
                        };
                        let (res, ms) =
                            tr.time("phase.post_query", op, || conn.roundtrip(&requests[qi]));
                        match res {
                            Ok((200, body)) => {
                                log.ok(ms);
                                let (want, ids) = &expected[qi];
                                if !same_answer(&body, want, ids) {
                                    errors.push(format!(
                                        "query {qi}: served {:?}, engine ids {ids:?}",
                                        String::from_utf8_lossy(&body)
                                    ));
                                }
                            }
                            Ok(_) => log.fail(),
                            Err(_) => {
                                log.fail();
                                client = Client::connect(addr).ok();
                            }
                        }
                    }
                    (log, errors, tr)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut phase = Phase {
        wall_s: started.elapsed().as_secs_f64(),
        ..Phase::default()
    };
    let mut errors = Vec::new();
    for (log, e, tr) in results {
        phase.queries.merge(log);
        errors.extend(e);
        tracer.absorb(tr);
    }
    (phase, errors)
}

pub fn run(args: &Args, served: Served, tracer: &mut Tracer) -> std::io::Result<Outcome> {
    let profile = DatasetProfile::SIFT;
    let (data, queries) = generate(&profile, N, QUERIES, args.seed);
    let queries: Vec<Vec<f32>> = queries.iter().map(<[f32]>::to_vec).collect();
    let params = params(served);
    let work = crate::work_dir(args.workload)?;
    let req = hd_core::api::SearchRequest::new(K)
        .with_candidates(CANDIDATES)
        .with_refine(REFINE);
    let requests: Vec<Vec<u8>> = queries
        .iter()
        .map(|q| http::query_request(&http::query_body(q, K, CANDIDATES, REFINE)))
        .collect();
    let server_config = ServerConfig {
        coalescing: served.coalescing,
        ..ServerConfig::default()
    };

    // Set-up: build, bind, and warm every query once through the engine,
    // which also yields the answers the served ones must equal.
    let ((engine, server, expected, _), setup_s) = crate::repeated_setup(
        crate::setups(args),
        |attempt| {
            let dir = work.join(format!("engine{attempt}"));
            let engine = Arc::new(Engine::build(&data, &params, &dir)?);
            let server = Server::bind(Arc::clone(&engine), server_config.clone())?;
            let qp = engine.serve_params().resolve(&req, engine.len() as usize);
            let expected = queries
                .iter()
                .map(|q| engine.search(q, &qp))
                .collect::<std::io::Result<Vec<_>>>()?;
            Ok((engine, server, expected, dir))
        },
        |(engine, server, _, dir)| {
            server.shutdown()?;
            drop(engine);
            std::fs::remove_dir_all(dir)
        },
    )?;
    let addr = server.addr();

    let rendered: Vec<(Vec<u8>, Vec<u64>)> = expected
        .iter()
        .map(|a| (expected_body(a, served.coalescing), http::ids(a)))
        .collect();
    let mut errors = Vec::new();
    let io_before = engine.serving_stats().io;
    let compactions_before = crate::compactions(&engine);
    let (phase, traced) = crate::timed_windows(args, tracer, |seconds, tr| {
        let (p, e) = window(addr, &requests, &rendered, seconds, tr);
        errors.extend(e);
        p
    });
    let io_phase = engine.serving_stats().io.since(&io_before);
    let compactions = crate::compactions(&engine) - compactions_before;
    server.shutdown()?;

    let truth = ground_truth_knn(
        &data,
        &hd_core::dataset::Dataset::from_flat(profile.dim, queries.concat()),
        K,
        ENGINE_THREADS,
    );
    let recall = truth
        .iter()
        .zip(&expected)
        .map(|(t, a)| stats::recall(t, a))
        .sum::<f64>()
        / truth.len() as f64;
    let space_amp = crate::space_amp(&engine);
    let qp = engine.serve_params().resolve(&req, engine.len() as usize);

    let layers = if args.trace {
        layers::measure(
            LayerInputs {
                engine,
                params: &params,
                data: &data,
                queries: &queries,
                qp,
                // The coalescer's mean batch when coalescing; one query
                // per engine call otherwise.
                batch: (!served.coalescing).then_some(1),
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
            server_threads: server_config.max_connections,
            client_threads: CLIENT_THREADS,
        },
        config: vec![
            ("n".into(), N as f64),
            ("dim".into(), profile.dim as f64),
            ("queries".into(), QUERIES as f64),
            ("shards".into(), SHARDS as f64),
            ("k".into(), K as f64),
            ("candidates".into(), CANDIDATES as f64),
            ("refine".into(), REFINE as f64),
            (
                "cache_budget_bytes".into(),
                (served.cache_pages * hd_storage::DEFAULT_PAGE_SIZE) as f64,
            ),
            ("build_budget_bytes".into(), 0.0),
            ("coalescing".into(), f64::from(u8::from(served.coalescing))),
            ("max_batch".into(), server_config.max_batch as f64),
            ("max_wait_us".into(), server_config.max_wait_us as f64),
        ],
        setup_s,
        phase,
        traced,
        recall: (recall, truth.len()),
        io: io_phase,
        space_amp,
        errors,
        layers,
        notes: Vec::new(),
    })
}

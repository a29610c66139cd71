//! `engine-scan`: in-process `Engine::search_batch` at the paper's
//! operating point (Ptolemaic filter, α 4096, γ 1024, k 100) over an index
//! about 13× larger than its page cache, built under a memory budget well
//! below the corpus so the build spills.

use std::sync::Arc;
use std::time::Instant;

use hd_core::dataset::{generate, Dataset, DatasetProfile};
use hd_core::ground_truth::ground_truth_knn;
use hd_core::topk::Neighbor;
use hd_engine::{Engine, EngineParams};
use hd_index::{HdIndexParams, QueryParams};

use crate::http;
use crate::layers::{self, LayerInputs};
use crate::record::Machine;
use crate::stats;
use crate::trace::Tracer;
use crate::{Args, Outcome, Phase, ENGINE_THREADS};

const N: usize = 200_000;
const QUERIES: usize = 256;
const SHARDS: usize = 2;
const BATCH: usize = 16;
/// 16 MiB of page cache against an index of about 200 MB.
const CACHE_PAGES: usize = 4096;
/// 16 MiB of build memory against a 100 MB corpus.
const BUILD_BUDGET_BYTES: usize = 16 << 20;

pub fn query_params() -> QueryParams {
    QueryParams::ptolemaic(4096, 2048, 1024, 100)
}

fn params() -> EngineParams {
    EngineParams {
        shards: SHARDS,
        threads: ENGINE_THREADS,
        cache_budget_pages: CACHE_PAGES,
        build_budget_bytes: BUILD_BUDGET_BYTES,
        index: HdIndexParams {
            query_cache_pages: CACHE_PAGES,
            ..HdIndexParams::for_profile(&DatasetProfile::SIFT)
        },
        compaction_threshold: None,
    }
}

/// One caller thread submitting batches back to back. Each query's latency
/// is its batch's: that is how long its caller waited. The first answer
/// to each query is kept; every later answer must repeat it.
fn window(
    engine: &Engine,
    queries: &[Vec<f32>],
    first: &mut [Option<Vec<Neighbor>>],
    errors: &mut Vec<String>,
    seconds: f64,
    tracer: &mut Tracer,
    next: &mut usize,
) -> Phase {
    let qp = query_params();
    let started = Instant::now();
    let mut phase = Phase { ..Phase::default() };
    let mut batch_no = 0u64;
    while started.elapsed().as_secs_f64() < seconds {
        let idx: Vec<usize> = (0..BATCH).map(|i| (*next + i) % queries.len()).collect();
        *next += BATCH;
        let (res, ms) = tracer.time("phase.search_batch", batch_no, || {
            engine.search_batch(idx.iter().map(|&i| queries[i].as_slice()), &qp)
        });
        batch_no += 1;
        match res {
            Ok(answers) => {
                for (&qi, answer) in idx.iter().zip(answers) {
                    phase.queries.ok(ms);
                    match &first[qi] {
                        None => first[qi] = Some(answer),
                        Some(want) if http::ids(want) == http::ids(&answer) => {}
                        Some(_) => {
                            errors.push(format!("query {qi}: answer changed between batches"))
                        }
                    }
                }
            }
            Err(_) => idx.iter().for_each(|_| phase.queries.fail()),
        }
    }
    phase.wall_s = started.elapsed().as_secs_f64();
    phase
}

pub fn run(args: &Args, tracer: &mut Tracer) -> std::io::Result<Outcome> {
    let profile = DatasetProfile::SIFT;
    let (data, queries) = generate(&profile, N, QUERIES, args.seed);
    let queries: Vec<Vec<f32>> = queries.iter().map(<[f32]>::to_vec).collect();
    let params = params();
    let work = crate::work_dir(args.workload)?;

    // Set-up: the spilling build, then one batch to open every pool.
    let ((engine, _), setup_s) = crate::repeated_setup(
        crate::setups(args),
        |attempt| {
            let dir = work.join(format!("engine{attempt}"));
            let engine = Engine::build(&data, &params, &dir)?;
            engine.search_batch(queries[..BATCH].iter().map(Vec::as_slice), &query_params())?;
            Ok((Arc::new(engine), dir))
        },
        |(engine, dir)| {
            drop(engine);
            std::fs::remove_dir_all(dir)
        },
    )?;

    let mut errors = Vec::new();
    let mut first: Vec<Option<Vec<Neighbor>>> = vec![None; queries.len()];
    let mut next = 0usize;
    let io_before = engine.serving_stats().io;
    let compactions_before = crate::compactions(&engine);
    let (phase, traced) = crate::timed_windows(args, tracer, |seconds, tr| {
        window(
            &engine,
            &queries,
            &mut first,
            &mut errors,
            seconds,
            tr,
            &mut next,
        )
    });
    let io_phase = engine.serving_stats().io.since(&io_before);
    let compactions = crate::compactions(&engine) - compactions_before;

    let k = query_params().k;
    let truth = ground_truth_knn(
        &data,
        &Dataset::from_flat(profile.dim, queries.concat()),
        k,
        ENGINE_THREADS,
    );
    let answered: Vec<f64> = truth
        .iter()
        .zip(&first)
        .filter_map(|(t, a)| a.as_ref().map(|a| stats::recall(t, a)))
        .collect();
    let recall = answered.iter().sum::<f64>() / answered.len().max(1) as f64;
    let space_amp = crate::space_amp(&engine);

    let layers = if args.trace {
        layers::measure(
            LayerInputs {
                engine,
                params: &params,
                data: &data,
                queries: &queries,
                qp: query_params(),
                batch: Some(BATCH),
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
    let qp = query_params();
    Ok(Outcome {
        machine: Machine {
            nproc: crate::nproc(),
            engine_threads: ENGINE_THREADS,
            server_threads: 0,
            client_threads: 1,
        },
        config: vec![
            ("n".into(), N as f64),
            ("dim".into(), profile.dim as f64),
            ("queries".into(), QUERIES as f64),
            ("shards".into(), SHARDS as f64),
            ("batch".into(), BATCH as f64),
            ("k".into(), qp.k as f64),
            ("alpha".into(), qp.alpha as f64),
            ("beta".into(), qp.beta as f64),
            ("gamma".into(), qp.gamma as f64),
            (
                "cache_budget_bytes".into(),
                (CACHE_PAGES * hd_storage::DEFAULT_PAGE_SIZE) as f64,
            ),
            ("build_budget_bytes".into(), BUILD_BUDGET_BYTES as f64),
        ],
        setup_s,
        phase,
        traced,
        recall: (recall, answered.len()),
        io: io_phase,
        space_amp,
        errors,
        layers,
        notes: Vec::new(),
    })
}

//! Criterion micro-benchmarks backing the design-choice claims:
//!
//! * Hilbert encode/decode cost (the O(ω·η) term of §3.5.1),
//! * distance kernel throughput,
//! * triangular vs Ptolemaic filter kernels (the ~m/2× CPU gap behind the
//!   1.5–2× query-time difference of §5.2.5),
//! * B+-tree point lookups and cursor scans,
//! * buffer-pool reads: the cost of a miss (one positioned read into a
//!   recycled page) and of a hit.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use hd_core::dataset::{generate, DatasetProfile};
use hd_hilbert::HilbertCurve;
use hd_index::filters::{ptolemaic_lb, triangular_lb};
use hd_index::reference::select;
use hd_index::RefSelection;
use std::hint::black_box;

fn bench_hilbert(c: &mut Criterion) {
    let mut g = c.benchmark_group("hilbert");
    g.sample_size(30);
    for (dims, order) in [(16usize, 8u32), (24, 32), (64, 32)] {
        let curve = HilbertCurve::new(dims, order);
        let cells = if order == 32 { u32::MAX as u64 } else { (1 << order) - 1 };
        let point: Vec<u64> = (0..dims).map(|i| (i as u64 * 7919) % (cells + 1)).collect();
        g.bench_function(format!("encode_{dims}d_w{order}"), |b| {
            b.iter(|| curve.encode(black_box(&point)))
        });
        let key = curve.encode(&point);
        g.bench_function(format!("decode_{dims}d_w{order}"), |b| {
            b.iter(|| curve.decode(black_box(&key)))
        });
    }
    g.finish();
}

fn bench_distance(c: &mut Criterion) {
    use hd_core::distance::{l2_sq, l2_sq_batch, l2_sq_bounded};
    let mut g = c.benchmark_group("distance");
    g.sample_size(50);
    for dim in [128usize, 512, 1369] {
        let a: Vec<f32> = (0..dim).map(|i| i as f32 * 0.31).collect();
        let b_: Vec<f32> = (0..dim).map(|i| (dim - i) as f32 * 0.17).collect();
        g.bench_function(format!("l2_sq_{dim}d"), |b| {
            b.iter(|| l2_sq(black_box(&a), black_box(&b_)))
        });
        // Tight bound (1/16 of the true distance): the early-abandon case
        // the refinement pipeline hits once its top-k radius stabilizes.
        let tight = l2_sq(&a, &b_) / 16.0;
        g.bench_function(format!("l2_sq_bounded_tight_{dim}d"), |b| {
            b.iter(|| l2_sq_bounded(black_box(&a), black_box(&b_), black_box(tight)))
        });
        // Infinite bound: the full-evaluation overhead of the bound checks.
        g.bench_function(format!("l2_sq_bounded_full_{dim}d"), |b| {
            b.iter(|| l2_sq_bounded(black_box(&a), black_box(&b_), f32::INFINITY))
        });
    }
    // One heap page of SIFT vectors (8 × 128d), the refinement block shape.
    let q: Vec<f32> = (0..128).map(|i| i as f32 * 0.31).collect();
    let block: Vec<f32> = (0..8 * 128).map(|i| (i % 251) as f32 * 0.5).collect();
    let mut out = Vec::with_capacity(8);
    g.bench_function("l2_sq_batch_8x128d", |b| {
        b.iter(|| l2_sq_batch(black_box(&q), black_box(&block), &mut out))
    });
    g.finish();
}

fn bench_filters(c: &mut Criterion) {
    // m = 10 reference objects, the paper's default.
    let (data, _) = generate(&DatasetProfile::SIFT, 2000, 1, 3);
    let refs = select(&data, 10, RefSelection::Sss { f: 0.3 }, 1);
    let mut qd = Vec::new();
    let mut od = Vec::new();
    refs.distances_to(data.get(0), &mut qd);
    refs.distances_to(data.get(999), &mut od);

    let mut g = c.benchmark_group("filters_m10");
    g.sample_size(50);
    g.bench_function("triangular_lb", |b| {
        b.iter(|| triangular_lb(black_box(&qd), black_box(&od)))
    });
    g.bench_function("ptolemaic_lb", |b| {
        b.iter(|| ptolemaic_lb(black_box(&qd), black_box(&od), black_box(&refs)))
    });
    g.finish();
}

fn bench_btree(c: &mut Criterion) {
    use hd_btree::BTree;
    use hd_storage::{BufferPool, Pager};
    use std::sync::Arc;

    let dir = std::env::temp_dir().join("hd_bench_btree");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("bench_{}", std::process::id()));
    let pager = Pager::create(&path).unwrap();
    let pool = Arc::new(BufferPool::new(pager, 4096));
    let mut tree = BTree::create(Arc::clone(&pool), 8, 8).unwrap();
    tree.bulk_load(
        (0..100_000u64).map(|i| (i.to_be_bytes().to_vec(), i.to_le_bytes().to_vec())),
        1.0,
    )
    .unwrap();

    let mut g = c.benchmark_group("btree_100k");
    g.sample_size(50);
    g.bench_function("point_lookup_cached", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i * 2654435761 + 1) % 100_000;
            tree.get(black_box(&i.to_be_bytes())).unwrap()
        })
    });
    g.bench_function("scan_256_from_seek", |b| {
        b.iter_batched(
            || tree.seek(&50_000u64.to_be_bytes()).unwrap(),
            |mut cur| {
                let mut sum = 0u64;
                for _ in 0..256 {
                    if !cur.valid() {
                        break;
                    }
                    sum += cur.value()[0] as u64;
                    cur.advance().unwrap();
                }
                sum
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
    std::fs::remove_file(path).ok();
}

fn bench_buffer_pool(c: &mut Criterion) {
    use hd_storage::{BufferPool, Pager};

    // 4096 cached pages over a 25 600-page file: uniform random reads miss
    // 84% of the time, so the mean is dominated by the miss path.
    const CACHE: usize = 4096;
    const PAGES: u64 = 25_600;
    let dir = std::env::temp_dir().join("hd_bench_buffer");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("bench_{}", std::process::id()));
    let pager = Pager::create(&path).unwrap();
    pager.allocate_pages(PAGES).unwrap();
    let pool = BufferPool::new(pager, CACHE);
    for id in 0..CACHE as u64 {
        pool.read(id).unwrap();
    }

    let mut g = c.benchmark_group("buffer_pool");
    g.sample_size(200);
    g.bench_function("read_84pct_miss", |b| {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        b.iter(|| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            pool.read(black_box(x % PAGES)).unwrap()
        })
    });
    g.bench_function("read_hit", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) % 64;
            pool.read(black_box(i)).unwrap()
        })
    });
    g.finish();
    drop(pool);
    std::fs::remove_file(path).ok();
}

criterion_group!(
    benches,
    bench_hilbert,
    bench_distance,
    bench_filters,
    bench_btree,
    bench_buffer_pool
);
criterion_main!(benches);

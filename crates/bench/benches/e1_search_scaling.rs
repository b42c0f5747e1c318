//! Experiment E1 — search scaling: the paper's hash-table lookup
//! ("real-time nearest neighbor search", §2.2) versus multi-index hashing,
//! a brute-force Hamming linear scan, and exact float k-NN, as the archive
//! grows.  The absolute numbers depend on the machine; the shape to look
//! for is that the hash-table / MIH query time stays roughly flat while the
//! two scan baselines grow linearly with the archive size.
//!
//! A second group, `e1_masked`, times the filtered k-NN and radius searches
//! the serving tier runs — the counting selection over a mask — on a dense
//! 40k arena (row *r* holds id *r*, as the serving arena does) at mask
//! densities from 0.3 % to 100 %, and on a non-dense arena of the same
//! codes (ids that are not rows, as in a `ShardedHashIndex` shard), whose
//! mask is probed by id.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use eq_bench::{clustered_codes, random_features};
use eq_hashindex::{
    Bitmap, CodeArena, CountingTopK, DistanceMetric, FloatKnnIndex, HammingIndex, HashTableIndex,
    IdMask, LinearScanIndex, MultiIndexHashing,
};
use std::hint::black_box;

const CODE_BITS: u32 = 128;
const FEATURE_DIM: usize = 57;
const ARCHIVE_SIZES: [usize; 3] = [2_000, 10_000, 40_000];
const RADIUS: u32 = 4;
const K: usize = 10;
const MASKED_SIZE: usize = 40_000;
/// Mask densities of the masked group, in rows per 1 000: 0.3 % is about
/// the median filtered query of `bench_e2e`'s `filtered_qbe` pool.
const MASK_PERMILLE: [u64; 6] = [3, 10, 50, 250, 500, 1_000];
/// The masked radius: wide enough that part of the query's cluster (every
/// 64th row, each ~7 bit flips from its centroid) answers.
const MASKED_RADIUS: u32 = 12;

fn bench_search_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("e1_search_scaling");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_millis(1500));
    group.warm_up_time(std::time::Duration::from_millis(300));

    for &n in &ARCHIVE_SIZES {
        let codes = clustered_codes(n, CODE_BITS, 64, 11);
        let features = random_features(n, FEATURE_DIM, 11);
        let query_code = codes[n / 2].clone();
        let query_feature = features[n / 2].clone();

        let mut table = HashTableIndex::new(CODE_BITS);
        let mut linear = LinearScanIndex::new(CODE_BITS);
        let chunks = MultiIndexHashing::recommended_chunks(CODE_BITS, n);
        let mut mih = MultiIndexHashing::new(CODE_BITS, chunks);
        let mut float_knn = FloatKnnIndex::new(FEATURE_DIM, DistanceMetric::Euclidean);
        for (i, code) in codes.iter().enumerate() {
            table.insert(i as u64, code.clone());
            linear.insert(i as u64, code.clone());
            mih.insert(i as u64, code.clone());
        }
        for (i, f) in features.iter().enumerate() {
            float_knn.insert(i as u64, f);
        }
        println!(
            "[E1] n={n}: hash table holds {} buckets, MIH uses {chunks} substrings, radius-{RADIUS} \
             lookup returns {} images",
            table.bucket_count(),
            table.radius_search(&query_code, RADIUS).len()
        );

        group.bench_with_input(BenchmarkId::new("hash_table_radius", n), &n, |b, _| {
            b.iter(|| black_box(table.radius_search(black_box(&query_code), RADIUS)))
        });
        group.bench_with_input(BenchmarkId::new("mih_radius", n), &n, |b, _| {
            b.iter(|| black_box(mih.radius_search(black_box(&query_code), RADIUS)))
        });
        group.bench_with_input(BenchmarkId::new("hash_table_knn", n), &n, |b, _| {
            b.iter(|| black_box(table.knn(black_box(&query_code), K)))
        });
        group.bench_with_input(BenchmarkId::new("linear_scan_knn", n), &n, |b, _| {
            b.iter(|| black_box(linear.knn(black_box(&query_code), K)))
        });
        group.bench_with_input(BenchmarkId::new("float_exact_knn", n), &n, |b, _| {
            b.iter(|| black_box(float_knn.knn(black_box(&query_feature), K)))
        });
    }
    group.finish();
}

/// Whether row `r` is in a mask of `permille` density: a fixed hash of the
/// row, so the kept rows are spread over the arena.
fn kept(r: u64, permille: u64) -> bool {
    let mut x = r.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (x ^ (x >> 31)) % 1_000 < permille
}

fn bench_masked(c: &mut Criterion) {
    let mut group = c.benchmark_group("e1_masked");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_millis(1500));
    group.warm_up_time(std::time::Duration::from_millis(300));

    let n = MASKED_SIZE;
    let codes = clustered_codes(n, CODE_BITS, 64, 11);
    let query = codes[n / 2].words().to_vec();
    // The same codes twice: row `r` holds id `r` (dense), or id `3r + 1`.
    let (mut dense, mut scattered) = (CodeArena::new(CODE_BITS), CodeArena::new(CODE_BITS));
    for (r, code) in codes.iter().enumerate() {
        dense.push(r as u64, code);
        scattered.push(3 * r as u64 + 1, code);
    }
    let mut topk = CountingTopK::new();
    for permille in MASK_PERMILLE {
        let rows: Vec<u64> = (0..n as u64).filter(|&r| kept(r, permille)).collect();
        let dense_mask = IdMask::from_bitmap(&rows.iter().copied().collect::<Bitmap>());
        let scattered_mask = IdMask::from_bitmap(&rows.iter().map(|r| 3 * r + 1).collect());
        let density = format!("{}%", permille as f64 / 10.0);
        println!(
            "[E1] masked n={n}, density {density}: {} rows, radius-{MASKED_RADIUS} answer {} rows",
            rows.len(),
            topk.within(&dense, &query, MASKED_RADIUS, Some(&dense_mask)).len()
        );
        for (arena, mask, layout) in
            [(&dense, &dense_mask, "dense"), (&scattered, &scattered_mask, "scattered")]
        {
            group.bench_with_input(
                BenchmarkId::new(format!("knn_{layout}"), &density),
                &permille,
                |b, _| {
                    b.iter(|| black_box(topk.knn(arena, black_box(&query), K, Some(mask)).len()))
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("radius_{layout}"), &density),
                &permille,
                |b, _| {
                    b.iter(|| {
                        let hits = topk.within(arena, black_box(&query), MASKED_RADIUS, Some(mask));
                        black_box(hits.len())
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_search_scaling, bench_masked);
criterion_main!(benches);

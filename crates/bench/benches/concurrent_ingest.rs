//! Multi-core ingestion throughput: the lock-free sharded data path
//! against the single-thread baseline on a Zipf stream.
//!
//! Mirrors the paper's pipelined-hardware speed story on CPUs: one
//! `ReliableSketch` ingesting sequentially, the batch-amortized
//! sequential path, and `ShardedReliable::ingest_parallel` at 1/2/4/8
//! workers over 8 lock-free shards — in both the filtered (atomic CU
//! mice filter) and "Raw" variants, so the filter's cost/benefit on the
//! lock-free hot path is visible. A second group (`hot_shard`) runs a
//! skew-3.0 stream whose rank-1 key heats a single shard — the regime
//! heaviest-first claiming exists for. Mops/s = elements / time. On a
//! multi-core box the 8-worker row should clear 3× the single-thread
//! baseline; on fewer cores it degrades gracefully to the batching gain.
//! On the Zipf mouse tail, the filtered rows trade two extra hashes per
//! item for far fewer bucket CAS walks.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use rsk_bench::{concurrent_config, sharded, sharded_raw, BENCH_ITEMS};
use rsk_core::ReliableSketch;
use rsk_stream::Dataset;

const SEED: u64 = 17;
const SHARDS: usize = 8;

fn bench_concurrent_ingest(c: &mut Criterion) {
    let stream = Dataset::Zipf { skew: 1.05 }.generate(BENCH_ITEMS, SEED);
    let items: Vec<(u64, u64)> = stream.iter().map(|it| (it.key, it.value)).collect();

    let mut g = c.benchmark_group("concurrent_ingest");
    g.throughput(Throughput::Elements(BENCH_ITEMS as u64));
    g.sample_size(10);

    g.bench_function("sequential_1thread", |b| {
        b.iter_batched(
            || ReliableSketch::<u64>::new(concurrent_config(SEED)),
            |mut sk| {
                for (k, v) in &items {
                    rsk_api::StreamSummary::insert(&mut sk, k, *v);
                }
                sk
            },
            BatchSize::LargeInput,
        )
    });

    g.bench_function("sequential_batched", |b| {
        b.iter_batched(
            || ReliableSketch::<u64>::new(concurrent_config(SEED)),
            |mut sk| {
                sk.insert_batch(&items);
                sk
            },
            BatchSize::LargeInput,
        )
    });

    for workers in [1usize, 2, 4, 8] {
        g.bench_function(
            BenchmarkId::new("sharded", format!("{workers}workers")),
            |b| {
                b.iter_batched(
                    || sharded(SEED, SHARDS),
                    |sh| {
                        sh.ingest_parallel(&items, workers);
                        sh
                    },
                    BatchSize::LargeInput,
                )
            },
        );
        g.bench_function(
            BenchmarkId::new("sharded_raw", format!("{workers}workers")),
            |b| {
                b.iter_batched(
                    || sharded_raw(SEED, SHARDS),
                    |sh| {
                        sh.ingest_parallel(&items, workers);
                        sh
                    },
                    BatchSize::LargeInput,
                )
            },
        );
    }
    g.finish();
}

/// The skewed regime: Zipf 3.0 routes the rank-1 key's mass to one
/// shard. Phase 2 claims that shard first, so the remaining workers
/// drain the light tail while it runs instead of after.
fn bench_hot_shard(c: &mut Criterion) {
    let stream = Dataset::Zipf { skew: 3.0 }.generate(BENCH_ITEMS, SEED);
    let items: Vec<(u64, u64)> = stream.iter().map(|it| (it.key, it.value)).collect();

    let mut g = c.benchmark_group("hot_shard");
    g.throughput(Throughput::Elements(BENCH_ITEMS as u64));
    g.sample_size(10);
    const WORKERS: usize = 4;
    // more shards than workers, so the claim order decides whether light
    // shards queue behind the hot one
    const HOT_SHARDS: usize = 16;
    g.bench_function(
        BenchmarkId::new("ingest_parallel", format!("{WORKERS}workers")),
        |b| {
            b.iter_batched(
                || sharded(SEED, HOT_SHARDS),
                |sh| {
                    sh.ingest_parallel(&items, WORKERS);
                    sh
                },
                BatchSize::LargeInput,
            )
        },
    );
    g.finish();
}

criterion_group!(benches, bench_concurrent_ingest, bench_hot_shard);
criterion_main!(benches);

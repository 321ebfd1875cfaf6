//! Benchmarks of the beyond-paper extensions: epoch rotation cost, the
//! two-generation query overhead, and snapshot capture/restore cost —
//! the operational numbers a deployment plans around.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rsk_api::{ErrorSensing, StreamSummary};
use rsk_core::epoch::EpochedReliable;
use rsk_core::{EmergencyPolicy, ReliableSketch, SketchSnapshot};
use rsk_stream::Dataset;

const SEED: u64 = 9090;

fn loaded_window(memory: usize, items: usize) -> EpochedReliable<u64> {
    let mut w: EpochedReliable<u64> = EpochedReliable::<u64>::builder()
        .memory_bytes(memory)
        .error_tolerance(25)
        .emergency(EmergencyPolicy::ExactTable)
        .seed(SEED)
        .build_epoched();
    let stream = Dataset::IpTrace.generate(items, 3);
    for (i, it) in stream.iter().enumerate() {
        if i == items / 2 {
            w.rotate();
        }
        w.insert(&it.key, it.value);
    }
    w
}

fn bench_epoch_rotation(c: &mut Criterion) {
    let mut group = c.benchmark_group("extensions/rotate");
    for memory_kb in [64usize, 512] {
        let w = loaded_window(memory_kb * 1024, 100_000);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{memory_kb}KB")),
            &memory_kb,
            |bench, _| {
                bench.iter_batched(
                    || w.clone(),
                    |mut win| {
                        win.rotate();
                        win
                    },
                    criterion::BatchSize::LargeInput,
                )
            },
        );
    }
    group.finish();
}

fn bench_epoch_query_overhead(c: &mut Criterion) {
    // two-generation queries walk both structures; quantify vs a single
    // sketch holding the same stream
    let stream = Dataset::IpTrace.generate(200_000, 3);
    let mut single = ReliableSketch::<u64>::builder()
        .memory_bytes(512 * 1024)
        .error_tolerance(25)
        .seed(SEED)
        .build::<u64>();
    for it in &stream {
        single.insert(&it.key, it.value);
    }
    let window = loaded_window(512 * 1024, 200_000);
    let keys: Vec<u64> = stream.iter().take(10_000).map(|it| it.key).collect();

    let mut group = c.benchmark_group("extensions/window_query");
    group.throughput(Throughput::Elements(keys.len() as u64));
    group.bench_function("single_sketch", |bench| {
        bench.iter(|| {
            keys.iter()
                .map(|k| single.query_with_error(k).value)
                .sum::<u64>()
        })
    });
    group.bench_function("two_generations", |bench| {
        bench.iter(|| {
            keys.iter()
                .map(|k| window.query_with_error(k).value)
                .sum::<u64>()
        })
    });
    group.finish();
}

fn bench_snapshot_roundtrip(c: &mut Criterion) {
    let stream = Dataset::IpTrace.generate(200_000, 3);
    let mut sk = ReliableSketch::<u64>::builder()
        .memory_bytes(512 * 1024)
        .error_tolerance(25)
        .emergency(EmergencyPolicy::ExactTable)
        .seed(SEED)
        .build::<u64>();
    for it in &stream {
        sk.insert(&it.key, it.value);
    }
    let bytes = sk.snapshot().to_bytes();

    let mut group = c.benchmark_group("extensions/snapshot");
    group.throughput(Throughput::Bytes(bytes.len() as u64));
    group.bench_function("capture_and_encode", |bench| {
        bench.iter(|| sk.snapshot().to_bytes().len())
    });
    group.bench_function("decode_and_restore", |bench| {
        bench.iter(|| {
            let decoded = SketchSnapshot::<u64>::from_bytes(&bytes).unwrap();
            ReliableSketch::<u64>::restore(decoded).unwrap()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_epoch_rotation,
    bench_epoch_query_overhead,
    bench_snapshot_roundtrip
);
criterion_main!(benches);

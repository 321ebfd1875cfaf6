//! Crash recovery via snapshots — persist the sketch, kill the process,
//! resume exactly where it stopped.
//!
//! A measurement daemon checkpoints its ReliableSketch at interval
//! boundaries. When the process dies mid-interval, the restarted daemon
//! restores the last checkpoint and replays the tail of the stream from
//! its packet log; the recovered summary answers *identically* to an
//! uninterrupted run.
//!
//! ```sh
//! cargo run --release --example checkpoint_restore
//! ```

use reliablesketch::core::replicate::SketchSnapshot;
use reliablesketch::core::EmergencyPolicy;
use reliablesketch::prelude::*;

const ITEMS: usize = 2_000_000;
const CHECKPOINT_EVERY: usize = 500_000;
const MEMORY: usize = 256 * 1024;
const LAMBDA: u64 = 25;

fn build() -> ReliableSketch<u64> {
    ReliableSketch::<u64>::builder()
        .memory_bytes(MEMORY)
        .error_tolerance(LAMBDA)
        .emergency(EmergencyPolicy::ExactTable)
        .seed(77)
        .build_sequential()
}

fn main() {
    let stream = Dataset::WebStream.generate(ITEMS, 19);
    let crash_at = 1_234_567usize; // somewhere mid-interval

    // --- the daemon: ingest, checkpoint every interval, crash ---------
    let mut daemon = build();
    let mut last_checkpoint: Option<(usize, Vec<u8>)> = None;
    for (i, it) in stream.iter().enumerate().take(crash_at) {
        if i > 0 && i % CHECKPOINT_EVERY == 0 {
            let bytes = daemon.snapshot().to_bytes();
            println!("checkpoint at item {i}: {} KB", bytes.len() / 1024);
            last_checkpoint = Some((i, bytes));
        }
        daemon.insert(&it.key, it.value);
    }
    drop(daemon); // the crash
    println!("daemon crashed at item {crash_at}");

    // --- recovery: restore the checkpoint, replay the logged tail -----
    let (from, bytes) = last_checkpoint.expect("at least one checkpoint");
    let snapshot = SketchSnapshot::<u64>::from_bytes(&bytes).expect("decode");
    let mut recovered = ReliableSketch::restore(snapshot).expect("restore");
    println!("restored checkpoint from item {from}, replaying the tail");
    for it in &stream[from..] {
        recovered.insert(&it.key, it.value);
    }

    // --- referee: an uninterrupted run over the same stream -----------
    let mut reference = build();
    for it in &stream {
        reference.insert(&it.key, it.value);
    }

    let truth = GroundTruth::from_items(&stream);
    let mut divergent = 0u64;
    let mut broken = 0u64;
    for (k, f) in truth.iter() {
        let r = recovered.query_with_error(k);
        if r != reference.query_with_error(k) {
            divergent += 1;
        }
        if !r.contains(f) {
            broken += 1;
        }
    }
    println!(
        "{} keys audited: {divergent} divergent answers, {broken} broken intervals",
        truth.distinct()
    );
    assert_eq!(divergent, 0, "recovery must be exact");
    assert_eq!(broken, 0, "certified intervals must hold after recovery");
    println!("recovered summary is bit-identical to the uninterrupted run");
}

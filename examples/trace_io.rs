//! Running the sketch on your own traces: write/read the binary and CSV
//! trace formats, then summarize a loaded trace.
//!
//! ```sh
//! cargo run --release --example trace_io
//! ```

use reliablesketch::prelude::*;
use reliablesketch::stream::io;

fn main() -> std::io::Result<()> {
    let dir = std::env::temp_dir().join("reliablesketch_trace_demo");
    std::fs::create_dir_all(&dir)?;

    // 1. produce a trace (stand-in for your packet capture)
    let stream = Dataset::DataCenter.generate(500_000, 9);
    let bin_path = dir.join("capture.rskt");
    let csv_path = dir.join("capture.csv");
    io::write_binary(&bin_path, &stream)?;
    io::write_csv(&csv_path, &stream[..1000])?; // CSV for interchange
    println!(
        "wrote {} items → {} ({} KB binary) and first 1000 → {}",
        stream.len(),
        bin_path.display(),
        std::fs::metadata(&bin_path)?.len() / 1024,
        csv_path.display()
    );

    // 2. load it back and summarize
    let loaded = io::read_binary(&bin_path)?;
    assert_eq!(loaded, stream);
    let mut sk = ReliableSketch::<u64>::builder()
        .memory_bytes(128 * 1024)
        .error_tolerance(25)
        .build_sequential::<u64>();
    for it in &loaded {
        sk.insert(&it.key, it.value);
    }
    let truth = GroundTruth::from_items(&loaded);
    let outliers = truth
        .iter()
        .filter(|(k, f)| sk.query(k).abs_diff(*f) > 25)
        .count();
    println!(
        "summarized {} flows in {} KB: {} outliers, {} insertion failures",
        truth.distinct(),
        sk.memory_bytes() / 1024,
        outliers,
        sk.insertion_failures()
    );

    // 3. the CSV reader tolerates headers and defaults missing values to 1
    let csv_back = io::read_csv(&csv_path)?;
    assert_eq!(&csv_back[..], &stream[..1000]);
    println!("CSV round-trip verified ({} items)", csv_back.len());

    std::fs::remove_dir_all(&dir)?;
    Ok(())
}

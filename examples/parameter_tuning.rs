//! Sizing ReliableSketch from first principles — the paper's Theorem 4/5
//! closed forms (exposed in `rsk_core::theory`) turned into a sizing
//! session: given a stream mass, a tolerance and a confidence target,
//! derive buckets, depth and the emergency store, then verify empirically.
//!
//! ```sh
//! cargo run --release --example parameter_tuning
//! ```

use reliablesketch::core::theory;
use reliablesketch::core::BUCKET_BYTES;
use reliablesketch::prelude::*;

fn main() {
    let n: u64 = 2_000_000; // expected stream mass Σ f(e)
    let lambda: u64 = 25; // tolerated per-key error Λ
    let delta = 1e-10; // all-keys failure budget Δ
    let (r_w, r_l) = (2.0, 2.5);

    println!("sizing for N = {n}, Λ = {lambda}, Δ = {delta}\n");

    let w = theory::recommended_buckets(n, lambda, r_w, r_l);
    let w_proof = theory::proof_buckets(n, lambda, r_w, r_l);
    let d = theory::solve_depth(n, lambda, delta, r_w, r_l);
    let slots = theory::emergency_slots(delta, r_w, r_l);
    println!(
        "recommended buckets (practical, §3.2):  {w:>12}  (= {:.2} MB)",
        (w * BUCKET_BYTES) as f64 / 1e6
    );
    println!("proof-grade buckets (Theorem 4):        {w_proof:>12}  (= {:.1} MB — the paper's \"large constant\")", (w_proof * BUCKET_BYTES) as f64 / 1e6);
    println!("Theorem 4 depth d:                      {d:>12}");
    println!("emergency SpaceSaving slots Δ₂ln(1/Δ):  {slots:>12}");
    println!(
        "amortized insert cost (Theorem 5):      {:>12.6}",
        theory::amortized_time(n, lambda, delta)
    );

    // build with the confidence-driven builder and verify on a real stream
    let mem = w * BUCKET_BYTES * 5 / 4; // + filter share
    let mut sk = ReliableSketch::<u64>::builder()
        .memory_bytes(mem)
        .error_tolerance(lambda)
        .confidence(n, delta)
        .build_sequential::<u64>();
    println!(
        "\nbuilt: {} layers, {} buckets, {} KB total",
        sk.geometry().depth(),
        sk.geometry().total_buckets(),
        sk.memory_bytes() / 1024
    );

    let stream = Dataset::IpTrace.generate(n as usize, 77);
    for it in &stream {
        sk.insert(&it.key, it.value);
    }
    let truth = GroundTruth::from_items(&stream);
    let outliers = truth
        .iter()
        .filter(|(k, f)| sk.query(k).abs_diff(*f) > lambda)
        .count();
    println!(
        "verification on {} items / {} keys: {} outliers, {} insertion failures",
        truth.total(),
        truth.distinct(),
        outliers,
        sk.insertion_failures()
    );

    // how does memory trade against Λ? (Figure 15a's law)
    println!("\nΛ sweep at the recommended sizing rule:");
    for l in [5u64, 10, 25, 50, 100] {
        let w = theory::recommended_buckets(n, l, r_w, r_l);
        println!(
            "  Λ = {l:>3} → {:>9} buckets ({:>7.2} MB)",
            w,
            (w * BUCKET_BYTES) as f64 / 1e6
        );
    }
}

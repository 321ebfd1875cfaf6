use rsk_api::{MemoryFootprint, StreamSummary};
use rsk_core::ReliableSketch;
use rsk_metrics::evaluate;
use rsk_stream::{Dataset, GroundTruth};

fn main() {
    // 1M items ≈ 10% of paper scale; memory scaled the same way: 100KB ↔ 1MB
    let stream = Dataset::IpTrace.generate(1_000_000, 1);
    let truth = GroundTruth::from_items(&stream);
    println!(
        "items={} distinct={} max_f={}",
        truth.total(),
        truth.distinct(),
        truth.max_freq()
    );
    for mem_kb in [25usize, 50, 100, 200, 400] {
        let mut sk: ReliableSketch<u64> = ReliableSketch::<u64>::builder()
            .memory_bytes(mem_kb * 1024)
            .error_tolerance(25)
            .seed(7)
            .build_sequential();
        for it in &stream {
            sk.insert(&it.key, it.value);
        }
        let rep = evaluate(&sk, &truth, 25);
        println!("Ours  mem={}KB outliers={} aae={:.2} are={:.4} maxerr={} failures={} mem_used={} depth={} filter_sat={:.2}",
            mem_kb, rep.outliers, rep.aae, rep.are, rep.max_abs_error,
            sk.insertion_failures(), sk.memory_bytes(), sk.geometry().depth(), -1.0);
    }
    for mem_kb in [100usize, 400] {
        let mut cm = rsk_baselines::CmSketch::<u64>::fast(mem_kb * 1024, 7);
        for it in &stream {
            cm.insert(&it.key, it.value);
        }
        let rep = evaluate(&cm, &truth, 25);
        println!(
            "CMfast mem={}KB outliers={} aae={:.2}",
            mem_kb, rep.outliers, rep.aae
        );
    }
}

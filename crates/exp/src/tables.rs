//! Tables 1, 3 and 4 of the paper.
//!
//! * **Table 1** — the complexity comparison, regenerated from the
//!   closed forms in `rsk_core::theory` for the default experimental
//!   setting (`N = 10 M`, `Λ = 25`);
//! * **Table 3** — the FPGA synthesis report, regenerated from the
//!   `rsk_dataplane::fpga` model at the paper's 1 MB configuration;
//! * **Table 4** — the Tofino resource report, regenerated from the
//!   `rsk_dataplane::tofino` estimator at the deployed layout.

use crate::ExpContext;
use rsk_core::theory;
use rsk_dataplane::fpga::FpgaModel;
use rsk_dataplane::tofino::TofinoResources;
use rsk_metrics::Table;

/// Table 1: complexity comparison of the four sketch families.
pub fn table1(_ctx: &ExpContext) -> Vec<Table> {
    let rows = theory::table1(crate::PAPER_ITEMS as u64, 25, 0.05, 1e-10);
    let mut t = Table::new(
        "Table 1: complexity comparison (N = 10M, Λ = 25, δ = 0.05, Δ = 1e-10)",
        &["family", "overall confidence", "speed", "space", "compat"],
    );
    for r in rows {
        t.row(vec![
            r.family.to_string(),
            r.overall_confidence,
            r.speed,
            r.space,
            r.compatibility.to_string(),
        ]);
    }
    // companion rows: the concrete parameter solutions of Theorem 4
    let mut solver = Table::new(
        "Table 1 companion: Theorem 4 solutions at default parameters",
        &["quantity", "value"],
    );
    let d = theory::solve_depth(crate::PAPER_ITEMS as u64, 25, 1e-10, 2.0, 2.5);
    solver.row(vec!["depth d (Theorem 4 root)".into(), d.to_string()]);
    solver.row(vec![
        "emergency slots Δ₂·ln(1/Δ)".into(),
        theory::emergency_slots(1e-10, 2.0, 2.5).to_string(),
    ]);
    solver.row(vec![
        "recommended buckets W".into(),
        theory::recommended_buckets(crate::PAPER_ITEMS as u64, 25, 2.0, 2.5).to_string(),
    ]);
    solver.row(vec![
        "amortized insert cost".into(),
        format!(
            "{:.6}",
            theory::amortized_time(crate::PAPER_ITEMS as u64, 25, 1e-10)
        ),
    ]);
    vec![t, solver]
}

/// Table 3: FPGA synthesis results at the paper's deployed configuration.
pub fn table3(_ctx: &ExpContext) -> Vec<Table> {
    // 1 MB total, 20 % mice filter → ≈ 839 KB of buckets = 83 886 buckets
    let geometry =
        rsk_core::LayerGeometry::derive(83_886, 22, 2.0, 2.5, rsk_core::Depth::Fixed(16));
    let model = FpgaModel::synthesize(&geometry);
    let mut t = Table::new(
        "Table 3: FPGA implementation results (xc7vx690tffg1761-2)",
        &[
            "module",
            "CLB LUTs",
            "CLB registers",
            "Block RAM",
            "freq (MHz)",
        ],
    );
    for m in model.modules() {
        t.row(vec![
            m.module.to_string(),
            m.luts.to_string(),
            m.registers.to_string(),
            m.bram.to_string(),
            m.frequency_mhz.to_string(),
        ]);
    }
    let (lut, reg, bram) = model.utilization();
    t.row(vec![
        "Usage".into(),
        format!("{:.2}%", lut * 100.0),
        format!("{:.2}%", reg * 100.0),
        format!("{:.2}%", bram * 100.0),
        String::new(),
    ]);
    let mut timing = Table::new("Table 3 companion: pipeline timing", &["quantity", "value"]);
    timing.row(vec![
        "pipeline depth".into(),
        format!("{} clocks", rsk_dataplane::fpga::PIPELINE_DEPTH),
    ]);
    timing.row(vec![
        "insertion latency".into(),
        format!("{:.1} ns", model.insertion_latency_ns()),
    ]);
    timing.row(vec![
        "sustained throughput".into(),
        format!("{:.0} M insertions/s", model.throughput_mips(10_000_000)),
    ]);
    vec![t, timing]
}

/// Table 4: Tofino hardware resources at the deployed layout.
pub fn table4(_ctx: &ExpContext) -> Vec<Table> {
    let r = TofinoResources::estimate(rsk_dataplane::tofino::SWITCH_LAYERS, 1_665_000);
    let mut t = Table::new(
        "Table 4: H/W resources used by ReliableSketch (Tofino)",
        &["resource", "usage", "percentage"],
    );
    for row in r.rows() {
        t.row(vec![
            row.resource.to_string(),
            row.usage.to_string(),
            format!("{:.2}%", row.percentage * 100.0),
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_shape() {
        let ts = table1(&ExpContext::default());
        assert_eq!(ts.len(), 2);
        assert_eq!(ts[0].len(), 4);
        assert!(ts[0].to_csv().contains("ReliableSketch (Ours)"));
    }

    #[test]
    fn table3_matches_paper_numbers() {
        let ts = table3(&ExpContext::default());
        let csv = ts[0].to_csv();
        assert!(csv.contains("Hash,85,130,0,339"));
        assert!(csv.contains("ESbucket,2521,2592,258,339"));
        assert!(csv.contains("Emergency,48,112,1,339"));
        assert!(csv.contains("Total,2654,2834,259,339"));
        assert!(ts[1].to_csv().contains("41 clocks"));
    }

    #[test]
    fn table4_matches_paper_numbers() {
        let ts = table4(&ExpContext::default());
        let csv = ts[0].to_csv();
        assert!(csv.contains("Hash Bits,541,10.84%"));
        assert!(csv.contains("Stateful ALU,12,25.00%"));
        assert!(csv.contains("SRAM,138,14.37%"));
        assert!(csv.contains("Map RAM,119,20.66%"));
        assert!(csv.contains("TCAM,0,0.00%"));
    }
}

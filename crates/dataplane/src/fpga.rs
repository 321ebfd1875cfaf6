//! Pipeline and resource model of the FPGA implementation (paper §5.1,
//! Table 3).
//!
//! The paper's Verilog design on a Virtex-7 VC709 (xc7vx690tffg1761-2) is
//! fully pipelined: one key enters every clock, an insertion completes
//! after 41 clocks, and the synthesized clock is 339 MHz — hence ≈340 M
//! insertions per second. Three modules make up the design: `hash`
//! (hash-value computation), `ESbucket` (the bucket arrays in block RAM)
//! and `Emergency` (a small stack for insertion failures).
//!
//! Here we model (a) the resource table — per-module LUT/register/BRAM
//! rows calibrated to the synthesis report and scaled with the sketch
//! geometry — and (b) the pipeline timing, from which throughput and
//! insertion latency follow.

use rsk_core::{LayerGeometry, BUCKET_BYTES};

/// Device totals of the xc7vx690tffg1761-2 (paper §5.1).
pub mod device {
    /// Slice LUTs available.
    pub const LUTS: u64 = 433_200;
    /// Slice registers available.
    pub const REGISTERS: u64 = 866_400;
    /// 36 Kb block RAM tiles available.
    pub const BRAM_TILES: u64 = 1_470;
}

/// Synthesized clock of the paper's design (MHz).
pub const CLOCK_MHZ: f64 = 339.0;

/// Pipeline depth: an insertion completes 41 clocks after entering.
pub const PIPELINE_DEPTH: u64 = 41;

/// Per-module resource usage (one row of Table 3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FpgaModuleUsage {
    /// Module name (`Hash`, `ESbucket`, `Emergency`, `Total`).
    pub module: &'static str,
    /// Slice LUTs.
    pub luts: u64,
    /// Slice registers.
    pub registers: u64,
    /// 36 Kb block RAM tiles.
    pub bram: u64,
    /// Clock frequency the module closes timing at (MHz).
    pub frequency_mhz: u64,
}

/// Resource and timing model of one synthesized ReliableSketch instance.
#[derive(Debug, Clone)]
pub struct FpgaModel {
    modules: Vec<FpgaModuleUsage>,
}

impl FpgaModel {
    /// Model the design for a given layer geometry.
    ///
    /// Calibration: the paper's 1 MB default configuration (≈16 layers of
    /// error-sensible buckets, ≈839 KB of bucket state after the mice
    /// filter) synthesizes to Table 3's numbers; module LUT/register
    /// counts scale with the layer count (one address/compare unit per
    /// layer) and BRAM with the bucket bytes.
    pub fn synthesize(geometry: &LayerGeometry) -> Self {
        let d = geometry.depth() as u64;
        let bucket_bytes = (geometry.total_buckets() * BUCKET_BYTES) as u64;

        // hash: one 90-bit hash lane per layer,5 LUT + 8 Reg each, plus
        // shared seed registers
        let hash = FpgaModuleUsage {
            module: "Hash",
            luts: 5 * d + 5,
            registers: 8 * d + 2,
            bram: 0,
            frequency_mhz: CLOCK_MHZ as u64,
        };
        // ESbucket: compare/select datapath per layer + BRAM for buckets;
        // a 36 Kb tile holds 4.5 KB of bucket state, plus four tiles per
        // layer for the read/write port muxes and a fixed block of eleven
        // tiles for the shared update controller
        let data_tiles = bucket_bytes.div_ceil(4_608);
        let esbucket = FpgaModuleUsage {
            module: "ESbucket",
            luts: 155 * d + 41,
            registers: 160 * d + 32,
            bram: data_tiles + d * 4 + 11,
            frequency_mhz: CLOCK_MHZ as u64,
        };
        // emergency stack: fixed-size FIFO + control
        let emergency = FpgaModuleUsage {
            module: "Emergency",
            luts: 48,
            registers: 112,
            bram: 1,
            frequency_mhz: CLOCK_MHZ as u64,
        };
        let total = FpgaModuleUsage {
            module: "Total",
            luts: hash.luts + esbucket.luts + emergency.luts,
            registers: hash.registers + esbucket.registers + emergency.registers,
            bram: hash.bram + esbucket.bram + emergency.bram,
            frequency_mhz: CLOCK_MHZ as u64,
        };
        Self {
            modules: vec![hash, esbucket, emergency, total],
        }
    }

    /// The module rows (`Hash`, `ESbucket`, `Emergency`, `Total`).
    pub fn modules(&self) -> &[FpgaModuleUsage] {
        &self.modules
    }

    /// A named module row.
    pub fn module(&self, name: &str) -> Option<&FpgaModuleUsage> {
        self.modules.iter().find(|m| m.module == name)
    }

    /// Device utilization of the total row as `(lut, register, bram)`
    /// fractions.
    pub fn utilization(&self) -> (f64, f64, f64) {
        let t = self.module("Total").expect("total row always present");
        (
            t.luts as f64 / device::LUTS as f64,
            t.registers as f64 / device::REGISTERS as f64,
            t.bram as f64 / device::BRAM_TILES as f64,
        )
    }

    /// Clocks to process `n` back-to-back insertions (fully pipelined:
    /// one new key per clock, plus the fill latency).
    pub fn cycles_for(&self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            n + PIPELINE_DEPTH - 1
        }
    }

    /// Sustained throughput in million insertions per second.
    pub fn throughput_mips(&self, n: u64) -> f64 {
        if n == 0 {
            return 0.0;
        }
        let cycles = self.cycles_for(n) as f64;
        CLOCK_MHZ * n as f64 / cycles
    }

    /// Latency of a single insertion in nanoseconds.
    pub fn insertion_latency_ns(&self) -> f64 {
        PIPELINE_DEPTH as f64 * 1e3 / CLOCK_MHZ
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsk_core::{Depth, LayerGeometry};

    /// The paper's default 1 MB configuration (after the 20 % mice filter:
    /// ≈839 KB of buckets = 83 886 buckets) reproduces Table 3.
    fn paper_geometry() -> LayerGeometry {
        LayerGeometry::derive(83_886, 22, 2.0, 2.5, Depth::Fixed(16))
    }

    #[test]
    fn table3_reproduced_at_paper_layout() {
        let m = FpgaModel::synthesize(&paper_geometry());
        let hash = m.module("Hash").unwrap();
        assert_eq!((hash.luts, hash.registers, hash.bram), (85, 130, 0));
        let es = m.module("ESbucket").unwrap();
        assert_eq!((es.luts, es.registers, es.bram), (2521, 2592, 258));
        let em = m.module("Emergency").unwrap();
        assert_eq!((em.luts, em.registers, em.bram), (48, 112, 1));
        let t = m.module("Total").unwrap();
        assert_eq!((t.luts, t.registers, t.bram), (2654, 2834, 259));
        // utilization: 0.61 % LUTs, 0.33 % registers, 17.62 % BRAM
        let (lut, reg, bram) = m.utilization();
        assert!((lut - 0.0061).abs() < 2e-4, "lut {lut}");
        assert!((reg - 0.0033).abs() < 2e-4, "reg {reg}");
        assert!((bram - 0.1762).abs() < 2e-3, "bram {bram}");
    }

    #[test]
    fn throughput_approaches_clock_rate() {
        let m = FpgaModel::synthesize(&paper_geometry());
        // one insertion: dominated by fill latency
        assert!(m.throughput_mips(1) < 20.0);
        // sustained: ≈ 339 M/s, the paper's "340 million insertions/s"
        let sustained = m.throughput_mips(10_000_000);
        assert!((sustained - CLOCK_MHZ).abs() < 0.01);
        assert_eq!(m.cycles_for(0), 0);
        assert_eq!(m.cycles_for(1), 41);
        assert_eq!(m.cycles_for(100), 140);
    }

    #[test]
    fn latency_is_41_clocks() {
        let m = FpgaModel::synthesize(&paper_geometry());
        // 41 cycles at 339 MHz ≈ 121 ns
        assert!((m.insertion_latency_ns() - 120.94).abs() < 0.1);
    }

    #[test]
    fn bram_scales_with_memory() {
        let small = FpgaModel::synthesize(&LayerGeometry::derive(
            8_000,
            22,
            2.0,
            2.5,
            Depth::Fixed(16),
        ));
        let big = FpgaModel::synthesize(&paper_geometry());
        assert!(big.module("ESbucket").unwrap().bram > small.module("ESbucket").unwrap().bram);
        // logic scales with depth, not width
        assert_eq!(
            big.module("ESbucket").unwrap().luts,
            small.module("ESbucket").unwrap().luts
        );
    }
}

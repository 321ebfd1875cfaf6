//! # rsk-dataplane — hardware models of the paper's §5 implementations
//!
//! The paper deploys ReliableSketch on a Virtex-7 FPGA and an Edgecore
//! Wedge (Tofino ASIC) programmable switch. Neither platform is available
//! here, so this crate provides the closest executable equivalents
//! (DESIGN.md §5 records the substitution argument):
//!
//! * [`tofino`] — a **behavioural model** of the P4 program: the bucket is
//!   re-encoded the way §5.2 describes to fit switch constraints (DIFF/ID
//!   in one stage, NO in the next, lock flags set by recirculated packets,
//!   saturated subtraction, two-branch updates). Running this model over a
//!   packet stream exercises the *same algorithm the switch runs*, which
//!   is what Figure 20's accuracy-vs-SRAM curves measure. A resource
//!   estimator regenerates Table 4's rows from the program layout. The
//!   switch bucket grid, its stage step and its readout are written once
//!   here and serve both Tofino models.
//! * [`fpga`] — a pipeline/resource model of the Verilog implementation:
//!   41-cycle fully pipelined insertion at 339 MHz, with per-module
//!   LUT/register/BRAM accounting that regenerates Table 3 and scales
//!   with the sketch geometry.
//! * [`fpga_pipeline`] — a **cycle-level simulator** of that pipeline:
//!   one key per clock, read-after-write hazards resolved by a modeled
//!   forwarding network, differentially tested for exact functional
//!   equivalence with the software sketch. Its read stage runs the
//!   software's one bucket step ([`rsk_core::bucket::step`]) and its
//!   query the software's Algorithm-2 walk ([`rsk_core::sketch::walk`]).
//! * [`tofino_pipeline`] — a **slot-level model of recirculation
//!   asynchrony** (§5.2 Challenge II): lock flags land one recirculation
//!   pass late, duplicate recirculations and delayed descents included;
//!   it shares the behavioural model's switch grid and collapses to it
//!   at zero latency.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fpga;
pub mod fpga_pipeline;
pub mod tofino;
pub mod tofino_pipeline;

pub use fpga::{FpgaModel, FpgaModuleUsage};
pub use fpga_pipeline::FpgaPipeline;
pub use tofino::{TofinoReliable, TofinoResources};
pub use tofino_pipeline::TofinoPipeline;

//! `fig_serve`: the multi-tenant service driven end-to-end over real
//! loopback TCP.
//!
//! The target boots an in-process `rsk-serve` server (ephemeral port,
//! thread-per-core accept loop), drives it with the `rsk-load`
//! generator (tenants × pipelined connections × Zipf keys), and emits
//! two tables:
//!
//! * **coverage** (deterministic, report-gated) — what the run proved:
//!   updates acknowledged end-to-end, batches, certified probes and how
//!   many contained the exact ground truth, the server's own item
//!   count, and refused batches. The containment column must equal the
//!   probe column on every run on every host: that equality *is* the
//!   service's certification guarantee, so it belongs under the
//!   report-rot gate where any regression diffs the committed report.
//! * **throughput / latency** (volatile, CSV-only) — wall-clock
//!   M updates/s over the ingest phase, certified-query p50/p99
//!   microseconds, and client credit-window stall events. Host-
//!   dependent by nature, so `REPORT.md` masks it like the other
//!   wall-clock tables.

use crate::ExpContext;
use rsk_metrics::Table;
use rsk_serve::{LoadConfig, ServeConfig, ServerHandle, SketchSpec};

/// Tenants × connections the target drives (kept modest so the quick CI
/// run stays fast; `rsk-load` itself defaults to a heavier 8 × 8 shape).
pub const SERVE_TENANTS: u32 = 2;
/// Pipelined connections per tenant.
pub const SERVE_CONNECTIONS: u32 = 2;
/// Certified probes per tenant (hottest keys first).
pub const SERVE_PROBES: usize = 64;

/// The load shape this context implies: `ctx.items` total updates split
/// evenly across the tenant × connection grid.
pub fn load_shape(ctx: &ExpContext, addr: String) -> LoadConfig {
    let lanes = (SERVE_TENANTS * SERVE_CONNECTIONS) as usize;
    LoadConfig {
        addr,
        tenants: SERVE_TENANTS,
        connections: SERVE_CONNECTIONS,
        items_per_connection: (ctx.items / lanes).max(1),
        universe: (ctx.items as u64 / 5).max(1_000),
        seed: ctx.seed,
        probes: SERVE_PROBES,
        ..LoadConfig::default()
    }
}

/// The `serve` repro target.
pub fn serve(ctx: &ExpContext) -> Vec<Table> {
    let server = ServerHandle::start(ServeConfig {
        spec: SketchSpec {
            memory_bytes: ctx.scale_mem(1 << 20).max(64 * 1024),
            error_tolerance: 25,
            seed: ctx.seed,
        },
        ..ServeConfig::default()
    })
    .expect("bind loopback server for fig_serve");
    let cfg = load_shape(ctx, server.local_addr().to_string());
    let report = rsk_serve::run_load(&cfg).expect("load run against in-process server");
    server.shutdown();

    let mut coverage = Table::new(
        format!(
            "Serve: certified end-to-end coverage, {} tenants x {} connections",
            cfg.tenants, cfg.connections
        ),
        &[
            "updates acked",
            "ingest batches",
            "certified probes",
            "probes containing truth",
            "server item count",
            "refused batches",
        ],
    );
    coverage.row(vec![
        report.total_updates.to_string(),
        report.batches.to_string(),
        report.probes.to_string(),
        report.probes_contained.to_string(),
        report.server_items.to_string(),
        report.server_rejected_batches.to_string(),
    ]);

    let mut timing = Table::new(
        format!(
            "Serve: throughput and certified-query latency, {} updates over loopback TCP",
            report.total_updates
        ),
        &[
            "wall s",
            "M updates/s",
            "certified p50 us",
            "certified p99 us",
            "client stall events",
        ],
    )
    .mark_volatile();
    timing.row(vec![
        format!("{:.3}", report.elapsed.as_secs_f64()),
        format!("{:.2}", report.mupdates_per_sec),
        report.p50_us.to_string(),
        report.p99_us.to_string(),
        report.stalls.to_string(),
    ]);

    vec![coverage, timing]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_emits_gated_coverage_and_volatile_timing() {
        let ctx = ExpContext {
            items: 20_000,
            quick: true,
            ..Default::default()
        };
        let tables = serve(&ctx);
        assert_eq!(tables.len(), 2);

        let coverage = &tables[0];
        assert!(
            !coverage.is_volatile(),
            "coverage is the report-gated guarantee table"
        );
        let line = coverage.to_csv().lines().nth(1).unwrap().to_string();
        let cells: Vec<&str> = line.split(',').collect();
        let updates: u64 = cells[0].parse().unwrap();
        let probes: u64 = cells[2].parse().unwrap();
        let contained: u64 = cells[3].parse().unwrap();
        let server_items: u64 = cells[4].parse().unwrap();
        assert_eq!(updates, 20_000, "items split exactly across lanes");
        assert_eq!(
            contained, probes,
            "certified containment must hold on every probe"
        );
        assert_eq!(server_items, updates, "server accounting matches clients");
        assert_eq!(cells[5], "0", "no backpressure refusals at this scale");

        let timing = &tables[1];
        assert!(timing.is_volatile(), "wall-clock table must be masked");
        let line = timing.to_csv().lines().nth(1).unwrap().to_string();
        let cells: Vec<&str> = line.split(',').collect();
        let mups: f64 = cells[1].parse().unwrap();
        assert!(mups > 0.0, "non-positive throughput: {line}");
    }

    #[test]
    fn coverage_table_is_run_to_run_deterministic() {
        let ctx = ExpContext {
            items: 8_000,
            quick: true,
            ..Default::default()
        };
        let a = serve(&ctx)[0].to_csv();
        let b = serve(&ctx)[0].to_csv();
        assert_eq!(a, b, "the report-gated table must not drift between runs");
    }
}

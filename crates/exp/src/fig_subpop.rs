//! The subpopulation-weight study: certified subset aggregates
//! ([`rsk_core::subpop`]) measured across the contender registry —
//! interval width vs subset size vs memory budget, plus an in-report
//! oracle audit that every interval contains the exact subset sum.
//!
//! The workload is a bounded-universe Zipf stream whose keys are raw
//! flow indices (no hashing), so ranges and masks select real "subnets":
//! the hottest-`N` explicit sets ride the dense member-by-member path, a
//! `/56`-style mask selects a 256-key neighbourhood, and a
//! megakey range forces the tracked-key decode, where the certified
//! top-K layer's `miss_bound` (the `OursTopK` row) visibly tightens the
//! untracked charge over the plain `mpe_ceiling`. `OursSlim` is in every
//! table, so the aggregate cost of answering from the shipped digest —
//! tight dense intervals, vacuous decode answers — is measured, not
//! assumed.
//!
//! Every registered contender here is deterministic, so all five tables
//! sit inside the CI report-rot gate.

use crate::scenario::{sweep_table_shell, Scenario};
use crate::{Contender, ExpContext};
use rsk_api::KeySet;
use rsk_baselines::factory::Baseline;
use rsk_metrics::Table;
use rsk_stream::zipf::ZipfSampler;
use rsk_stream::Item;

/// Explicit-subset sizes of the dense width tables (hottest-`N` keys).
const SUBSET_SIZES: [usize; 3] = [4, 64, 1024];
/// Bounded flow universe the stream draws from — small enough that
/// range/mask predicates select live populations, large enough that the
/// decode span below still exceeds it.
const FLOW_UNIVERSE: u64 = 65_536;
/// Span of the decode-path range probe: 2²⁰ possible members, far past
/// [`rsk_core::DENSE_ENUMERATION_LIMIT`], covering the whole universe.
const DECODE_SPAN: u64 = 1 << 20;
/// Capacity of the `OursTopK` row's certified layer (matching the serve
/// tier's default).
const TOPK_CAPACITY: usize = 128;

/// The bounded-universe Zipf workload: key = flow index, unit values.
fn flow_scenario(ctx: &ExpContext) -> Scenario<'_> {
    let mut sampler = ZipfSampler::new(FLOW_UNIVERSE, 1.1, ctx.seed ^ 0x5b9);
    let stream: Vec<Item<u64>> = (0..ctx.items)
        .map(|_| Item::unit(sampler.sample()))
        .collect();
    Scenario::from_stream(ctx, stream, 25)
}

/// One table cell: the certified interval width, `∞` for vacuous
/// answers, `—` for contenders without the aggregate layer.
fn width_cell(w: Option<rsk_api::CertifiedWeight>) -> String {
    match w {
        None => "—".into(),
        Some(w) if w.is_vacuous() => "∞".into(),
        Some(w) => w.width().to_string(),
    }
}

/// The `subpop` target: three dense width tables (one per subset size),
/// the decode-path width table, and the containment audit.
pub fn subpop(ctx: &ExpContext) -> Vec<Table> {
    let sc = flow_scenario(ctx);
    let mut registry = ctx.registry(&Baseline::ACCURACY_SET, 25);
    if ctx.keep("OursTopK") {
        registry.push(Contender::ours_topk(25, TOPK_CAPACITY));
    }

    // hottest keys by exact count, deterministic order
    let mut pairs = sc.truth.to_pairs();
    pairs.sort_by_key(|&(_, v)| core::cmp::Reverse(v));
    let hot: Vec<u64> = pairs.iter().map(|&(k, _)| k).collect();

    let dense_sets: Vec<(usize, KeySet)> = SUBSET_SIZES
        .iter()
        .map(|&n| (n, KeySet::explicit(hot.iter().copied().take(n).collect())))
        .collect();
    let decode_set = KeySet::range(0, DECODE_SPAN);
    // the audit adds the boundary shapes: empty, a /56-style mask
    // neighbourhood, and the full universe (vacuous but sound)
    let audit_sets: Vec<KeySet> = dense_sets
        .iter()
        .map(|(_, s)| s.clone())
        .chain([
            decode_set.clone(),
            KeySet::explicit(vec![]),
            KeySet::mask(0x1200, !0xffu64),
            KeySet::mask(0, 0),
        ])
        .collect();
    let exact = |set: &KeySet| -> u64 {
        sc.truth
            .iter()
            .filter(|(k, _)| set.contains(**k))
            .map(|(_, v)| v)
            .sum()
    };
    let audit_truth: Vec<u64> = audit_sets.iter().map(exact).collect();

    let sweep = ctx.memory_sweep();
    let mut dense_tables: Vec<Table> = dense_sets
        .iter()
        .map(|(n, _)| {
            sweep_table_shell(
                &format!(
                    "Subpopulation interval width, hottest {n} flows (dense path; — = no \
                     aggregate layer, ∞ = vacuous)"
                ),
                &sweep,
            )
        })
        .collect();
    let mut decode_table = sweep_table_shell(
        &format!(
            "Subpopulation interval width, {DECODE_SPAN}-key range (decode path; OursTopK's \
             miss_bound tightens the untracked charge)"
        ),
        &sweep,
    );
    let mut audit_table = sweep_table_shell(
        &format!(
            "Subpopulation containment audit: intervals containing the exact subset sum, over \
             {} predicate shapes",
            audit_sets.len()
        ),
        &sweep,
    );

    for c in &registry {
        let mut dense_rows: Vec<Vec<String>> = SUBSET_SIZES
            .iter()
            .map(|_| vec![c.label().to_string()])
            .collect();
        let mut decode_row = vec![c.label().to_string()];
        let mut audit_row = vec![c.label().to_string()];
        for &mem in &sweep {
            let inst = c.run(mem, ctx.seed, &sc.stream);
            for (i, (_, set)) in dense_sets.iter().enumerate() {
                dense_rows[i].push(width_cell(inst.subpopulation_weight(set)));
            }
            decode_row.push(width_cell(inst.subpopulation_weight(&decode_set)));
            audit_row.push(match inst.subpopulation_weight(&audit_sets[0]) {
                None => "—".into(),
                Some(_) => {
                    let contained = audit_sets
                        .iter()
                        .zip(&audit_truth)
                        .filter(|(set, &truth)| {
                            inst.subpopulation_weight(set)
                                .is_some_and(|w| w.contains(truth))
                        })
                        .count();
                    format!("{contained}/{}", audit_sets.len())
                }
            });
        }
        for (i, row) in dense_rows.into_iter().enumerate() {
            dense_tables[i].row(row);
        }
        decode_table.row(decode_row);
        audit_table.row(audit_row);
    }

    dense_tables.push(decode_table);
    dense_tables.push(audit_table);
    dense_tables
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExpContext {
        ExpContext {
            items: 30_000,
            quick: true,
            ..Default::default()
        }
    }

    #[test]
    fn subpop_tables_cover_the_registry_and_certify_containment() {
        let ctx = tiny();
        let ts = subpop(&ctx);
        assert_eq!(ts.len(), SUBSET_SIZES.len() + 2);

        // every table row-covers the full registry plus OursTopK
        let rows = 9 + 5 + 1 + 1;
        for t in &ts {
            assert_eq!(t.len(), rows, "{}", t.title());
        }

        // the audit: every aggregate-capable contender contains the
        // exact subset truth on every probed shape at every budget;
        // baselines honestly report no aggregate layer at all
        let audit = ts.last().unwrap().to_csv();
        for line in audit.lines().skip(1) {
            let mut cells = line.split(',');
            let label = cells.next().unwrap();
            for cell in cells {
                if cell == "—" {
                    continue;
                }
                let (contained, total) = cell.split_once('/').expect("audit cell");
                assert_eq!(contained, total, "{label}: an interval missed the truth");
            }
        }
        let ours_audit = audit
            .lines()
            .find(|l| l.starts_with("Ours,"))
            .expect("Ours row");
        assert!(ours_audit.contains("/"), "Ours must be audited, not dashed");
        let cm_audit = audit
            .lines()
            .find(|l| l.starts_with("CM_fast,"))
            .expect("CM_fast row");
        assert!(
            cm_audit.split(',').skip(1).all(|c| c == "—"),
            "baselines have no certified aggregate to audit"
        );

        // dense hottest-4 intervals are finite for the sequential sketch
        let dense = ts[0].to_csv();
        let ours = dense
            .lines()
            .find(|l| l.starts_with("Ours,"))
            .expect("Ours row");
        for cell in ours.split(',').skip(1) {
            assert!(cell.parse::<u64>().is_ok(), "dense width must be finite");
        }

        // the decode table shows the top-K miss_bound beating the plain
        // ceiling: OursTopK's width is strictly below Ours's at the
        // largest budget (both finite, unmerged sequential decode)
        let decode = &ts[SUBSET_SIZES.len()];
        let csv = decode.to_csv();
        let last = |label: &str| -> u64 {
            csv.lines()
                .find(|l| l.starts_with(&format!("{label},")))
                .and_then(|l| l.split(',').next_back())
                .and_then(|c| c.parse().ok())
                .unwrap_or_else(|| panic!("finite decode width for {label}"))
        };
        assert!(
            last("OursTopK") < last("Ours"),
            "miss_bound must tighten the untracked charge"
        );
    }

    #[test]
    fn flow_scenario_is_bounded_and_deterministic() {
        let ctx = tiny();
        let a = flow_scenario(&ctx);
        let b = flow_scenario(&ctx);
        assert_eq!(a.stream, b.stream);
        assert!(a.stream.iter().all(|it| it.key < FLOW_UNIVERSE));
    }
}

//! Per-phase aggregation of round-trace journals (the `trace_summary`
//! binary's engine, shared with the harness tests so the rendered numbers
//! are the tested numbers).
//!
//! A journal is the JSONL stream a [`pim_sim::Journal`] writes: one
//! [`pim_sim::RoundRecord`] per accounted BSP round, labelled with the
//! phase stack the core pushed around the operation (`insert`,
//! `insert/maintain`, `box_count`, …). Summaries group rounds by label and
//! reproduce exactly the attribution the harness reports per operation:
//! `pim_s` sums the per-round PIM time and `comm_s + overhead_s` sums to
//! the harness's communication column. Journal files are read back by
//! [`pim_sim::trace::parse_jsonl`], beside the writer.

use pim_sim::{FaultKind, RoundKind, RoundRecord};

/// Merges per-rank journals into one record stream with stable rank-tagged
/// ordering: rows keep their within-rank order, ranks concatenate in index
/// order, and every phase label gains a `rank{r}/` prefix so the summary
/// keeps the ranks' attributions separate. A single journal passes through
/// untagged, so single-rank reports stay byte-identical to the
/// pre-sharding output.
pub fn merge_rank_rows(per_rank: &[Vec<RoundRecord>]) -> Vec<RoundRecord> {
    if per_rank.len() == 1 {
        return per_rank[0].clone();
    }
    let mut out = Vec::with_capacity(per_rank.iter().map(Vec::len).sum());
    for (r, rows) in per_rank.iter().enumerate() {
        for row in rows {
            let mut row = row.clone();
            row.phase = if row.phase.is_empty() {
                format!("rank{r}")
            } else {
                format!("rank{r}/{}", row.phase)
            };
            out.push(row);
        }
    }
    out
}

/// Aggregate of all rounds sharing one phase label.
#[derive(Clone, Debug, Default)]
pub struct PhaseSummary {
    /// The label ("(unlabeled)" for rounds outside any phase).
    pub phase: String,
    /// Rounds in the phase.
    pub rounds: u64,
    /// Σ per-round PIM seconds.
    pub pim_s: f64,
    /// Σ channel transfer seconds.
    pub comm_s: f64,
    /// Σ mux/call overhead seconds.
    pub overhead_s: f64,
    /// Σ bytes CPU → PIM.
    pub cpu_to_pim_bytes: u64,
    /// Σ bytes PIM → CPU.
    pub pim_to_cpu_bytes: u64,
    /// Σ tasks.
    pub tasks: u64,
    /// Σ replies.
    pub replies: u64,
    /// Worst single-round max/mean imbalance (1.0 = balanced).
    pub worst_imbalance: f64,
    /// Cycle-weighted imbalance: Σ max-cycles over Σ mean-cycles, so tiny
    /// management rounds barely move it (mirrors `SimStats::agg_imbalance`).
    pub agg_imbalance: f64,
    /// Injected fault / recovery events, by kind in [`FaultKind::ALL`] order.
    pub fault_counts: [u64; FaultKind::COUNT],
    /// Rounds with at least one fault event attached.
    pub faulted_rounds: u64,
    /// `Salvage`-kind rounds (one per dead-module memory rescue).
    pub salvage_rounds: u64,
    /// Bytes DMA'd out of dead modules by the phase's salvage rounds.
    pub salvage_bytes: u64,
}

impl PhaseSummary {
    /// Total round seconds attributed to the phase.
    pub fn total_s(&self) -> f64 {
        self.pim_s + self.comm_s + self.overhead_s
    }

    /// The harness's communication column (`comm_s + overhead_s`, matching
    /// `OpBreakdown::comm_s`).
    pub fn comm_incl_overhead_s(&self) -> f64 {
        self.comm_s + self.overhead_s
    }
}

/// Groups rows by phase label. Order: descending total time.
pub fn summarize(rows: &[RoundRecord]) -> Vec<PhaseSummary> {
    let mut by_phase: Vec<PhaseSummary> = Vec::new();
    let mut sums_max: Vec<u64> = Vec::new(); // Σ max_cycles per phase
    let mut sums_mean: Vec<f64> = Vec::new(); // Σ mean_cycles per phase
    for row in rows {
        let label = if row.phase.is_empty() { "(unlabeled)" } else { &row.phase };
        let idx = match by_phase.iter().position(|s| s.phase == label) {
            Some(i) => i,
            None => {
                by_phase.push(PhaseSummary { phase: label.to_string(), ..Default::default() });
                sums_max.push(0);
                sums_mean.push(0.0);
                by_phase.len() - 1
            }
        };
        let s = &mut by_phase[idx];
        s.rounds += 1;
        s.pim_s += row.breakdown.pim_s;
        s.comm_s += row.breakdown.comm_s;
        s.overhead_s += row.breakdown.overhead_s;
        s.cpu_to_pim_bytes += row.cpu_to_pim_bytes;
        s.pim_to_cpu_bytes += row.pim_to_cpu_bytes;
        s.tasks += row.tasks;
        s.replies += row.replies;
        if row.mean_cycles > 0.0 {
            s.worst_imbalance = s.worst_imbalance.max(row.max_cycles as f64 / row.mean_cycles);
        }
        for f in &row.faults {
            let k = FaultKind::ALL.iter().position(|&k| k == f.kind);
            s.fault_counts[k.expect("ALL lists every kind")] += 1;
        }
        if !row.faults.is_empty() {
            s.faulted_rounds += 1;
        }
        if row.kind == RoundKind::Salvage {
            s.salvage_rounds += 1;
            s.salvage_bytes += row.pim_to_cpu_bytes;
        }
        sums_max[idx] += row.max_cycles;
        sums_mean[idx] += row.mean_cycles;
    }
    for (i, s) in by_phase.iter_mut().enumerate() {
        s.agg_imbalance = if sums_mean[i] > 0.0 { sums_max[i] as f64 / sums_mean[i] } else { 1.0 };
        if s.worst_imbalance == 0.0 {
            s.worst_imbalance = 1.0;
        }
    }
    by_phase.sort_by(|a, b| b.total_s().total_cmp(&a.total_s()));
    by_phase
}

/// Renders the Fig-6-style breakdown plus the per-phase imbalance table.
pub fn render(summaries: &[PhaseSummary]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let grand: f64 = summaries.iter().map(PhaseSummary::total_s).sum();

    writeln!(out, "== Round-time attribution by phase (Fig. 6 categories) ==\n").unwrap();
    writeln!(
        out,
        "{:<22} {:>7} {:>10} {:>10} {:>10} {:>10}  {:>6} {:>6} {:>6}",
        "phase", "rounds", "PIM ms", "Comm ms", "Ovhd ms", "total ms", "PIM%", "Comm%", "Ovhd%"
    )
    .unwrap();
    writeln!(out, "{}", "-".repeat(96)).unwrap();
    for s in summaries {
        let t = s.total_s().max(f64::MIN_POSITIVE);
        writeln!(
            out,
            "{:<22} {:>7} {:>10.4} {:>10.4} {:>10.4} {:>10.4}  {:>5.1}% {:>5.1}% {:>5.1}%",
            s.phase,
            s.rounds,
            s.pim_s * 1e3,
            s.comm_s * 1e3,
            s.overhead_s * 1e3,
            s.total_s() * 1e3,
            100.0 * s.pim_s / t,
            100.0 * s.comm_s / t,
            100.0 * s.overhead_s / t,
        )
        .unwrap();
    }
    let (pim, comm, ovhd): (f64, f64, f64) = summaries
        .iter()
        .fold((0.0, 0.0, 0.0), |a, s| (a.0 + s.pim_s, a.1 + s.comm_s, a.2 + s.overhead_s));
    writeln!(out, "{}", "-".repeat(96)).unwrap();
    writeln!(
        out,
        "{:<22} {:>7} {:>10.4} {:>10.4} {:>10.4} {:>10.4}",
        "total",
        summaries.iter().map(|s| s.rounds).sum::<u64>(),
        pim * 1e3,
        comm * 1e3,
        ovhd * 1e3,
        grand * 1e3,
    )
    .unwrap();
    writeln!(out, "\n(host CPU time is not in round records; the harness meters it").unwrap();
    writeln!(out, " separately — see the figure binary's CPU column)").unwrap();

    writeln!(out, "\n== Per-phase traffic and load balance ==\n").unwrap();
    writeln!(
        out,
        "{:<22} {:>12} {:>12} {:>10} {:>10} {:>10} {:>10}",
        "phase", "→PIM KiB", "→CPU KiB", "tasks", "replies", "worst imb", "agg imb"
    )
    .unwrap();
    writeln!(out, "{}", "-".repeat(92)).unwrap();
    for s in summaries {
        writeln!(
            out,
            "{:<22} {:>12.1} {:>12.1} {:>10} {:>10} {:>10.3} {:>10.3}",
            s.phase,
            s.cpu_to_pim_bytes as f64 / 1024.0,
            s.pim_to_cpu_bytes as f64 / 1024.0,
            s.tasks,
            s.replies,
            s.worst_imbalance,
            s.agg_imbalance,
        )
        .unwrap();
    }

    // Recovery table — only when the run actually saw faults, so fault-free
    // journals render byte-identically to the pre-fault-plane output.
    let any_faults =
        summaries.iter().any(|s| s.fault_counts.iter().any(|&n| n > 0) || s.salvage_rounds > 0);
    if any_faults {
        writeln!(out, "\n== Fault injection & recovery (detection → retry → degrade) ==\n")
            .unwrap();
        writeln!(
            out,
            "{:<22} {:>8} {:>6} {:>6} {:>8} {:>6} {:>6} {:>6} {:>12}",
            "phase", "flt rnds", "exec", "drop", "corrupt", "strag", "death", "salv", "salvage KiB"
        )
        .unwrap();
        writeln!(out, "{}", "-".repeat(88)).unwrap();
        let mut tot = [0u64; FaultKind::COUNT];
        let (mut tot_rounds, mut tot_salv_rounds, mut tot_salv_bytes) = (0u64, 0u64, 0u64);
        for s in summaries {
            let c = &s.fault_counts;
            if c.iter().all(|&n| n == 0) && s.salvage_rounds == 0 {
                continue;
            }
            writeln!(
                out,
                "{:<22} {:>8} {:>6} {:>6} {:>8} {:>6} {:>6} {:>6} {:>12.1}",
                s.phase,
                s.faulted_rounds,
                c[0],
                c[1],
                c[2],
                c[3],
                c[4],
                s.salvage_rounds,
                s.salvage_bytes as f64 / 1024.0,
            )
            .unwrap();
            for (k, n) in c.iter().enumerate() {
                tot[k] += n;
            }
            tot_rounds += s.faulted_rounds;
            tot_salv_rounds += s.salvage_rounds;
            tot_salv_bytes += s.salvage_bytes;
        }
        writeln!(out, "{}", "-".repeat(88)).unwrap();
        writeln!(
            out,
            "{:<22} {:>8} {:>6} {:>6} {:>8} {:>6} {:>6} {:>6} {:>12.1}",
            "total",
            tot_rounds,
            tot[0],
            tot[1],
            tot[2],
            tot[3],
            tot[4],
            tot_salv_rounds,
            tot_salv_bytes as f64 / 1024.0,
        )
        .unwrap();
        writeln!(out, "\n(exec/drop/corrupt retry in place; death triggers salvage + re-homing")
            .unwrap();
        writeln!(out, " onto survivors — see ARCHITECTURE.md §5 for the failure model)").unwrap();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    use pim_sim::{FaultEvent, RoundBreakdown};

    fn row(phase: &str, pim: f64, comm: f64, ovhd: f64, maxc: u64, meanc: f64) -> RoundRecord {
        RoundRecord {
            round: 0,
            phase: phase.into(),
            kind: RoundKind::Execute,
            breakdown: RoundBreakdown { pim_s: pim, comm_s: comm, overhead_s: ovhd },
            cpu_to_pim_bytes: 100,
            pim_to_cpu_bytes: 50,
            tasks: 4,
            replies: 4,
            active_modules: 4,
            max_cycles: maxc,
            mean_cycles: meanc,
            sum_cycles: 0,
            cycle_hist: [0; pim_sim::trace::HIST_BUCKETS],
            stragglers: vec![],
            faults: vec![],
        }
    }

    /// `n[k]` events of kind `FaultKind::ALL[k]`.
    fn events(n: [usize; FaultKind::COUNT]) -> Vec<FaultEvent> {
        let kinds = FaultKind::ALL.iter().zip(n).flat_map(|(&kind, n)| vec![kind; n]);
        kinds.map(|kind| FaultEvent { module: 2, attempt: 0, kind }).collect()
    }

    #[test]
    fn summarize_groups_and_sorts_by_total_time() {
        let rows = vec![
            row("search", 1.0, 0.5, 0.1, 40, 10.0),
            row("insert", 5.0, 1.0, 0.2, 20, 20.0),
            row("search", 2.0, 0.5, 0.1, 30, 30.0),
        ];
        let s = summarize(&rows);
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].phase, "insert");
        assert_eq!(s[1].phase, "search");
        assert_eq!(s[1].rounds, 2);
        assert!((s[1].pim_s - 3.0).abs() < 1e-12);
        assert!((s[1].worst_imbalance - 4.0).abs() < 1e-12, "40/10 round dominates");
        // Cycle-weighted: (40 + 30) / (10 + 30).
        assert!((s[1].agg_imbalance - 70.0 / 40.0).abs() < 1e-12);
    }

    #[test]
    fn merge_rank_rows_tags_phases_in_rank_order() {
        let per_rank = vec![
            vec![row("knn", 1.0, 0.1, 0.0, 4, 2.0), row("", 0.5, 0.0, 0.0, 1, 1.0)],
            vec![row("knn", 2.0, 0.2, 0.0, 8, 4.0)],
        ];
        let merged = merge_rank_rows(&per_rank);
        assert_eq!(merged.len(), 3);
        assert_eq!(merged[0].phase, "rank0/knn");
        assert_eq!(merged[1].phase, "rank0");
        assert_eq!(merged[2].phase, "rank1/knn");
        let s = summarize(&merged);
        assert!(s.iter().any(|p| p.phase == "rank0/knn"));
        assert!(s.iter().any(|p| p.phase == "rank1/knn"));
    }

    #[test]
    fn merge_rank_rows_passes_single_journal_through_untouched() {
        let per_rank = vec![vec![row("insert", 1.0, 0.1, 0.0, 4, 2.0)]];
        let merged = merge_rank_rows(&per_rank);
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].phase, "insert", "single journal stays untagged");
    }

    #[test]
    fn unlabeled_rounds_get_a_bucket() {
        let s = summarize(&[row("", 1.0, 0.0, 0.0, 1, 1.0)]);
        assert_eq!(s[0].phase, "(unlabeled)");
    }

    #[test]
    fn fault_free_journals_render_no_recovery_table() {
        let rendered = render(&summarize(&[row("search", 1.0, 0.1, 0.1, 4, 2.0)]));
        assert!(!rendered.contains("Fault injection"), "no faults → no recovery table");
    }

    #[test]
    fn fault_events_aggregate_into_the_recovery_table() {
        let mut faulted = row("insert", 1.0, 0.1, 0.1, 4, 2.0);
        faulted.faults = events([2, 1, 0, 3, 1, 1, 0]); // exec, drop, -, strag, death, salvage, crash
        let mut salvage = row("insert", 0.0, 0.2, 0.0, 0, 0.0);
        salvage.kind = RoundKind::Salvage;
        salvage.pim_to_cpu_bytes = 4096;
        let s = summarize(&[faulted, salvage, row("knn", 0.5, 0.1, 0.0, 2, 1.0)]);
        let ins = s.iter().find(|p| p.phase == "insert").unwrap();
        assert_eq!(ins.fault_counts, [2, 1, 0, 3, 1, 1, 0]);
        assert_eq!(ins.faulted_rounds, 1);
        assert_eq!(ins.salvage_rounds, 1);
        assert_eq!(ins.salvage_bytes, 4096);
        let rendered = render(&s);
        assert!(rendered.contains("Fault injection & recovery"));
        assert!(rendered.contains("salvage KiB"));
        // The fault-free knn phase stays out of the recovery table body.
        let table = rendered.split("Fault injection").nth(1).unwrap();
        assert!(!table.contains("knn"));
    }
}

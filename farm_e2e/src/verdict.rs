//! A/B verdicts: the rules a change must pass, per (metric, workload).
//!
//! * **improved** — the change wins at least nine tenths of the pairs
//!   (ties count for neither) and the medians differ by more than the
//!   parent's own interquartile range;
//! * **worse** — the change's median is worse than the parent's by more
//!   than the metric's bound;
//! * **unresolved** — neither, and the run-to-run spread is wider than
//!   the bound, unless every change run reads better than every parent run;
//! * **unchanged** — otherwise.

use std::collections::BTreeMap;

use sim_rt::ser::Value;

use crate::stats::{median, quartiles, relative_spread};
use crate::{Better, Metric, END_TO_END, PER_LAYER};

/// Outcome for one (metric, workload) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verdict {
    /// Within the bound and the noise.
    Unchanged,
    /// A gain by the nine-tenths rule.
    Improved,
    /// Spread too wide to tell.
    Unresolved,
    /// Median worse than the bound allows.
    Worse,
}

impl Verdict {
    /// The printed word.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Unchanged => "unchanged",
            Verdict::Improved => "improved",
            Verdict::Unresolved => "unresolved",
            Verdict::Worse => "worse",
        }
    }
}

/// The numbers behind one verdict.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Judgement {
    /// The verdict.
    pub verdict: Verdict,
    /// Parent median.
    pub base: f64,
    /// Change median.
    pub change: f64,
    /// Relative worsening of the change median (negative = better).
    pub worse_by: f64,
    /// Larger of the two sides' interquartile range ÷ median.
    pub spread: f64,
    /// Pairs the change won.
    pub wins: usize,
    /// Pairs compared.
    pub pairs: usize,
}

/// How much worse `change` is than `base` as a share of `base`
/// (negative when it is better).
pub fn worse_by(base: f64, change: f64, better: Better) -> f64 {
    let delta = match better {
        Better::Lower => change - base,
        Better::Higher => base - change,
    };
    delta / base.abs()
}

fn beats(a: f64, b: f64, better: Better) -> bool {
    match better {
        Better::Lower => a < b,
        Better::Higher => a > b,
    }
}

/// Judges runs of a change against runs of its parent. Runs pair up in
/// order (run `i` of each side); `bound` is the metric's allowed relative
/// worsening. `None` with fewer than two runs on either side.
pub fn judge(base: &[f64], change: &[f64], better: Better, bound: f64) -> Option<Judgement> {
    let [b1, _, b3] = quartiles(base)?;
    let (bm, cm) = (median(base)?, median(change)?);
    let worse = worse_by(bm, cm, better);
    let spread = relative_spread(base)?.max(relative_spread(change)?);
    let pairs = base.len().min(change.len());
    let wins = base
        .iter()
        .zip(change)
        .filter(|(b, c)| beats(**c, **b, better))
        .count();
    let all_better = change
        .iter()
        .all(|c| base.iter().all(|b| beats(*c, *b, better)));
    let verdict = if wins * 10 >= pairs * 9 && worse < 0.0 && (cm - bm).abs() > b3 - b1 {
        Verdict::Improved
    } else if worse > bound {
        Verdict::Worse
    } else if spread > bound && !all_better {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    };
    Some(Judgement {
        verdict,
        base: bm,
        change: cm,
        worse_by: worse,
        spread,
        wins,
        pairs,
    })
}

/// One benchmark result row: one workload run.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Metric values by name (end-to-end for untraced runs, per-layer
    /// for traced ones).
    pub metrics: BTreeMap<String, f64>,
}

impl Row {
    /// Reads a row as the benchmark writes it (`workload`, `seed`,
    /// `metrics: {name: {value, unit}}`).
    pub fn from_json(v: &Value) -> Option<Row> {
        let metrics = v
            .get("metrics")?
            .as_object()?
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
            .collect();
        Some(Row {
            workload: v.get("workload")?.as_str()?.to_string(),
            seed: v.get("seed")?.as_u64()?,
            metrics,
        })
    }
}

/// All verdicts of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadReport {
    /// Workload name.
    pub workload: String,
    /// Verdict per end-to-end metric that both sides reported.
    pub cells: Vec<(&'static Metric, Judgement)>,
    /// Simulated counts that differ between the sides for one seed.
    pub sim_stats_changed: Vec<&'static str>,
}

impl WorkloadReport {
    /// The row's reading: worse if any metric is worse, else unresolved
    /// if any is, else improved if any is, else unchanged.
    pub fn verdict(&self) -> Verdict {
        self.cells
            .iter()
            .map(|(_, j)| j.verdict)
            .max()
            .unwrap_or(Verdict::Unresolved)
    }
}

fn values(rows: &[&Row], metric: &str) -> Vec<f64> {
    rows.iter()
        .filter_map(|r| r.metrics.get(metric).copied())
        .collect()
}

/// Compares parent rows with change rows, workload by workload, under the
/// end-to-end `bounds` (metric name → allowed relative worsening).
pub fn compare(
    base: &[Row],
    change: &[Row],
    bounds: &BTreeMap<String, f64>,
) -> Vec<WorkloadReport> {
    let mut workloads: Vec<&str> = base.iter().map(|r| r.workload.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();
    workloads
        .into_iter()
        .map(|w| {
            let b: Vec<&Row> = base.iter().filter(|r| r.workload == w).collect();
            let c: Vec<&Row> = change.iter().filter(|r| r.workload == w).collect();
            let cells = END_TO_END
                .iter()
                .filter_map(|m| {
                    let bound = *bounds.get(m.name)?;
                    judge(&values(&b, m.name), &values(&c, m.name), m.better, bound).map(|j| (m, j))
                })
                .collect();
            let sim_stats_changed = PER_LAYER
                .iter()
                .filter(|m| m.sim_stat)
                .filter(|m| {
                    b.iter().any(|rb| {
                        c.iter().any(|rc| {
                            rb.seed == rc.seed
                                && matches!(
                                    (rb.metrics.get(m.name), rc.metrics.get(m.name)),
                                    (Some(x), Some(y)) if x != y
                                )
                        })
                    })
                })
                .map(|m| m.name)
                .collect();
            WorkloadReport {
                workload: w.to_string(),
                cells,
                sim_stats_changed,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(w: &str, seed: u64, metrics: &[(&str, f64)]) -> Row {
        Row {
            workload: w.into(),
            seed,
            metrics: metrics.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        }
    }

    const BASE: [f64; 10] = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.2, 9.8, 10.1, 9.9];

    #[test]
    fn identical_runs_are_unchanged() {
        let j = judge(&BASE, &BASE, Better::Lower, 0.1).unwrap();
        assert_eq!(j.verdict, Verdict::Unchanged);
        assert_eq!(j.wins, 0, "ties count for neither side");
    }

    #[test]
    fn a_clear_gain_on_nine_tenths_of_pairs_is_improved() {
        let faster: Vec<f64> = BASE.iter().map(|v| v * 0.8).collect();
        let j = judge(&BASE, &faster, Better::Lower, 0.1).unwrap();
        assert_eq!(j.verdict, Verdict::Improved);
        assert!((j.worse_by + 0.2).abs() < 1e-9);
        // Higher-is-better metrics flip the direction.
        let j = judge(&BASE, &faster, Better::Higher, 0.1).unwrap();
        assert_eq!(j.verdict, Verdict::Worse);
        // Winning only 8 of 10 pairs (two ties) is not a gain, but no
        // worse either.
        let mut mixed: Vec<f64> = BASE.iter().map(|v| v * 0.99).collect();
        mixed[0] = BASE[0];
        mixed[1] = BASE[1];
        let j = judge(&BASE, &mixed, Better::Lower, 0.1).unwrap();
        assert_eq!((j.wins, j.verdict), (8, Verdict::Unchanged));
    }

    #[test]
    fn a_median_past_the_bound_is_worse() {
        let slower: Vec<f64> = BASE.iter().map(|v| v * 1.15).collect();
        assert_eq!(
            judge(&BASE, &slower, Better::Lower, 0.1).unwrap().verdict,
            Verdict::Worse
        );
        assert_eq!(
            judge(&BASE, &slower, Better::Lower, 0.2).unwrap().verdict,
            Verdict::Unchanged
        );
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        let noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0];
        let j = judge(&noisy, &noisy, Better::Lower, 0.1).unwrap();
        assert!(j.spread > 0.1);
        assert_eq!(j.verdict, Verdict::Unresolved);
        // ...unless every change run beats every parent run.
        let lower: Vec<f64> = noisy.iter().map(|v| v / 4.0).collect();
        let j = judge(&noisy, &lower, Better::Lower, 0.1).unwrap();
        assert_ne!(j.verdict, Verdict::Unresolved);
        assert!(judge(&[1.0], &[1.0], Better::Lower, 0.1).is_none());
    }

    #[test]
    fn compare_reads_rows_per_workload_and_flags_sim_stats() {
        let bounds: BTreeMap<String, f64> = [("ops_per_s".to_string(), 0.1)].into();
        let base: Vec<Row> = (0..10)
            .map(|i| row("w", i, &[("ops_per_s", 100.0 + i as f64 * 0.1)]))
            .chain([row("w", 1, &[("sampler.reads_per_op", 42.0)])])
            .collect();
        let change: Vec<Row> = (0..10)
            .map(|i| row("w", i, &[("ops_per_s", 130.0 + i as f64 * 0.1)]))
            .chain([row("w", 1, &[("sampler.reads_per_op", 41.0)])])
            .collect();
        let reports = compare(&base, &change, &bounds);
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].verdict(), Verdict::Improved);
        assert_eq!(reports[0].cells.len(), 1);
        assert_eq!(reports[0].sim_stats_changed, vec!["sampler.reads_per_op"]);
        let same = compare(&base, &base, &bounds);
        assert_eq!(same[0].verdict(), Verdict::Unchanged);
        assert!(same[0].sim_stats_changed.is_empty());
    }

    #[test]
    fn rows_parse_from_the_written_schema() {
        let text = r#"{"workload":"farm_cold_mix","seed":3,"metrics":{"ops_per_s":{"value":401.5,"unit":"ops/s"}}}"#;
        let r = Row::from_json(&sim_rt::json::parse(text).unwrap()).unwrap();
        assert_eq!(r.workload, "farm_cold_mix");
        assert_eq!(r.seed, 3);
        assert_eq!(r.metrics["ops_per_s"], 401.5);
    }
}

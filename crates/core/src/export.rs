//! CSV and JSON Lines export of traces and experiment reports.
//!
//! The benches print human-readable tables; downstream users plotting the
//! figures (Figure 2 curves, Figure 4 distributions, the Table III grid)
//! want machine-readable data. These helpers render the experiment
//! artifacts as CSV or JSONL strings — the caller decides where to write
//! them. The JSONL exporters go through [`sim_rt::ser`]'s record model, so
//! every row type here also implements [`ToRecord`] for callers composing
//! their own exports.

use sim_rt::{Record, ToRecord, Value};

use crate::characterize::{CharacterizationReport, LevelRow};
use crate::fingerprint::{AccuracyCell, AccuracyGrid};
use crate::rsa_attack::{KeyObservation, RsaAttackReport};
use crate::Trace;

/// Renders a trace as `time_s,value` rows.
///
/// # Examples
///
/// ```
/// use amperebleed::{Channel, Trace};
/// use zynq_soc::{PowerDomain, SimTime};
///
/// let t = Trace {
///     domain: PowerDomain::FpgaLogic,
///     channel: Channel::Current,
///     start: SimTime::ZERO,
///     period: SimTime::from_ms(35),
///     samples: vec![100.0, 101.0],
/// };
/// let csv = amperebleed::export::trace_to_csv(&t);
/// assert!(csv.starts_with("time_s,current_ma\n"));
/// assert_eq!(csv.lines().count(), 3);
/// ```
pub fn trace_to_csv(trace: &Trace) -> String {
    let unit = match trace.channel {
        crate::Channel::Current => "current_ma",
        crate::Channel::Voltage => "voltage_mv",
        crate::Channel::Power => "power_uw",
    };
    let mut out = format!("time_s,{unit}\n");
    for (i, &v) in trace.samples.iter().enumerate() {
        let t = trace.start.as_secs_f64() + trace.period.as_secs_f64() * i as f64;
        out.push_str(&format!("{t:.6},{v}\n"));
    }
    out
}

/// Renders the Figure 2 sweep as one row per activity level.
pub fn characterization_to_csv(report: &CharacterizationReport) -> String {
    let mut out = String::from(
        "active_groups,current_ma_mean,current_ma_std,voltage_mv_mean,power_uw_mean,ro_count_mean\n",
    );
    for row in &report.rows {
        out.push_str(&format!(
            "{},{:.3},{:.3},{:.4},{:.1},{}\n",
            row.active_groups,
            row.current_ma.mean,
            row.current_ma.std_dev,
            row.voltage_mv.mean,
            row.power_uw.mean,
            row.ro_count
                .as_ref()
                .map_or(String::new(), |s| format!("{:.3}", s.mean)),
        ));
    }
    out
}

/// Renders the Table III grid as `sensor,channel,duration_s,top1,top5`
/// rows.
pub fn grid_to_csv(grid: &AccuracyGrid) -> String {
    let mut out = String::from("domain,channel,duration_s,top1,top5\n");
    for (sc, cells) in &grid.rows {
        for cell in cells {
            out.push_str(&format!(
                "{},{},{},{:.4},{:.4}\n",
                sc.domain, sc.channel, cell.duration_s, cell.top1, cell.top5
            ));
        }
    }
    out
}

/// Renders the Figure 4 observations as one row per key.
pub fn rsa_report_to_csv(report: &RsaAttackReport) -> String {
    let mut out = String::from(
        "hamming_weight,current_ma_mean,current_ma_std,current_ma_min,current_ma_max,\
         power_mw_mean,current_cluster,power_cluster\n",
    );
    for (i, obs) in report.observations.iter().enumerate() {
        out.push_str(&format!(
            "{},{:.3},{:.3},{:.1},{:.1},{:.3},{},{}\n",
            obs.hamming_weight,
            obs.current_ma.mean,
            obs.current_ma.std_dev,
            obs.current_ma.min,
            obs.current_ma.max,
            obs.power_mw.mean,
            report.current_separability.cluster_of[i],
            report.power_separability.cluster_of[i],
        ));
    }
    out
}

impl ToRecord for LevelRow {
    fn to_record(&self) -> Record {
        let mut r = Record::new();
        r.push("active_groups", self.active_groups)
            .push("current_ma_mean", self.current_ma.mean)
            .push("current_ma_std", self.current_ma.std_dev)
            .push("voltage_mv_mean", self.voltage_mv.mean)
            .push("power_uw_mean", self.power_uw.mean)
            .push("ro_count_mean", self.ro_count.as_ref().map(|s| s.mean))
            .push("tdc_code_mean", self.tdc_code.as_ref().map(|s| s.mean));
        r
    }
}

impl ToRecord for AccuracyCell {
    fn to_record(&self) -> Record {
        let mut r = Record::new();
        r.push("duration_s", self.duration_s)
            .push("top1", self.top1)
            .push("top5", self.top5);
        r
    }
}

impl ToRecord for KeyObservation {
    fn to_record(&self) -> Record {
        let mut r = Record::new();
        r.push("hamming_weight", self.hamming_weight)
            .push("current_ma_mean", self.current_ma.mean)
            .push("current_ma_std", self.current_ma.std_dev)
            .push("current_ma_min", self.current_ma.min)
            .push("current_ma_max", self.current_ma.max)
            .push("power_mw_mean", self.power_mw.mean);
        r
    }
}

/// Renders a trace as JSON Lines: one `{"time_s": .., "<unit>": ..}`
/// object per sample.
pub fn trace_to_jsonl(trace: &Trace) -> String {
    let unit = match trace.channel {
        crate::Channel::Current => "current_ma",
        crate::Channel::Voltage => "voltage_mv",
        crate::Channel::Power => "power_uw",
    };
    let rows: Vec<Record> = trace
        .samples
        .iter()
        .enumerate()
        .map(|(i, &v)| {
            let t = trace.start.as_secs_f64() + trace.period.as_secs_f64() * i as f64;
            let mut r = Record::new();
            r.push("time_s", t).push(unit, v);
            r
        })
        .collect();
    sim_rt::to_jsonl(&rows)
}

/// Renders the Figure 2 sweep as JSON Lines, one object per activity
/// level. Unlike the CSV form this keeps the TDC baseline column and uses
/// explicit `null` for undeployed baselines.
pub fn characterization_to_jsonl(report: &CharacterizationReport) -> String {
    sim_rt::to_jsonl(&report.rows)
}

/// Renders the Table III grid as JSON Lines, one object per
/// `channel x duration` cell.
pub fn grid_to_jsonl(grid: &AccuracyGrid) -> String {
    let rows: Vec<Record> = grid
        .rows
        .iter()
        .flat_map(|(sc, cells)| {
            cells.iter().map(|cell| {
                let mut r = Record::new();
                r.push("domain", sc.domain.to_string())
                    .push("channel", sc.channel.to_string());
                for (name, value) in cell.to_record().into_fields() {
                    r.push(name, value);
                }
                r
            })
        })
        .collect();
    sim_rt::to_jsonl(&rows)
}

/// Renders a frozen metrics snapshot as JSON Lines, one object per metric
/// with a uniform schema across counters, gauges, and histograms (the same
/// rows `sim_rt::to_csv` accepts).
pub fn metrics_to_jsonl(snapshot: &obs::MetricsSnapshot) -> String {
    snapshot.to_jsonl()
}

/// Renders a frozen metrics snapshot as CSV, one row per metric.
pub fn metrics_to_csv(snapshot: &obs::MetricsSnapshot) -> String {
    snapshot.to_csv()
}

/// Renders the Figure 4 observations as JSON Lines, one object per key,
/// including the cluster assignments from both channels' separability
/// analyses.
pub fn rsa_report_to_jsonl(report: &RsaAttackReport) -> String {
    let rows: Vec<Record> = report
        .observations
        .iter()
        .enumerate()
        .map(|(i, obs)| {
            let mut r = obs.to_record();
            r.push(
                "current_cluster",
                Value::from(report.current_separability.cluster_of[i]),
            )
            .push(
                "power_cluster",
                Value::from(report.power_separability.cluster_of[i]),
            );
            r
        })
        .collect();
    sim_rt::to_jsonl(&rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::characterize::{self, CharacterizeConfig};
    use crate::defend::UNDEFENDED;
    use crate::rsa_attack::{self, RsaAttackConfig};
    use crate::{Channel, Platform};
    use fpga_fabric::virus::VirusConfig;
    use zynq_soc::{PowerDomain, SimTime};

    #[test]
    fn trace_csv_units_follow_channel() {
        let mk = |channel| Trace {
            domain: PowerDomain::FpgaLogic,
            channel,
            start: SimTime::from_ms(40),
            period: SimTime::from_ms(35),
            samples: vec![1.0],
        };
        assert!(trace_to_csv(&mk(Channel::Voltage)).contains("voltage_mv"));
        assert!(trace_to_csv(&mk(Channel::Power)).contains("power_uw"));
        let csv = trace_to_csv(&mk(Channel::Current));
        assert!(csv.contains("0.040000,1"), "{csv}");
    }

    #[test]
    fn characterization_csv_round_trip_row_count() {
        let mut p = Platform::zcu102(90);
        p.deploy_virus(VirusConfig::default()).unwrap();
        let cfg = CharacterizeConfig {
            levels: vec![0, 80, 160],
            samples_per_level: 60,
            ..CharacterizeConfig::quick()
        };
        let report = characterize::run(&p, &cfg).unwrap();
        let csv = characterization_to_csv(&report);
        assert_eq!(csv.lines().count(), 1 + 3);
        // Without an RO bank the last column is empty.
        assert!(csv.lines().nth(1).unwrap().ends_with(','));
    }

    #[test]
    fn trace_jsonl_one_object_per_sample() {
        let t = Trace {
            domain: PowerDomain::FpgaLogic,
            channel: Channel::Current,
            start: SimTime::from_ms(40),
            period: SimTime::from_ms(35),
            samples: vec![100.0, 140.5],
        };
        let jsonl = trace_to_jsonl(&t);
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"time_s\":0.04,"), "{}", lines[0]);
        assert!(lines[1].contains("\"current_ma\":140.5"), "{}", lines[1]);
    }

    #[test]
    fn characterization_jsonl_keeps_null_baselines() {
        let mut p = Platform::zcu102(91);
        p.deploy_virus(VirusConfig::default()).unwrap();
        let cfg = CharacterizeConfig {
            levels: vec![0, 160],
            samples_per_level: 60,
            ..CharacterizeConfig::quick()
        };
        let report = characterize::run(&p, &cfg).unwrap();
        let jsonl = characterization_to_jsonl(&report);
        assert_eq!(jsonl.lines().count(), 2);
        assert!(jsonl.contains("\"ro_count_mean\":null"), "{jsonl}");
        assert!(jsonl.contains("\"active_groups\":160"), "{jsonl}");
    }

    #[test]
    fn metrics_csv_renders_empty_histograms_and_weird_names() {
        // A histogram with zero samples has NaN percentiles, and this
        // name needs both comma- and quote-escaping in CSV.
        let name = "test.csv.empty,hist\"q";
        let _ = obs::metrics::histogram(name.to_string());
        obs::metrics::counter("test.csv.plain".to_string()).inc();

        let snapshot = obs::metrics::snapshot();
        let csv = metrics_to_csv(&snapshot);
        let row = csv
            .lines()
            .find(|l| l.starts_with("\"test.csv.empty,hist\"\"q\""))
            .expect("escaped histogram row present");
        assert!(
            !row.contains("null"),
            "non-finite stats must be empty cells, not the word null: {row}"
        );
        assert!(
            row.ends_with(",,,,"),
            "mean/p50/p95/p99 of an empty histogram are empty cells: {row}"
        );

        let jsonl = metrics_to_jsonl(&snapshot);
        let line = jsonl
            .lines()
            .find(|l| l.contains("empty,hist\\\"q"))
            .expect("histogram line present in jsonl");
        assert!(line.contains("\"p99\":null"), "{line}");
    }

    #[test]
    fn rsa_jsonl_matches_csv_rows() {
        let cfg = RsaAttackConfig {
            hamming_weights: vec![1, 1024],
            samples_per_key: 400,
            ..RsaAttackConfig::quick()
        };
        let report = rsa_attack::run(&cfg, UNDEFENDED).unwrap();
        let jsonl = rsa_report_to_jsonl(&report);
        assert_eq!(jsonl.lines().count(), report.observations.len());
        assert!(jsonl.contains("\"hamming_weight\":1024"), "{jsonl}");
        assert!(jsonl.contains("\"current_cluster\":"), "{jsonl}");
    }

    #[test]
    fn rsa_csv_has_one_row_per_key() {
        let cfg = RsaAttackConfig {
            hamming_weights: vec![1, 512, 1024],
            samples_per_key: 600,
            ..RsaAttackConfig::quick()
        };
        let report = rsa_attack::run(&cfg, UNDEFENDED).unwrap();
        let csv = rsa_report_to_csv(&report);
        assert_eq!(csv.lines().count(), 4);
        assert!(csv.contains("hamming_weight"));
        // Fields parse as numbers.
        let row: Vec<&str> = csv.lines().nth(1).unwrap().split(',').collect();
        assert_eq!(row.len(), 8);
        let _: f64 = row[1].parse().unwrap();
    }
}

//! Full attack campaign orchestration.
//!
//! Runs the complete AmpereBleed evaluation — characterization, DPU
//! fingerprinting, RSA Hamming-weight recovery, the covert channel, the
//! TEE and workload-reconnaissance extensions — and then verifies the
//! Section V mitigation blocks all of it. One call, one composite report:
//! the shape every table and figure of the paper reduces to.

use dnn_models::ModelArch;
use fpga_fabric::covert::CovertConfig;
use fpga_fabric::ring_oscillator::RoConfig;
use fpga_fabric::virus::VirusConfig;
use zynq_soc::SimTime;

use crate::characterize::{self, CharacterizationReport, CharacterizeConfig};
use crate::defend::{self, DefendConfig, DefendReport};
use crate::fingerprint::{collect_corpus, evaluate_grid, AccuracyGrid, FingerprintConfig};
use crate::mitigation::restrict_all_sensors;
use crate::rsa_attack::{self, RsaAttackConfig, RsaAttackReport};
use crate::tee::{self, TeeAttackConfig};
use crate::workload::{self, WorkloadConfig};
use crate::{covert, AttackError, Platform, Result};

/// Campaign-wide configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignConfig {
    /// Master seed.
    pub seed: u64,
    /// Characterization sweep parameters.
    pub characterize: CharacterizeConfig,
    /// Fingerprinting parameters (applied to the Figure 3 model set).
    pub fingerprint: FingerprintConfig,
    /// RSA attack parameters.
    pub rsa: RsaAttackConfig,
    /// TEE attack parameters.
    pub tee: TeeAttackConfig,
    /// Workload-reconnaissance parameters.
    pub workload: WorkloadConfig,
    /// Optional defend sweep appended after the mitigation stage (`None`
    /// keeps the classic six-stage campaign). The sweep's own seed is
    /// overridden by the campaign seed.
    pub defend: Option<DefendConfig>,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            seed: 2_025,
            characterize: CharacterizeConfig::quick(),
            fingerprint: FingerprintConfig::quick(),
            rsa: RsaAttackConfig::quick(),
            tee: TeeAttackConfig::default(),
            workload: WorkloadConfig::default(),
            defend: None,
        }
    }
}

impl CampaignConfig {
    /// A minimal configuration for tests (seconds, not minutes).
    pub fn minimal() -> Self {
        CampaignConfig {
            characterize: CharacterizeConfig {
                levels: vec![0, 80, 160],
                samples_per_level: 120,
                ..CharacterizeConfig::quick()
            },
            fingerprint: FingerprintConfig {
                traces_per_model: 4,
                capture_seconds: 1.0,
                folds: 2,
                ..FingerprintConfig::quick()
            },
            rsa: RsaAttackConfig {
                hamming_weights: vec![1, 512, 1024],
                samples_per_key: 1_500,
                ..RsaAttackConfig::quick()
            },
            tee: TeeAttackConfig {
                traces_per_task: 4,
                capture_seconds: 1.0,
                ..TeeAttackConfig::default()
            },
            workload: WorkloadConfig {
                traces_per_class: 4,
                capture_seconds: 1.0,
                ..WorkloadConfig::default()
            },
            ..CampaignConfig::default()
        }
    }

    /// Checks every stage's parameters before the campaign starts, so a
    /// bad override fails in milliseconds instead of mid-run.
    ///
    /// # Errors
    ///
    /// The first [`crate::AttackError::InvalidParameter`] from any
    /// stage config.
    pub fn validate(&self) -> Result<()> {
        self.characterize.validate()?;
        self.fingerprint.validate()?;
        self.rsa.validate()?;
        if let Some(defend) = &self.defend {
            defend.validate()?;
        }
        Ok(())
    }
}

/// Wall-clock timing of one campaign stage.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseTiming {
    /// Stage name (`characterization`, `fingerprinting`, ...).
    pub name: &'static str,
    /// Elapsed wall-clock time.
    pub elapsed: std::time::Duration,
}

/// The composite result of a full campaign.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Figure 2 sweep (with RO baseline).
    pub characterization: CharacterizationReport,
    /// Table III grid over the Figure 3 model set.
    pub fingerprint_grid: AccuracyGrid,
    /// Figure 4 report.
    pub rsa: RsaAttackReport,
    /// Covert-channel bit error rate on a reference payload.
    pub covert_ber: f64,
    /// TEE workload-inference hold-out accuracy.
    pub tee_accuracy: f64,
    /// Workload-reconnaissance hold-out accuracy.
    pub workload_accuracy: f64,
    /// Whether the Section V mitigation blocked an attack re-run.
    pub mitigation_effective: bool,
    /// The optional defend sweep's report (`None` unless configured).
    pub defend: Option<DefendReport>,
    /// Wall-clock elapsed per stage, in execution order.
    pub phase_timings: Vec<PhaseTiming>,
    /// Process-global metrics frozen at campaign end: sensor-read
    /// counters, conversion telemetry, per-phase latency histograms.
    pub metrics: obs::MetricsSnapshot,
}

impl CampaignReport {
    /// Renders a terse multi-line verdict for terminal display.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "characterization : r_I={:+.4} r_RO={:+.4} ratio={:.0}x\n",
            self.characterization.pearson_current,
            self.characterization.pearson_ro.unwrap_or(f64::NAN),
            self.characterization
                .variation_ratio_vs_ro
                .unwrap_or(f64::NAN),
        ));
        let best = self
            .fingerprint_grid
            .rows
            .iter()
            .flat_map(|(_, cells)| cells.iter().map(|c| c.top1))
            .fold(0.0f64, f64::max);
        out.push_str(&format!(
            "fingerprinting   : best top-1 {:.3} (chance {:.3})\n",
            best,
            self.fingerprint_grid.chance()
        ));
        out.push_str(&format!(
            "rsa              : current {}/{} groups, power {}/{}\n",
            self.rsa.current_separability.distinguishable,
            self.rsa.observations.len(),
            self.rsa.power_separability.distinguishable,
            self.rsa.observations.len(),
        ));
        out.push_str(&format!("covert channel   : BER {:.4}\n", self.covert_ber));
        out.push_str(&format!(
            "tee inference    : {:.0}%\n",
            self.tee_accuracy * 100.0
        ));
        out.push_str(&format!(
            "workload recon   : {:.0}%\n",
            self.workload_accuracy * 100.0
        ));
        out.push_str(&format!(
            "mitigation       : {}\n",
            if self.mitigation_effective {
                "blocks every attack"
            } else {
                "FAILED to block"
            }
        ));
        if let Some(defend) = &self.defend {
            out.push_str(&format!(
                "defend sweep     : {} vs {} auc {:.3}\n",
                defend.attack,
                defend.stack,
                defend.curve.auc()
            ));
        }
        let total: f64 = self
            .phase_timings
            .iter()
            .map(|p| p.elapsed.as_secs_f64())
            .sum();
        for phase in &self.phase_timings {
            out.push_str(&format!(
                "  {:<16}: {:>8.3} s\n",
                phase.name,
                phase.elapsed.as_secs_f64()
            ));
        }
        out.push_str(&format!("  {:<16}: {total:>8.3} s\n", "total"));
        out
    }

    /// Renders the embedded metrics snapshot as a human-readable profile
    /// table (the `--profile` view of `examples/full_campaign.rs`).
    pub fn profile_table(&self) -> String {
        let mut out = String::new();
        out.push_str("phase timings:\n");
        for phase in &self.phase_timings {
            out.push_str(&format!(
                "  {:<44} {:>11.3} s\n",
                phase.name,
                phase.elapsed.as_secs_f64()
            ));
        }
        out.push_str(&self.metrics.render_table());
        out
    }
}

/// The Figure 3 model set used for the campaign's fingerprinting stage.
fn figure3_models(models: &[ModelArch]) -> Result<Vec<&ModelArch>> {
    [
        "mobilenet-v1",
        "squeezenet",
        "efficientnet-lite0",
        "inception-v3",
        "resnet-50",
        "vgg-19",
    ]
    .iter()
    .map(|name| {
        models
            .iter()
            .find(|m| &m.name == name)
            .ok_or_else(|| AttackError::InvalidParameter(format!("{name} missing from zoo")))
    })
    .collect()
}

/// Runs the full campaign.
///
/// # Errors
///
/// Propagates the first failure from any stage.
pub fn run(config: &CampaignConfig) -> Result<CampaignReport> {
    config.validate()?;
    obs::init();
    obs::info!("core.campaign", "campaign started"; "seed" => config.seed);
    let mut phase_timings = Vec::with_capacity(6);

    // Stage 1: characterization with the RO baseline co-deployed.
    let phase = TimedPhase::enter("characterization");
    let mut platform = Platform::zcu102(config.seed);
    platform.deploy_virus(VirusConfig::default())?;
    platform.deploy_ro_bank(RoConfig::default())?;
    let characterization = characterize::run(&platform, &config.characterize)?;
    phase.close(&mut phase_timings);

    // Stage 2: fingerprinting over the Figure 3 set.
    let phase = TimedPhase::enter("fingerprinting");
    let victims = figure3_models(dnn_models::zoo())?;
    let corpus = collect_corpus(&victims, &config.fingerprint)?;
    let fingerprint_grid = evaluate_grid(
        &corpus,
        &config.fingerprint,
        &[config.fingerprint.capture_seconds],
    )?;
    phase.close(&mut phase_timings);

    // Stage 3: RSA Hamming-weight recovery.
    let phase = TimedPhase::enter("rsa");
    let rsa = rsa_attack::run(&config.rsa)?;
    phase.close(&mut phase_timings);

    // Stage 4: covert channel round trip.
    let phase = TimedPhase::enter("covert");
    let payload = b"ampere";
    let covert_config = CovertConfig::default();
    let mut covert_platform = Platform::zcu102(config.seed ^ 0xC0);
    covert_platform.deploy_covert_transmitter(covert_config, payload)?;
    let rx = covert::receive(
        &covert_platform,
        &covert_config,
        payload.len(),
        SimTime::from_ms(91),
    )?;
    let covert_ber = covert::bit_error_rate(payload, &rx.payload);
    phase.close(&mut phase_timings);

    // Stage 5: TEE and workload reconnaissance.
    let phase = TimedPhase::enter("tee+workload");
    let tee_accuracy = tee::run(&config.tee)?.holdout_accuracy;
    let workload_accuracy = workload::run(&config.workload)?.holdout_accuracy;
    phase.close(&mut phase_timings);

    // Stage 6: mitigation check — the characterization re-run must fail.
    let phase = TimedPhase::enter("mitigation");
    let mut hardened = Platform::zcu102(config.seed ^ 0xF0);
    hardened.deploy_virus(VirusConfig::default())?;
    restrict_all_sensors(&mut hardened)?;
    let mitigation_effective = characterize::run(&hardened, &config.characterize).is_err();
    phase.close(&mut phase_timings);

    // Stage 7 (optional): attack-vs-defense sweep.
    let defend_report = match &config.defend {
        None => None,
        Some(defend_config) => {
            let phase = TimedPhase::enter("defend");
            let mut cfg = defend_config.clone();
            cfg.seed = config.seed;
            let report = defend::run(&cfg)?;
            phase.close(&mut phase_timings);
            Some(report)
        }
    };

    // Freeze pool telemetry and the whole metrics registry into the report.
    obs::record_pool_stats("pool.global", &sim_rt::pool::Pool::global().stats());
    let metrics = obs::metrics::snapshot();
    obs::info!("core.campaign", "campaign finished");

    Ok(CampaignReport {
        characterization,
        fingerprint_grid,
        rsa,
        covert_ber,
        tee_accuracy,
        workload_accuracy,
        mitigation_effective,
        defend: defend_report,
        phase_timings,
        metrics,
    })
}

/// One stage's span + stopwatch. Closing records the [`PhaseTiming`]; a
/// stage aborted by `?` drops the span, which still records its latency
/// histogram (`span.core.campaign.{name}.ns`).
struct TimedPhase {
    name: &'static str,
    span: obs::Span,
    /// Distributed-trace span: under a served request this nests the
    /// phase below the request's board span; standalone it is a no-op.
    trace: obs::trace::TraceSpan,
    /// Stopwatch origin from the observability clock — the one allowlisted
    /// wall-clock source, so the `wall-clock` lint stays clean here.
    started_ns: u64,
}

impl TimedPhase {
    fn enter(name: &'static str) -> TimedPhase {
        obs::info!("core.campaign", "stage started"; "stage" => name);
        TimedPhase {
            name,
            span: obs::span!("core.campaign", name),
            trace: obs::trace::span("core.campaign", name),
            started_ns: obs::clock::monotonic_ns(),
        }
    }

    fn close(self, timings: &mut Vec<PhaseTiming>) {
        self.span.close();
        self.trace.close();
        let elapsed_ns = obs::clock::monotonic_ns().saturating_sub(self.started_ns);
        timings.push(PhaseTiming {
            name: self.name,
            elapsed: std::time::Duration::from_nanos(elapsed_ns),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::defend::AttackKind;

    #[test]
    fn defend_stage_is_optional_and_validated() {
        // Default config carries no defend stage and the classic stage
        // list (pinned below) stays intact.
        assert!(CampaignConfig::default().defend.is_none());
        // A bad defend config fails validation up front.
        let mut config = CampaignConfig::minimal();
        let mut defend = DefendConfig::quick(AttackKind::Covert);
        defend.strengths = vec![0.7, 0.2];
        config.defend = Some(defend);
        assert!(config.validate().is_err());
    }

    #[test]
    fn configured_defend_stage_appends_its_report() {
        let mut config = CampaignConfig::minimal();
        let mut defend = DefendConfig::quick(AttackKind::Covert);
        defend.strengths = vec![0.8];
        config.defend = Some(defend);
        let report = run(&config).unwrap();
        let names: Vec<&str> = report.phase_timings.iter().map(|p| p.name).collect();
        assert_eq!(names.last(), Some(&"defend"));
        let defend_report = report.defend.as_ref().unwrap();
        assert_eq!(defend_report.points.len(), 1);
        assert!(report.summary().contains("defend sweep     : covert vs"));
    }

    #[test]
    fn minimal_campaign_covers_every_stage() {
        let report = run(&CampaignConfig::minimal()).unwrap();
        assert!(report.characterization.pearson_current > 0.99);
        assert!(report.fingerprint_grid.chance() > 0.0);
        assert_eq!(report.rsa.observations.len(), 3);
        assert!(report.covert_ber < 0.1);
        assert!(report.tee_accuracy >= 0.6);
        assert!(report.workload_accuracy >= 0.6);
        assert!(report.mitigation_effective);

        let summary = report.summary();
        assert!(summary.contains("characterization"));
        assert!(summary.contains("blocks every attack"));
        assert!(summary.contains("total"), "summary lists wall-clock totals");

        // Observability: all six stages timed, in order, and the embedded
        // snapshot carries the sampler's read counters.
        let names: Vec<&str> = report.phase_timings.iter().map(|p| p.name).collect();
        assert_eq!(
            names,
            [
                "characterization",
                "fingerprinting",
                "rsa",
                "covert",
                "tee+workload",
                "mitigation"
            ]
        );
        assert!(report.metrics.counter("sampler.reads.current").unwrap_or(0) > 0);
        let profile = report.profile_table();
        assert!(profile.contains("phase timings"));
        assert!(profile.contains("sampler.reads.current"));
    }
}

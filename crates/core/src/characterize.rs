//! Characterization of the current side channel (Figure 2).
//!
//! The experiment: deploy 160 k power-virus instances in 160 groups,
//! activate 0..=160 of them (161 distinct victim activity levels), and at
//! each level collect hwmon samples of FPGA current, voltage and power
//! plus the co-resident RO baseline's counter. Per-level means are then
//! correlated against the activity level.
//!
//! Expected shape (paper values): current and power reach Pearson r =
//! 0.999, voltage r = 0.958 with a near-zero slope, RO r = -0.996, and
//! the current channel's relative variation is ~261x the RO's.

use trace_stats::{pearson, LinearFit, Summary};
use zynq_soc::{PowerDomain, SimTime};

use crate::{AttackError, Channel, CurrentSampler, Platform, Result};

/// Largest `samples_per_level` a sweep accepts: ten times the paper's
/// 10 000. Every level reserves its capture buffers up front, so the bound
/// also bounds what one request can ask the allocator for.
pub const MAX_SAMPLES_PER_LEVEL: usize = 100_000;

/// Parameters of the characterization sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct CharacterizeConfig {
    /// Activation levels to visit (default: 0..=160, the paper's 161).
    pub levels: Vec<u32>,
    /// hwmon samples collected per level (paper: 10 000).
    pub samples_per_level: usize,
    /// Attacker sampling rate in Hz.
    pub sample_rate_hz: f64,
    /// Settling time after switching levels.
    pub settle: SimTime,
}

impl Default for CharacterizeConfig {
    fn default() -> Self {
        CharacterizeConfig {
            levels: (0..=160).collect(),
            samples_per_level: 10_000,
            sample_rate_hz: 1_000.0,
            settle: SimTime::from_ms(70),
        }
    }
}

impl CharacterizeConfig {
    /// A reduced sweep for fast tests: every 16th level, 300 samples.
    pub fn quick() -> Self {
        CharacterizeConfig {
            levels: (0..=160).step_by(16).collect(),
            samples_per_level: 300,
            ..CharacterizeConfig::default()
        }
    }

    /// Checks the sweep parameters before any capture starts.
    ///
    /// # Errors
    ///
    /// [`AttackError::InvalidParameter`] for fewer than two levels, a zero
    /// sample count or one above [`MAX_SAMPLES_PER_LEVEL`], a
    /// non-positive/non-finite sample rate, or a zero-duration settle
    /// phase.
    pub fn validate(&self) -> Result<()> {
        if self.levels.len() < 2 {
            return Err(AttackError::InvalidParameter(
                "characterization needs at least two levels".into(),
            ));
        }
        if self.samples_per_level == 0 {
            return Err(AttackError::InvalidParameter(
                "samples_per_level must be non-zero".into(),
            ));
        }
        if self.samples_per_level > MAX_SAMPLES_PER_LEVEL {
            return Err(AttackError::InvalidParameter(format!(
                "samples_per_level {} exceeds its bound of {MAX_SAMPLES_PER_LEVEL}",
                self.samples_per_level
            )));
        }
        if !self.sample_rate_hz.is_finite() || self.sample_rate_hz <= 0.0 {
            return Err(AttackError::InvalidParameter(format!(
                "sample rate {} Hz is out of range",
                self.sample_rate_hz
            )));
        }
        if self.settle.as_nanos() == 0 {
            return Err(AttackError::InvalidParameter(
                "settle phase must have a non-zero duration".into(),
            ));
        }
        Ok(())
    }
}

/// Per-level measurement summary.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelRow {
    /// Number of active power-virus groups.
    pub active_groups: u32,
    /// FPGA current channel (mA).
    pub current_ma: Summary,
    /// FPGA voltage channel (mV).
    pub voltage_mv: Summary,
    /// FPGA power channel (µW).
    pub power_uw: Summary,
    /// RO baseline mean counter value, if an RO bank is deployed.
    pub ro_count: Option<Summary>,
    /// TDC baseline thermometer code, if a TDC is deployed.
    pub tdc_code: Option<Summary>,
}

/// Result of the Figure 2 sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct CharacterizationReport {
    /// One row per activity level.
    pub rows: Vec<LevelRow>,
    /// Pearson r of per-level mean current vs. level.
    pub pearson_current: f64,
    /// Pearson r of per-level mean voltage vs. level.
    pub pearson_voltage: f64,
    /// Pearson r of per-level mean power vs. level.
    pub pearson_power: f64,
    /// Pearson r of per-level mean RO count vs. level (negative), if the
    /// RO bank was deployed.
    pub pearson_ro: Option<f64>,
    /// Pearson r of per-level mean TDC code vs. level (negative), if a
    /// TDC is deployed.
    pub pearson_tdc: Option<f64>,
    /// Linear fit of mean current (mA) vs. level: the slope is the paper's
    /// "~40 LSBs per setting" at the 1 mA hwmon resolution.
    pub fit_current: LinearFit,
    /// Linear fit of mean voltage (mV) vs. level; slope/1.25 is the LSB
    /// change per setting (paper: ~0.006).
    pub fit_voltage: LinearFit,
    /// Linear fit of mean power (mW) vs. level; slope/25 is the LSB change
    /// per setting (1-2 LSBs between consecutive settings).
    pub fit_power_mw: LinearFit,
    /// Relative variation of the current channel divided by the RO
    /// baseline's — the paper's headline 261x factor.
    pub variation_ratio_vs_ro: Option<f64>,
    /// Relative variation of the current channel divided by the TDC
    /// baseline's — same verdict for the post-RO-ban sensor generation.
    pub variation_ratio_vs_tdc: Option<f64>,
}

impl CharacterizationReport {
    /// Slope of the voltage channel in bus-ADC LSBs per activation step.
    pub fn voltage_lsb_per_step(&self) -> f64 {
        self.fit_voltage.slope / 1.25
    }

    /// Slope of the power channel in power-register LSBs per step
    /// (25 mW LSB at the FPGA sensor's calibration).
    pub fn power_lsb_per_step(&self) -> f64 {
        self.fit_power_mw.slope / 25.0
    }
}

/// Runs the characterization sweep on a platform with a deployed virus
/// array (and optionally a deployed RO bank for the baseline columns).
///
/// # Errors
///
/// * [`AttackError::NotDeployed`] if no virus array is deployed.
/// * [`AttackError::Hwmon`] / [`AttackError::Stats`] on capture or
///   analysis failures.
pub fn run(platform: &Platform, config: &CharacterizeConfig) -> Result<CharacterizationReport> {
    let _trace = obs::trace::span("core.characterize", "sweep");
    let virus = platform
        .virus()
        .ok_or(AttackError::NotDeployed("power-virus array"))?;
    config.validate()?;
    let sampler = CurrentSampler::unprivileged(platform);
    let period = SimTime::from_secs_f64(1.0 / config.sample_rate_hz);
    let level_span = SimTime::from_nanos(period.as_nanos() * config.samples_per_level as u64);

    let mut cursor = SimTime::from_ms(40);
    let mut rows = Vec::with_capacity(config.levels.len());

    for &level in &config.levels {
        virus
            .activate_groups(level)
            .map_err(|e| AttackError::InvalidParameter(e.to_string()))?;
        cursor += config.settle;
        rows.push(measure_row(platform, &sampler, config, level, cursor)?);
        cursor += level_span;
    }

    analyze(rows)
}

/// Captures all channels (plus any deployed fabric baselines) for one
/// activity level at time `cursor`.
fn measure_row(
    platform: &Platform,
    sampler: &CurrentSampler<'_>,
    config: &CharacterizeConfig,
    level: u32,
    cursor: SimTime,
) -> Result<LevelRow> {
    let period = SimTime::from_secs_f64(1.0 / config.sample_rate_hz);
    let [current, voltage, power] = sampler.capture_all_channels(
        PowerDomain::FpgaLogic,
        cursor,
        config.sample_rate_hz,
        config.samples_per_level,
    )?;
    let ro_count = if platform.sample_ro(cursor).is_ok() {
        let counts: Vec<f64> = (0..config.samples_per_level)
            .map(|k| {
                let t = cursor + SimTime::from_nanos(period.as_nanos() * k as u64);
                platform.sample_ro(t)
            })
            .collect::<Result<_>>()?;
        Some(Summary::from_samples(&counts)?)
    } else {
        None
    };
    let tdc_code = if platform.sample_tdc(cursor).is_ok() {
        let codes: Vec<f64> = (0..config.samples_per_level)
            .map(|k| {
                let t = cursor + SimTime::from_nanos(period.as_nanos() * k as u64);
                platform.sample_tdc(t).map(|c| c as f64)
            })
            .collect::<Result<_>>()?;
        Some(Summary::from_samples(&codes)?)
    } else {
        None
    };
    Ok(LevelRow {
        active_groups: level,
        current_ma: Summary::from_samples(&current.samples)?,
        voltage_mv: Summary::from_samples(&voltage.samples)?,
        power_uw: Summary::from_samples(&power.samples)?,
        ro_count,
        tdc_code,
    })
}

/// Correlates per-level means against the activity level (Figure 2).
fn analyze(rows: Vec<LevelRow>) -> Result<CharacterizationReport> {
    let levels_f: Vec<f64> = rows.iter().map(|r| r.active_groups as f64).collect();
    let mean_i: Vec<f64> = rows.iter().map(|r| r.current_ma.mean).collect();
    let mean_v: Vec<f64> = rows.iter().map(|r| r.voltage_mv.mean).collect();
    let mean_p_mw: Vec<f64> = rows.iter().map(|r| r.power_uw.mean / 1_000.0).collect();
    let mean_ro: Option<Vec<f64>> = rows
        .iter()
        .map(|r| r.ro_count.as_ref().map(|s| s.mean))
        .collect();
    let mean_tdc: Option<Vec<f64>> = rows
        .iter()
        .map(|r| r.tdc_code.as_ref().map(|s| s.mean))
        .collect();

    let pearson_ro = match &mean_ro {
        Some(ro) => Some(pearson(&levels_f, ro)?),
        None => None,
    };
    let pearson_tdc = match &mean_tdc {
        Some(tdc) => Some(pearson(&levels_f, tdc)?),
        None => None,
    };
    let i_summary = Summary::from_samples(&mean_i)?;
    let variation_ratio_vs_ro = match &mean_ro {
        Some(ro) => {
            let ro_summary = Summary::from_samples(ro)?;
            Some(i_summary.relative_range()? / ro_summary.relative_range()?)
        }
        None => None,
    };
    let variation_ratio_vs_tdc = match &mean_tdc {
        Some(tdc) => {
            let tdc_summary = Summary::from_samples(tdc)?;
            Some(i_summary.relative_range()? / tdc_summary.relative_range()?)
        }
        None => None,
    };

    Ok(CharacterizationReport {
        pearson_current: pearson(&levels_f, &mean_i)?,
        pearson_voltage: pearson(&levels_f, &mean_v)?,
        pearson_power: pearson(&levels_f, &mean_p_mw)?,
        pearson_ro,
        pearson_tdc,
        fit_current: LinearFit::fit(&levels_f, &mean_i)?,
        fit_voltage: LinearFit::fit(&levels_f, &mean_v)?,
        fit_power_mw: LinearFit::fit(&levels_f, &mean_p_mw)?,
        variation_ratio_vs_ro,
        variation_ratio_vs_tdc,
        rows,
    })
}

/// The quickstart sweep: six coarse activity levels measured on an
/// already-deployed platform — a cheap "is this board leaking" probe with
/// one injected knob. Used by the `quickstart` example flow and as the
/// serving layer's lightest campaign verb.
///
/// # Errors
///
/// Same failure modes as [`run`]; `samples_per_level` must be non-zero.
pub fn quicklook(platform: &Platform, samples_per_level: usize) -> Result<CharacterizationReport> {
    let _trace = obs::trace::span("core.characterize", "quicklook");
    run(
        platform,
        &CharacterizeConfig {
            levels: vec![0, 20, 40, 80, 120, 160],
            samples_per_level,
            ..CharacterizeConfig::quick()
        },
    )
}

/// Sensitivity comparison across domains: which sensors see a victim that
/// only stresses the FPGA rail. Used by examples and the ablation bench.
///
/// # Errors
///
/// Propagates capture errors from the sampler.
pub fn domain_sensitivity(
    platform: &Platform,
    start: SimTime,
    samples: usize,
) -> Result<Vec<(PowerDomain, Summary)>> {
    let sampler = CurrentSampler::unprivileged(platform);
    PowerDomain::ALL
        .iter()
        .map(|&d| {
            let trace = sampler.capture(d, Channel::Current, start, 1_000.0, samples)?;
            Ok((d, Summary::from_samples(&trace.samples)?))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpga_fabric::ring_oscillator::RoConfig;
    use fpga_fabric::virus::VirusConfig;

    fn ready_platform(seed: u64) -> Platform {
        let mut p = Platform::zcu102(seed);
        p.deploy_virus(VirusConfig::default()).unwrap();
        p.deploy_ro_bank(RoConfig::default()).unwrap();
        p
    }

    #[test]
    fn tdc_baseline_shares_the_ro_verdict() {
        let mut p = ready_platform(37);
        p.deploy_tdc(fpga_fabric::tdc::TdcConfig::default())
            .unwrap();
        let mut cfg = CharacterizeConfig::quick();
        cfg.levels = (0..=160).step_by(32).collect();
        cfg.samples_per_level = 400;
        let report = run(&p, &cfg).unwrap();
        // The TDC tracks load negatively (more load, more droop, fewer
        // taps), and its relative variation is as tiny as the RO's.
        assert!(
            report.pearson_tdc.unwrap() < -0.8,
            "{:?}",
            report.pearson_tdc
        );
        let ratio = report.variation_ratio_vs_tdc.unwrap();
        assert!(ratio > 50.0, "current must dwarf TDC variation ({ratio}x)");
    }

    #[test]
    fn quick_sweep_reproduces_figure_two_shape() {
        let p = ready_platform(31);
        let report = run(&p, &CharacterizeConfig::quick()).unwrap();
        assert_eq!(report.rows.len(), 11);
        // Current and power: near-perfect positive correlation.
        assert!(
            report.pearson_current > 0.995,
            "r_I = {}",
            report.pearson_current
        );
        assert!(
            report.pearson_power > 0.995,
            "r_P = {}",
            report.pearson_power
        );
        // Voltage correlates on means but with a tiny slope.
        assert!(report.pearson_voltage < -0.5, "voltage droops with load");
        assert!(report.voltage_lsb_per_step().abs() < 0.2);
        // RO: strong negative correlation, tiny relative variation.
        assert!(
            report.pearson_ro.unwrap() < -0.95,
            "r_RO = {:?}",
            report.pearson_ro
        );
        // ~40 mA per group step.
        assert!(
            (30.0..50.0).contains(&report.fit_current.slope),
            "slope {}",
            report.fit_current.slope
        );
        // Power: 1-2 LSB per step.
        assert!(
            (0.5..3.0).contains(&report.power_lsb_per_step()),
            "power LSB/step {}",
            report.power_lsb_per_step()
        );
        // The headline factor: current variation dwarfs RO variation.
        let ratio = report.variation_ratio_vs_ro.unwrap();
        assert!((100.0..500.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn sweep_without_ro_bank_omits_baseline() {
        let mut p = Platform::zcu102(32);
        p.deploy_virus(VirusConfig::default()).unwrap();
        let mut cfg = CharacterizeConfig::quick();
        cfg.levels = vec![0, 80, 160];
        cfg.samples_per_level = 100;
        let report = run(&p, &cfg).unwrap();
        assert!(report.pearson_ro.is_none());
        assert!(report.pearson_tdc.is_none());
        assert!(report.variation_ratio_vs_ro.is_none());
        assert!(report.variation_ratio_vs_tdc.is_none());
        assert!(report.rows.iter().all(|r| r.ro_count.is_none()));
    }

    #[test]
    fn requires_virus_deployment() {
        let p = Platform::zcu102(33);
        assert!(matches!(
            run(&p, &CharacterizeConfig::quick()),
            Err(AttackError::NotDeployed(_))
        ));
    }

    #[test]
    fn rejects_empty_levels() {
        let p = ready_platform(34);
        let cfg = CharacterizeConfig {
            levels: vec![],
            ..CharacterizeConfig::quick()
        };
        assert!(matches!(
            run(&p, &cfg),
            Err(AttackError::InvalidParameter(_))
        ));
    }

    #[test]
    fn current_does_not_start_from_zero() {
        // Static workloads of deployed-but-inactive instances (Figure 2
        // note in the paper).
        let p = ready_platform(35);
        let cfg = CharacterizeConfig {
            levels: vec![0, 160],
            samples_per_level: 200,
            ..CharacterizeConfig::quick()
        };
        let report = run(&p, &cfg).unwrap();
        assert_eq!(report.rows[0].active_groups, 0);
        assert!(report.rows[0].current_ma.mean > 500.0);
    }

    #[test]
    fn domain_sensitivity_singles_out_fpga() {
        let p = ready_platform(36);
        p.virus().unwrap().activate_groups(160).unwrap();
        let rows = domain_sensitivity(&p, SimTime::from_ms(40), 60).unwrap();
        let fpga = rows
            .iter()
            .find(|(d, _)| *d == PowerDomain::FpgaLogic)
            .unwrap()
            .1
            .mean;
        for (d, s) in &rows {
            if *d != PowerDomain::FpgaLogic {
                assert!(fpga > s.mean, "FPGA rail must dominate ({d}: {})", s.mean);
            }
        }
    }
}

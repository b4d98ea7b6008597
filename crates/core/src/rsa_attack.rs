//! RSA Hamming-weight recovery attack (Figure 4).
//!
//! The victim is an RSA-1024 Square-and-Multiply circuit at 100 MHz whose
//! private exponent is sealed in the encrypted bitstream. While it
//! repeatedly encrypts, the attacker samples the FPGA current channel at
//! 1 kHz (100 000 samples in the paper). Because bit=1 iterations activate
//! both modular multipliers, the circuit's *mean* current is an affine
//! function of the key's Hamming weight.
//!
//! Expected shape: across 17 keys with weights 1, 64, 128, ..., 1024 the
//! current channel separates every group, while the power channel —
//! quantized to a 25 mW LSB — collapses them into roughly 5 groups.
//! Knowing the Hamming weight shrinks the brute-force key space and feeds
//! statistical key-recovery attacks.

use fpga_fabric::rsa::{RsaConfig, RsaKey};
use trace_stats::separability::{separability_quantized, Separability};
use trace_stats::Summary;
use zynq_soc::{PowerDomain, SimTime};

use crate::defend::Hardener;
use crate::{AttackError, Channel, CurrentSampler, Platform, Result};

/// Largest `samples_per_key` the experiment accepts: ten times the
/// paper's 100 000. Every key's capture reserves its buffer up front, so
/// the bound also bounds what one request can ask the allocator for.
pub const MAX_SAMPLES_PER_KEY: usize = 1_000_000;

/// Parameters of the Hamming-weight experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct RsaAttackConfig {
    /// Key Hamming weights to profile (default: the paper's 17).
    pub hamming_weights: Vec<u32>,
    /// Samples per key (paper: 100 000).
    pub samples_per_key: usize,
    /// Attacker sampling rate in Hz (paper: 1 kHz).
    pub sample_rate_hz: f64,
    /// z-score for the separability test.
    pub z_score: f64,
    /// Experiment seed.
    pub seed: u64,
}

impl Default for RsaAttackConfig {
    fn default() -> Self {
        RsaAttackConfig {
            hamming_weights: paper_weights(),
            samples_per_key: 100_000,
            sample_rate_hz: 1_000.0,
            z_score: 3.0,
            seed: 13,
        }
    }
}

impl RsaAttackConfig {
    /// A reduced configuration for fast tests (5 weights, 4 k samples).
    pub fn quick() -> Self {
        RsaAttackConfig {
            hamming_weights: vec![1, 256, 512, 768, 1024],
            samples_per_key: 4_000,
            ..RsaAttackConfig::default()
        }
    }

    /// Checks the experiment parameters before any capture starts.
    ///
    /// # Errors
    ///
    /// [`AttackError::InvalidParameter`] for an empty weight list, a zero
    /// sample count or one above [`MAX_SAMPLES_PER_KEY`], a
    /// non-positive/non-finite sample rate, or a non-positive z-score.
    pub fn validate(&self) -> Result<()> {
        if self.hamming_weights.is_empty() {
            return Err(AttackError::InvalidParameter("no key weights".into()));
        }
        if self.samples_per_key == 0 {
            return Err(AttackError::InvalidParameter(
                "samples_per_key must be non-zero".into(),
            ));
        }
        if self.samples_per_key > MAX_SAMPLES_PER_KEY {
            return Err(AttackError::InvalidParameter(format!(
                "samples_per_key {} exceeds its bound of {MAX_SAMPLES_PER_KEY}",
                self.samples_per_key
            )));
        }
        if !self.sample_rate_hz.is_finite() || self.sample_rate_hz <= 0.0 {
            return Err(AttackError::InvalidParameter(format!(
                "sample rate {} Hz is out of range",
                self.sample_rate_hz
            )));
        }
        if !self.z_score.is_finite() || self.z_score <= 0.0 {
            return Err(AttackError::InvalidParameter(format!(
                "z-score {} is out of range",
                self.z_score
            )));
        }
        Ok(())
    }
}

/// The paper's 17 key weights: 1, then 64..=1024 in steps of 64.
pub fn paper_weights() -> Vec<u32> {
    std::iter::once(1).chain((1..=16).map(|i| i * 64)).collect()
}

/// Size (in bits) of the brute-force search space for a 1024-bit exponent
/// of known Hamming weight: `log2 C(1024, hw)`.
///
/// The paper notes that "knowledge of the Hamming weight can greatly
/// reduce the search space of RSA's key brute force attack"; this
/// quantifies the reduction against the unconstrained 1024 bits. For
/// example an HW-64 key leaves only ~341 bits of search space — a
/// 683-bit reduction.
///
/// # Panics
///
/// Panics if `hw > 1024`.
///
/// # Examples
///
/// ```
/// let bits = amperebleed::rsa_attack::search_space_bits(64);
/// assert!(bits < 350.0);
/// assert_eq!(amperebleed::rsa_attack::search_space_bits(0), 0.0);
/// ```
pub fn search_space_bits(hw: u32) -> f64 {
    assert!(hw <= 1024, "hamming weight exceeds 1024 bits");
    // log2 C(n, k) = sum_{i=1..k} log2((n - k + i) / i)
    let n = 1024u32;
    let k = hw.min(n - hw); // symmetry keeps the sum short
    let mut bits = 0.0;
    for i in 1..=k {
        bits += (((n - k + i) as f64) / i as f64).log2();
    }
    bits
}

/// Measured distribution for one key.
#[derive(Debug, Clone, PartialEq)]
pub struct KeyObservation {
    /// The (secret) Hamming weight this key was constructed with.
    pub hamming_weight: u32,
    /// FPGA current channel distribution (mA).
    pub current_ma: Summary,
    /// FPGA power channel distribution (mW).
    pub power_mw: Summary,
}

/// Result of the Figure 4 experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct RsaAttackReport {
    /// Per-key distributions, in the order of the configured weights.
    pub observations: Vec<KeyObservation>,
    /// How many groups the current channel distinguishes (expected: all).
    pub current_separability: Separability,
    /// How many groups the power channel distinguishes (expected: ~5).
    pub power_separability: Separability,
}

impl RsaAttackReport {
    /// Whether the current channel separates every profiled weight.
    pub fn current_separates_all(&self) -> bool {
        self.current_separability.distinguishable == self.observations.len()
    }

    /// Welch t statistics between adjacent Hamming-weight groups on the
    /// current channel — the TVLA-style confidence behind the
    /// separability verdict (|t| > 4.5 is the community's leakage
    /// threshold).
    pub fn adjacent_current_t(&self) -> Vec<f64> {
        self.observations
            .windows(2)
            .map(|w| {
                trace_stats::hypothesis::welch_t_summaries(&w[1].current_ma, &w[0].current_ma)
                    .map(|test| test.t)
                    .unwrap_or(f64::INFINITY)
            })
            .collect()
    }
}

/// Runs the Hamming-weight experiment: for each weight, a fresh platform
/// deploys an RSA circuit with a key of that weight and the unprivileged
/// attacker profiles the FPGA current and power channels. `harden` is
/// applied to each fresh per-key platform after the victim circuit
/// deploys and before any capture, modelling a countermeasure the victim
/// (not the attacker) controls; [`UNDEFENDED`](crate::defend::UNDEFENDED)
/// runs the plain attack.
///
/// # Errors
///
/// Propagates key construction, deployment, capture and analysis errors,
/// plus whatever `harden` returns.
pub fn run(config: &RsaAttackConfig, harden: Hardener<'_>) -> Result<RsaAttackReport> {
    config.validate()?;
    let mut observations = Vec::with_capacity(config.hamming_weights.len());
    let mut current_groups: Vec<(String, Vec<f64>)> = Vec::new();
    let mut power_groups: Vec<(String, Vec<f64>)> = Vec::new();

    for (i, &weight) in config.hamming_weights.iter().enumerate() {
        let key = RsaKey::with_hamming_weight(weight, config.seed ^ (i as u64))
            .map_err(|e| AttackError::InvalidParameter(e.to_string()))?;
        let mut platform = Platform::zcu102(config.seed.wrapping_add(i as u64 * 7_919));
        platform.deploy_rsa(RsaConfig::default(), key)?;
        harden(&mut platform)?;
        let sampler = CurrentSampler::unprivileged(&platform);
        let start = SimTime::from_ms(40);
        let current = sampler.capture(
            PowerDomain::FpgaLogic,
            Channel::Current,
            start,
            config.sample_rate_hz,
            config.samples_per_key,
        )?;
        let power = sampler.capture(
            PowerDomain::FpgaLogic,
            Channel::Power,
            start,
            config.sample_rate_hz,
            config.samples_per_key,
        )?;
        let power_mw: Vec<f64> = power.samples.iter().map(|uw| uw / 1_000.0).collect();
        observations.push(KeyObservation {
            hamming_weight: weight,
            current_ma: Summary::from_samples(&current.samples)?,
            power_mw: Summary::from_samples(&power_mw)?,
        });
        current_groups.push((format!("HW={weight}"), current.samples));
        power_groups.push((format!("HW={weight}"), power_mw));
    }

    let current_refs: Vec<(&str, &[f64])> = current_groups
        .iter()
        .map(|(l, s)| (l.as_str(), s.as_slice()))
        .collect();
    let power_refs: Vec<(&str, &[f64])> = power_groups
        .iter()
        .map(|(l, s)| (l.as_str(), s.as_slice()))
        .collect();
    // Resolutions: the hwmon current node reads integer mA (1 mA floor).
    // The power register steps in 25 x current LSB; on the paper's sensor
    // calibration that is the quoted "maximum resolution of 25 mW", so two
    // keys whose true power difference is below that LSB latch
    // indistinguishable register values.
    let power_lsb_mw = 25.0;
    let current_separability = separability_quantized(&current_refs, config.z_score, 1.0)?;
    let power_separability = separability_quantized(&power_refs, config.z_score, power_lsb_mw)?;

    Ok(RsaAttackReport {
        observations,
        current_separability,
        power_separability,
    })
}

/// Recovers the *positional* bit-density profile of the key — which
/// regions of the exponent hold its 1-bits — by phase-folding a fast
/// capture over the (constant-time) encryption period.
///
/// This goes beyond the paper's aggregate Hamming weight: with the sensor
/// reconfigured to its fastest update interval (2 ms — a **root**
/// operation, so this models an insider/privileged-malware scenario
/// rather than the paper's unprivileged attacker), each conversion
/// averages ~190 of the 10.56 µs iterations, and folding samples by their
/// phase inside the 10.85 ms encryption period yields per-window mean
/// currents. Subtracting the always-on square term and dividing by the
/// multiplier's contribution estimates the fraction of 1-bits in each of
/// `bins` contiguous windows of the exponent.
///
/// # Errors
///
/// * [`AttackError::NotDeployed`] if no RSA circuit is deployed.
/// * [`AttackError::InvalidParameter`] for zero `bins`/`samples`.
/// * [`AttackError::Hwmon`] on sampling failures.
pub fn windowed_profile(
    platform: &Platform,
    bins: usize,
    samples: usize,
    start: SimTime,
) -> Result<Vec<f64>> {
    let rsa = platform
        .rsa()
        .ok_or(AttackError::NotDeployed("rsa circuit"))?;
    if bins == 0 || samples == 0 {
        return Err(AttackError::InvalidParameter(
            "bins and samples must be non-zero".into(),
        ));
    }
    let circuit_config = *rsa.config();
    // Insider step: crank the sensor to its fastest cadence (root-only).
    platform
        .hwmon()
        .write(
            platform.sensor_path(PowerDomain::FpgaLogic, "update_interval"),
            "2",
            hwmon_sim::Privilege::Root,
        )
        .map_err(AttackError::from)?;

    let sampler = crate::CurrentSampler::privileged(platform);
    let period_ns = circuit_config.encryption_period().as_nanos();
    let rate_hz = 500.0;
    let trace = sampler.capture(
        PowerDomain::FpgaLogic,
        Channel::Current,
        start,
        rate_hz,
        samples,
    )?;

    // Phase-fold into bins over the iteration portion of the period.
    let iterations_ns =
        circuit_config.iteration_time().as_nanos() * fpga_fabric::bigint::BITS as u64;
    let mut sums = vec![0.0f64; bins];
    let mut counts = vec![0usize; bins];
    let interval_ns = SimTime::from_ms(2).as_nanos();
    for (k, &value) in trace.samples.iter().enumerate() {
        let t = start + SimTime::from_nanos(trace.period.as_nanos() * k as u64);
        // A read at `t` returns the conversion latched at the last update
        // boundary, which averaged the preceding interval — fold on the
        // center of that window, not the read instant.
        let boundary = t.as_nanos() / interval_ns * interval_ns;
        let window_center = boundary.saturating_sub(interval_ns / 2);
        let phase_ns = window_center % period_ns;
        if phase_ns >= iterations_ns {
            continue; // inter-encryption gap
        }
        let bin = (phase_ns as u128 * bins as u128 / iterations_ns as u128) as usize;
        sums[bin.min(bins - 1)] += value;
        counts[bin.min(bins - 1)] += 1;
    }
    // Normalize against the emptiest window: a bin whose exponent bits are
    // all zero draws only the floor (background + idle + square), so the
    // minimum bin mean serves as the zero-density reference and the
    // multiplier current as the full-density span. (For keys with no empty
    // window the profile is a *relative* density map.)
    let means: Vec<Option<f64>> = sums
        .iter()
        .zip(&counts)
        .map(|(&s, &n)| (n > 0).then(|| s / n as f64))
        .collect();
    let floor = means
        .iter()
        .flatten()
        .copied()
        .fold(f64::INFINITY, f64::min);
    let profile = means
        .iter()
        .map(|m| match m {
            Some(mean) => ((mean - floor) / circuit_config.multiply_ma).clamp(0.0, 1.0),
            None => f64::NAN,
        })
        .collect();
    Ok(profile)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::defend::UNDEFENDED;

    #[test]
    fn paper_weights_match_section_iv_c() {
        let w = paper_weights();
        assert_eq!(w.len(), 17);
        assert_eq!(w[0], 1);
        assert_eq!(w[1], 64);
        assert_eq!(*w.last().unwrap(), 1024);
        for pair in w[1..].windows(2) {
            assert_eq!(pair[1] - pair[0], 64);
        }
    }

    #[test]
    fn mean_current_is_monotone_in_weight() {
        let report = run(&RsaAttackConfig::quick(), UNDEFENDED).unwrap();
        let means: Vec<f64> = report
            .observations
            .iter()
            .map(|o| o.current_ma.mean)
            .collect();
        for pair in means.windows(2) {
            assert!(pair[1] > pair[0], "means not monotone: {means:?}");
        }
    }

    #[test]
    fn adjacent_groups_pass_tvla_threshold() {
        let report = run(&RsaAttackConfig::quick(), UNDEFENDED).unwrap();
        for (i, t) in report.adjacent_current_t().iter().enumerate() {
            assert!(*t > 4.5, "adjacent groups {i}/{} only reach t = {t}", i + 1);
        }
    }

    #[test]
    fn current_separates_more_groups_than_power() {
        let report = run(&RsaAttackConfig::quick(), UNDEFENDED).unwrap();
        assert!(report.current_separates_all());
        assert!(
            report.power_separability.distinguishable
                <= report.current_separability.distinguishable
        );
    }

    #[test]
    fn rejects_empty_weights() {
        let config = RsaAttackConfig {
            hamming_weights: vec![],
            ..RsaAttackConfig::quick()
        };
        assert!(matches!(
            run(&config, UNDEFENDED),
            Err(AttackError::InvalidParameter(_))
        ));
    }

    #[test]
    fn rejects_zero_weight_key() {
        let config = RsaAttackConfig {
            hamming_weights: vec![0],
            ..RsaAttackConfig::quick()
        };
        assert!(matches!(
            run(&config, UNDEFENDED),
            Err(AttackError::InvalidParameter(_))
        ));
    }

    #[test]
    fn windowed_profile_localizes_key_bits() {
        use fpga_fabric::bigint::U1024;
        // A key whose 1-bits all live in the lower half of the exponent.
        let mut exponent = U1024::ZERO;
        for i in 0..512 {
            exponent.set_bit(i, true);
        }
        let key = fpga_fabric::rsa::RsaKey::new(exponent).unwrap();
        let mut platform = Platform::zcu102(314);
        platform.deploy_rsa(RsaConfig::default(), key).unwrap();

        let profile = windowed_profile(&platform, 8, 12_000, SimTime::from_ms(40)).unwrap();
        assert_eq!(profile.len(), 8);
        let low: f64 = profile[..4].iter().sum::<f64>() / 4.0;
        let high: f64 = profile[4..].iter().sum::<f64>() / 4.0;
        assert!(
            low > high + 0.4,
            "low-half density {low} must dominate high-half {high}: {profile:?}"
        );
    }

    #[test]
    fn windowed_profile_requires_rsa() {
        let platform = Platform::zcu102(315);
        assert!(matches!(
            windowed_profile(&platform, 8, 100, SimTime::ZERO),
            Err(AttackError::NotDeployed(_))
        ));
        let mut p = Platform::zcu102(316);
        p.deploy_rsa(
            RsaConfig::default(),
            RsaKey::with_hamming_weight(512, 0).unwrap(),
        )
        .unwrap();
        assert!(matches!(
            windowed_profile(&p, 0, 100, SimTime::ZERO),
            Err(AttackError::InvalidParameter(_))
        ));
    }

    #[test]
    fn search_space_shrinks_with_known_weight() {
        // Unconstrained: 1024 bits. Knowing HW always helps; the maximum
        // entropy weight (512) still saves ~5 bits.
        assert_eq!(search_space_bits(0), 0.0);
        assert!(search_space_bits(1) < 11.0);
        // Entropy bound: 1024 * H(64/1024) = 1024 * 0.337 ~ 345 bits.
        let hw64 = search_space_bits(64);
        assert!(
            (330.0..345.0).contains(&hw64),
            "C(1024,64) ~ 2^341, got {hw64}"
        );
        let hw512 = search_space_bits(512);
        assert!(hw512 < 1024.0);
        assert!(hw512 > 1015.0);
        // Symmetry: C(n, k) == C(n, n-k).
        assert!((search_space_bits(64) - search_space_bits(960)).abs() < 1e-6);
        // Monotone toward the middle.
        assert!(search_space_bits(128) > search_space_bits(64));
    }

    #[test]
    fn weight_step_is_resolvable_by_current() {
        // Adjacent paper groups sit ~8 mA apart: far above the 1 mA node
        // resolution.
        let config = RsaAttackConfig {
            hamming_weights: vec![512, 576],
            samples_per_key: 4_000,
            ..RsaAttackConfig::quick()
        };
        let report = run(&config, UNDEFENDED).unwrap();
        let delta = report.observations[1].current_ma.mean - report.observations[0].current_ma.mean;
        assert!((3.0..15.0).contains(&delta), "step {delta} mA");
    }
}

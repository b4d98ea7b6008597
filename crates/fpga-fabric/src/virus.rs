//! Power-virus instance array (Gnad et al., FPL'17).
//!
//! The characterization experiment of Figure 2 deploys 160 k power-virus
//! instances covering the major routing resources of the ZCU102, divided
//! into 160 groups of 1 k evenly-distributed instances. The ARM side
//! dynamically activates 0..=160 groups, producing 161 distinct fabric
//! activity levels.
//!
//! A virus instance is a legal (routable, non-short-circuit) design that
//! maximizes switching activity; electrically it is a nearly constant
//! dynamic-current source while enabled, plus static leakage while merely
//! deployed. Group activation is controlled through an atomic so the
//! attacker/victim threads can reconfigure it while the electrical solve
//! keeps reading a consistent value.

use std::sync::atomic::{AtomicU32, Ordering};

use zynq_soc::{
    hash01_bucket_term, hash01_finish, hash01_stream_key, GaussianNoise, PowerDomain, PowerLoad,
    SimTime,
};

use crate::resources::{Bitstream, Region, Utilization};

/// Configuration of a [`PowerVirusArray`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VirusConfig {
    /// Number of independently activatable groups (paper: 160).
    pub groups: u32,
    /// Instances per group (paper: 1 000).
    pub instances_per_group: u32,
    /// Dynamic current of one fully active group, in mA. Calibrated so one
    /// group step moves the 1 mA-resolution hwmon current reading by ~40
    /// LSBs, matching Figure 2.
    pub active_ma_per_group: f64,
    /// Static leakage of one deployed (inactive) group, in mA. This is why
    /// "current measurements do not start from 0" in Figure 2.
    pub leakage_ma_per_group: f64,
    /// Relative high-frequency jitter of the active groups' draw.
    pub activity_jitter: f64,
    /// Relative per-group process variation (1 sigma).
    pub process_variation: f64,
}

impl Default for VirusConfig {
    fn default() -> Self {
        VirusConfig {
            groups: 160,
            instances_per_group: 1_000,
            active_ma_per_group: 40.0,
            leakage_ma_per_group: 2.5,
            activity_jitter: 0.004,
            process_variation: 0.01,
        }
    }
}

/// The deployed power-virus array.
///
/// # Examples
///
/// ```
/// use fpga_fabric::virus::{PowerVirusArray, VirusConfig};
/// use zynq_soc::{PowerDomain, PowerLoad, SimTime};
///
/// let virus = PowerVirusArray::new(VirusConfig::default(), 7);
/// let idle = virus.current_ma(SimTime::ZERO, PowerDomain::FpgaLogic);
/// virus.activate_groups(80).unwrap();
/// let busy = virus.current_ma(SimTime::ZERO, PowerDomain::FpgaLogic);
/// assert!(busy > idle + 3_000.0); // ~80 x 40 mA of extra draw
/// ```
#[derive(Debug)]
pub struct PowerVirusArray {
    config: VirusConfig,
    /// Multiplicative process-variation gain per group.
    group_gain: Vec<f64>,
    /// Hoisted `active_ma_per_group * gain` per group. The per-sample walk
    /// is the hottest loop in a conversion; the product is associativity-
    /// safe to precompute (`a * g * j` evaluates as `(a * g) * j`).
    group_amp_ma: Vec<f64>,
    /// Hoisted `hash01` stream keys (`seed` mixed with the group index),
    /// so the jitter walk only pays the bucket mix and finisher.
    group_stream_key: Vec<u64>,
    /// Placement of each group on the die (evenly distributed grid).
    group_region: Vec<Region>,
    active_groups: AtomicU32,
}

/// Error returned when activating more groups than are deployed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ActivateError {
    /// Requested group count.
    pub requested: u32,
    /// Deployed group count.
    pub deployed: u32,
}

impl std::fmt::Display for ActivateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cannot activate {} groups, only {} deployed",
            self.requested, self.deployed
        )
    }
}

impl std::error::Error for ActivateError {}

impl PowerVirusArray {
    /// Deploys a virus array; `seed` fixes process variation and jitter.
    ///
    /// # Panics
    ///
    /// Panics if `groups == 0` or `instances_per_group == 0`.
    pub fn new(config: VirusConfig, seed: u64) -> Self {
        assert!(config.groups > 0, "group count must be non-zero");
        assert!(
            config.instances_per_group > 0,
            "instances per group must be non-zero"
        );
        let mut noise = GaussianNoise::new(seed ^ 0x7672_7573); // "virus"
        let group_gain: Vec<f64> = (0..config.groups)
            .map(|_| (1.0 + noise.sample(0.0, config.process_variation)).max(0.5))
            .collect();
        let group_amp_ma: Vec<f64> = group_gain
            .iter()
            .map(|gain| config.active_ma_per_group * gain)
            .collect();
        let group_stream_key: Vec<u64> = (0..config.groups as u64)
            .map(|g| hash01_stream_key(seed, g))
            .collect();
        // Distribute groups over a near-square grid so activation spreads
        // across the die, as in the paper's even distribution.
        let nx = (config.groups as f64).sqrt().ceil() as usize;
        let ny = config.groups.div_ceil(nx as u32) as usize;
        let group_region: Vec<Region> = (0..config.groups as usize)
            .map(|g| Region::grid_cell(nx, ny, g % nx, g / nx))
            .collect();
        PowerVirusArray {
            config,
            group_gain,
            group_amp_ma,
            group_stream_key,
            group_region,
            active_groups: AtomicU32::new(0),
        }
    }

    /// The deployment configuration.
    pub fn config(&self) -> &VirusConfig {
        &self.config
    }

    /// Total deployed instance count (160 k in the paper's setup).
    pub fn total_instances(&self) -> u64 {
        self.config.groups as u64 * self.config.instances_per_group as u64
    }

    /// Activates exactly `n` groups (the first `n` in placement order),
    /// deactivating the rest. Callable from any thread.
    ///
    /// # Errors
    ///
    /// Returns [`ActivateError`] if `n` exceeds the deployed group count.
    pub fn activate_groups(&self, n: u32) -> Result<(), ActivateError> {
        if n > self.config.groups {
            obs::warn!(
                "fabric.virus",
                "activation beyond deployed group count rejected";
                "requested" => n as u64,
                "deployed" => self.config.groups as u64
            );
            return Err(ActivateError {
                requested: n,
                deployed: self.config.groups,
            });
        }
        self.active_groups.store(n, Ordering::Release);
        obs::counter!("fabric.virus.activations").inc();
        obs::gauge!("fabric.virus.active_groups").set(n as f64);
        Ok(())
    }

    /// Number of currently active groups.
    pub fn active_groups(&self) -> u32 {
        self.active_groups.load(Ordering::Acquire)
    }

    /// Number of currently active instances.
    pub fn active_instances(&self) -> u64 {
        self.active_groups() as u64 * self.config.instances_per_group as u64
    }

    /// Placement region of group `g`.
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range.
    pub fn group_region(&self, g: u32) -> Region {
        self.group_region[g as usize]
    }

    /// Resource utilization of the deployed array: one virus instance is
    /// roughly a LUT + FF pair with high-fanout routing.
    pub fn bitstream(&self) -> Bitstream {
        let n = self.total_instances();
        Bitstream::new(
            "power-virus-array",
            Utilization {
                luts: n,
                ffs: n,
                dsps: 0,
                bram_kb: 0,
            },
        )
    }

    /// Mean dynamic current expected for `n` active groups, before jitter
    /// (useful for calibration checks).
    pub fn nominal_active_ma(&self, n: u32) -> f64 {
        self.group_gain[..n.min(self.config.groups) as usize]
            .iter()
            .map(|g| g * self.config.active_ma_per_group)
            .sum()
    }
}

impl PowerVirusArray {
    /// Dynamic draw of the first `active` groups in jitter bucket
    /// `bucket_term` (a [`hash01_bucket_term`]). Summation order matches
    /// the original per-group walk exactly.
    ///
    /// `(h - 0.5) * jitter_span` is bit-identical to the defining
    /// `((h - 0.5) * 2.0) * jitter` form: the doubling is exact (power of
    /// two), so both orders round the same real product exactly once.
    #[inline]
    fn dynamic_ma(&self, active: usize, bucket_term: u64) -> f64 {
        let jitter_span = 2.0 * self.config.activity_jitter;
        let mut dynamic = 0.0;
        for (key, amp) in self.group_stream_key[..active]
            .iter()
            .zip(&self.group_amp_ma[..active])
        {
            let jitter = (hash01_finish(*key, bucket_term) - 0.5) * jitter_span;
            dynamic += amp * (1.0 + jitter);
        }
        dynamic
    }
}

impl PowerLoad for PowerVirusArray {
    fn current_ma(&self, t: SimTime, domain: PowerDomain) -> f64 {
        if domain != PowerDomain::FpgaLogic {
            return 0.0;
        }
        let active = self.active_groups().min(self.config.groups) as usize;
        let leakage = self.config.groups as f64 * self.config.leakage_ma_per_group;
        // 100 us jitter buckets: fast relative to the sensor's averaging
        // window, slow relative to the fabric clock.
        let bucket = t.as_micros() / 100;
        leakage + self.dynamic_ma(active, hash01_bucket_term(bucket))
    }

    /// Jitter is constant within a 100 µs bucket, so the two instants of a
    /// transient-pair evaluation (1 µs apart) often share the whole
    /// per-group walk — the dominant cost of a conversion under load. When
    /// the buckets differ (averaging steps land exactly on 100 µs
    /// boundaries, so a conversion's `t` and `t - 1 µs` always straddle
    /// one), a single fused walk serves both instants: each group's stream
    /// key and amplitude are loaded once and finished against both bucket
    /// terms, with per-accumulator summation order unchanged.
    fn current_ma_pair(&self, t_now: SimTime, t_prev: SimTime, domain: PowerDomain) -> (f64, f64) {
        if domain != PowerDomain::FpgaLogic {
            return (0.0, 0.0);
        }
        let active = self.active_groups().min(self.config.groups) as usize;
        let leakage = self.config.groups as f64 * self.config.leakage_ma_per_group;
        let bucket_now = t_now.as_micros() / 100;
        let bucket_prev = t_prev.as_micros() / 100;
        if bucket_now == bucket_prev {
            let i = leakage + self.dynamic_ma(active, hash01_bucket_term(bucket_now));
            return (i, i);
        }
        let term_now = hash01_bucket_term(bucket_now);
        let term_prev = hash01_bucket_term(bucket_prev);
        // Exact-doubling rewrite, see `dynamic_ma`.
        let jitter_span = 2.0 * self.config.activity_jitter;
        let mut dyn_now = 0.0;
        let mut dyn_prev = 0.0;
        for (key, amp) in self.group_stream_key[..active]
            .iter()
            .zip(&self.group_amp_ma[..active])
        {
            let jitter_now = (hash01_finish(*key, term_now) - 0.5) * jitter_span;
            dyn_now += amp * (1.0 + jitter_now);
            let jitter_prev = (hash01_finish(*key, term_prev) - 0.5) * jitter_span;
            dyn_prev += amp * (1.0 + jitter_prev);
        }
        (leakage + dyn_now, leakage + dyn_prev)
    }

    fn label(&self) -> &str {
        "power-virus-array"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn array() -> PowerVirusArray {
        PowerVirusArray::new(VirusConfig::default(), 42)
    }

    #[test]
    fn deployment_matches_paper_scale() {
        let v = array();
        assert_eq!(v.total_instances(), 160_000);
        assert_eq!(v.config().groups, 160);
        let bs = v.bitstream();
        assert_eq!(bs.utilization.luts, 160_000);
    }

    #[test]
    fn activation_is_monotone_in_current() {
        let v = array();
        let t = SimTime::from_ms(1);
        let mut prev = -1.0;
        for n in [0u32, 1, 10, 40, 80, 120, 160] {
            v.activate_groups(n).unwrap();
            let i = v.current_ma(t, PowerDomain::FpgaLogic);
            assert!(i > prev, "current must grow with active groups");
            prev = i;
        }
    }

    #[test]
    fn step_size_is_about_forty_ma() {
        let v = array();
        let t = SimTime::from_ms(3);
        v.activate_groups(100).unwrap();
        let a = v.current_ma(t, PowerDomain::FpgaLogic);
        v.activate_groups(101).unwrap();
        let b = v.current_ma(t, PowerDomain::FpgaLogic);
        let step = b - a;
        assert!((30.0..50.0).contains(&step), "step {step} mA");
    }

    #[test]
    fn idle_array_still_leaks() {
        let v = array();
        v.activate_groups(0).unwrap();
        let i = v.current_ma(SimTime::ZERO, PowerDomain::FpgaLogic);
        assert!(i > 100.0, "deployed instances must leak (got {i} mA)");
    }

    #[test]
    fn over_activation_is_rejected() {
        let v = array();
        let err = v.activate_groups(161).unwrap_err();
        assert_eq!(err.requested, 161);
        assert_eq!(err.deployed, 160);
        assert!(err.to_string().contains("161"));
        // State unchanged.
        assert_eq!(v.active_groups(), 0);
    }

    #[test]
    fn other_domains_unaffected() {
        let v = array();
        v.activate_groups(160).unwrap();
        for d in [
            PowerDomain::FullPowerCpu,
            PowerDomain::LowPowerCpu,
            PowerDomain::Ddr,
        ] {
            assert_eq!(v.current_ma(SimTime::ZERO, d), 0.0);
        }
    }

    #[test]
    fn groups_are_spatially_distributed() {
        let v = array();
        let first = v.group_region(0);
        let last = v.group_region(159);
        assert!(first.distance_to(&last) > 0.5, "groups must span the die");
    }

    #[test]
    fn jitter_is_small_and_time_dependent() {
        let v = array();
        v.activate_groups(160).unwrap();
        let a = v.current_ma(SimTime::from_us(50), PowerDomain::FpgaLogic);
        let b = v.current_ma(SimTime::from_us(250), PowerDomain::FpgaLogic);
        assert_ne!(a, b, "activity jitter must vary over time");
        let nominal = v.nominal_active_ma(160) + 160.0 * 2.5;
        assert!((a - nominal).abs() / nominal < 0.01);
    }

    #[test]
    fn full_swing_matches_figure_two_scale() {
        // 160 groups x ~40 mA = ~6.4 A of dynamic swing.
        let v = array();
        let t = SimTime::from_ms(7);
        v.activate_groups(0).unwrap();
        let idle = v.current_ma(t, PowerDomain::FpgaLogic);
        v.activate_groups(160).unwrap();
        let full = v.current_ma(t, PowerDomain::FpgaLogic);
        let swing = full - idle;
        assert!((5_800.0..7_000.0).contains(&swing), "swing {swing} mA");
    }

    #[test]
    fn deterministic_across_instances_with_same_seed() {
        let a = PowerVirusArray::new(VirusConfig::default(), 5);
        let b = PowerVirusArray::new(VirusConfig::default(), 5);
        a.activate_groups(77).unwrap();
        b.activate_groups(77).unwrap();
        let t = SimTime::from_ms(11);
        assert_eq!(
            a.current_ma(t, PowerDomain::FpgaLogic),
            b.current_ma(t, PowerDomain::FpgaLogic)
        );
    }

    sim_rt::prop_check! {
        fn current_nonnegative_and_bounded(n in 0u32..=160, ms in 0u64..10_000) {
            let v = array();
            v.activate_groups(n).unwrap();
            let i = v.current_ma(SimTime::from_ms(ms), PowerDomain::FpgaLogic);
            assert!(i >= 0.0);
            assert!(i < 8_000.0);
        }

        fn nominal_active_ma_is_monotone(n in 0u32..160) {
            let v = array();
            assert!(v.nominal_active_ma(n) <= v.nominal_active_ma(n + 1));
        }
    }
}

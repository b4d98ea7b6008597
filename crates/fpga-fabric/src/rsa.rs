//! RSA-1024 victim circuit (Square-and-Multiply, two multiplier modules).
//!
//! Following Zhao & Suh's design (modified to 100 MHz as in Section IV-C of
//! the paper): a state machine iterates over each bit of the 1024-bit
//! exponent from the least-significant end. One modular-multiplier module
//! computes the running square every iteration; when the current exponent
//! bit is 1 a second module simultaneously computes the multiplication, so
//! bit=1 iterations switch roughly twice as much logic. Both multipliers
//! retire in the same (fixed) number of cycles, so the *timing* is
//! constant — only the current draw leaks.
//!
//! The secret exponent is embedded in the encrypted bitstream
//! ([`RsaCircuit`] never exposes it); once deployed, even privileged
//! software cannot read the key back. The only leak is the per-iteration
//! multiplier activity, which is derived from the genuine algorithm
//! (see [`crate::bigint::U1024::mod_exp`]).

use std::sync::atomic::{AtomicBool, Ordering};

use zynq_soc::{hash01, PowerDomain, PowerLoad, SimTime};

use crate::bigint::{BITS, U1024};
use crate::resources::{Bitstream, Utilization};

/// A 1024-bit RSA private exponent.
///
/// # Examples
///
/// ```
/// use fpga_fabric::rsa::RsaKey;
///
/// let key = RsaKey::with_hamming_weight(128, 7).unwrap();
/// assert_eq!(key.hamming_weight(), 128);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RsaKey {
    exponent: U1024,
}

/// Error constructing an [`RsaKey`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum KeyError {
    /// The circuit does not support an all-zero exponent (the paper's first
    /// key is 1 for the same reason).
    ZeroExponent,
    /// Requested Hamming weight exceeds 1024.
    WeightTooLarge(u32),
}

impl std::fmt::Display for KeyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KeyError::ZeroExponent => write!(f, "exponent must be non-zero"),
            KeyError::WeightTooLarge(w) => {
                write!(f, "hamming weight {w} exceeds 1024")
            }
        }
    }
}

impl std::error::Error for KeyError {}

impl RsaKey {
    /// Creates a key from an explicit exponent.
    ///
    /// # Errors
    ///
    /// Returns [`KeyError::ZeroExponent`] for a zero exponent.
    pub fn new(exponent: U1024) -> Result<Self, KeyError> {
        if exponent.is_zero() {
            return Err(KeyError::ZeroExponent);
        }
        Ok(RsaKey { exponent })
    }

    /// Creates a key with exactly `weight` set bits, spread evenly over the
    /// 1024 positions with a seed-dependent offset — the key-construction
    /// procedure of the Figure 4 experiment (17 keys, weights 1, 64, 128,
    /// ..., 1024).
    ///
    /// # Errors
    ///
    /// Returns [`KeyError::ZeroExponent`] for `weight == 0` and
    /// [`KeyError::WeightTooLarge`] for `weight > 1024`.
    pub fn with_hamming_weight(weight: u32, seed: u64) -> Result<Self, KeyError> {
        if weight == 0 {
            return Err(KeyError::ZeroExponent);
        }
        if weight as usize > BITS {
            return Err(KeyError::WeightTooLarge(weight));
        }
        let mut exponent = U1024::ZERO;
        let offset = (hash01(seed, 0, 0) * BITS as f64) as usize;
        for i in 0..weight as usize {
            let pos = (i * BITS / weight as usize + offset) % BITS;
            exponent.set_bit(pos, true);
        }
        debug_assert_eq!(exponent.hamming_weight(), weight);
        Ok(RsaKey { exponent })
    }

    /// Creates a uniformly random key (expected weight ~512).
    pub fn random(seed: u64) -> Self {
        let mut exponent = U1024::random(seed);
        exponent.set_bit(0, true); // keep it odd and non-zero
        RsaKey { exponent }
    }

    /// The key's Hamming weight — the secret quantity the attack recovers.
    pub fn hamming_weight(&self) -> u32 {
        self.exponent.hamming_weight()
    }

    /// Bit `i` of the exponent. Private to the crate: only the circuit's
    /// internal state machine may observe key bits.
    pub(crate) fn bit(&self, i: usize) -> bool {
        self.exponent.bit(i)
    }

    pub(crate) fn exponent(&self) -> &U1024 {
        &self.exponent
    }
}

/// Electrical and timing parameters of the RSA circuit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RsaConfig {
    /// Circuit clock in MHz (paper: 100 MHz, vs. 20 MHz in Zhao & Suh).
    pub clock_mhz: u32,
    /// Cycles per Square-and-Multiply iteration (both multipliers are
    /// synchronized to retire together).
    pub cycles_per_iteration: u32,
    /// Idle cycles between consecutive encryptions.
    pub gap_cycles: u32,
    /// Quiescent current of the deployed circuit (clock tree + state
    /// machine), mA.
    pub idle_ma: f64,
    /// Additional current while the always-on square module computes, mA.
    pub square_ma: f64,
    /// Additional current while the second (multiply) module computes, mA.
    pub multiply_ma: f64,
    /// Relative cycle-to-cycle activity jitter.
    pub jitter: f64,
}

impl Default for RsaConfig {
    fn default() -> Self {
        RsaConfig {
            clock_mhz: 100,
            cycles_per_iteration: 1_056,
            gap_cycles: 4_096,
            idle_ma: 45.0,
            square_ma: 60.0,
            // Calibrated so adjacent Hamming-weight groups (64 bits apart)
            // sit ~8 mA apart: resolvable by the 1 mA current channel but
            // below the 25 mW power LSB once multiplied by ~0.85 V.
            multiply_ma: 128.0,
            jitter: 0.003,
        }
    }
}

impl RsaConfig {
    /// Duration of one Square-and-Multiply iteration.
    pub fn iteration_time(&self) -> SimTime {
        SimTime::from_nanos(self.cycles_per_iteration as u64 * 1_000 / self.clock_mhz as u64)
    }

    /// Duration of one full encryption (1024 iterations + inter-encryption
    /// gap).
    pub fn encryption_period(&self) -> SimTime {
        let cycles = self.cycles_per_iteration as u64 * BITS as u64 + self.gap_cycles as u64;
        SimTime::from_nanos(cycles * 1_000 / self.clock_mhz as u64)
    }
}

/// The deployed RSA-1024 accelerator, repeatedly encrypting.
///
/// # Examples
///
/// ```
/// use fpga_fabric::rsa::{RsaCircuit, RsaConfig, RsaKey};
/// use zynq_soc::{PowerDomain, PowerLoad, SimTime};
///
/// let key = RsaKey::with_hamming_weight(512, 1).unwrap();
/// let rsa = RsaCircuit::new(RsaConfig::default(), key, 42);
/// let i = rsa.current_ma(SimTime::from_ms(1), PowerDomain::FpgaLogic);
/// assert!(i > 0.0);
/// ```
#[derive(Debug)]
pub struct RsaCircuit {
    config: RsaConfig,
    key: RsaKey,
    modulus: U1024,
    running: AtomicBool,
    seed: u64,
}

impl RsaCircuit {
    /// Deploys the circuit with a sealed `key`. The modulus is derived from
    /// the seed (a full-width odd value, as a real key pair would have).
    pub fn new(config: RsaConfig, key: RsaKey, seed: u64) -> Self {
        let mut modulus = U1024::random(seed ^ 0x6D6F_6475); // "modu"
        modulus.set_bit(0, true);
        modulus.set_bit(BITS - 1, true);
        RsaCircuit {
            config,
            key,
            modulus,
            running: AtomicBool::new(true),
            seed,
        }
    }

    /// Deploys the circuit with an explicit modulus (tests use small
    /// moduli to keep real encryptions fast).
    ///
    /// # Panics
    ///
    /// Panics if the modulus is zero.
    pub fn with_modulus(config: RsaConfig, key: RsaKey, modulus: U1024, seed: u64) -> Self {
        assert!(!modulus.is_zero(), "modulus must be non-zero");
        RsaCircuit {
            config,
            key,
            modulus,
            running: AtomicBool::new(true),
            seed,
        }
    }

    /// The electrical/timing configuration.
    pub fn config(&self) -> &RsaConfig {
        &self.config
    }

    /// Starts or pauses the encryption loop (the ARM-side driver's control
    /// register).
    pub fn set_running(&self, running: bool) {
        self.running.store(running, Ordering::Release);
    }

    /// Whether the encryption loop is running.
    pub fn is_running(&self) -> bool {
        self.running.load(Ordering::Acquire)
    }

    /// Performs one genuine encryption `plaintext^key mod modulus` with the
    /// sealed key — the circuit's data path. The caller only ever sees the
    /// ciphertext.
    pub fn encrypt(&self, plaintext: &U1024) -> U1024 {
        plaintext
            .reduce(&self.modulus)
            .mod_exp(self.key.exponent(), &self.modulus)
    }

    /// Resource utilization: two 1024-bit shift-add multipliers dominate.
    pub fn bitstream(&self) -> Bitstream {
        Bitstream::new(
            "rsa1024",
            Utilization {
                luts: 30_000,
                ffs: 26_000,
                dsps: 0,
                bram_kb: 16,
            },
        )
        .encrypted()
    }

    /// The state machine's iteration index and in-gap flag at time `t`
    /// (encryption loops back-to-back from `t = 0`).
    fn phase_at(&self, t: SimTime) -> Option<usize> {
        let period = self.config.encryption_period().as_nanos();
        let offset = t.as_nanos() % period;
        let iter_ns = self.config.iteration_time().as_nanos();
        let idx = (offset / iter_ns) as usize;
        if idx < BITS {
            Some(idx)
        } else {
            None // inter-encryption gap
        }
    }
}

impl PowerLoad for RsaCircuit {
    fn current_ma(&self, t: SimTime, domain: PowerDomain) -> f64 {
        if domain != PowerDomain::FpgaLogic {
            return 0.0;
        }
        if !self.is_running() {
            return self.config.idle_ma;
        }
        let mut i = self.config.idle_ma;
        if let Some(iter) = self.phase_at(t) {
            i += self.config.square_ma;
            if self.key.bit(iter) {
                i += self.config.multiply_ma;
            }
        }
        // Cycle-scale activity jitter, bucketed at 1 us.
        let bucket = t.as_micros();
        let jitter = (hash01(self.seed, 1, bucket) - 0.5) * 2.0 * self.config.jitter;
        i * (1.0 + jitter)
    }

    fn label(&self) -> &str {
        "rsa1024"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_weight_construction() {
        for w in [1u32, 64, 512, 1024] {
            let k = RsaKey::with_hamming_weight(w, 3).unwrap();
            assert_eq!(k.hamming_weight(), w);
        }
    }

    #[test]
    fn key_construction_errors() {
        assert_eq!(
            RsaKey::with_hamming_weight(0, 0),
            Err(KeyError::ZeroExponent)
        );
        assert_eq!(
            RsaKey::with_hamming_weight(1025, 0),
            Err(KeyError::WeightTooLarge(1025))
        );
        assert_eq!(RsaKey::new(U1024::ZERO), Err(KeyError::ZeroExponent));
    }

    #[test]
    fn seventeen_paper_keys() {
        // HW = 1, then 64..1024 in steps of 64 -> 17 keys.
        let weights: Vec<u32> = std::iter::once(1).chain((1..=16).map(|i| i * 64)).collect();
        assert_eq!(weights.len(), 17);
        for w in weights {
            assert_eq!(
                RsaKey::with_hamming_weight(w, 9).unwrap().hamming_weight(),
                w
            );
        }
    }

    #[test]
    fn timing_at_100mhz() {
        let c = RsaConfig::default();
        // 1056 cycles at 100 MHz = 10.56 us per iteration.
        assert_eq!(c.iteration_time(), SimTime::from_nanos(10_560));
        // 1024 iterations + gap ~= 10.85 ms per encryption.
        let period_ms = c.encryption_period().as_secs_f64() * 1e3;
        assert!((10.0..12.0).contains(&period_ms), "{period_ms} ms");
    }

    #[test]
    fn mean_current_tracks_hamming_weight() {
        let mean_i = |hw: u32| {
            let key = RsaKey::with_hamming_weight(hw, 5).unwrap();
            let rsa = RsaCircuit::new(RsaConfig::default(), key, 5);
            let mut acc = 0.0;
            let n = 4_000;
            for k in 0..n {
                let t = SimTime::from_us(k as u64 * 7 + 3);
                acc += rsa.current_ma(t, PowerDomain::FpgaLogic);
            }
            acc / n as f64
        };
        let lo = mean_i(64);
        let mid = mean_i(512);
        let hi = mean_i(1024);
        assert!(lo < mid && mid < hi, "{lo} {mid} {hi}");
        // Full-weight vs low-weight spread is on the order of multiply_ma.
        assert!(hi - lo > 80.0, "spread {}", hi - lo);
        // Adjacent groups (64 bits apart) are ~8 mA apart.
        let step = (hi - lo) / 15.0;
        assert!((4.0..14.0).contains(&step), "step {step} mA");
    }

    #[test]
    fn constant_time_iterations() {
        // Timing must NOT leak: iteration boundaries are identical for all
        // keys (only current differs).
        let k1 = RsaKey::with_hamming_weight(1, 0).unwrap();
        let k2 = RsaKey::with_hamming_weight(1024, 0).unwrap();
        let a = RsaCircuit::new(RsaConfig::default(), k1, 0);
        let b = RsaCircuit::new(RsaConfig::default(), k2, 0);
        assert_eq!(
            a.config().encryption_period(),
            b.config().encryption_period()
        );
    }

    #[test]
    fn paused_circuit_draws_idle_current() {
        let key = RsaKey::with_hamming_weight(512, 1).unwrap();
        let rsa = RsaCircuit::new(RsaConfig::default(), key, 1);
        rsa.set_running(false);
        assert!(!rsa.is_running());
        let i = rsa.current_ma(SimTime::from_ms(2), PowerDomain::FpgaLogic);
        assert_eq!(i, RsaConfig::default().idle_ma);
    }

    #[test]
    fn no_current_on_other_domains() {
        let key = RsaKey::with_hamming_weight(512, 1).unwrap();
        let rsa = RsaCircuit::new(RsaConfig::default(), key, 1);
        assert_eq!(rsa.current_ma(SimTime::ZERO, PowerDomain::Ddr), 0.0);
    }

    #[test]
    fn encrypt_computes_real_modexp() {
        // Small modulus keeps the shift-add datapath fast in tests while
        // exercising the genuine 1024-bit-wide machinery.
        let key = RsaKey::new(U1024::from_u64(117)).unwrap();
        let rsa = RsaCircuit::with_modulus(RsaConfig::default(), key, U1024::from_u64(1009), 0);
        let mut expect = 1u64;
        for _ in 0..117 {
            expect = expect * 5 % 1009;
        }
        assert_eq!(rsa.encrypt(&U1024::from_u64(5)), U1024::from_u64(expect));
    }

    #[test]
    fn bitstream_is_encrypted() {
        let key = RsaKey::with_hamming_weight(512, 1).unwrap();
        let rsa = RsaCircuit::new(RsaConfig::default(), key, 1);
        assert!(rsa.bitstream().encrypted);
    }

    #[test]
    fn gap_phase_has_no_multiplier_activity() {
        let config = RsaConfig {
            jitter: 0.0,
            ..RsaConfig::default()
        };
        let key = RsaKey::with_hamming_weight(1024, 0).unwrap();
        let rsa = RsaCircuit::new(config, key, 0);
        // A time inside the gap: just before the period ends.
        let period = config.encryption_period();
        let in_gap = period.saturating_sub(SimTime::from_us(1));
        let i = rsa.current_ma(in_gap, PowerDomain::FpgaLogic);
        assert_eq!(i, config.idle_ma);
    }

    sim_rt::prop_check! {
        cases = 32;

        fn weight_construction_exact(w in 1u32..=1024, seed in 0u64..100) {
            let k = RsaKey::with_hamming_weight(w, seed).unwrap();
            assert_eq!(k.hamming_weight(), w);
        }

        fn current_bounded(ms in 0u64..100, hw in 1u32..=1024) {
            let key = RsaKey::with_hamming_weight(hw, 2).unwrap();
            let rsa = RsaCircuit::new(RsaConfig::default(), key, 2);
            let i = rsa.current_ma(SimTime::from_ms(ms), PowerDomain::FpgaLogic);
            let max = (45.0 + 60.0 + 128.0) * 1.01;
            assert!(i >= 0.0 && i <= max);
        }
    }
}

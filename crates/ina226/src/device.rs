use sim_rt::rng::{Rng, SimRng};

use crate::registers::{Config, Register};
use crate::{
    Ina226Error, Result, BUS_LSB_V, DIE_ID, MANUFACTURER_ID, POWER_LSB_RATIO, SHUNT_LSB_V,
};

/// Behavioural INA226 device instance attached to one rail.
///
/// The device owns its register file and ADC noise source. A *conversion
/// cycle* ([`Ina226::convert`]) consumes one `(current, bus voltage)`
/// operating-point sample per averaging step, quantizes through the shunt
/// and bus ADCs, then runs the datasheet's integer pipeline to produce the
/// current and power registers. Host-visible readouts ([`current_amps`],
/// [`bus_volts`], [`power_watts`]) scale registers exactly the way the
/// Linux ina226 hwmon driver does.
///
/// [`current_amps`]: Ina226::current_amps
/// [`bus_volts`]: Ina226::bus_volts
/// [`power_watts`]: Ina226::power_watts
///
/// # Examples
///
/// ```
/// use ina226::{Config, Ina226, Register};
///
/// let mut s = Ina226::new(0.002, 0.0001, 1); // 2 mΩ shunt, 0.1 mA LSB
/// assert_eq!(s.read_register(Register::ManufacturerId), 0x5449);
/// s.convert_constant(0.5, 0.85);
/// assert!((s.current_amps() - 0.5).abs() < 0.002);
/// ```
#[derive(Debug, Clone)]
pub struct Ina226 {
    shunt_ohm: f64,
    current_lsb_a: f64,
    config: Config,
    calibration: u16,
    mask_enable: u16,
    alert_limit: u16,
    shunt_reg: i16,
    bus_reg: u16,
    current_reg: i16,
    power_reg: u16,
    conversions: u64,
    rng: SimRng,
    gauss_cache: Option<f64>,
    shunt_noise_v: f64,
    bus_noise_v: f64,
}

impl Ina226 {
    /// Creates a device for a rail with the given shunt resistance (ohms)
    /// and desired current LSB (amps); programs the matching calibration
    /// register. `seed` fixes the ADC noise stream.
    ///
    /// # Panics
    ///
    /// Panics if `shunt_ohm` or `current_lsb_a` is not strictly positive,
    /// or if the resulting calibration value overflows 15 bits (choose a
    /// larger current LSB or shunt).
    pub fn new(shunt_ohm: f64, current_lsb_a: f64, seed: u64) -> Self {
        assert!(shunt_ohm > 0.0, "shunt resistance must be positive");
        assert!(current_lsb_a > 0.0, "current LSB must be positive");
        let cal = Self::calibration_for(shunt_ohm, current_lsb_a)
            .expect("calibration value overflows the 15-bit register");
        Ina226 {
            shunt_ohm,
            current_lsb_a,
            config: Config::default(),
            calibration: cal,
            mask_enable: 0,
            alert_limit: 0,
            shunt_reg: 0,
            bus_reg: 0,
            current_reg: 0,
            power_reg: 0,
            conversions: 0,
            rng: SimRng::seed_from_u64(seed),
            gauss_cache: None,
            // ~1 shunt LSB and ~0.4 bus LSB of per-sample ADC noise.
            shunt_noise_v: SHUNT_LSB_V,
            bus_noise_v: BUS_LSB_V * 0.4,
        }
    }

    /// Datasheet calibration value `CAL = 0.00512 / (lsb * R_shunt)`,
    /// or `None` if it does not fit the 15-bit register.
    pub fn calibration_for(shunt_ohm: f64, current_lsb_a: f64) -> Option<u16> {
        let cal = (0.00512 / (current_lsb_a * shunt_ohm)).round();
        if (1.0..=32767.0).contains(&cal) {
            Some(cal as u16)
        } else {
            None
        }
    }

    /// The shunt resistance in ohms.
    pub fn shunt_ohm(&self) -> f64 {
        self.shunt_ohm
    }

    /// The programmed current LSB in amps.
    pub fn current_lsb_a(&self) -> f64 {
        self.current_lsb_a
    }

    /// The power LSB in watts (25x the current LSB).
    pub fn power_lsb_w(&self) -> f64 {
        self.current_lsb_a * POWER_LSB_RATIO
    }

    /// The active configuration.
    pub fn config(&self) -> Config {
        self.config
    }

    /// Replaces the configuration (equivalent to writing register 00h).
    pub fn set_config(&mut self, config: Config) {
        self.config = config;
    }

    /// Number of completed conversion cycles.
    pub fn conversions(&self) -> u64 {
        self.conversions
    }

    /// Overrides the per-sample ADC noise levels (volts); useful for
    /// noise-free unit tests and for noise-sensitivity ablations.
    ///
    /// # Panics
    ///
    /// Panics if either value is negative.
    pub fn set_adc_noise(&mut self, shunt_noise_v: f64, bus_noise_v: f64) {
        assert!(
            shunt_noise_v >= 0.0 && bus_noise_v >= 0.0,
            "noise must be non-negative"
        );
        self.shunt_noise_v = shunt_noise_v;
        self.bus_noise_v = bus_noise_v;
    }

    /// Reads a register through the I2C interface.
    pub fn read_register(&self, reg: Register) -> u16 {
        match reg {
            Register::Configuration => self.config.encode(),
            Register::ShuntVoltage => self.shunt_reg as u16,
            Register::BusVoltage => self.bus_reg,
            Register::Power => self.power_reg,
            Register::Current => self.current_reg as u16,
            Register::Calibration => self.calibration,
            Register::MaskEnable => self.mask_enable,
            Register::AlertLimit => self.alert_limit,
            Register::ManufacturerId => MANUFACTURER_ID,
            Register::DieId => DIE_ID,
        }
    }

    /// Writes a register through the I2C interface.
    ///
    /// # Errors
    ///
    /// Returns [`Ina226Error::ReadOnlyRegister`] for result registers and
    /// the ID registers.
    pub fn write_register(&mut self, reg: Register, value: u16) -> Result<()> {
        if !reg.is_writable() {
            return Err(Ina226Error::ReadOnlyRegister(reg));
        }
        match reg {
            Register::Configuration => self.config = Config::decode(value),
            Register::Calibration => self.calibration = value & 0x7FFF,
            Register::MaskEnable => {
                // Status flags (AFF/CVRF/OVF) are read-only; host writes
                // only set the enable bits.
                let status_mask =
                    crate::alert::bits::AFF | crate::alert::bits::CVRF | crate::alert::bits::OVF;
                self.mask_enable = (value & !status_mask) | (self.mask_enable & status_mask);
            }
            Register::AlertLimit => self.alert_limit = value,
            _ => unreachable!("writable set covered above"),
        }
        Ok(())
    }

    /// Runs one full conversion cycle over per-averaging-step operating
    /// points. `samples` must yield `(rail_current_amps, bus_volts)` pairs;
    /// exactly `config.avg.samples()` of them are consumed (missing samples
    /// repeat the last seen value; an empty iterator leaves registers
    /// unchanged).
    ///
    /// In power-down mode the device performs no conversion and the
    /// registers hold their last values; channels disabled by the
    /// operating mode keep their previous register contents.
    pub fn convert<I>(&mut self, samples: I)
    where
        I: IntoIterator<Item = (f64, f64)>,
    {
        if !self.config.mode.converts_shunt() && !self.config.mode.converts_bus() {
            return; // power-down
        }
        let n = self.config.avg.samples() as usize;
        let mut iter = samples.into_iter();
        let mut shunt_acc = 0.0;
        let mut bus_acc = 0.0;
        let mut last = match iter.next() {
            Some(p) => p,
            None => return,
        };
        for i in 0..n {
            if i > 0 {
                if let Some(p) = iter.next() {
                    last = p;
                }
            }
            let (amps, volts) = last;
            // Each averaging step is an independent ADC sample with its own
            // thermal/quantization noise.
            let shunt_v = amps * self.shunt_ohm + self.gaussian() * self.shunt_noise_v;
            let bus_v = volts + self.gaussian() * self.bus_noise_v;
            shunt_acc += shunt_v;
            bus_acc += bus_v;
        }
        let shunt_mean = shunt_acc / n as f64;
        let bus_mean = bus_acc / n as f64;

        // Quantize through the two ADCs — but only the channels the mode
        // enables; the other register holds its previous value.
        if self.config.mode.converts_shunt() {
            let counts = (shunt_mean / SHUNT_LSB_V).round();
            if !(i16::MIN as f64..=i16::MAX as f64).contains(&counts) {
                obs::counter!("ina226.clips.shunt").inc();
            }
            self.shunt_reg = counts.clamp(i16::MIN as f64, i16::MAX as f64) as i16;
        }
        if self.config.mode.converts_bus() {
            let counts = (bus_mean / BUS_LSB_V).round();
            if !(0.0..=0x7FFF as f64).contains(&counts) {
                obs::counter!("ina226.clips.bus").inc();
            }
            self.bus_reg = counts.clamp(0.0, 0x7FFF as f64) as u16;
        }

        // Datasheet integer pipeline.
        let current = (self.shunt_reg as i64 * self.calibration as i64) / 2048;
        if !(i16::MIN as i64..=i16::MAX as i64).contains(&current) {
            obs::counter!("ina226.clips.current").inc();
        }
        self.current_reg = current.clamp(i16::MIN as i64, i16::MAX as i64) as i16;
        let power = (self.current_reg as i64 * self.bus_reg as i64) / 20_000;
        self.power_reg = power.clamp(0, u16::MAX as i64) as u16;
        self.conversions += 1;
        obs::counter!("ina226.conversions").inc();

        // Alert function: refresh the status bits from this conversion.
        let status_mask =
            crate::alert::bits::AFF | crate::alert::bits::CVRF | crate::alert::bits::OVF;
        let status = crate::alert::evaluate(
            self.mask_enable,
            self.shunt_reg,
            self.bus_reg,
            self.power_reg,
            self.alert_limit,
        );
        self.mask_enable = (self.mask_enable & !status_mask) | status;
    }

    /// Convenience wrapper: one conversion cycle over a constant operating
    /// point.
    pub fn convert_constant(&mut self, amps: f64, volts: f64) {
        let n = self.config.avg.samples() as usize;
        self.convert(std::iter::repeat_n((amps, volts), n));
    }

    /// Latched current in amps (register x current LSB).
    pub fn current_amps(&self) -> f64 {
        self.current_reg as f64 * self.current_lsb_a
    }

    /// Latched bus voltage in volts.
    pub fn bus_volts(&self) -> f64 {
        self.bus_reg as f64 * BUS_LSB_V
    }

    /// Latched power in watts (register x 25 x current LSB).
    pub fn power_watts(&self) -> f64 {
        self.power_reg as f64 * self.power_lsb_w()
    }

    /// Latched shunt voltage in volts.
    pub fn shunt_volts(&self) -> f64 {
        self.shunt_reg as f64 * SHUNT_LSB_V
    }

    /// All four measurement registers converted to integer hwmon units in
    /// one call — what the Linux driver reports for `curr1_input`,
    /// `in0_input`, `in1_input` and `power1_input`.
    ///
    /// Reading them together lets the hwmon layer latch one conversion's
    /// outputs once and serve every subsequent value-hold read without
    /// touching the sensor again; the rounding here is bit-identical to
    /// rounding each floating-point accessor individually.
    pub fn readouts(&self) -> Readouts {
        Readouts {
            curr1_ma: (self.current_amps() * 1_000.0).round() as i64,
            in0_mv: (self.shunt_volts() * 1_000.0).round() as i64,
            in1_mv: (self.bus_volts() * 1_000.0).round() as i64,
            power1_uw: (self.power_watts() * 1e6).round() as i64,
        }
    }

    fn gaussian(&mut self) -> f64 {
        if let Some(z) = self.gauss_cache.take() {
            return z;
        }
        let u1: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = self.rng.gen_range(0.0..1.0);
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.gauss_cache = Some(r * theta.sin());
        r * theta.cos()
    }
}

/// One conversion's measurement registers in integer hwmon units (the exact
/// values the driver prints into `curr1_input` and friends).
///
/// # Examples
///
/// ```
/// use ina226::Ina226;
///
/// let mut sensor = Ina226::new(0.0005, 0.0005, 99);
/// sensor.set_adc_noise(0.0, 0.0);
/// sensor.convert_constant(2.0, 0.85);
/// let r = sensor.readouts();
/// assert!((r.curr1_ma - 2_000).abs() <= 2);
/// assert!((r.in1_mv - 850).abs() <= 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Readouts {
    /// `curr1_input`: current in mA.
    pub curr1_ma: i64,
    /// `in0_input`: shunt voltage in mV.
    pub in0_mv: i64,
    /// `in1_input`: bus voltage in mV.
    pub in1_mv: i64,
    /// `power1_input`: power in µW.
    pub power1_uw: i64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AvgMode;

    fn quiet(shunt_ohm: f64, lsb: f64) -> Ina226 {
        let mut s = Ina226::new(shunt_ohm, lsb, 0);
        s.set_adc_noise(0.0, 0.0);
        s
    }

    #[test]
    fn id_registers() {
        let s = Ina226::new(0.002, 0.0001, 0);
        assert_eq!(s.read_register(Register::ManufacturerId), 0x5449);
        assert_eq!(s.read_register(Register::DieId), 0x2260);
    }

    #[test]
    fn calibration_matches_datasheet_example() {
        // Datasheet section 7.5: lsb = 1 mA, shunt = 2 mΩ -> CAL = 2560.
        assert_eq!(Ina226::calibration_for(0.002, 0.001), Some(2560));
        // Overflow case.
        assert_eq!(Ina226::calibration_for(1e-6, 1e-6), None);
    }

    #[test]
    #[should_panic(expected = "overflows")]
    fn new_rejects_overflowing_calibration() {
        let _ = Ina226::new(1e-6, 1e-6, 0);
    }

    #[test]
    fn noiseless_conversion_recovers_operating_point() {
        let mut s = quiet(0.0005, 0.0005);
        s.convert_constant(2.0, 0.85);
        assert!(
            (s.current_amps() - 2.0).abs() < 0.0011,
            "{}",
            s.current_amps()
        );
        assert!((s.bus_volts() - 0.85).abs() <= BUS_LSB_V / 2.0 + 1e-12);
        assert!((s.power_watts() - 1.7).abs() < 0.02);
        assert_eq!(s.conversions(), 1);
    }

    #[test]
    fn power_register_is_truncated_to_25x_lsb() {
        let mut s = quiet(0.0005, 0.0005);
        // Two currents 10 mA apart: current registers differ by ~20 counts
        // (0.5 mA LSB) while power (12.5 mW LSB here) moves by less than 1
        // count x ratio than current does.
        s.convert_constant(1.000, 0.85);
        let p1 = s.power_watts();
        let c1 = s.current_amps();
        s.convert_constant(1.010, 0.85);
        let p2 = s.power_watts();
        let c2 = s.current_amps();
        assert!((c2 - c1) > 0.009, "current channel resolves the step");
        // Power steps in multiples of the power LSB.
        let steps = (p2 - p1) / s.power_lsb_w();
        assert!((steps - steps.round()).abs() < 1e-9);
    }

    #[test]
    fn write_protection() {
        let mut s = Ina226::new(0.002, 0.001, 0);
        assert_eq!(
            s.write_register(Register::Current, 1),
            Err(Ina226Error::ReadOnlyRegister(Register::Current))
        );
        assert_eq!(
            s.write_register(Register::ManufacturerId, 1),
            Err(Ina226Error::ReadOnlyRegister(Register::ManufacturerId))
        );
        s.write_register(Register::AlertLimit, 0x1234).unwrap();
        assert_eq!(s.read_register(Register::AlertLimit), 0x1234);
    }

    #[test]
    fn config_write_changes_cycle() {
        let mut s = Ina226::new(0.002, 0.001, 0);
        let cfg = Config {
            avg: AvgMode::X16,
            ..Config::default()
        };
        s.write_register(Register::Configuration, cfg.encode())
            .unwrap();
        assert_eq!(s.read_register(Register::Configuration), cfg.encode());
        assert_eq!(s.config().avg, AvgMode::X16);
        assert_eq!(s.config().cycle_micros(), 16 * 2_200);
    }

    #[test]
    fn averaging_reduces_noise() {
        let spread = |avg: AvgMode| {
            let mut s = Ina226::new(0.0005, 0.0005, 42);
            s.set_config(Config {
                avg,
                ..Config::default()
            });
            let mut vals = Vec::new();
            for _ in 0..200 {
                s.convert_constant(2.0, 0.85);
                vals.push(s.current_amps());
            }
            let mean: f64 = vals.iter().sum::<f64>() / vals.len() as f64;
            (vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / vals.len() as f64).sqrt()
        };
        let s1 = spread(AvgMode::X1);
        let s64 = spread(AvgMode::X64);
        assert!(
            s64 < s1 / 2.0,
            "64x averaging must cut noise well below 1x ({s64} vs {s1})"
        );
    }

    #[test]
    fn shunt_adc_clamps_at_full_scale() {
        let mut s = quiet(0.002, 0.001);
        // 81.92 mV full scale / 2 mΩ = 40.96 A; drive far beyond.
        s.convert_constant(100.0, 0.85);
        assert_eq!(s.read_register(Register::ShuntVoltage), i16::MAX as u16);
    }

    #[test]
    fn empty_sample_iterator_leaves_registers() {
        let mut s = quiet(0.002, 0.001);
        s.convert_constant(1.0, 0.85);
        let before = s.current_amps();
        s.convert(std::iter::empty());
        assert_eq!(s.current_amps(), before);
        assert_eq!(s.conversions(), 1);
    }

    #[test]
    fn power_down_mode_freezes_registers() {
        use crate::OperatingMode;
        let mut s = quiet(0.0005, 0.0005);
        s.convert_constant(2.0, 0.85);
        let before = (s.current_amps(), s.bus_volts());
        s.set_config(Config {
            mode: OperatingMode::PowerDown,
            ..Config::default()
        });
        s.convert_constant(5.0, 0.80);
        assert_eq!((s.current_amps(), s.bus_volts()), before);
        assert_eq!(s.conversions(), 1, "power-down must not convert");
    }

    #[test]
    fn shunt_only_mode_holds_bus_register() {
        use crate::OperatingMode;
        let mut s = quiet(0.0005, 0.0005);
        s.convert_constant(1.0, 0.85);
        let bus_before = s.bus_volts();
        s.set_config(Config {
            mode: OperatingMode::ShuntContinuous,
            ..Config::default()
        });
        s.convert_constant(3.0, 0.70);
        assert!(
            (s.current_amps() - 3.0).abs() < 0.01,
            "shunt channel updates"
        );
        assert_eq!(s.bus_volts(), bus_before, "bus register held");
    }

    #[test]
    fn deterministic_under_same_seed() {
        let mut a = Ina226::new(0.0005, 0.0005, 7);
        let mut b = Ina226::new(0.0005, 0.0005, 7);
        for _ in 0..50 {
            a.convert_constant(1.5, 0.85);
            b.convert_constant(1.5, 0.85);
            assert_eq!(a.current_amps(), b.current_amps());
        }
    }

    #[test]
    fn negative_current_reads_negative() {
        let mut s = quiet(0.002, 0.001);
        s.convert_constant(-1.0, 0.85);
        assert!((s.current_amps() + 1.0).abs() < 0.005);
        // The raw register holds the current in two's complement.
        let raw = s.read_register(Register::Current) as i16;
        assert_eq!(raw as f64 * 0.001, s.current_amps());
    }

    sim_rt::prop_check! {
        fn conversion_error_bounded_by_lsb(
            amps in 0.0f64..6.0,
            volts in 0.7f64..1.3
        ) {
            let mut s = quiet(0.0005, 0.0005);
            s.convert_constant(amps, volts);
            // Within 1 current LSB + shunt quantization (0.0025/0.5mΩ = 5 mA).
            assert!((s.current_amps() - amps).abs() < 0.006);
            assert!((s.bus_volts() - volts).abs() <= BUS_LSB_V);
        }

        fn power_consistent_with_current_times_voltage(
            amps in 0.1f64..6.0,
            volts in 0.7f64..1.3
        ) {
            let mut s = quiet(0.0005, 0.0005);
            s.convert_constant(amps, volts);
            let p = s.power_watts();
            let expect = s.current_amps() * s.bus_volts();
            // Truncation means p <= expect, within one power LSB.
            assert!(p <= expect + 1e-9);
            assert!(expect - p <= s.power_lsb_w() + 1e-9);
        }
    }
}

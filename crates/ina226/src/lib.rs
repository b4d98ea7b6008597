//! Register-level behavioural model of the TI INA226 current/voltage/power
//! monitor.
//!
//! The INA226 is the sensor AmpereBleed exploits: ARM-FPGA SoC evaluation
//! boards integrate 14-22 of them on their power rails (Table I of the
//! paper), and Linux exposes them through unprivileged hwmon sysfs nodes.
//!
//! The model reproduces the datasheet behaviours the attack depends on:
//!
//! * **Shunt ADC** — 2.5 µV LSB over ±81.92 mV, so a milliohm-scale shunt
//!   resolves milliamp-scale load changes.
//! * **Bus ADC** — fixed 1.25 mV LSB. A stabilized FPGA rail moves only a
//!   couple of LSBs across the entire workload range, which is why the
//!   *voltage* channel is nearly information-free (Figure 2).
//! * **Calibration arithmetic** — `CAL = 0.00512 / (current_lsb * R_shunt)`;
//!   the current register is `shunt_reg * CAL / 2048` and the power
//!   register is `current_reg * bus_reg / 20000` with a **power LSB fixed
//!   at 25x the current LSB**. That x25 truncation is exactly why the
//!   power channel distinguishes only ~5 of the 17 RSA Hamming-weight
//!   groups while the current channel separates all 17 (Figure 4).
//! * **Conversion timing** — per-channel conversion times of 140 µs to
//!   8.244 ms and 1-1024x averaging, giving the 2-35 ms hwmon update
//!   interval range quoted in Section III-C.
//!
//! # Examples
//!
//! ```
//! use ina226::{Config, Ina226};
//!
//! // FPGA rail: 0.5 mΩ shunt, 0.5 mA current LSB.
//! let mut sensor = Ina226::new(0.0005, 0.0005, 99);
//! sensor.set_config(Config::default());
//! // One conversion cycle over a constant 2 A / 0.85 V operating point:
//! sensor.convert_constant(2.0, 0.85);
//! assert!((sensor.current_amps() - 2.0).abs() < 0.01);
//! assert!((sensor.bus_volts() - 0.85).abs() < 0.00125);
//! assert!((sensor.power_watts() - 1.7).abs() < 0.05);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alert;
mod device;
mod error;
mod registers;

pub use device::{Ina226, Readouts};
pub use error::Ina226Error;
pub use registers::{AvgMode, Config, ConversionTime, OperatingMode, Register};

/// Convenience alias for results returned by this crate.
pub type Result<T> = std::result::Result<T, Ina226Error>;

/// Shunt-voltage ADC LSB in volts (datasheet: 2.5 µV).
pub const SHUNT_LSB_V: f64 = 2.5e-6;

/// Bus-voltage ADC LSB in volts (datasheet: 1.25 mV).
pub const BUS_LSB_V: f64 = 1.25e-3;

/// Ratio of the power-register LSB to the current-register LSB
/// (datasheet: power LSB = 25 x current LSB).
pub const POWER_LSB_RATIO: f64 = 25.0;

/// Manufacturer ID register value ("TI").
pub const MANUFACTURER_ID: u16 = 0x5449;

/// Die ID register value.
pub const DIE_ID: u16 = 0x2260;

//! Correctness pins for the zero-allocation sampling fast path.
//!
//! The latched-conversion memoization, the typed hwmon read path and the
//! batched three-channel capture are all pure performance work: none of
//! them may move a single bit of any trace. These tests pin that contract three ways:
//!
//! * **Golden bits** — traces captured before the fast path existed,
//!   hard-coded as raw `f64` bit patterns. The rewritten stack must
//!   reproduce them exactly.
//! * **Typed vs. string equality** — randomized captures through the
//!   typed handle path must match a hand-rolled loop over the legacy
//!   string API byte for byte (on identically seeded platforms — reads
//!   advance sensor RNG, so each side gets its own platform).
//! * **Thread-count determinism** — captures fanned out through the
//!   runtime pool are byte-identical at 1, 2 and 8 workers.

use amperebleed::{Channel, CurrentSampler, Platform};
use fpga_fabric::virus::VirusConfig;
use hwmon_sim::Privilege;
use sim_rt::Pool;
use zynq_soc::{PowerDomain, SimTime};

/// The Figure 2 capture scene every golden below uses: ZCU102 seed 42,
/// default virus with 80 of 160 groups active.
fn virus_platform(seed: u64, groups: u32) -> Platform {
    let mut p = Platform::zcu102(seed);
    let virus = p.deploy_virus(VirusConfig::default()).unwrap();
    virus.activate_groups(groups).unwrap();
    p
}

const START: SimTime = SimTime::from_nanos(40_000_000);
const RATE_35MS: f64 = 1.0 / 0.035;

/// `capture` output as raw bits.
fn capture_bits(p: &Platform, channel: Channel, rate_hz: f64, count: usize) -> Vec<u64> {
    CurrentSampler::unprivileged(p)
        .capture(PowerDomain::FpgaLogic, channel, START, rate_hz, count)
        .unwrap()
        .samples
        .iter()
        .map(|v| v.to_bits())
        .collect()
}

// Recorded from the pre-fast-path stack (string reads, one conversion
// per attribute access, no caches), zcu102(42) + virus at 80 groups,
// FpgaLogic, start 40 ms.
const GOLDEN_CURRENT_35MS_8: [u64; 8] = [
    0x40afea0000000000,
    0x40aff40000000000,
    0x40aff40000000000,
    0x40afea0000000000,
    0x40afea0000000000,
    0x40afea0000000000,
    0x40aff40000000000,
    0x40afea0000000000,
];
const GOLDEN_VOLTAGE_35MS_8: [u64; 8] = [
    0x408ad00000000000,
    0x408ad00000000000,
    0x408ad00000000000,
    0x408ad80000000000,
    0x408ad80000000000,
    0x408ad00000000000,
    0x408ad00000000000,
    0x408ad00000000000,
];
const GOLDEN_POWER_35MS_8: [u64; 8] = [0x414ab3f000000000; 8];
const GOLDEN_CURRENT_1KHZ_16: [u64; 16] = [0x40afea0000000000; 16];
/// zcu102(7), no victim deployed, DDR rail.
const GOLDEN_DDR_QUIET_8: [u64; 8] = [0x4061800000000000; 8];

#[test]
fn golden_current_trace_is_bit_exact() {
    let p = virus_platform(42, 80);
    assert_eq!(
        capture_bits(&p, Channel::Current, RATE_35MS, 8),
        GOLDEN_CURRENT_35MS_8
    );
}

#[test]
fn golden_voltage_trace_is_bit_exact() {
    let p = virus_platform(42, 80);
    assert_eq!(
        capture_bits(&p, Channel::Voltage, RATE_35MS, 8),
        GOLDEN_VOLTAGE_35MS_8
    );
}

#[test]
fn golden_power_trace_is_bit_exact() {
    let p = virus_platform(42, 80);
    assert_eq!(
        capture_bits(&p, Channel::Power, RATE_35MS, 8),
        GOLDEN_POWER_35MS_8
    );
}

#[test]
fn golden_value_hold_trace_is_bit_exact() {
    let p = virus_platform(42, 80);
    assert_eq!(
        capture_bits(&p, Channel::Current, 1_000.0, 16),
        GOLDEN_CURRENT_1KHZ_16
    );
}

#[test]
fn golden_quiet_ddr_trace_is_bit_exact() {
    let p = Platform::zcu102(7);
    let bits: Vec<u64> = CurrentSampler::unprivileged(&p)
        .capture(PowerDomain::Ddr, Channel::Current, START, RATE_35MS, 8)
        .unwrap()
        .samples
        .iter()
        .map(|v| v.to_bits())
        .collect();
    assert_eq!(bits, GOLDEN_DDR_QUIET_8);
}

#[test]
fn legacy_string_api_still_matches_goldens() {
    // The string API is now a wrapper over the typed path; prove the
    // wrapper itself did not move.
    let p = virus_platform(42, 80);
    let path = p.sensor_path(PowerDomain::FpgaLogic, "curr1_input");
    let period = SimTime::from_secs_f64(0.035);
    for (k, &expected) in GOLDEN_CURRENT_35MS_8.iter().enumerate() {
        let t = START + SimTime::from_nanos(period.as_nanos() * k as u64);
        let v: f64 = p
            .hwmon()
            .read(path, t, Privilege::User)
            .unwrap()
            .trim()
            .parse()
            .unwrap();
        assert_eq!(v.to_bits(), expected, "sample {k}");
    }
}

#[test]
fn batched_all_channels_matches_standalone_goldens() {
    // One conversion per boundary serves all three channels; since a
    // standalone capture converts the same boundaries in the same order,
    // every channel of the batched capture reproduces the standalone
    // goldens exactly.
    let p = virus_platform(42, 80);
    let [c, v, w] = CurrentSampler::unprivileged(&p)
        .capture_all_channels(PowerDomain::FpgaLogic, START, RATE_35MS, 8)
        .unwrap();
    let bits = |t: &amperebleed::Trace| t.samples.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&c), GOLDEN_CURRENT_35MS_8);
    assert_eq!(bits(&v), GOLDEN_VOLTAGE_35MS_8);
    assert_eq!(bits(&w), GOLDEN_POWER_35MS_8);
}

#[test]
fn value_hold_reads_take_the_lock_free_fast_path() {
    let before = obs::counter!("sampler.reads.held_fastpath").get();
    let p = virus_platform(42, 80);
    // 16 samples at 1 kHz inside one 35 ms window: 1 conversion, >= 15
    // held reads served from the latched integers.
    let _ = capture_bits(&p, Channel::Current, 1_000.0, 16);
    let after = obs::counter!("sampler.reads.held_fastpath").get();
    assert!(
        after - before >= 15,
        "held fast path not taken: {before} -> {after}"
    );
}

sim_rt::prop_check! {
    /// The typed handle path must equal a hand-rolled legacy string-API
    /// loop byte for byte, for any rate, count, update interval and
    /// channel.
    fn typed_capture_matches_string_capture(
        rate_hz in 1.0f64..20_000.0,
        count in 1usize..30,
        interval_ms in 2u64..36,
        channel_idx in 0usize..3,
    ) {
        let channel = Channel::ALL[channel_idx];
        let a = virus_platform(42, 80);
        let b = virus_platform(42, 80);
        for p in [&a, &b] {
            p.hwmon()
                .write(
                    p.sensor_path(PowerDomain::FpgaLogic, "update_interval"),
                    &interval_ms.to_string(),
                    Privilege::Root,
                )
                .unwrap();
        }
        let trace = CurrentSampler::unprivileged(&a)
            .capture(PowerDomain::FpgaLogic, channel, START, rate_hz, count)
            .unwrap();
        let path = b.sensor_path(PowerDomain::FpgaLogic, channel.attribute());
        for (k, sample) in trace.samples.iter().enumerate() {
            let t = START + SimTime::from_nanos(trace.period.as_nanos() * k as u64);
            let v: f64 = b
                .hwmon()
                .read(path, t, Privilege::User)
                .unwrap()
                .trim()
                .parse()
                .unwrap();
            assert_eq!(sample.to_bits(), v.to_bits(), "sample {k} of {channel}");
        }
    }

    /// A control change shows in ground truth without any invalidation
    /// call: after reads and a control change, ground truth equals that of
    /// an identically seeded platform that only saw the final state.
    fn control_change_shows_in_ground_truth_without_invalidation(
        ns in 1_000_000u64..1_000_000_000u64,
        g1 in 0u32..161,
        g2 in 0u32..161,
        domain_idx in 0usize..4,
    ) {
        let t = SimTime::from_nanos(ns);
        let domain = PowerDomain::ALL[domain_idx];

        let a = virus_platform(42, g1);
        // Read at g1, then change control state.
        let warm = a.ground_truth_volts(domain, t);
        assert_eq!(warm.to_bits(), a.ground_truth_volts(domain, t).to_bits());
        a.virus().unwrap().activate_groups(g2).unwrap();
        let after_change = a.ground_truth_volts(domain, t);

        // Fresh platform that only ever saw the final control state.
        let b = virus_platform(42, g1);
        b.virus().unwrap().activate_groups(g2).unwrap();
        assert_eq!(after_change.to_bits(), b.ground_truth_volts(domain, t).to_bits());
        assert_eq!(
            a.ground_truth_ma(domain, t).to_bits(),
            b.ground_truth_ma(domain, t).to_bits()
        );
    }
}

/// Eight independent capture jobs (mixed domains and rates), fanned out
/// through a pool: per-job platforms are derived from the job seed, so
/// the result must not depend on the worker count.
fn pooled_capture_bits(pool: &Pool) -> Vec<Vec<u64>> {
    let jobs: Vec<usize> = (0..8).collect();
    pool.par_map_seeded(1234, &jobs, |seed, i, _| {
        let p = virus_platform(seed, (i as u32 * 20) % 161);
        let domain = PowerDomain::ALL[i % 4];
        let rate = if i % 2 == 0 { RATE_35MS } else { 1_000.0 };
        CurrentSampler::unprivileged(&p)
            .capture(domain, Channel::Current, START, rate, 24)
            .unwrap()
            .samples
            .iter()
            .map(|v| v.to_bits())
            .collect()
    })
}

#[test]
fn pooled_captures_are_byte_identical_at_1_2_and_8_threads() {
    let serial = pooled_capture_bits(&Pool::serial());
    assert_eq!(serial, pooled_capture_bits(&Pool::new(2)));
    assert_eq!(serial, pooled_capture_bits(&Pool::new(8)));
}

//! Fabric-to-software covert channel over the current sensors.
//!
//! A colluding circuit in the FPGA ([`fpga_fabric::covert`]) modulates its
//! switching activity with on-off keying; an unprivileged process on the
//! ARM cores demodulates the payload from the hwmon FPGA-current node.
//! The channel crosses the FPGA/CPU isolation boundary with no shared
//! memory, no crafted receiver circuit, and no privileges — the flip side
//! of the eavesdropping attacks, and further motivation for the Section V
//! mitigation (which kills this channel too).

use fpga_fabric::covert::{CovertConfig, PREAMBLE};
use zynq_soc::{PowerDomain, SimTime};

use crate::defend::Hardener;
use crate::{AttackError, Channel, CurrentSampler, Platform, Result};

/// Result of one covert reception attempt.
#[derive(Debug, Clone, PartialEq)]
pub struct Reception {
    /// Decoded payload bytes.
    pub payload: Vec<u8>,
    /// Sample offset at which the preamble was locked.
    pub sync_offset: usize,
    /// Fraction of preamble bit-cells that matched at the lock position
    /// (1.0 = perfect sync).
    pub sync_quality: f64,
    /// Effective payload bandwidth in bits per second (excludes preamble
    /// overhead).
    pub payload_bandwidth_bps: f64,
}

/// Receives `payload_len` bytes from a deployed covert transmitter.
///
/// The receiver knows the channel parameters (bit period, payload length —
/// agreed out of band) but not the phase: it locks onto the preamble by
/// correlation, then majority-votes each bit cell.
///
/// # Errors
///
/// * [`AttackError::NotDeployed`] if no transmitter is deployed (the
///   receiver would only decode noise).
/// * [`AttackError::InvalidParameter`] for a zero payload length.
/// * [`AttackError::Hwmon`] if sampling fails (e.g. under the mitigation).
pub fn receive(
    platform: &Platform,
    config: &CovertConfig,
    payload_len: usize,
    start: SimTime,
) -> Result<Reception> {
    if payload_len == 0 {
        return Err(AttackError::InvalidParameter(
            "payload length must be non-zero".into(),
        ));
    }
    if platform.covert_transmitter().is_none() {
        return Err(AttackError::NotDeployed("covert transmitter"));
    }

    let frame_bits = PREAMBLE.len() + payload_len * 8;
    // Oversample each bit cell ~7x (the sensor updates at 35 ms; extra
    // samples see held values but make slot voting robust to phase).
    let sample_period = SimTime::from_nanos(config.bit_period.as_nanos() / 7);
    let rate_hz = 1.0 / sample_period.as_secs_f64();
    let samples_per_bit = 7usize;
    let frame_samples = frame_bits * samples_per_bit;
    // Two frames guarantee one complete frame at any phase.
    let count = frame_samples * 2 + samples_per_bit;

    let sampler = CurrentSampler::unprivileged(platform);
    let trace = sampler.capture(
        PowerDomain::FpgaLogic,
        Channel::Current,
        start,
        rate_hz,
        count,
    )?;

    // Threshold at the amplitude midpoint.
    let min = trace.samples.iter().copied().fold(f64::INFINITY, f64::min);
    let max = trace
        .samples
        .iter()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max);
    let threshold = (min + max) / 2.0;
    let bits: Vec<bool> = trace.samples.iter().map(|&s| s > threshold).collect();

    // Majority vote of the slot starting at sample `pos`.
    let slot_vote = |pos: usize| -> bool {
        let ones = bits[pos..pos + samples_per_bit]
            .iter()
            .filter(|&&b| b)
            .count();
        ones * 2 > samples_per_bit
    };

    // Preamble lock: best correlation over one frame of candidate offsets.
    let mut best_offset = 0usize;
    let mut best_score = -1i64;
    for offset in 0..frame_samples {
        let mut score = 0i64;
        for (i, &expect) in PREAMBLE.iter().enumerate() {
            let pos = offset + i * samples_per_bit;
            if slot_vote(pos) == expect {
                score += 1;
            }
        }
        if score > best_score {
            best_score = score;
            best_offset = offset;
        }
    }
    let sync_quality = best_score as f64 / PREAMBLE.len() as f64;

    // Decode the payload bit cells following the preamble.
    let mut payload = vec![0u8; payload_len];
    for (byte_idx, byte) in payload.iter_mut().enumerate() {
        for bit in 0..8 {
            let cell = PREAMBLE.len() + byte_idx * 8 + bit;
            let pos = best_offset + cell * samples_per_bit;
            if slot_vote(pos) {
                *byte |= 1 << (7 - bit);
            }
        }
    }

    let frame_time = config.bit_period.as_secs_f64() * frame_bits as f64;
    Ok(Reception {
        payload,
        sync_offset: best_offset,
        sync_quality,
        payload_bandwidth_bps: (payload_len * 8) as f64 / frame_time,
    })
}

/// Full covert-channel round trip on a fresh platform derived from
/// `seed`: deploys a transmitter carrying `payload`, receives it back
/// through the hwmon current node, and reports the reception plus its bit
/// error rate. A pure function of `(config, payload, seed, harden)` — the
/// entry point the serving layer routes `covert` requests to, with every
/// parameter injected per request. `harden` runs after the transmitter
/// deploys and before reception, so the receiver reads the sensing path
/// with the countermeasure in place;
/// [`UNDEFENDED`](crate::defend::UNDEFENDED) runs the plain channel.
///
/// # Errors
///
/// [`AttackError::InvalidParameter`] for an empty payload; otherwise the
/// deployment and [`receive`] failure modes, plus whatever `harden`
/// returns.
pub fn round_trip(
    config: &CovertConfig,
    payload: &[u8],
    seed: u64,
    harden: Hardener<'_>,
) -> Result<(Reception, f64)> {
    if payload.is_empty() {
        return Err(AttackError::InvalidParameter(
            "payload must be non-empty".into(),
        ));
    }
    let mut platform = Platform::zcu102(seed);
    platform.deploy_covert_transmitter(*config, payload)?;
    harden(&mut platform)?;
    let rx = receive(&platform, config, payload.len(), SimTime::from_ms(40))?;
    let ber = bit_error_rate(payload, &rx.payload);
    Ok((rx, ber))
}

/// Bit error rate between a sent and received byte string (compared up to
/// the shorter length; length mismatch counts the missing bytes as fully
/// erroneous).
pub fn bit_error_rate(sent: &[u8], received: &[u8]) -> f64 {
    if sent.is_empty() && received.is_empty() {
        return 0.0;
    }
    let common = sent.len().min(received.len());
    let mut errors: u32 = sent[..common]
        .iter()
        .zip(&received[..common])
        .map(|(a, b)| (a ^ b).count_ones())
        .sum();
    errors += 8 * (sent.len().abs_diff(received.len())) as u32;
    errors as f64 / (8 * sent.len().max(received.len())) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn platform_with_tx(payload: &[u8], config: CovertConfig) -> Platform {
        let mut p = Platform::zcu102(77);
        p.deploy_covert_transmitter(config, payload).unwrap();
        p
    }

    #[test]
    fn round_trip_ascii_payload() {
        let payload = b"AmpereBleed";
        let config = CovertConfig::default();
        let p = platform_with_tx(payload, config);
        let rx = receive(&p, &config, payload.len(), SimTime::from_ms(40)).unwrap();
        assert_eq!(
            rx.payload,
            payload,
            "decoded {:?}",
            String::from_utf8_lossy(&rx.payload)
        );
        assert!(rx.sync_quality >= 0.99);
        assert_eq!(bit_error_rate(payload, &rx.payload), 0.0);
        assert!(rx.payload_bandwidth_bps > 5.0);
    }

    #[test]
    fn reception_requires_transmitter() {
        let p = Platform::zcu102(78);
        assert!(matches!(
            receive(&p, &CovertConfig::default(), 4, SimTime::ZERO),
            Err(AttackError::NotDeployed(_))
        ));
    }

    #[test]
    fn zero_payload_rejected() {
        let config = CovertConfig::default();
        let p = platform_with_tx(b"x", config);
        assert!(matches!(
            receive(&p, &config, 0, SimTime::ZERO),
            Err(AttackError::InvalidParameter(_))
        ));
    }

    #[test]
    fn weak_signal_degrades_ber() {
        // A 3 mA swing is at the noise floor: expect bit errors.
        let payload = b"secret-key-bits!";
        let weak = CovertConfig {
            on_ma: 3.0,
            ..CovertConfig::default()
        };
        let p = platform_with_tx(payload, weak);
        let rx = receive(&p, &weak, payload.len(), SimTime::from_ms(40)).unwrap();
        let ber = bit_error_rate(payload, &rx.payload);
        assert!(
            ber > 0.02,
            "a 3 mA swing should not decode cleanly (ber {ber})"
        );
    }

    #[test]
    fn ber_helper() {
        assert_eq!(bit_error_rate(&[], &[]), 0.0);
        assert_eq!(bit_error_rate(&[0xFF], &[0xFF]), 0.0);
        assert_eq!(bit_error_rate(&[0xFF], &[0x00]), 1.0);
        assert_eq!(bit_error_rate(&[0xF0], &[0x00]), 0.5);
        // Length mismatch counts missing bytes as errors.
        assert_eq!(bit_error_rate(&[0xFF, 0xFF], &[0xFF]), 0.5);
    }

    #[test]
    fn arbitrary_phase_still_syncs() {
        let payload = b"phase";
        let config = CovertConfig::default();
        let p = platform_with_tx(payload, config);
        // Start mid-frame at an awkward offset.
        let rx = receive(&p, &config, payload.len(), SimTime::from_ms(1_234)).unwrap();
        assert_eq!(rx.payload, payload);
    }
}

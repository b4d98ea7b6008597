//! FPGA trusted-execution-environment (TEE) victim circuit.
//!
//! The paper's future work asks whether on-chip current sensors can attack
//! TEEs implemented on FPGAs (e.g. SGX-FPGA, DAC'21): an enclave's
//! bitstream is attested and its memory interface is isolated, but its
//! *power draw* still flows through the board's monitored rails. This
//! module models such an enclave running a small set of confidential
//! workload types; the `amperebleed::tee` attack shows an unprivileged
//! observer can classify which task the enclave is executing.

use std::sync::atomic::{AtomicU8, Ordering};

use zynq_soc::{hash01, PowerDomain, PowerLoad, SimTime};

use crate::resources::{Bitstream, Utilization};

/// Confidential workload types an enclave might run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EnclaveTask {
    /// Waiting for requests.
    Idle,
    /// Bulk authenticated encryption (AES-GCM pipeline).
    AesGcm,
    /// Hashing (SHA-3 sponge).
    Sha3,
    /// Private matrix multiplication (e.g. confidential ML layer).
    MatMul,
    /// Digital signatures (ECDSA scalar multiplication).
    Signature,
}

impl EnclaveTask {
    /// All task types.
    pub const ALL: [EnclaveTask; 5] = [
        EnclaveTask::Idle,
        EnclaveTask::AesGcm,
        EnclaveTask::Sha3,
        EnclaveTask::MatMul,
        EnclaveTask::Signature,
    ];

    fn encode(self) -> u8 {
        Self::ALL.iter().position(|&t| t == self).expect("in ALL") as u8
    }

    fn decode(v: u8) -> EnclaveTask {
        Self::ALL[(v as usize).min(Self::ALL.len() - 1)]
    }

    /// Mean fabric current of the task's datapath, mA.
    fn fpga_ma(self) -> f64 {
        match self {
            EnclaveTask::Idle => 60.0,
            EnclaveTask::AesGcm => 210.0,
            EnclaveTask::Sha3 => 180.0,
            EnclaveTask::MatMul => 520.0,
            EnclaveTask::Signature => 320.0,
        }
    }

    /// DDR current of the task's (isolated) memory traffic, mA.
    fn ddr_ma(self) -> f64 {
        match self {
            EnclaveTask::Idle => 0.0,
            EnclaveTask::AesGcm => 45.0,
            EnclaveTask::Sha3 => 12.0,
            EnclaveTask::MatMul => 120.0,
            EnclaveTask::Signature => 8.0,
        }
    }

    /// Burst period of the task's compute pattern, microseconds.
    fn burst_period_us(self) -> u64 {
        match self {
            EnclaveTask::Idle => 50_000,
            EnclaveTask::AesGcm => 2_000,
            EnclaveTask::Sha3 => 5_000,
            EnclaveTask::MatMul => 20_000,
            EnclaveTask::Signature => 12_000,
        }
    }

    /// Relative burst modulation depth.
    fn burst_depth(self) -> f64 {
        match self {
            EnclaveTask::Idle => 0.02,
            EnclaveTask::AesGcm => 0.10,
            EnclaveTask::Sha3 => 0.18,
            EnclaveTask::MatMul => 0.35,
            EnclaveTask::Signature => 0.25,
        }
    }
}

impl std::fmt::Display for EnclaveTask {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            EnclaveTask::Idle => "idle",
            EnclaveTask::AesGcm => "aes-gcm",
            EnclaveTask::Sha3 => "sha3",
            EnclaveTask::MatMul => "matmul",
            EnclaveTask::Signature => "signature",
        };
        f.write_str(s)
    }
}

/// The enclave circuit: attested, logically isolated, electrically loud.
///
/// # Examples
///
/// ```
/// use fpga_fabric::enclave::{EnclaveCircuit, EnclaveTask};
/// use zynq_soc::{PowerDomain, PowerLoad, SimTime};
///
/// let enclave = EnclaveCircuit::new(5);
/// enclave.run(EnclaveTask::MatMul);
/// let busy = enclave.current_ma(SimTime::from_ms(2), PowerDomain::FpgaLogic);
/// enclave.run(EnclaveTask::Idle);
/// let idle = enclave.current_ma(SimTime::from_ms(2), PowerDomain::FpgaLogic);
/// assert!(busy > idle);
/// ```
#[derive(Debug)]
pub struct EnclaveCircuit {
    task: AtomicU8,
    seed: u64,
}

impl EnclaveCircuit {
    /// Instantiates the enclave, initially idle.
    pub fn new(seed: u64) -> Self {
        EnclaveCircuit {
            task: AtomicU8::new(EnclaveTask::Idle.encode()),
            seed,
        }
    }

    /// Switches the enclave to a task (the enclave owner's request API —
    /// invisible to the attacker).
    pub fn run(&self, task: EnclaveTask) {
        self.task.store(task.encode(), Ordering::Release);
    }

    /// The task currently executing.
    pub fn current_task(&self) -> EnclaveTask {
        EnclaveTask::decode(self.task.load(Ordering::Acquire))
    }

    /// Resource utilization of the enclave region.
    pub fn bitstream(&self) -> Bitstream {
        Bitstream::new(
            "fpga-enclave",
            Utilization {
                luts: 45_000,
                ffs: 60_000,
                dsps: 220,
                bram_kb: 2_048,
            },
        )
        .encrypted()
    }
}

impl PowerLoad for EnclaveCircuit {
    fn current_ma(&self, t: SimTime, domain: PowerDomain) -> f64 {
        let task = self.current_task();
        let burst_bucket = t.as_micros() / task.burst_period_us();
        // Square-ish burst pattern: alternating heavy/light phases with a
        // touch of hash noise, characteristic per task.
        let phase_on = burst_bucket.is_multiple_of(2);
        let noise = (hash01(self.seed, 5, burst_bucket) - 0.5) * 0.04;
        let modulation = if phase_on {
            1.0 + task.burst_depth()
        } else {
            1.0 - task.burst_depth()
        } + noise;
        match domain {
            PowerDomain::FpgaLogic => task.fpga_ma() * modulation,
            PowerDomain::Ddr => task.ddr_ma() * modulation.max(0.0),
            _ => 0.0,
        }
    }

    fn label(&self) -> &str {
        "fpga-enclave"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_switching() {
        let e = EnclaveCircuit::new(1);
        assert_eq!(e.current_task(), EnclaveTask::Idle);
        e.run(EnclaveTask::Sha3);
        assert_eq!(e.current_task(), EnclaveTask::Sha3);
    }

    #[test]
    fn tasks_have_distinct_mean_currents() {
        let e = EnclaveCircuit::new(2);
        let mut means = Vec::new();
        for task in EnclaveTask::ALL {
            e.run(task);
            let mean: f64 = (0..500)
                .map(|k| e.current_ma(SimTime::from_us(k * 777), PowerDomain::FpgaLogic))
                .sum::<f64>()
                / 500.0;
            means.push(mean);
        }
        for i in 0..means.len() {
            for j in i + 1..means.len() {
                assert!(
                    (means[i] - means[j]).abs() > 10.0,
                    "{:?} and {:?} overlap",
                    EnclaveTask::ALL[i],
                    EnclaveTask::ALL[j]
                );
            }
        }
    }

    #[test]
    fn burst_texture_differs_by_task() {
        let e = EnclaveCircuit::new(3);
        e.run(EnclaveTask::AesGcm);
        let a1 = e.current_ma(SimTime::from_us(1_000), PowerDomain::FpgaLogic);
        let a2 = e.current_ma(SimTime::from_us(3_000), PowerDomain::FpgaLogic);
        assert_ne!(a1, a2, "2 ms bursts alternate within 4 ms");
        e.run(EnclaveTask::MatMul);
        let m1 = e.current_ma(SimTime::from_us(1_000), PowerDomain::FpgaLogic);
        let m2 = e.current_ma(SimTime::from_us(3_000), PowerDomain::FpgaLogic);
        assert_eq!(
            (m1 > 0.0),
            (m2 > 0.0),
            "20 ms bursts are stable within 4 ms"
        );
    }

    #[test]
    fn idle_enclave_is_quiet_on_ddr() {
        let e = EnclaveCircuit::new(4);
        assert_eq!(e.current_ma(SimTime::ZERO, PowerDomain::Ddr), 0.0);
        assert_eq!(e.current_ma(SimTime::ZERO, PowerDomain::FullPowerCpu), 0.0);
    }

    #[test]
    fn bitstream_is_attested_encrypted() {
        assert!(EnclaveCircuit::new(0).bitstream().encrypted);
    }

    #[test]
    fn task_display_names() {
        assert_eq!(EnclaveTask::AesGcm.to_string(), "aes-gcm");
        assert_eq!(EnclaveTask::MatMul.to_string(), "matmul");
    }
}

use std::sync::RwLock;

use dnn_models::ModelArch;
use zynq_soc::{hash01, PowerDomain, PowerLoad, SimTime};

use crate::DpuSchedule;

/// Electrical and performance parameters of the deployed DPU core.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DpuConfig {
    /// Peak MAC throughput in GMAC/s (B4096 core at 300 MHz: ~614 GMACs
    /// for 8-bit operands, counting one MAC as one operation).
    pub peak_gmacs: f64,
    /// Effective DRAM bandwidth available to the DPU, GB/s.
    pub dram_bandwidth_gbps: f64,
    /// Fixed per-layer scheduling overhead, seconds.
    pub layer_overhead_s: f64,
    /// Fabric current of the idle (clocked) DPU core, mA.
    pub fpga_idle_ma: f64,
    /// Additional fabric current of the MAC array at full utilization and
    /// full switching intensity, mA.
    pub fpga_active_ma: f64,
    /// DDR rail current per GB/s of traffic, mA.
    pub ddr_ma_per_gbps: f64,
    /// Full-power CPU current of the runtime's pre/post-processing, mA.
    pub cpu_pre_post_ma: f64,
    /// CPU pre/post-processing time per inference.
    pub pre_post_time: SimTime,
    /// Low-power domain coupling: extra mA at full DPU utilization
    /// (interconnect/OCM traffic). Small — this is why the LP-CPU channel
    /// fingerprints worse than the others in Table III.
    pub lp_coupling_ma: f64,
    /// Relative per-inference duration jitter (input-dependent work).
    pub inference_jitter: f64,
}

impl Default for DpuConfig {
    fn default() -> Self {
        DpuConfig {
            peak_gmacs: 614.0,
            dram_bandwidth_gbps: 9.6,
            layer_overhead_s: 12e-6,
            fpga_idle_ma: 380.0,
            fpga_active_ma: 2_300.0,
            ddr_ma_per_gbps: 55.0,
            cpu_pre_post_ma: 320.0,
            pre_post_time: SimTime::from_ms(6),
            lp_coupling_ma: 6.5,
            inference_jitter: 0.02,
        }
    }
}

/// The deployed DPU core, running inference request loops.
///
/// The accelerator executes whatever model the victim loaded, one inference
/// after another (the paper triggers each victim model "in series for 5
/// seconds"). Loading a model swaps the schedule atomically; the electrical
/// query path only takes a read lock.
///
/// # Examples
///
/// ```
/// use dnn_models::zoo;
/// use dpu::{DpuAccelerator, DpuConfig};
/// use zynq_soc::{PowerDomain, PowerLoad, SimTime};
///
/// let dpu = DpuAccelerator::new(DpuConfig::default(), 7);
/// let models = zoo();
/// dpu.load_model(&models[0]);
/// assert_eq!(dpu.loaded_model().as_deref(), Some(models[0].name.as_str()));
/// let busy = dpu.current_ma(SimTime::from_ms(3), PowerDomain::FpgaLogic);
/// dpu.unload();
/// let idle = dpu.current_ma(SimTime::from_ms(3), PowerDomain::FpgaLogic);
/// assert!(busy >= idle);
/// ```
#[derive(Debug)]
pub struct DpuAccelerator {
    config: DpuConfig,
    /// Loaded schedule plus the simulation time at which it was loaded
    /// (inference loops are phase-aligned to the load instant).
    state: RwLock<Option<LoadedModel>>,
    seed: u64,
}

#[derive(Debug)]
struct LoadedModel {
    schedule: DpuSchedule,
    loaded_at: SimTime,
    /// Per-model CPU pre/post-processing time: image decode + resize cost
    /// scales with the model's input resolution.
    pre_post: SimTime,
}

impl DpuAccelerator {
    /// Instantiates the accelerator; `seed` fixes activity jitter.
    pub fn new(config: DpuConfig, seed: u64) -> Self {
        DpuAccelerator {
            config,
            state: RwLock::new(None),
            seed,
        }
    }

    /// The accelerator configuration.
    pub fn config(&self) -> &DpuConfig {
        &self.config
    }

    /// Loads a model and starts its inference loop at simulation time zero.
    pub fn load_model(&self, model: &ModelArch) {
        self.load_model_at(model, SimTime::ZERO);
    }

    /// Loads a model whose inference loop starts at `at`.
    pub fn load_model_at(&self, model: &ModelArch, at: SimTime) {
        obs::counter!("dpu.model_loads").inc();
        obs::debug!(
            "dpu.accelerator",
            sim = at.as_nanos(),
            "model loaded";
            "model" => model.name.as_str()
        );
        let schedule = DpuSchedule::lower(model, &self.config);
        // Resize/normalize cost grows with the model's input resolution
        // (ILSVRC images are rescaled per-model, Section IV-B).
        let scale = (model.input as f64 / 224.0).powi(2);
        let pre_post = SimTime::from_secs_f64(self.config.pre_post_time.as_secs_f64() * scale);
        *self.state.write().expect("dpu state lock poisoned") = Some(LoadedModel {
            schedule,
            loaded_at: at,
            pre_post,
        });
    }

    /// Stops inference and unloads the model.
    pub fn unload(&self) {
        *self.state.write().expect("dpu state lock poisoned") = None;
    }

    /// Name of the loaded model, if any.
    pub fn loaded_model(&self) -> Option<String> {
        self.state
            .read()
            .expect("dpu state lock poisoned")
            .as_ref()
            .map(|m| m.schedule.model_name.clone())
    }

    /// One inference period: CPU pre/post phase followed by the
    /// accelerator timeline.
    fn period(&self, m: &LoadedModel) -> SimTime {
        m.pre_post + m.schedule.inference_time()
    }

    /// Electrical activity at `t`, described as
    /// `(utilization, switching, dram_gbps, in_pre_post)`.
    fn activity_at(&self, t: SimTime, m: &LoadedModel) -> (f64, f64, f64, bool) {
        if t < m.loaded_at {
            return (0.0, 0.0, 0.0, false);
        }
        let period = self.period(m).as_nanos();
        if period == 0 {
            return (0.0, 0.0, 0.0, false);
        }
        let since = (t - m.loaded_at).as_nanos();
        let inference_idx = since / period;
        let offset = since % period;
        // Input-dependent jitter: each inference is a little faster/slower;
        // model it as a phase wobble of the layer lookup.
        let jitter =
            (hash01(self.seed, 2, inference_idx) - 0.5) * 2.0 * self.config.inference_jitter;
        let pre_post_ns = m.pre_post.as_nanos();
        if offset < pre_post_ns {
            return (0.0, 0.0, 0.2, true); // light memory traffic during resize
        }
        let into_layers = ((offset - pre_post_ns) as f64 * (1.0 + jitter)) as u64;
        match m.schedule.layer_at(SimTime::from_nanos(into_layers)) {
            Some(layer) => (
                layer.utilization,
                layer.kind.switching_intensity(),
                layer.dram_gbps,
                false,
            ),
            None => (0.0, 0.0, 0.0, false),
        }
    }
}

impl PowerLoad for DpuAccelerator {
    fn current_ma(&self, t: SimTime, domain: PowerDomain) -> f64 {
        let state = self.state.read().expect("dpu state lock poisoned");
        let m = match state.as_ref() {
            Some(m) => m,
            None => {
                // Unconfigured fabric region: nothing but a trickle.
                return if domain == PowerDomain::FpgaLogic {
                    40.0
                } else {
                    0.0
                };
            }
        };
        let (util, switching, dram_gbps, in_pre_post) = self.activity_at(t, m);
        let bucket = t.as_micros() / 200;
        let wiggle = 1.0 + (hash01(self.seed, 3, bucket) - 0.5) * 0.01;
        match domain {
            PowerDomain::FpgaLogic => {
                (self.config.fpga_idle_ma + self.config.fpga_active_ma * util * switching) * wiggle
            }
            PowerDomain::Ddr => self.config.ddr_ma_per_gbps * dram_gbps * wiggle,
            PowerDomain::FullPowerCpu => {
                if in_pre_post {
                    self.config.cpu_pre_post_ma * wiggle
                } else {
                    // Runtime polls for completion.
                    18.0 * wiggle
                }
            }
            PowerDomain::LowPowerCpu => self.config.lp_coupling_ma * util * switching * wiggle,
        }
    }

    fn label(&self) -> &str {
        "dpu"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnn_models::zoo;
    use std::sync::Arc;

    fn dpu_with(name: &str) -> DpuAccelerator {
        let models = zoo();
        let m = models.iter().find(|m| m.name == name).unwrap();
        let dpu = DpuAccelerator::new(DpuConfig::default(), 11);
        dpu.load_model(m);
        dpu
    }

    fn mean_current(dpu: &DpuAccelerator, domain: PowerDomain, dur_ms: u64) -> f64 {
        let n = 2_000;
        (0..n)
            .map(|k| {
                let t = SimTime::from_us(k * dur_ms * 1_000 / n + 13);
                dpu.current_ma(t, domain)
            })
            .sum::<f64>()
            / n as f64
    }

    #[test]
    fn unloaded_dpu_draws_trickle() {
        let dpu = DpuAccelerator::new(DpuConfig::default(), 0);
        assert_eq!(dpu.loaded_model(), None);
        assert_eq!(dpu.current_ma(SimTime::ZERO, PowerDomain::Ddr), 0.0);
        assert!(dpu.current_ma(SimTime::ZERO, PowerDomain::FpgaLogic) < 100.0);
    }

    #[test]
    fn loading_and_unloading() {
        let dpu = dpu_with("resnet-50");
        assert_eq!(dpu.loaded_model().as_deref(), Some("resnet-50"));
        dpu.unload();
        assert_eq!(dpu.loaded_model(), None);
    }

    #[test]
    fn different_models_have_distinct_mean_signatures() {
        let vgg = dpu_with("vgg-19");
        let mb = dpu_with("mobilenet-v1");
        let i_vgg = mean_current(&vgg, PowerDomain::FpgaLogic, 2_000);
        let i_mb = mean_current(&mb, PowerDomain::FpgaLogic, 2_000);
        // VGG keeps the MAC array hotter for much longer stretches.
        assert!(
            i_vgg > i_mb + 100.0,
            "vgg {i_vgg} mA vs mobilenet {i_mb} mA"
        );
    }

    #[test]
    fn dram_current_tracks_traffic() {
        let dpu = dpu_with("resnet-50");
        let i = mean_current(&dpu, PowerDomain::Ddr, 1_000);
        assert!(i > 10.0, "DDR must see inference traffic ({i} mA)");
    }

    #[test]
    fn cpu_phase_alternates_with_accelerator_phase() {
        let dpu = dpu_with("vgg-19");
        // Early in the period: pre/post (CPU busy); later: layers (CPU idle).
        let cpu_early = dpu.current_ma(SimTime::from_ms(1), PowerDomain::FullPowerCpu);
        let cpu_late = dpu.current_ma(SimTime::from_ms(20), PowerDomain::FullPowerCpu);
        assert!(cpu_early > cpu_late, "{cpu_early} vs {cpu_late}");
    }

    #[test]
    fn lp_coupling_is_small() {
        let dpu = dpu_with("vgg-19");
        let i = mean_current(&dpu, PowerDomain::LowPowerCpu, 1_000);
        assert!(i < 15.0, "LP coupling must stay small ({i} mA)");
    }

    #[test]
    fn load_model_at_delays_activity() {
        let models = zoo();
        let dpu = DpuAccelerator::new(DpuConfig::default(), 3);
        dpu.load_model_at(&models[0], SimTime::from_secs(1));
        let before = dpu.current_ma(SimTime::from_ms(100), PowerDomain::FpgaLogic);
        assert!((before - DpuConfig::default().fpga_idle_ma).abs() < 10.0);
    }

    #[test]
    fn accelerator_is_shareable_across_threads() {
        let dpu = Arc::new(dpu_with("resnet-50"));
        let d2 = Arc::clone(&dpu);
        // A raw OS thread on purpose: this asserts `Send + Sync` sharing
        // semantics, not pool-scheduled determinism.
        let handle =
            // sim-lint: allow(stray-spawn)
            std::thread::spawn(move || d2.current_ma(SimTime::from_ms(5), PowerDomain::FpgaLogic));
        let a = dpu.current_ma(SimTime::from_ms(5), PowerDomain::FpgaLogic);
        let b = handle.join().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn signature_is_periodic_per_inference() {
        let models = zoo();
        let m = models.iter().find(|m| m.name == "resnet-50").unwrap();
        let cfg = DpuConfig {
            inference_jitter: 0.0,
            ..DpuConfig::default()
        };
        let dpu = DpuAccelerator::new(cfg, 0);
        dpu.load_model(m);
        let period = cfg.pre_post_time + DpuSchedule::lower(m, &cfg).inference_time();
        let t0 = SimTime::from_us(1_500);
        let t1 = t0 + period;
        // Same phase in consecutive inferences -> same utilization term.
        // (The 200 us wiggle bucket differs, so allow its 1% band.)
        let a = dpu.current_ma(t0, PowerDomain::FpgaLogic);
        let b = dpu.current_ma(t1, PowerDomain::FpgaLogic);
        assert!((a - b).abs() / a < 0.02, "{a} vs {b}");
    }
}

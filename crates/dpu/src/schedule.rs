use dnn_models::{LayerKind, ModelArch};
use zynq_soc::SimTime;

/// One layer as scheduled on the DPU: how long it runs and how hard it
/// drives the fabric and the memory system.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduledLayer {
    /// Source layer name.
    pub name: String,
    /// Source layer kind.
    pub kind: LayerKind,
    /// Execution time.
    pub duration: SimTime,
    /// Fraction of peak MAC throughput achieved in `[0, 1]`.
    pub utilization: f64,
    /// Achieved DRAM bandwidth in GB/s.
    pub dram_gbps: f64,
}

/// A model lowered to the DPU's execution timeline.
///
/// # Examples
///
/// ```
/// use dnn_models::zoo;
/// use dpu::{DpuConfig, DpuSchedule};
///
/// let models = zoo();
/// let vgg = models.iter().find(|m| m.name == "vgg-19").unwrap();
/// let mobilenet = models.iter().find(|m| m.name == "mobilenet-v1").unwrap();
/// let cfg = DpuConfig::default();
/// let sv = DpuSchedule::lower(vgg, &cfg);
/// let sm = DpuSchedule::lower(mobilenet, &cfg);
/// assert!(sv.inference_time() > sm.inference_time());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DpuSchedule {
    /// Model name this schedule was lowered from.
    pub model_name: String,
    /// Per-layer timeline in execution order.
    pub layers: Vec<ScheduledLayer>,
    /// Cumulative end time of each layer in nanoseconds (for O(log n)
    /// timeline lookups on the electrical hot path).
    ends_ns: Vec<u64>,
}

impl DpuSchedule {
    /// Lowers a model through the roofline timing model: each layer runs
    /// for `max(compute_time, memory_time)` where compute time depends on
    /// the layer kind's achievable efficiency and memory time on the DPU's
    /// DDR bandwidth share.
    pub fn lower(model: &ModelArch, config: &crate::DpuConfig) -> Self {
        let peak_macs_per_s = config.peak_gmacs * 1e9;
        let bw_bytes_per_s = config.dram_bandwidth_gbps * 1e9;
        let layers: Vec<ScheduledLayer> = model
            .layers
            .iter()
            .map(|l| {
                let eff = l.kind.compute_efficiency();
                let t_compute = l.macs as f64 / (peak_macs_per_s * eff);
                let t_mem = l.dram_bytes as f64 / bw_bytes_per_s;
                let t = t_compute.max(t_mem).max(config.layer_overhead_s);
                let utilization = if t > 0.0 {
                    (l.macs as f64 / peak_macs_per_s / t).min(1.0)
                } else {
                    0.0
                };
                let dram_gbps = if t > 0.0 {
                    l.dram_bytes as f64 / t / 1e9
                } else {
                    0.0
                };
                ScheduledLayer {
                    name: l.name.clone(),
                    kind: l.kind,
                    duration: SimTime::from_secs_f64(t),
                    utilization,
                    dram_gbps: dram_gbps.min(config.dram_bandwidth_gbps),
                }
            })
            .collect();
        let mut ends_ns = Vec::with_capacity(layers.len());
        let mut acc = 0u64;
        for l in &layers {
            acc += l.duration.as_nanos();
            ends_ns.push(acc);
        }
        DpuSchedule {
            model_name: model.name.clone(),
            layers,
            ends_ns,
        }
    }

    /// End-to-end accelerator time of one inference (excluding the CPU
    /// pre/post-processing, which [`crate::DpuAccelerator`] adds).
    pub fn inference_time(&self) -> SimTime {
        self.layers
            .iter()
            .fold(SimTime::ZERO, |acc, l| acc + l.duration)
    }

    /// The layer active at `offset` into an inference, if any.
    pub fn layer_at(&self, offset: SimTime) -> Option<&ScheduledLayer> {
        let ns = offset.as_nanos();
        // First layer whose cumulative end is strictly greater than ns.
        let idx = self.ends_ns.partition_point(|&end| end <= ns);
        self.layers.get(idx)
    }

    /// Mean MAC-array utilization, time-weighted.
    pub fn mean_utilization(&self) -> f64 {
        let total = self.inference_time().as_secs_f64();
        if total == 0.0 {
            return 0.0;
        }
        self.layers
            .iter()
            .map(|l| l.utilization * l.duration.as_secs_f64())
            .sum::<f64>()
            / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DpuConfig;
    use dnn_models::zoo;

    fn schedule_for(name: &str) -> DpuSchedule {
        let models = zoo();
        let m = models.iter().find(|m| m.name == name).unwrap();
        DpuSchedule::lower(m, &DpuConfig::default())
    }

    #[test]
    fn inference_latencies_are_plausible() {
        // Published ZCU102 DPU latencies: ResNet-50 ~13 ms, VGG-16 ~40 ms,
        // MobileNet-v1 ~4 ms. Shapes must hold within loose bounds.
        let resnet = schedule_for("resnet-50").inference_time().as_secs_f64() * 1e3;
        let vgg = schedule_for("vgg-19").inference_time().as_secs_f64() * 1e3;
        let mobilenet = schedule_for("mobilenet-v1").inference_time().as_secs_f64() * 1e3;
        assert!((4.0..40.0).contains(&resnet), "resnet-50 {resnet} ms");
        assert!((20.0..150.0).contains(&vgg), "vgg-19 {vgg} ms");
        assert!((1.0..15.0).contains(&mobilenet), "mobilenet {mobilenet} ms");
        assert!(vgg > resnet && resnet > mobilenet);
    }

    #[test]
    fn conv_layers_reach_high_utilization() {
        let s = schedule_for("vgg-19");
        let convs: Vec<&ScheduledLayer> = s
            .layers
            .iter()
            .filter(|l| l.kind == dnn_models::LayerKind::Conv && l.utilization > 0.0)
            .collect();
        assert!(!convs.is_empty());
        let peak = convs.iter().map(|l| l.utilization).fold(0.0, f64::max);
        assert!(
            peak > 0.5,
            "VGG convs should near-saturate the array ({peak})"
        );
    }

    #[test]
    fn depthwise_layers_are_memory_bound() {
        let s = schedule_for("mobilenet-v1");
        let dws: Vec<&ScheduledLayer> = s
            .layers
            .iter()
            .filter(|l| l.kind == dnn_models::LayerKind::DepthwiseConv)
            .collect();
        assert!(!dws.is_empty());
        for l in dws {
            assert!(
                l.utilization < 0.3,
                "{} runs at {} utilization, expected memory-bound",
                l.name,
                l.utilization
            );
        }
    }

    #[test]
    fn layer_at_walks_the_timeline() {
        let s = schedule_for("resnet-50");
        let first = s.layer_at(SimTime::ZERO).unwrap();
        assert_eq!(first.name, s.layers[0].name);
        let total = s.inference_time();
        assert!(s.layer_at(total).is_none());
        let mid = SimTime::from_nanos(total.as_nanos() / 2);
        assert!(s.layer_at(mid).is_some());
    }

    #[test]
    fn bandwidth_capped_at_config() {
        let cfg = DpuConfig::default();
        let s = schedule_for("mobilenet-v1");
        for l in &s.layers {
            assert!(l.dram_gbps <= cfg.dram_bandwidth_gbps + 1e-9);
            assert!((0.0..=1.0).contains(&l.utilization));
        }
    }

    #[test]
    fn mean_utilization_orders_families() {
        // VGG (dense convs) keeps the array busier than MobileNet (dw).
        let vgg = schedule_for("vgg-19").mean_utilization();
        let mb = schedule_for("mobilenet-v1").mean_utilization();
        assert!(vgg > mb, "vgg {vgg} vs mobilenet {mb}");
    }

    #[test]
    fn all_zoo_models_lower_cleanly() {
        let cfg = DpuConfig::default();
        for m in zoo() {
            let s = DpuSchedule::lower(m, &cfg);
            assert_eq!(s.layers.len(), m.layers.len());
            assert!(s.inference_time() > SimTime::ZERO, "{}", m.name);
        }
    }
}

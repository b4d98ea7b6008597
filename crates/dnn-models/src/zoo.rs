use std::sync::OnceLock;

use crate::{Layer, NetBuilder};

/// Architecture family of a model (7 families, per Section IV-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Family {
    /// Residual networks.
    ResNet,
    /// VGG-style plain deep convnets.
    Vgg,
    /// Inception / GoogLeNet family.
    Inception,
    /// MobileNet depthwise-separable family.
    MobileNet,
    /// SqueezeNet fire-module family.
    SqueezeNet,
    /// EfficientNet MBConv family.
    EfficientNet,
    /// DenseNet densely-connected family.
    DenseNet,
}

impl std::fmt::Display for Family {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Family::ResNet => "ResNet",
            Family::Vgg => "VGG",
            Family::Inception => "Inception",
            Family::MobileNet => "MobileNet",
            Family::SqueezeNet => "SqueezeNet",
            Family::EfficientNet => "EfficientNet",
            Family::DenseNet => "DenseNet",
        };
        f.write_str(s)
    }
}

/// One model architecture with its full layer schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelArch {
    /// Model name, e.g. "resnet-50".
    pub name: String,
    /// Architecture family.
    pub family: Family,
    /// Square input resolution in pixels.
    pub input: u64,
    /// Layer schedule in execution order.
    pub layers: Vec<Layer>,
}

impl ModelArch {
    /// Total multiply-accumulate operations per inference.
    pub fn total_macs(&self) -> u64 {
        self.layers.iter().map(|l| l.macs).sum()
    }

    /// Total parameter count.
    pub fn total_params(&self) -> u64 {
        self.layers.iter().map(|l| l.params).sum()
    }

    /// Total DRAM traffic per inference, bytes.
    pub fn total_dram_bytes(&self) -> u64 {
        self.layers.iter().map(|l| l.dram_bytes).sum()
    }

    /// Model size in megabytes (int8 weights).
    pub fn model_size_mb(&self) -> f64 {
        self.total_params() as f64 / 1e6
    }
}

fn model(name: &str, family: Family, input: u64, layers: Vec<Layer>) -> ModelArch {
    ModelArch {
        name: name.to_owned(),
        family,
        input,
        layers,
    }
}

// --- ResNet -----------------------------------------------------------

fn resnet(name: &str, blocks: [u64; 4], bottleneck: bool) -> ModelArch {
    let mut b = NetBuilder::new(224, 3);
    b.conv("conv1", 7, 2, 64).pool("pool1", 3, 2);
    let widths = [64u64, 128, 256, 512];
    for (stage, (&n, &w)) in blocks.iter().zip(&widths).enumerate() {
        for block in 0..n {
            let stride = if stage > 0 && block == 0 { 2 } else { 1 };
            let tag = format!("s{stage}b{block}");
            if bottleneck {
                b.conv(&format!("{tag}.c1"), 1, 1, w)
                    .conv(&format!("{tag}.c2"), 3, stride, w)
                    .conv(&format!("{tag}.c3"), 1, 1, w * 4)
                    .add(&format!("{tag}.add"));
            } else {
                b.conv(&format!("{tag}.c1"), 3, stride, w)
                    .conv(&format!("{tag}.c2"), 3, 1, w)
                    .add(&format!("{tag}.add"));
            }
        }
    }
    b.global_pool("gap").fc("fc", 1000);
    model(name, Family::ResNet, 224, b.finish())
}

// --- VGG --------------------------------------------------------------

fn vgg(name: &str, convs_per_stage: [u64; 5]) -> ModelArch {
    let mut b = NetBuilder::new(224, 3);
    let widths = [64u64, 128, 256, 512, 512];
    for (stage, (&n, &w)) in convs_per_stage.iter().zip(&widths).enumerate() {
        for i in 0..n {
            b.conv(&format!("s{stage}c{i}"), 3, 1, w);
        }
        b.pool(&format!("pool{stage}"), 2, 2);
    }
    b.fc("fc6", 4096).fc("fc7", 4096).fc("fc8", 1000);
    model(name, Family::Vgg, 224, b.finish())
}

// --- Inception --------------------------------------------------------

/// One simplified inception module: 1x1 / 3x3 / double-3x3 / pool-proj
/// branches followed by a concat. Branch widths derive from `width`.
fn inception_module(b: &mut NetBuilder, tag: &str, width: u64) {
    let c_in = b.channels();
    b.conv(&format!("{tag}.b1"), 1, 1, width);
    b.conv(&format!("{tag}.b3r"), 1, 1, width / 2)
        .conv(&format!("{tag}.b3"), 3, 1, width);
    b.conv(&format!("{tag}.b5r"), 1, 1, width / 4)
        .conv(&format!("{tag}.b5a"), 3, 1, width / 2)
        .conv(&format!("{tag}.b5b"), 3, 1, width / 2);
    b.pool(&format!("{tag}.pp"), 3, 1);
    b.set_channels(width + width + width / 2);
    b.concat(&format!("{tag}.cat"), c_in / 4);
}

fn inception(name: &str, input: u64, modules: &[(u64, u64)]) -> ModelArch {
    // `modules`: (count, width) per spatial stage, pool between stages.
    let mut b = NetBuilder::new(input, 3);
    b.conv("stem1", 3, 2, 32)
        .conv("stem2", 3, 1, 64)
        .pool("stem.pool", 3, 2)
        .conv("stem3", 1, 1, 80)
        .conv("stem4", 3, 1, 192)
        .pool("stem.pool2", 3, 2);
    for (stage, &(count, width)) in modules.iter().enumerate() {
        for m in 0..count {
            inception_module(&mut b, &format!("mix{stage}_{m}"), width);
        }
        if stage + 1 < modules.len() {
            b.pool(&format!("red{stage}"), 3, 2);
        }
    }
    b.global_pool("gap").fc("fc", 1000);
    model(name, Family::Inception, input, b.finish())
}

fn inception_resnet(name: &str, input: u64, modules: &[(u64, u64)]) -> ModelArch {
    let mut base = inception(name, input, modules);
    // Residual variants add an elementwise add after each module; patch the
    // family-level structure by appending adds proportional to module count.
    let adds: u64 = modules.iter().map(|&(c, _)| c).sum();
    let mut b = NetBuilder::new(8, 1024);
    for i in 0..adds {
        b.add(&format!("res.add{i}"));
    }
    base.layers.extend(b.finish());
    base
}

// --- MobileNet --------------------------------------------------------

fn scaled(c: u64, alpha: f64) -> u64 {
    ((c as f64 * alpha / 8.0).round() as u64 * 8).max(8)
}

fn mobilenet_v1(name: &str, alpha: f64) -> ModelArch {
    let mut b = NetBuilder::new(224, 3);
    b.conv("conv1", 3, 2, scaled(32, alpha));
    // (stride, out_channels) of the 13 depthwise-separable blocks.
    let blocks: [(u64, u64); 13] = [
        (1, 64),
        (2, 128),
        (1, 128),
        (2, 256),
        (1, 256),
        (2, 512),
        (1, 512),
        (1, 512),
        (1, 512),
        (1, 512),
        (1, 512),
        (2, 1024),
        (1, 1024),
    ];
    for (i, &(stride, out_c)) in blocks.iter().enumerate() {
        b.dw_conv(&format!("dw{i}"), 3, stride)
            .conv(&format!("pw{i}"), 1, 1, scaled(out_c, alpha));
    }
    b.global_pool("gap").fc("fc", 1000);
    model(name, Family::MobileNet, 224, b.finish())
}

fn mobilenet_v2(name: &str, alpha: f64) -> ModelArch {
    let mut b = NetBuilder::new(224, 3);
    b.conv("conv1", 3, 2, scaled(32, alpha));
    // (expansion, out_channels, repeats, stride) per stage.
    let stages: [(u64, u64, u64, u64); 7] = [
        (1, 16, 1, 1),
        (6, 24, 2, 2),
        (6, 32, 3, 2),
        (6, 64, 4, 2),
        (6, 96, 3, 1),
        (6, 160, 3, 2),
        (6, 320, 1, 1),
    ];
    for (s, &(t, c, n, stride)) in stages.iter().enumerate() {
        for i in 0..n {
            let st = if i == 0 { stride } else { 1 };
            let hidden = b.channels() * t;
            let tag = format!("ir{s}_{i}");
            b.conv(&format!("{tag}.exp"), 1, 1, hidden)
                .dw_conv(&format!("{tag}.dw"), 3, st)
                .conv(&format!("{tag}.proj"), 1, 1, scaled(c, alpha));
            if st == 1 && i > 0 {
                b.add(&format!("{tag}.add"));
            }
        }
    }
    b.conv("conv_last", 1, 1, scaled(1280, alpha.max(1.0)))
        .global_pool("gap")
        .fc("fc", 1000);
    model(name, Family::MobileNet, 224, b.finish())
}

fn mobilenet_v3(name: &str, large: bool) -> ModelArch {
    let mut b = NetBuilder::new(224, 3);
    b.conv("conv1", 3, 2, 16);
    let stages: &[(u64, u64, u64, u64)] = if large {
        &[
            (1, 16, 1, 1),
            (4, 24, 2, 2),
            (3, 40, 3, 2),
            (6, 80, 4, 2),
            (6, 112, 2, 1),
            (6, 160, 3, 2),
        ]
    } else {
        &[(1, 16, 1, 2), (4, 24, 2, 2), (4, 40, 3, 2), (6, 96, 3, 2)]
    };
    for (s, &(t, c, n, stride)) in stages.iter().enumerate() {
        for i in 0..n {
            let st = if i == 0 { stride } else { 1 };
            let hidden = b.channels() * t;
            let tag = format!("v3s{s}_{i}");
            b.conv(&format!("{tag}.exp"), 1, 1, hidden)
                .dw_conv(&format!("{tag}.dw"), if s >= 2 { 5 } else { 3 }, st)
                .conv(&format!("{tag}.proj"), 1, 1, c);
            if st == 1 && i > 0 {
                b.add(&format!("{tag}.add"));
            }
        }
    }
    b.conv("conv_last", 1, 1, if large { 960 } else { 576 })
        .global_pool("gap")
        .fc("fc", 1000);
    model(name, Family::MobileNet, 224, b.finish())
}

// --- SqueezeNet -------------------------------------------------------

fn fire(b: &mut NetBuilder, tag: &str, squeeze: u64, expand: u64) {
    b.conv(&format!("{tag}.sq"), 1, 1, squeeze);
    b.conv(&format!("{tag}.e1"), 1, 1, expand);
    b.conv(&format!("{tag}.e3"), 3, 1, expand);
    b.set_channels(expand * 2);
}

fn squeezenet(name: &str, v11: bool, residual: bool) -> ModelArch {
    let mut b = NetBuilder::new(224, 3);
    if v11 {
        b.conv("conv1", 3, 2, 64).pool("pool1", 3, 2);
    } else {
        b.conv("conv1", 7, 2, 96).pool("pool1", 3, 2);
    }
    let fires: [(u64, u64); 8] = [
        (16, 64),
        (16, 64),
        (32, 128),
        (32, 128),
        (48, 192),
        (48, 192),
        (64, 256),
        (64, 256),
    ];
    for (i, &(s, e)) in fires.iter().enumerate() {
        fire(&mut b, &format!("fire{}", i + 2), s, e);
        if residual && i % 2 == 1 {
            b.add(&format!("fire{}.add", i + 2));
        }
        if i == 3 || i == 6 {
            b.pool(&format!("pool{}", i + 2), 3, 2);
        }
    }
    b.conv("conv10", 1, 1, 1000).global_pool("gap");
    model(name, Family::SqueezeNet, 224, b.finish())
}

// --- EfficientNet -----------------------------------------------------

/// `se` adds squeeze-and-excite gating (b-series); the lite variants drop
/// it for integer-friendly DPU deployment.
fn efficientnet(name: &str, input: u64, width: f64, depth: f64, se: bool) -> ModelArch {
    let mut b = NetBuilder::new(input, 3);
    b.conv("stem", 3, 2, scaled(32, width));
    // b0 baseline: (expansion, channels, repeats, stride, kernel).
    let stages: [(u64, u64, u64, u64, u64); 7] = [
        (1, 16, 1, 1, 3),
        (6, 24, 2, 2, 3),
        (6, 40, 2, 2, 5),
        (6, 80, 3, 2, 3),
        (6, 112, 3, 1, 5),
        (6, 192, 4, 2, 5),
        (6, 320, 1, 1, 3),
    ];
    for (s, &(t, c, n, stride, k)) in stages.iter().enumerate() {
        let reps = ((n as f64 * depth).ceil() as u64).max(1);
        for i in 0..reps {
            let st = if i == 0 { stride } else { 1 };
            let hidden = b.channels() * t;
            let tag = format!("mb{s}_{i}");
            b.conv(&format!("{tag}.exp"), 1, 1, hidden)
                .dw_conv(&format!("{tag}.dw"), k, st);
            if se {
                // Squeeze-and-excite gating (b-series only; lite variants
                // drop it for integer-friendly DPU deployment).
                b.se_block(&format!("{tag}.se"), 24);
            }
            b.conv(&format!("{tag}.proj"), 1, 1, scaled(c, width));
            if st == 1 && i > 0 {
                b.add(&format!("{tag}.add"));
            }
        }
    }
    b.conv("head", 1, 1, scaled(1280, width))
        .global_pool("gap")
        .fc("fc", 1000);
    model(name, Family::EfficientNet, input, b.finish())
}

// --- DenseNet ---------------------------------------------------------

fn densenet(name: &str, blocks: [u64; 4], growth: u64) -> ModelArch {
    let mut b = NetBuilder::new(224, 3);
    b.conv("conv1", 7, 2, growth * 2).pool("pool1", 3, 2);
    for (stage, &n) in blocks.iter().enumerate() {
        for i in 0..n {
            let tag = format!("d{stage}_{i}");
            let c_in = b.channels();
            b.conv(&format!("{tag}.bn1x1"), 1, 1, growth * 4).conv(
                &format!("{tag}.c3"),
                3,
                1,
                growth,
            );
            b.set_channels(c_in);
            b.concat(&format!("{tag}.cat"), growth);
        }
        if stage < 3 {
            let half = (b.channels() / 2).max(1);
            b.conv(&format!("t{stage}.conv"), 1, 1, half)
                .pool(&format!("t{stage}.pool"), 2, 2);
        }
    }
    b.global_pool("gap").fc("fc", 1000);
    model(name, Family::DenseNet, 224, b.finish())
}

/// The complete 39-model zoo (7 families), mirroring the Vitis AI image
/// recognition suite used as victim accelerators in Section IV-B. The
/// models are built on the first call and shared for the rest of the
/// process.
pub fn zoo() -> &'static [ModelArch] {
    static ZOO: OnceLock<Vec<ModelArch>> = OnceLock::new();
    ZOO.get_or_init(|| {
        vec![
            // ResNet family (6)
            resnet("resnet-18", [2, 2, 2, 2], false),
            resnet("resnet-34", [3, 4, 6, 3], false),
            resnet("resnet-50", [3, 4, 6, 3], true),
            resnet("resnet-101", [3, 4, 23, 3], true),
            resnet("resnet-152", [3, 8, 36, 3], true),
            resnet("resnet-26", [2, 2, 2, 2], true),
            // VGG family (4)
            vgg("vgg-11", [1, 1, 2, 2, 2]),
            vgg("vgg-13", [2, 2, 2, 2, 2]),
            vgg("vgg-16", [2, 2, 3, 3, 3]),
            vgg("vgg-19", [2, 2, 4, 4, 4]),
            // Inception family (5)
            inception("googlenet", 224, &[(2, 128), (5, 192), (2, 256)]),
            inception("inception-v2", 224, &[(3, 160), (5, 224), (2, 320)]),
            inception("inception-v3", 299, &[(3, 192), (5, 288), (3, 448)]),
            inception("inception-v4", 299, &[(4, 224), (7, 320), (3, 512)]),
            inception_resnet("inception-resnet-v2", 299, &[(5, 192), (10, 256), (5, 384)]),
            // MobileNet family (8)
            mobilenet_v1("mobilenet-v1-0.25", 0.25),
            mobilenet_v1("mobilenet-v1-0.5", 0.5),
            mobilenet_v1("mobilenet-v1", 1.0),
            mobilenet_v2("mobilenet-v2-0.5", 0.5),
            mobilenet_v2("mobilenet-v2", 1.0),
            mobilenet_v2("mobilenet-v2-1.4", 1.4),
            mobilenet_v3("mobilenet-v3-small", false),
            mobilenet_v3("mobilenet-v3-large", true),
            // SqueezeNet family (3)
            squeezenet("squeezenet", false, false),
            squeezenet("squeezenet-1.1", true, false),
            squeezenet("squeezenet-res", true, true),
            // EfficientNet family (8)
            efficientnet("efficientnet-lite0", 224, 1.0, 1.0, false),
            efficientnet("efficientnet-lite1", 240, 1.0, 1.1, false),
            efficientnet("efficientnet-lite2", 260, 1.1, 1.2, false),
            efficientnet("efficientnet-lite3", 280, 1.2, 1.4, false),
            efficientnet("efficientnet-lite4", 300, 1.4, 1.8, false),
            efficientnet("efficientnet-b0", 224, 1.0, 1.0, true),
            efficientnet("efficientnet-b1", 240, 1.0, 1.1, true),
            efficientnet("efficientnet-b2", 260, 1.1, 1.2, true),
            // DenseNet family (5)
            densenet("densenet-121", [6, 12, 24, 16], 32),
            densenet("densenet-161", [6, 12, 36, 24], 48),
            densenet("densenet-169", [6, 12, 32, 32], 32),
            densenet("densenet-201", [6, 12, 48, 32], 32),
            densenet("densenet-264", [6, 12, 64, 48], 32),
        ]
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn zoo_has_39_models_in_7_families() {
        let models = zoo();
        assert_eq!(models.len(), 39);
        let families: BTreeSet<Family> = models.iter().map(|m| m.family).collect();
        assert_eq!(families.len(), 7);
        let names: BTreeSet<&str> = models.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names.len(), 39, "model names must be unique");
    }

    #[test]
    fn figure_three_models_are_present() {
        let models = zoo();
        for name in [
            "mobilenet-v1",
            "squeezenet",
            "efficientnet-lite0",
            "inception-v3",
            "resnet-50",
            "vgg-19",
        ] {
            assert!(
                models.iter().any(|m| m.name == name),
                "{name} missing from zoo"
            );
        }
    }

    #[test]
    fn relative_workloads_match_published_order() {
        let models = zoo();
        let macs = |n: &str| models.iter().find(|m| m.name == n).unwrap().total_macs();
        // VGG-19 >> Inception-v3 > ResNet-50 >> MobileNet-v1 > SqueezeNet-ish
        assert!(macs("vgg-19") > macs("inception-v3"));
        assert!(macs("inception-v3") > macs("resnet-50"));
        assert!(macs("resnet-50") > macs("mobilenet-v1"));
        assert!(macs("mobilenet-v1") > macs("mobilenet-v1-0.25"));
        // Depth orderings within families.
        assert!(macs("resnet-152") > macs("resnet-101"));
        assert!(macs("resnet-101") > macs("resnet-50"));
        assert!(macs("vgg-19") > macs("vgg-16"));
        assert!(macs("densenet-264") > macs("densenet-121"));
    }

    #[test]
    fn absolute_mac_counts_are_plausible() {
        let models = zoo();
        let gmacs =
            |n: &str| models.iter().find(|m| m.name == n).unwrap().total_macs() as f64 / 1e9;
        // Published figures: VGG-19 ~19.6 GMACs, ResNet-50 ~4.1,
        // MobileNet-v1 ~0.57. Allow generous tolerance for the simplified
        // bookkeeping (no bias/BN terms, approximate inception branches).
        assert!(
            (15.0..26.0).contains(&gmacs("vgg-19")),
            "{}",
            gmacs("vgg-19")
        );
        assert!(
            (2.5..6.5).contains(&gmacs("resnet-50")),
            "{}",
            gmacs("resnet-50")
        );
        assert!(
            (0.3..1.0).contains(&gmacs("mobilenet-v1")),
            "{}",
            gmacs("mobilenet-v1")
        );
    }

    #[test]
    fn vgg_parameter_heavy_resnet_compute_heavy() {
        let models = zoo();
        let get = |n: &str| models.iter().find(|m| m.name == n).unwrap();
        let vgg = get("vgg-16");
        let res = get("resnet-50");
        // VGG's FC layers dominate parameters (~138M float / int8 MB).
        assert!(vgg.total_params() > 3 * res.total_params());
    }

    #[test]
    fn every_model_is_nonempty_and_positive() {
        for m in zoo() {
            assert!(!m.layers.is_empty(), "{} has no layers", m.name);
            assert!(m.total_macs() > 1_000_000, "{} too small", m.name);
            assert!(m.total_dram_bytes() > 100_000, "{} no traffic", m.name);
            assert!(m.model_size_mb() > 0.1, "{} no params", m.name);
            assert!(m.input >= 224);
        }
    }

    #[test]
    fn family_counts() {
        let models = zoo();
        let count = |f: Family| models.iter().filter(|m| m.family == f).count();
        assert_eq!(count(Family::ResNet), 6);
        assert_eq!(count(Family::Vgg), 4);
        assert_eq!(count(Family::Inception), 5);
        assert_eq!(count(Family::MobileNet), 8);
        assert_eq!(count(Family::SqueezeNet), 3);
        assert_eq!(count(Family::EfficientNet), 8);
        assert_eq!(count(Family::DenseNet), 5);
    }

    #[test]
    fn workloads_are_pairwise_distinct() {
        // The fingerprinting attack needs distinguishable workloads; the
        // zoo must not contain two models with identical schedules.
        let models = zoo();
        for i in 0..models.len() {
            for j in i + 1..models.len() {
                assert!(
                    models[i].layers != models[j].layers,
                    "{} and {} have identical schedules",
                    models[i].name,
                    models[j].name
                );
            }
        }
    }

    #[test]
    fn display_family_names() {
        assert_eq!(Family::Vgg.to_string(), "VGG");
        assert_eq!(Family::MobileNet.to_string(), "MobileNet");
    }
}

//! The model zoo: AlexNet, ResNet-18, VGG-16 at batch 1 on 224×224 inputs.
//!
//! Layer lists follow the ImageNet reference topologies the paper tunes.
//! ResNet-18 uses the v1.5-style projection shortcut in every stage (as in
//! the MXNet/Gluon model TVM's tutorials extract tasks from), which is what
//! yields Table 1's 12 distinct direct-conv2d tasks.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented)]

use crate::conv::Conv2dSpec;
use crate::dense::DenseSpec;
use crate::op::OpSpec;
use crate::task::{extract_tasks, Task};
use serde::{Deserialize, Serialize};

/// A DNN model: a name plus its extracted, de-duplicated tuning tasks.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DnnModel {
    name: String,
    tasks: Vec<Task>,
}

impl DnnModel {
    /// Builds a model from its raw layer list (tasks are extracted and
    /// de-duplicated as TVM does).
    #[must_use]
    pub fn from_layers(name: &str, layers: &[OpSpec]) -> Self {
        Self {
            name: name.to_owned(),
            tasks: extract_tasks(name, layers),
        }
    }

    /// Model name, e.g. `"ResNet-18"`.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The de-duplicated tuning tasks in extraction order.
    #[must_use]
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// Total direct-algorithm FLOPs of one forward pass (all occurrences).
    #[must_use]
    pub fn total_flops(&self) -> f64 {
        self.tasks
            .iter()
            .filter(|t| !matches!(t.template, crate::op::TemplateKind::Conv2dWinograd))
            .map(Task::weighted_flops)
            .sum()
    }
}

/// AlexNet (Krizhevsky et al., 2012): 5 convolutions + 3 dense layers.
/// Extracts 12 tasks: 5 conv2d, 4 winograd conv2d, 3 dense (Table 1).
#[must_use]
pub fn alexnet() -> DnnModel {
    let layers = vec![
        OpSpec::Conv2d(Conv2dSpec::square(1, 3, 64, 224, 11, 4, 2)),
        OpSpec::Conv2d(Conv2dSpec::square(1, 64, 192, 27, 5, 1, 2)),
        OpSpec::Conv2d(Conv2dSpec::square(1, 192, 384, 13, 3, 1, 1)),
        OpSpec::Conv2d(Conv2dSpec::square(1, 384, 256, 13, 3, 1, 1)),
        OpSpec::Conv2d(Conv2dSpec::square(1, 256, 256, 13, 3, 1, 1)),
        OpSpec::Dense(DenseSpec::new(1, 9_216, 4_096)),
        OpSpec::Dense(DenseSpec::new(1, 4_096, 4_096)),
        OpSpec::Dense(DenseSpec::new(1, 4_096, 1_000)),
    ];
    DnnModel::from_layers("AlexNet", &layers)
}

/// ResNet-18 (He et al., 2016), v1.5-style projection shortcuts.
/// Extracts 17 tasks: 12 conv2d, 4 winograd conv2d, 1 dense (Table 1).
#[must_use]
pub fn resnet18() -> DnnModel {
    let mut layers = vec![OpSpec::Conv2d(Conv2dSpec::square(1, 3, 64, 224, 7, 2, 3))];
    // (in_ch, out_ch, input size entering the stage, first-block stride)
    let stages: [(u32, u32, u32, u32); 4] = [(64, 64, 56, 1), (64, 128, 56, 2), (128, 256, 28, 2), (256, 512, 14, 2)];
    for (in_ch, out_ch, in_size, stride) in stages {
        let out_size = in_size / stride;
        // Block 1: strided 3x3, projection shortcut, then unit 3x3.
        layers.push(OpSpec::Conv2d(Conv2dSpec::square(1, in_ch, out_ch, in_size, 3, stride, 1)));
        layers.push(OpSpec::Conv2d(Conv2dSpec::square(1, in_ch, out_ch, in_size, 1, stride, 0)));
        layers.push(OpSpec::Conv2d(Conv2dSpec::square(1, out_ch, out_ch, out_size, 3, 1, 1)));
        // Block 2: two unit 3x3 convolutions.
        layers.push(OpSpec::Conv2d(Conv2dSpec::square(1, out_ch, out_ch, out_size, 3, 1, 1)));
        layers.push(OpSpec::Conv2d(Conv2dSpec::square(1, out_ch, out_ch, out_size, 3, 1, 1)));
    }
    layers.push(OpSpec::Dense(DenseSpec::new(1, 512, 1_000)));
    DnnModel::from_layers("ResNet-18", &layers)
}

/// VGG-16 (Simonyan & Zisserman, 2015): 13 convolutions (9 unique shapes)
/// and 3 dense layers. Extracts 21 tasks: 9 conv2d, 9 winograd conv2d,
/// and 3 dense (Table 1).
#[must_use]
pub fn vgg16() -> DnnModel {
    let conv = |in_ch: u32, out_ch: u32, size: u32| OpSpec::Conv2d(Conv2dSpec::square(1, in_ch, out_ch, size, 3, 1, 1));
    let layers = vec![
        conv(3, 64, 224),
        conv(64, 64, 224),
        conv(64, 128, 112),
        conv(128, 128, 112),
        conv(128, 256, 56),
        conv(256, 256, 56),
        conv(256, 256, 56),
        conv(256, 512, 28),
        conv(512, 512, 28),
        conv(512, 512, 28),
        conv(512, 512, 14),
        conv(512, 512, 14),
        conv(512, 512, 14),
        OpSpec::Dense(DenseSpec::new(1, 25_088, 4_096)),
        OpSpec::Dense(DenseSpec::new(1, 4_096, 4_096)),
        OpSpec::Dense(DenseSpec::new(1, 4_096, 1_000)),
    ];
    DnnModel::from_layers("VGG-16", &layers)
}

/// SqueezeNet 1.1 (Iandola et al., 2016): conv1 + eight fire modules
/// (squeeze 1×1, expand 1×1 ‖ 3×3) + a 1×1 classifier conv. A purely
/// convolutional extension model exercising many small 1×1 workloads.
#[must_use]
pub fn squeezenet11() -> DnnModel {
    let mut layers = vec![OpSpec::Conv2d(Conv2dSpec::square(1, 3, 64, 224, 3, 2, 0))];
    // (input size, in_ch, squeeze, expand) per fire module, post-pool sizes.
    let fires: [(u32, u32, u32, u32); 8] = [
        (55, 64, 16, 64),
        (55, 128, 16, 64),
        (27, 128, 32, 128),
        (27, 256, 32, 128),
        (13, 256, 48, 192),
        (13, 384, 48, 192),
        (13, 384, 64, 256),
        (13, 512, 64, 256),
    ];
    for (size, in_ch, squeeze, expand) in fires {
        layers.push(OpSpec::Conv2d(Conv2dSpec::square(1, in_ch, squeeze, size, 1, 1, 0)));
        layers.push(OpSpec::Conv2d(Conv2dSpec::square(1, squeeze, expand, size, 1, 1, 0)));
        layers.push(OpSpec::Conv2d(Conv2dSpec::square(1, squeeze, expand, size, 3, 1, 1)));
    }
    layers.push(OpSpec::Conv2d(Conv2dSpec::square(1, 512, 1_000, 13, 1, 1, 0)));
    DnnModel::from_layers("SqueezeNet-1.1", &layers)
}

/// ResNet-34 (He et al., 2016): conv1 + stages of [3, 4, 6, 3] basic
/// blocks with projection shortcuts on the strided stages.
#[must_use]
pub fn resnet34() -> DnnModel {
    let mut layers = vec![OpSpec::Conv2d(Conv2dSpec::square(1, 3, 64, 224, 7, 2, 3))];
    let stages: [(u32, u32, u32, u32, usize); 4] = [(64, 64, 56, 1, 3), (64, 128, 56, 2, 4), (128, 256, 28, 2, 6), (256, 512, 14, 2, 3)];
    for (in_ch, out_ch, in_size, stride, blocks) in stages {
        let out_size = in_size / stride;
        layers.push(OpSpec::Conv2d(Conv2dSpec::square(1, in_ch, out_ch, in_size, 3, stride, 1)));
        if stride != 1 {
            layers.push(OpSpec::Conv2d(Conv2dSpec::square(1, in_ch, out_ch, in_size, 1, stride, 0)));
        }
        layers.push(OpSpec::Conv2d(Conv2dSpec::square(1, out_ch, out_ch, out_size, 3, 1, 1)));
        for _ in 1..blocks {
            layers.push(OpSpec::Conv2d(Conv2dSpec::square(1, out_ch, out_ch, out_size, 3, 1, 1)));
            layers.push(OpSpec::Conv2d(Conv2dSpec::square(1, out_ch, out_ch, out_size, 3, 1, 1)));
        }
    }
    layers.push(OpSpec::Dense(DenseSpec::new(1, 512, 1_000)));
    DnnModel::from_layers("ResNet-34", &layers)
}

/// VGG-19 (Simonyan & Zisserman, 2015): the 16-conv variant; its unique
/// workloads match VGG-16 but occurrence weights differ.
#[must_use]
pub fn vgg19() -> DnnModel {
    let conv = |in_ch: u32, out_ch: u32, size: u32| OpSpec::Conv2d(Conv2dSpec::square(1, in_ch, out_ch, size, 3, 1, 1));
    let mut layers = vec![conv(3, 64, 224), conv(64, 64, 224), conv(64, 128, 112), conv(128, 128, 112)];
    for _ in 0..4 {
        layers.push(conv(if layers.len() == 4 { 128 } else { 256 }, 256, 56));
    }
    for _ in 0..4 {
        layers.push(conv(if layers.len() == 8 { 256 } else { 512 }, 512, 28));
    }
    for _ in 0..4 {
        layers.push(conv(512, 512, 14));
    }
    layers.push(OpSpec::Dense(DenseSpec::new(1, 25_088, 4_096)));
    layers.push(OpSpec::Dense(DenseSpec::new(1, 4_096, 4_096)));
    layers.push(OpSpec::Dense(DenseSpec::new(1, 4_096, 1_000)));
    DnnModel::from_layers("VGG-19", &layers)
}

/// The three evaluation models of Table 1, in the paper's order.
#[must_use]
pub fn evaluation_models() -> Vec<DnnModel> {
    vec![alexnet(), resnet18(), vgg16()]
}

/// Extension models beyond the paper's Table 1, usable anywhere a
/// [`DnnModel`] is: the fleet example, the meta-training corpus, and
/// stress tests.
#[must_use]
pub fn extended_models() -> Vec<DnnModel> {
    vec![squeezenet11(), resnet34(), vgg19()]
}

/// Looks up an evaluation model by name (case-insensitive).
#[must_use]
pub fn find(name: &str) -> Option<DnnModel> {
    let lower = name.to_ascii_lowercase();
    match lower.as_str() {
        "alexnet" => Some(alexnet()),
        "resnet-18" | "resnet18" => Some(resnet18()),
        "vgg-16" | "vgg16" => Some(vgg16()),
        "squeezenet" | "squeezenet-1.1" | "squeezenet11" => Some(squeezenet11()),
        "resnet-34" | "resnet34" => Some(resnet34()),
        "vgg-19" | "vgg19" => Some(vgg19()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::TemplateKind;
    use crate::task::count_by_template;

    fn counts(model: &DnnModel) -> (usize, usize, usize) {
        let by = count_by_template(model.tasks());
        let get = |k: TemplateKind| by.iter().find(|(kind, _)| *kind == k).unwrap().1;
        (
            get(TemplateKind::Conv2dDirect),
            get(TemplateKind::Conv2dWinograd),
            get(TemplateKind::Dense),
        )
    }

    #[test]
    fn alexnet_matches_table1() {
        let m = alexnet();
        assert_eq!(m.tasks().len(), 12);
        assert_eq!(counts(&m), (5, 4, 3));
    }

    #[test]
    fn resnet18_matches_table1() {
        let m = resnet18();
        assert_eq!(m.tasks().len(), 17);
        assert_eq!(counts(&m), (12, 4, 1));
    }

    #[test]
    fn vgg16_matches_table1() {
        let m = vgg16();
        assert_eq!(m.tasks().len(), 21);
        assert_eq!(counts(&m), (9, 9, 3));
    }

    #[test]
    fn total_flops_are_in_published_ballpark() {
        // Published forward-pass MAC counts: AlexNet ~0.7 GMAC, ResNet-18
        // ~1.8 GMAC, VGG-16 ~15.5 GMAC. flops = 2 x MACs.
        let alex = alexnet().total_flops();
        assert!(alex > 1.2e9 && alex < 2.0e9, "alexnet {alex}");
        let res = resnet18().total_flops();
        assert!(res > 3.0e9 && res < 4.5e9, "resnet {res}");
        let vgg = vgg16().total_flops();
        assert!(vgg > 28.0e9 && vgg < 33.0e9, "vgg {vgg}");
    }

    #[test]
    fn vgg_first_layer_is_the_224_conv() {
        let m = vgg16();
        let first = &m.tasks()[0];
        assert_eq!(first.template, TemplateKind::Conv2dDirect);
        assert!(first.op.to_string().contains("C3H224"));
    }

    #[test]
    fn find_is_case_insensitive() {
        assert!(find("ResNet-18").is_some());
        assert!(find("resnet18").is_some());
        assert!(find("VGG-16").is_some());
        assert!(find("mobilenet").is_none());
    }

    #[test]
    fn every_model_validates_its_operators() {
        for model in evaluation_models() {
            for task in model.tasks() {
                match &task.op {
                    crate::op::OpSpec::Conv2d(c) => c.validate().unwrap(),
                    crate::op::OpSpec::Dense(d) => d.validate().unwrap(),
                }
            }
        }
    }

    #[test]
    fn winograd_tasks_are_all_unit_stride() {
        for model in evaluation_models() {
            for task in model.tasks().iter().filter(|t| t.template == TemplateKind::Conv2dWinograd) {
                assert!(task.op.winograd_eligible(), "{task}");
            }
        }
    }

    #[test]
    fn serde_roundtrip() {
        let m = resnet18();
        let json = serde_json::to_string(&m).unwrap();
        let back: DnnModel = serde_json::from_str(&json).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn squeezenet_is_fully_convolutional() {
        let m = squeezenet11();
        assert!(m.tasks().iter().all(|t| t.template != TemplateKind::Dense));
        // conv1 + 8 fires x 3 convs + classifier = 26 layers; dedup shrinks.
        assert!(m.tasks().len() >= 18, "{} tasks", m.tasks().len());
        let flops = m.total_flops();
        // Published ~0.35 GMAC -> ~0.7 GFLOP.
        assert!(flops > 0.5e9 && flops < 1.1e9, "squeezenet {flops}");
    }

    #[test]
    fn resnet34_is_heavier_than_resnet18() {
        assert!(resnet34().total_flops() > 1.8 * resnet18().total_flops());
        // Published ~3.6 GMAC -> ~7.3 GFLOP.
        let flops = resnet34().total_flops();
        assert!(flops > 6.0e9 && flops < 8.5e9, "resnet34 {flops}");
    }

    #[test]
    fn vgg19_shares_unique_workloads_with_vgg16() {
        let v16 = vgg16();
        let v19 = vgg19();
        let shapes16: std::collections::BTreeSet<String> = v16.tasks().iter().map(|t| format!("{}{}", t.template, t.op)).collect();
        let shapes19: std::collections::BTreeSet<String> = v19.tasks().iter().map(|t| format!("{}{}", t.template, t.op)).collect();
        assert_eq!(shapes16, shapes19);
        assert!(v19.total_flops() > v16.total_flops());
    }

    #[test]
    fn extended_models_lookup_and_validate() {
        for model in extended_models() {
            assert!(
                find(model.name()).is_some()
                    || find(&model.name().to_ascii_lowercase().replace('.', "")).is_some()
                    || model.name().contains("SqueezeNet")
            );
            for task in model.tasks() {
                match &task.op {
                    crate::op::OpSpec::Conv2d(c) => c.validate().unwrap(),
                    crate::op::OpSpec::Dense(d) => d.validate().unwrap(),
                }
            }
        }
    }
}

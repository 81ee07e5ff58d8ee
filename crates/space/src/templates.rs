//! Search-space builders for the three code templates of Table 1.
//!
//! Knob layouts mirror TVM v0.8's CUDA schedules:
//!
//! * `conv2d_nchw.cuda`: `tile_f`, `tile_y`, `tile_x` (4-way splits over
//!   output channels / rows / columns), `tile_rc`, `tile_ry`, `tile_rx`
//!   (2-way reduction splits), `auto_unroll_max_step ∈ {0, 512, 1500}`,
//!   `unroll_explicit`.
//! * `conv2d_nchw_winograd.cuda`: `tile_p`, `tile_f` (4-way), `tile_rc`
//!   (2-way), `auto_unroll_max_step ∈ {0, 128, 1500}`, `unroll_explicit`.
//! * `dense.cuda`: `tile_y` (4-way over output features), `tile_k` (2-way
//!   reduction), `auto_unroll_max_step ∈ {0, 64, 512}`, `unroll_explicit`.

use crate::config::SearchSpace;
use crate::kernel::Semantics;
use crate::knob::Knob;
use glimpse_tensor_prog::{Conv2dSpec, DenseSpec, OpSpec, Task, TemplateKind};

/// Winograd output tile size used throughout (F(2×2, r×r)).
pub const WINOGRAD_M: u32 = 2;

/// Builds the direct-convolution space for `spec`.
#[must_use]
pub fn conv2d_direct_space(spec: &Conv2dSpec) -> SearchSpace {
    let knobs = vec![
        Knob::split("tile_f", spec.out_channels, 4),
        Knob::split("tile_y", spec.out_h(), 4),
        Knob::split("tile_x", spec.out_w(), 4),
        Knob::split("tile_rc", spec.in_channels, 2),
        Knob::split("tile_ry", spec.kernel_h, 2),
        Knob::split("tile_rx", spec.kernel_w, 2),
        Knob::int_list("auto_unroll_max_step", &[0, 512, 1500]),
        Knob::flag("unroll_explicit"),
    ];
    SearchSpace::new(
        &format!("conv2d_nchw ({spec})"),
        TemplateKind::Conv2dDirect,
        OpSpec::Conv2d(*spec),
        knobs,
        Semantics::ConvDirect(*spec),
    )
}

/// Builds the Winograd-convolution space for `spec`.
///
/// # Panics
///
/// Panics if `spec` is not Winograd-eligible (callers check
/// [`Conv2dSpec::winograd_eligible`]).
#[must_use]
pub fn conv2d_winograd_space(spec: &Conv2dSpec) -> SearchSpace {
    assert!(
        spec.winograd_eligible(),
        "winograd template requires unit-stride small square kernels"
    );
    let p = Semantics::winograd_tiles(spec, WINOGRAD_M);
    let knobs = vec![
        Knob::split("tile_p", p, 4),
        Knob::split("tile_f", spec.out_channels, 4),
        Knob::split("tile_rc", spec.in_channels, 2),
        Knob::int_list("auto_unroll_max_step", &[0, 128, 1500]),
        Knob::flag("unroll_explicit"),
    ];
    SearchSpace::new(
        &format!("conv2d_winograd ({spec})"),
        TemplateKind::Conv2dWinograd,
        OpSpec::Conv2d(*spec),
        knobs,
        Semantics::ConvWinograd {
            spec: *spec,
            m: WINOGRAD_M,
        },
    )
}

/// Builds the dense space for `spec`.
#[must_use]
pub fn dense_space(spec: &DenseSpec) -> SearchSpace {
    let knobs = vec![
        Knob::split("tile_y", spec.out_features, 4),
        Knob::split("tile_k", spec.in_features, 2),
        Knob::int_list("auto_unroll_max_step", &[0, 64, 512]),
        Knob::flag("unroll_explicit"),
    ];
    SearchSpace::new(
        &format!("dense ({spec})"),
        TemplateKind::Dense,
        OpSpec::Dense(*spec),
        knobs,
        Semantics::Dense(*spec),
    )
}

/// Builds the search space for an extracted [`Task`].
///
/// # Panics
///
/// Panics on template/operator mismatches, which cannot be produced by
/// `glimpse_tensor_prog::task::extract_tasks`.
// Task extraction only pairs templates with their own operator kind; a
// mismatch is a caller bug, not a load outcome.
#[must_use]
pub fn space_for_task(task: &Task) -> SearchSpace {
    match (task.template, &task.op) {
        (TemplateKind::Conv2dDirect, OpSpec::Conv2d(c)) => conv2d_direct_space(c),
        (TemplateKind::Conv2dWinograd, OpSpec::Conv2d(c)) => conv2d_winograd_space(c),
        (TemplateKind::Dense, OpSpec::Dense(d)) => dense_space(d),
        (template, op) => panic!("template {template} cannot lower operator {op}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glimpse_tensor_prog::models;

    #[test]
    fn vgg_first_layer_exceeds_200_million_configs() {
        // §2.1: "the first layer of VGG-16 has over 200 million combinations".
        let spec = Conv2dSpec::square(1, 3, 64, 224, 3, 1, 1);
        let space = conv2d_direct_space(&spec);
        assert!(space.size() > 200_000_000, "size = {}", space.size());
    }

    #[test]
    fn every_model_task_builds_a_space() {
        for model in models::evaluation_models() {
            for task in model.tasks() {
                let space = space_for_task(task);
                assert!(space.size() >= 2, "{task} space too small");
                assert_eq!(space.template(), task.template);
            }
        }
    }

    #[test]
    fn conv_direct_has_eight_knobs() {
        let space = conv2d_direct_space(&Conv2dSpec::square(1, 64, 64, 56, 3, 1, 1));
        assert_eq!(space.knobs().len(), 8);
        assert_eq!(space.knobs()[0].name(), "tile_f");
        assert_eq!(space.knobs()[7].name(), "unroll_explicit");
    }

    #[test]
    fn winograd_rejects_strided_convs() {
        let strided = Conv2dSpec::square(1, 64, 128, 56, 3, 2, 1);
        assert!(std::panic::catch_unwind(|| conv2d_winograd_space(&strided)).is_err());
    }

    #[test]
    fn dense_space_is_tractable_but_nontrivial() {
        let space = dense_space(&DenseSpec::new(1, 4096, 4096));
        assert!(space.size() > 10_000);
        assert!(space.size() < 10_000_000);
    }

    #[test]
    fn kernel_shapes_cover_entire_output_for_conv() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let spec = Conv2dSpec::square(1, 64, 64, 56, 3, 1, 1);
        let space = conv2d_direct_space(&spec);
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..200 {
            let c = space.sample_uniform(&mut rng);
            let shape = space.kernel_shape(&c);
            // blocks x (vthreads x threads x inner work) == output volume
            let covered = shape.blocks * shape.work_per_thread * shape.threads_per_block;
            assert_eq!(covered, 64u64 * 56 * 56, "config {c:?}");
        }
    }
}

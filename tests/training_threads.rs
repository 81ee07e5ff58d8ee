//! `GlimpseArtifacts::train_with` trains its six meta-nets as the jobs of
//! one fan-out. The bundle must not depend on the worker count: this checks
//! that the fast preset serializes byte-identically with every job inline
//! on the caller thread and with the auto-resolved worker count (on a
//! one-core host both runs are inline).
//!
//! It is a binary of its own because it sets the process-wide worker-count
//! override, which would leak into tests running beside it.

use glimpse_core::artifacts::{GlimpseArtifacts, TrainingOptions};
use glimpse_gpu_spec::database;
use glimpse_mlkit::parallel::set_default_threads;

#[test]
fn fast_training_is_byte_identical_inline_and_fanned_out() {
    let gpus: Vec<_> = ["GTX 1080", "RTX 2060", "RTX 3070"]
        .iter()
        .map(|name| database::find(name).unwrap())
        .collect();
    let bundle = || serde_json::to_string(&GlimpseArtifacts::train_with(&gpus, TrainingOptions::fast(), 9).unwrap()).unwrap();
    set_default_threads(1);
    let inline = bundle();
    set_default_threads(0);
    let fanned_out = bundle();
    assert!(inline == fanned_out, "the trained bundle depends on the worker count");
}

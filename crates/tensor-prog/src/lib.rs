//! Tensor operator specifications, DNN model zoo, and tuning-task extraction.
//!
//! The paper tunes three ImageNet models — AlexNet, ResNet-18, and VGG-16 —
//! whose layers are lowered to TVM-style *code templates* (Conv2D, Winograd
//! Conv2D, Dense). Table 1 reports the resulting task inventory: 12 tasks for
//! AlexNet, 17 for ResNet-18, and 21 for VGG-16. This crate defines the
//! operator records ([`Conv2dSpec`], [`DenseSpec`]), the model zoo
//! ([`models`]), and the de-duplicating task extraction ([`task`]) that
//! reproduces exactly those counts.
//!
//! # Examples
//!
//! ```
//! use glimpse_tensor_prog::models;
//!
//! let resnet = models::resnet18();
//! assert_eq!(resnet.tasks().len(), 17);
//! let total_flops: f64 = resnet.tasks().iter().map(|t| t.weighted_flops()).sum();
//! assert!(total_flops > 1e9);
//! ```

#![forbid(unsafe_code)]

pub mod conv;
pub mod dense;
pub mod models;
pub mod op;
pub mod task;

pub use conv::Conv2dSpec;
pub use dense::DenseSpec;
pub use models::DnnModel;
pub use op::{OpSpec, TemplateKind};
pub use task::{Task, TaskId};

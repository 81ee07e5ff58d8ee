//! Offline training corpus — the reproduction's TenSet (§3.1: "we gathered
//! a large scale dataset similar to \[19\] of s and f").
//!
//! For every (training GPU, task) pair, the corpus holds uniformly sampled
//! configurations scored by the noise-free performance oracle (invalid
//! configurations score 0). This is the supervised signal the prior
//! generator `H` and the neural acquisition function are meta-trained on —
//! always excluding the evaluation target GPU (leave-one-out).

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented)]

use glimpse_gpu_spec::GpuSpec;
use glimpse_sim::PerfModel;
use glimpse_space::{templates, Config, SearchSpace};
use glimpse_tensor_prog::{models, Task};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One scored configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusSample {
    /// The configuration.
    pub config: Config,
    /// Noise-free throughput (GFLOPS); 0 for invalid configurations.
    pub gflops: f64,
}

/// All samples for one (GPU, task) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusEntry {
    /// GPU marketing name.
    pub gpu: String,
    /// The tuned task.
    pub task: Task,
    /// Scored samples.
    pub samples: Vec<CorpusSample>,
}

impl CorpusEntry {
    /// Rebuilds the task's search space.
    #[must_use]
    pub fn space(&self) -> SearchSpace {
        templates::space_for_task(&self.task)
    }

    /// Samples in the top `quantile` (e.g. 0.1 = best 10 %) of **valid**
    /// throughput, best first.
    #[must_use]
    pub fn top_quantile(&self, quantile: f64) -> Vec<&CorpusSample> {
        let mut valid: Vec<&CorpusSample> = self.samples.iter().filter(|s| s.gflops > 0.0).collect();
        valid.sort_by(|a, b| b.gflops.total_cmp(&a.gflops));
        let keep = ((valid.len() as f64) * quantile).ceil().max(1.0) as usize;
        valid.truncate(keep);
        valid
    }

    /// Best sample, if any configuration was valid.
    #[must_use]
    pub fn best(&self) -> Option<&CorpusSample> {
        self.samples
            .iter()
            .filter(|s| s.gflops > 0.0)
            .max_by(|a, b| a.gflops.total_cmp(&b.gflops))
    }
}

/// Search spaces of the tasks a set of corpus entries covers, each built
/// once: the corpus holds one entry per (GPU, task) pair, so every task
/// recurs once per GPU.
#[derive(Default)]
pub(crate) struct TaskSpaces<'a> {
    tasks: Vec<&'a Task>,
    spaces: Vec<SearchSpace>,
}

impl<'a> TaskSpaces<'a> {
    /// The index of `task`'s space, building the space on first use.
    pub(crate) fn index(&mut self, task: &'a Task) -> usize {
        if let Some(i) = self.tasks.iter().position(|t| *t == task) {
            return i;
        }
        self.tasks.push(task);
        self.spaces.push(templates::space_for_task(task));
        self.spaces.len() - 1
    }

    /// The space at `index`.
    pub(crate) fn get(&self, index: usize) -> &SearchSpace {
        &self.spaces[index]
    }
}

/// The task pool used for meta-training: every task of the three evaluation
/// models (the paper meta-trains "through various hardware and networks").
#[must_use]
pub fn training_tasks() -> Vec<Task> {
    models::evaluation_models().iter().flat_map(|m| m.tasks().to_vec()).collect()
}

/// Generates the corpus for `gpus` × `tasks` with `samples_per_pair`
/// configurations each. Scoring uses the noise-free oracle and costs no
/// simulated GPU time (it is the stand-in for the *offline* log corpus, not
/// for online measurements).
#[must_use]
pub fn generate(gpus: &[&GpuSpec], tasks: &[Task], samples_per_pair: usize, seed: u64) -> Vec<CorpusEntry> {
    let spaces: Vec<SearchSpace> = tasks.iter().map(templates::space_for_task).collect();
    let mut entries = Vec::with_capacity(gpus.len() * tasks.len());
    for (gi, gpu) in gpus.iter().enumerate() {
        let model = PerfModel::new((*gpu).clone());
        for (ti, (task, space)) in tasks.iter().zip(&spaces).enumerate() {
            let mut rng = StdRng::seed_from_u64(seed ^ (gi as u64) << 32 ^ ti as u64);
            let samples = (0..samples_per_pair)
                .map(|_| {
                    let config = space.sample_uniform(&mut rng);
                    let gflops = model.throughput_gflops(space, &config).unwrap_or(0.0);
                    CorpusSample { config, gflops }
                })
                .collect();
            entries.push(CorpusEntry {
                gpu: gpu.name.clone(),
                task: task.clone(),
                samples,
            });
        }
    }
    entries
}

#[cfg(test)]
mod tests {
    use super::*;
    use glimpse_gpu_spec::database;

    fn small_corpus() -> Vec<CorpusEntry> {
        let gpus = vec![database::find("GTX 1080").unwrap(), database::find("RTX 2060").unwrap()];
        let tasks: Vec<Task> = training_tasks().into_iter().take(3).collect();
        generate(&gpus, &tasks, 60, 7)
    }

    #[test]
    fn corpus_covers_all_pairs() {
        let corpus = small_corpus();
        assert_eq!(corpus.len(), 6);
        assert!(corpus.iter().all(|e| e.samples.len() == 60));
    }

    #[test]
    fn top_quantile_is_sorted_and_valid() {
        let corpus = small_corpus();
        for entry in &corpus {
            let top = entry.top_quantile(0.1);
            assert!(!top.is_empty());
            for w in top.windows(2) {
                assert!(w[0].gflops >= w[1].gflops);
            }
            assert!(top.iter().all(|s| s.gflops > 0.0));
        }
    }

    #[test]
    fn best_matches_max() {
        let corpus = small_corpus();
        let entry = &corpus[0];
        let max = entry.samples.iter().map(|s| s.gflops).fold(0.0f64, f64::max);
        assert_eq!(entry.best().unwrap().gflops, max);
    }

    #[test]
    fn training_tasks_match_table1_total() {
        // 12 + 17 + 21 tasks
        assert_eq!(training_tasks().len(), 50);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small_corpus();
        let b = small_corpus();
        assert_eq!(a, b);
    }
}

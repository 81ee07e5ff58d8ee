//! Genetic-algorithm tuner — the search strategy TVM's own tuner family
//! ships alongside random search (§5: "TVM builds on random search and
//! genetic algorithms"; GGA \[11\] guides a GA with history).
//!
//! Standard generational GA over knob-index chromosomes: tournament
//! selection on measured throughput, uniform crossover, per-knob mutation,
//! elitism. Like the other baselines it is hardware-agnostic — fitness comes
//! only from real measurements.

use crate::context::{TuneContext, Tuner, TuningOutcome};
use glimpse_mlkit::stats::child_rng;
use glimpse_space::Config;
use rand::Rng;

/// Population size (individuals measured per generation).
const POPULATION: usize = 16;
/// Elites copied unchanged into the next generation.
const ELITES: usize = 2;
/// Tournament size for parent selection.
const TOURNAMENT: usize = 3;
/// Per-knob mutation probability.
const MUTATION_RATE: f64 = 0.12;

/// The GA tuner.
#[derive(Debug, Clone, Copy, Default)]
pub struct GeneticTuner;

impl GeneticTuner {
    /// Creates the tuner.
    #[must_use]
    pub fn new() -> Self {
        Self
    }
}

impl Tuner for GeneticTuner {
    fn name(&self) -> &str {
        "Genetic"
    }

    fn tune(&mut self, mut ctx: TuneContext<'_>) -> TuningOutcome {
        let mut rng = child_rng(ctx.seed, 0x06E6_E71C);
        let pop_size = POPULATION;

        // Generation 0: uniform random.
        let mut population: Vec<Config> = (0..pop_size).map(|_| ctx.space.sample_uniform(&mut rng)).collect();
        let mut fitness: Vec<f64> = population.iter().map(|c| ctx.measure(c).unwrap_or(0.0)).collect();
        ctx.add_explorer_steps(pop_size);

        while !ctx.exhausted() {
            // Elitism: carry the best individuals over unchanged.
            let mut order: Vec<usize> = (0..population.len()).collect();
            order.sort_by(|&i, &j| fitness[j].total_cmp(&fitness[i]));
            let mut next: Vec<Config> = order.iter().take(ELITES).map(|&i| population[i].clone()).collect();
            let mut next_fitness: Vec<f64> = order.iter().take(ELITES).map(|&i| fitness[i]).collect();

            // Offspring: tournament select two parents, uniform crossover,
            // mutate, measure.
            while next.len() < pop_size && !ctx.exhausted() {
                let parent = |rng: &mut rand::rngs::StdRng, fitness: &[f64]| -> usize {
                    let mut best = rng.gen_range(0..fitness.len());
                    for _ in 1..TOURNAMENT {
                        let cand = rng.gen_range(0..fitness.len());
                        if fitness[cand] > fitness[best] {
                            best = cand;
                        }
                    }
                    best
                };
                let a = parent(&mut rng, &fitness);
                let b = parent(&mut rng, &fitness);
                let mut genes: Vec<usize> = population[a]
                    .indices()
                    .iter()
                    .zip(population[b].indices())
                    .map(|(&x, &y)| if rng.gen::<bool>() { x } else { y })
                    .collect();
                for (g, knob) in genes.iter_mut().zip(ctx.space.knobs()) {
                    if rng.gen::<f64>() < MUTATION_RATE {
                        *g = rng.gen_range(0..knob.cardinality());
                    }
                }
                ctx.add_explorer_steps(1);
                let child = Config::new(genes);
                let score = if ctx.seen(&child) {
                    // Re-use known fitness instead of burning a measurement.
                    ctx.history()
                        .trials
                        .iter()
                        .find(|t| t.config == child)
                        .and_then(|t| t.gflops)
                        .unwrap_or(0.0)
                } else {
                    ctx.measure(&child).unwrap_or(0.0)
                };
                next.push(child);
                next_fitness.push(score);
            }
            population = next;
            fitness = next_fitness;
        }
        ctx.finish(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Budget;
    use crate::random::RandomTuner;
    use glimpse_gpu_spec::database;
    use glimpse_sim::Measurer;
    use glimpse_space::templates;
    use glimpse_tensor_prog::models;

    fn run_tuner<T: Tuner>(mut tuner: T, budget: usize, seed: u64) -> TuningOutcome {
        let model = models::alexnet();
        let task = &model.tasks()[2];
        let space = templates::space_for_task(task);
        let mut measurer = Measurer::new(database::find("GTX 1080 Ti").unwrap().clone(), seed);
        let ctx = TuneContext::new(task, &space, &mut measurer, Budget::measurements(budget), seed);
        tuner.tune(ctx)
    }

    #[test]
    fn beats_random_search_usually() {
        let mut wins = 0;
        for seed in [1u64, 2, 3] {
            let ga = run_tuner(GeneticTuner::new(), 200, seed);
            let random = run_tuner(RandomTuner::new(), 200, seed);
            if ga.best_gflops > random.best_gflops {
                wins += 1;
            }
        }
        assert!(wins >= 2, "GA won only {wins}/3");
    }

    #[test]
    fn respects_budget() {
        let outcome = run_tuner(GeneticTuner::new(), 50, 4);
        assert!(outcome.measurements <= 50);
    }

    #[test]
    fn fitness_improves_over_generations() {
        let outcome = run_tuner(GeneticTuner::new(), 240, 5);
        let trajectory = outcome.history.trajectory();
        let early = trajectory[15];
        let late = *trajectory.last().unwrap();
        assert!(late >= early);
        assert!(late > 0.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run_tuner(GeneticTuner::new(), 80, 6);
        let b = run_tuner(GeneticTuner::new(), 80, 6);
        assert_eq!(a.best_gflops, b.best_gflops);
    }
}

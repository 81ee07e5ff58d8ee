//! Figures 6, 7, 9 and Table 2: views over the one end-to-end grid
//! (`e2e::end_to_end`), each comparing a tuner's metric with AutoTVM's per
//! (GPU, model). AutoTVM runs its fixed trial count; Chameleon, DGP and
//! Glimpse stop when their best-so-far plateaus.
//!
//! * Fig. 6: explorer steps / AutoTVM (lower is better). Paper geomeans:
//!   Chameleon ≈ 50.3 %, Glimpse ≈ 19.7 % (2.55× and 5.07× fewer steps).
//! * Fig. 7: reduction in the rate of invalid measurements vs AutoTVM
//!   (higher is better). Paper geomeans: Chameleon 1.23×, Glimpse 5.56×.
//! * Fig. 9: (a) optimization-time improvement and (b) output inference
//!   speed vs AutoTVM. Paper geomeans: (a) Chameleon 4.45×, DGP 3.50×,
//!   Glimpse 6.73×; (b) 1.047×, 1.058×, 1.058×.
//! * Table 2: search time, inference latency and HV = Search Reduction ×
//!   Inference Reduction × 100 (Eq. 2). Paper: Glimpse posts the best HV on
//!   every model (5.75 / 4.40 / 3.70), from 83–87 % search reduction at
//!   equal-or-better latency.

use glimpse_bench::e2e::{end_to_end, EndToEnd};
use glimpse_bench::experiment::{evaluation_grid, results_dir, ModelGpuResult, TunerKind};
use glimpse_bench::report;
use glimpse_mlkit::stats::geomean;
use serde_json::json;

const ADAPTIVE: [TunerKind; 3] = [TunerKind::Chameleon, TunerKind::Dgp, TunerKind::Glimpse];

struct Grid {
    e2e: EndToEnd,
    gpus: Vec<String>,
    models: Vec<String>,
}

impl Grid {
    /// `(AutoTVM's metric, kind's metric)` in every cell, indexed `[gpu][model]`.
    fn vs_autotvm(&self, kind: TunerKind, metric: fn(&ModelGpuResult) -> f64) -> Vec<Vec<(f64, f64)>> {
        let value = |kind, gpu: &str, model: &str| metric(self.e2e.get(kind, gpu, model).expect("grid cell present"));
        let pair = |gpu: &String, model: &String| (value(TunerKind::AutoTvm, gpu, model), value(kind, gpu, model));
        self.gpus.iter().map(|g| self.models.iter().map(|m| pair(g, m)).collect()).collect()
    }

    /// One row per (GPU, model) of `score(autotvm, tuner)` for each of
    /// `kinds`, then a geomean row; returns the rows and the geomeans.
    fn by_cell(
        &self,
        kinds: &[TunerKind],
        metric: fn(&ModelGpuResult) -> f64,
        score: fn(f64, f64) -> f64,
        fmt: fn(f64) -> String,
    ) -> (Vec<Vec<String>>, Vec<f64>) {
        let pairs: Vec<_> = kinds.iter().map(|k| self.vs_autotvm(*k, metric)).collect();
        let mut rows = Vec::new();
        let mut ratios = vec![Vec::new(); kinds.len()];
        for (g, gpu) in self.gpus.iter().enumerate() {
            for (m, model) in self.models.iter().enumerate() {
                let mut row = vec![gpu.clone(), model.clone()];
                for (k, cells) in pairs.iter().enumerate() {
                    let ratio = score(cells[g][m].0, cells[g][m].1);
                    ratios[k].push(ratio);
                    row.push(fmt(ratio));
                }
                rows.push(row);
            }
        }
        let geo: Vec<f64> = ratios.iter().map(|r| geomean(r)).collect();
        rows.push([vec!["geomean".to_owned(), String::new()], geo.iter().map(|g| fmt(*g)).collect()].concat());
        (rows, geo)
    }

    /// One row per model of `auto / tuner` (geomean over GPUs) for each
    /// adaptive tuner, then a geomean row over every cell; returns the rows
    /// and the geomeans.
    fn by_model(&self, metric: fn(&ModelGpuResult) -> f64, fmt: fn(f64) -> String) -> (Vec<Vec<String>>, Vec<f64>) {
        let pairs: Vec<_> = ADAPTIVE.iter().map(|k| self.vs_autotvm(*k, metric)).collect();
        let mut rows = Vec::new();
        let mut ratios = vec![Vec::new(); ADAPTIVE.len()];
        for (m, model) in self.models.iter().enumerate() {
            let mut row = vec![model.clone()];
            for (k, cells) in pairs.iter().enumerate() {
                let per_gpu: Vec<f64> = cells.iter().map(|c| c[m].0 / c[m].1.max(1e-9)).collect();
                ratios[k].extend(&per_gpu);
                row.push(fmt(geomean(&per_gpu)));
            }
            rows.push(row);
        }
        let geo: Vec<f64> = ratios.iter().map(|r| geomean(r)).collect();
        rows.push([vec!["geomean".to_owned()], geo.iter().map(|g| fmt(*g)).collect()].concat());
        (rows, geo)
    }
}

fn main() {
    let (gpus, models) = evaluation_grid();
    let grid = Grid {
        e2e: end_to_end(),
        gpus: gpus.iter().map(|g| g.name.clone()).collect(),
        models: models.iter().map(|m| m.name().to_owned()).collect(),
    };
    let dir = results_dir();
    let columns = ["GPU", "model", "AutoTVM", "Chameleon", "Glimpse"];

    let kinds = [TunerKind::AutoTvm, TunerKind::Chameleon, TunerKind::Glimpse];
    let (rows, steps) = grid.by_cell(&kinds, |r| r.explorer_steps() as f64, |auto, this| this / auto, report::percent);
    println!("Figure 6 — search steps / AutoTVM (lower is better)");
    println!("(paper geomeans: AutoTVM 100%, Chameleon 50.3%, Glimpse 19.7%)\n");
    println!("{}", report::table(&columns, &rows));
    println!(
        "step reduction vs AutoTVM: Chameleon {}, Glimpse {} (paper: 2.55x, 5.07x)",
        report::ratio(1.0 / steps[1]),
        report::ratio(1.0 / steps[2]),
    );
    report::save_json(
        &dir,
        "fig6",
        &json!({ "chameleon_step_fraction": steps[1], "glimpse_step_fraction": steps[2] }),
    );

    // Invalid rate per measurement; the floor avoids division blow-ups when
    // a tuner eliminates invalids entirely.
    let invalid_rate = |r: &ModelGpuResult| (r.invalid() as f64 / r.measurements().max(1) as f64).max(1e-3);
    let (rows, invalid) = grid.by_cell(&kinds, invalid_rate, |auto, this| auto / this, report::ratio);
    println!("\nFigure 7 — reduction in invalid configs / AutoTVM (higher is better)");
    println!("(paper geomeans: Chameleon 1.23x, Glimpse 5.56x)\n");
    println!("{}", report::table(&columns, &rows));
    report::save_json(
        &dir,
        "fig7",
        &json!({ "chameleon_invalid_reduction": invalid[1], "glimpse_invalid_reduction": invalid[2] }),
    );

    let columns = ["model", "Chameleon", "DGP", "Glimpse"];
    let (rows, time) = grid.by_model(ModelGpuResult::gpu_hours, report::ratio);
    println!("\nFigure 9a — optimization-time improvement over AutoTVM (higher is better)");
    println!("(paper geomeans: Chameleon 4.45x, DGP 3.50x, Glimpse 6.73x)\n");
    println!("{}", report::table(&columns, &rows));
    let (rows, speed) = grid.by_model(|r| r.latency_ms, |v| format!("{v:.3}"));
    println!("Figure 9b — inference speed / AutoTVM (higher is better)");
    println!("(paper geomeans: Chameleon 1.047x, DGP 1.058x, Glimpse 1.058x)\n");
    println!("{}", report::table(&columns, &rows));
    report::save_json(
        &dir,
        "fig9",
        &json!({
            "optimization_time_geomeans": { "chameleon": time[0], "dgp": time[1], "glimpse": time[2] },
            "inference_speed_geomeans": { "chameleon": speed[0], "dgp": speed[1], "glimpse": speed[2] },
        }),
    );

    // Table 2: (AutoTVM's, the tuner's) fleet totals of one model's GPU
    // hours and latency; the latency is then averaged over the fleet.
    let fleet = |kind, metric: fn(&ModelGpuResult) -> f64, m: usize| -> (f64, f64) {
        let cells = grid.vs_autotvm(kind, metric);
        (cells.iter().map(|c| c[m].0).sum(), cells.iter().map(|c| c[m].1).sum())
    };
    let latency = |r: &ModelGpuResult| r.latency_ms;
    let fleet_size = grid.gpus.len() as f64;
    let mut rows = Vec::new();
    let mut payload = Vec::new();
    for (m, model) in grid.models.iter().enumerate() {
        let (auto_hours, _) = fleet(TunerKind::AutoTvm, ModelGpuResult::gpu_hours, m);
        let auto_lat = fleet(TunerKind::AutoTvm, latency, m).0 / fleet_size;
        let mut row = vec![model.clone(), format!("{auto_hours:.2}"), format!("{auto_lat:.4}")];
        let mut entry = json!({ "model": model, "autotvm_gpu_hours": auto_hours, "autotvm_latency_ms": auto_lat });
        for kind in ADAPTIVE {
            let hours = fleet(kind, ModelGpuResult::gpu_hours, m).1;
            let lat = fleet(kind, latency, m).1 / fleet_size;
            let sr = 1.0 - hours / auto_hours;
            let ir = 1.0 - lat / auto_lat;
            let hv = sr * ir * 100.0;
            row.push(format!("{:.2} / {:.2} / {:.4}", sr * 100.0, ir * 100.0, hv));
            entry[kind.label()] = json!({
                "gpu_hours": hours, "latency_ms": lat,
                "search_reduction_pct": sr * 100.0, "inference_reduction_pct": ir * 100.0, "hv": hv,
            });
        }
        rows.push(row);
        payload.push(entry);
    }
    println!("\nTable 2 — multi-objective comparison (Eq. 2: HV = SR x IR x 100)\n");
    let columns = [
        "model",
        "AutoTVM GPU-h",
        "AutoTVM ms",
        "Chameleon SR% / IR% / HV",
        "DGP SR% / IR% / HV",
        "Glimpse SR% / IR% / HV",
    ];
    println!("{}", report::table(&columns, &rows));
    println!("(paper Glimpse: SR 82.84/84.85/87.37%, HV 5.75/4.40/3.70 for AlexNet/ResNet-18/VGG-16)");
    report::save_json(&dir, "table2", &payload);
}

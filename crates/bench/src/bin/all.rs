//! Runs the complete evaluation suite in dependency order, regenerating the
//! data behind every table and figure. Results land under `results/` and on
//! stdout; EXPERIMENTS.md records paper-vs-measured.

use std::process::Command;

fn main() {
    let bins = [
        "table1",
        "fig8",
        "fig1",
        "fig4",
        "e2e",
        "fig5",
        "ablation",
        "extrapolation",
        "diagnostics",
        "report_md",
    ];
    for bin in bins {
        println!("\n================================================================");
        println!("== {bin}");
        println!("================================================================\n");
        let status = Command::new(std::env::current_exe().expect("self path").parent().expect("bin dir").join(bin))
            .status()
            .unwrap_or_else(|e| panic!("failed to launch {bin}: {e}"));
        assert!(status.success(), "{bin} exited with {status}");
    }
}

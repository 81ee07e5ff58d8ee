//! End-to-end tests of the `glimpse` binary (spawned as a subprocess).

#![allow(clippy::disallowed_methods, reason = "IO1 covers product code: these tests write throwaway fixture files")]

use std::process::Command;

fn glimpse() -> Command {
    Command::new(env!("CARGO_BIN_EXE_glimpse"))
}

#[test]
fn gpus_lists_the_database() {
    let out = glimpse().arg("gpus").output().expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for name in ["Titan Xp", "RTX 2070 Super", "RTX 2080 Ti", "RTX 3090"] {
        assert!(text.contains(name), "missing {name}");
    }
}

#[test]
fn models_lists_table1_counts() {
    let out = glimpse().arg("models").output().expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("AlexNet"));
    assert!(text.contains("12 tasks"));
    assert!(text.contains("17 tasks"));
    assert!(text.contains("21 tasks"));
    // Extension models appear too.
    assert!(text.contains("SqueezeNet-1.1"));
}

#[test]
fn help_prints_usage_and_succeeds() {
    let out = glimpse().arg("help").output().expect("spawn");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("glimpse tune"));
}

#[test]
fn unknown_command_fails_with_message() {
    let out = glimpse().arg("frobnicate").output().expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("frobnicate"));
}

#[test]
fn sheet_parses_a_valid_data_sheet() {
    let sheet = "\
name: Test GPU\n\
generation: Turing\n\
sm_count: 40\n\
cores_per_sm: 64\n\
base_clock_mhz: 1500\n\
boost_clock_mhz: 1700\n\
mem_bandwidth_gb_s: 448\n\
mem_bus_bits: 256\n\
mem_size_gib: 8\n\
l2_cache_kib: 4096\n\
tdp_w: 200\n";
    let path = std::env::temp_dir().join("glimpse-cli-test-sheet.txt");
    std::fs::write(&path, sheet).unwrap();
    let out = glimpse().arg("sheet").arg(&path).output().expect("spawn");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Test GPU"));
    assert!(text.contains("blueprint"));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn sheet_rejects_garbage_with_nonzero_exit() {
    let path = std::env::temp_dir().join("glimpse-cli-bad-sheet.txt");
    std::fs::write(&path, "this is not a data sheet").unwrap();
    let out = glimpse().arg("sheet").arg(&path).output().expect("spawn");
    assert!(!out.status.success());
    let _ = std::fs::remove_file(&path);
}

#[test]
fn sweep_prints_the_recommendation() {
    let out = glimpse().arg("sweep").output().expect("spawn");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("recommended"));
}

#[test]
fn tune_single_task_with_random_tuner() {
    // The random tuner needs no artifact training — fast enough for a test.
    let out = glimpse()
        .args(["tune", "alexnet", "GTX 1080", "--tuner", "random", "--task", "2", "--budget", "24"])
        .output()
        .expect("spawn");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("L2"));
    assert!(text.contains("total simulated GPU time"));
}

#[test]
fn unjournaled_tune_past_its_deadline_reports_deadline_exceeded() {
    // No --checkpoint-dir: the cell settles without a journal, through the
    // same rule the checkpointed path uses.
    let report = std::env::temp_dir().join(format!("glimpse-cli-deadline-{}.json", std::process::id()));
    let out = glimpse()
        .args(["tune", "alexnet", "GTX 1080", "--tuner", "random", "--task", "2", "--budget", "24"])
        .args(["--deadline-s", "0", "--report"])
        .arg(&report)
        .output()
        .expect("spawn");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let json = std::fs::read_to_string(&report).expect("the report is written");
    let _ = std::fs::remove_file(&report);
    assert!(json.contains("DeadlineExceeded"), "report: {json}");
    assert!(json.contains("\"deadline_slack_s\": 0.0"), "report: {json}");
}

#[test]
fn doctor_over_an_unsealed_bundle_verifies_nothing() {
    // The committed bench bundles are raw JSON with no envelope: doctor has
    // no checksum to hold them to and must not call them intact.
    let dir = std::env::temp_dir().join(format!("glimpse-cli-doctor-unsealed-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let bundle = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/artifacts-RTX_2080_Ti-42-dim2.json");
    std::fs::copy(bundle, dir.join("artifacts.json")).unwrap();
    let out = glimpse().arg("doctor").arg(&dir).output().expect("spawn");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(!text.contains("intact"), "stdout: {text}");
    assert!(
        text.contains("nothing verified (1 unsealed .json file(s) skipped)"),
        "stdout: {text}"
    );
}

#[test]
fn completed_cell_resumed_as_a_different_run_is_refused() {
    // A finished cell is still held to the header of the run resuming it:
    // its stored outcome is not that run's outcome.
    let dir = std::env::temp_dir().join(format!("glimpse-cli-resume-mismatch-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let tune = |tuner: &str, budget: &str, resume: bool| {
        let mut cmd = glimpse();
        cmd.args(["tune", "alexnet", "Titan Xp", "--tuner", tuner, "--budget", budget, "--task", "2"])
            .arg("--checkpoint-dir")
            .arg(&dir);
        if resume {
            cmd.arg("--resume");
        }
        cmd.output().expect("spawn")
    };
    let first = tune("random", "24", false);
    assert!(first.status.success(), "stderr: {}", String::from_utf8_lossy(&first.stderr));
    assert!(dir.join("task2/complete.json").exists());
    let resumed = tune("autotvm", "48", true);
    let _ = std::fs::remove_dir_all(&dir);
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert!(!resumed.status.success(), "stdout: {}", String::from_utf8_lossy(&resumed.stdout));
    assert!(stderr.contains("journal belongs to a different run (tuner:"), "stderr: {stderr}");
}

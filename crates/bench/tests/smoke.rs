//! Smoke tests for the experiment harness: every `fig*`/`table*`/`ablation*`
//! binary parses its CLI and completes a tiny-size run. These shell out to
//! the `cargo` that is driving this test (nested invocations are safe: the
//! build lock is free while test binaries execute).

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn workspace_root() -> PathBuf {
    // crates/bench -> workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .unwrap()
        .to_path_buf()
}

fn cargo() -> Command {
    let mut cmd = Command::new(env!("CARGO"));
    cmd.current_dir(workspace_root());
    cmd
}

/// The harness binaries, one per paper figure/table plus the loss ablation.
fn harness_binaries() -> Vec<String> {
    let bin_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("src/bin");
    let mut bins: Vec<String> = std::fs::read_dir(bin_dir)
        .expect("src/bin must exist")
        .filter_map(|e| {
            let name = e.ok()?.file_name().into_string().ok()?;
            name.strip_suffix(".rs").map(String::from)
        })
        .collect();
    bins.sort();
    bins
}

#[test]
fn binary_registry_is_complete() {
    let bins = harness_binaries();
    assert_eq!(
        bins.len(),
        11,
        "expected 11 harness binaries, found {bins:?}"
    );
    for prefix in [
        "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "table1", "table2",
        "ablation",
    ] {
        assert!(
            bins.iter().any(|b| b.starts_with(prefix)),
            "no harness binary for {prefix} in {bins:?}"
        );
    }
}

/// `cargo run --release` one harness binary with one argument, its pool
/// width pinned by `CPR_NUM_THREADS`.
fn run_bin(bin: &str, arg: &str, threads: usize) -> Output {
    cargo()
        .env("CPR_NUM_THREADS", threads.to_string())
        .args([
            "run",
            "--release",
            "--offline",
            "-p",
            "cpr_bench",
            "--bin",
            bin,
            "--",
            arg,
        ])
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn {bin}: {e}"))
}

/// The TSV columns that hold wall-clock timings, by header name: the only
/// cells a harness binary may print differently from run to run.
const TIMING_COLUMNS: [&str; 1] = ["train_seconds"];

/// `stdout` with the cells of every timing column blanked, from the header
/// row that names the column onwards, and how many cells were blanked.
fn mask_timing_columns(stdout: &[u8]) -> (String, usize) {
    let mut column = None;
    let mut blanked = 0;
    let mut out = String::new();
    for line in String::from_utf8_lossy(stdout).lines() {
        let mut cells: Vec<&str> = line.split('\t').collect();
        if let Some(c) = cells.iter().position(|c| TIMING_COLUMNS.contains(c)) {
            column = Some(c);
        } else if let Some(cell) = column.and_then(|c| cells.get_mut(c)) {
            *cell = "-";
            blanked += 1;
        }
        out.push_str(&cells.join("\t"));
        out.push('\n');
    }
    (out, blanked)
}

/// Every binary completes a tiny run and prints the same bytes on a second
/// run at another pool width, timing columns aside. Those bytes are the
/// safety net for any change that should not move a figure.
#[test]
fn every_harness_binary_runs_a_tiny_configuration() {
    for bin in harness_binaries() {
        let first = run_bin(&bin, "--tiny", 1);
        let second = run_bin(&bin, "--tiny", 2);
        for output in [&first, &second] {
            assert!(
                output.status.success(),
                "{bin} --tiny exited with {}:\n{}",
                output.status,
                String::from_utf8_lossy(&output.stderr)
            );
            assert!(
                !output.stdout.is_empty(),
                "{bin} --tiny produced no stdout (tables/figures print to stdout)"
            );
        }
        let (first, blanked) = mask_timing_columns(&first.stdout);
        let (second, _) = mask_timing_columns(&second.stdout);
        assert_eq!(
            blanked > 0,
            bin == "ablation_loss",
            "{bin}: timing cells masked: {blanked}"
        );
        assert_eq!(first, second, "{bin} --tiny printed different bytes");
    }
    // A mistyped scale flag is refused with a usage line, never run at the
    // default scale.
    let output = run_bin("fig3_granularity", "--ful", 1);
    assert_eq!(output.status.code(), Some(2), "{output:?}");
    assert!(output.stdout.is_empty(), "{output:?}");
    assert!(
        String::from_utf8_lossy(&output.stderr).contains("usage:"),
        "{output:?}"
    );
}

/// The SGR rows of these two figures depend on the order of every sum over
/// a sparse-grid design row; two runs of one binary at one pool width must
/// print the same bytes, unmasked. (They once did not: the sparse grid's
/// level map was a std `HashMap`, whose per-instance iteration order fixed
/// the order of those sums.)
#[test]
fn sgr_figures_print_identical_bytes_run_to_run() {
    for bin in ["fig4_refinement", "fig7_modelsize"] {
        let first = run_bin(bin, "--tiny", 2);
        let second = run_bin(bin, "--tiny", 2);
        for output in [&first, &second] {
            assert!(
                output.status.success(),
                "{bin} --tiny exited with {}:\n{}",
                output.status,
                String::from_utf8_lossy(&output.stderr)
            );
        }
        assert_eq!(
            String::from_utf8_lossy(&first.stdout),
            String::from_utf8_lossy(&second.stdout),
            "{bin} --tiny printed different bytes on a second run"
        );
    }
}

//! End-to-end tests of the compiled `cbi` binary.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

fn cbi() -> Command {
    Command::new(env!("CARGO_BIN_EXE_cbi"))
}

fn tmp(name: &str, contents: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("cbi-bin-test-{name}"));
    fs::write(&path, contents).expect("write temp file");
    path
}

const PROG: &str = "fn parse_mode(int raw) -> int { if (raw > 2) { return -1; } return raw; }\n\
     fn main() -> int {\n\
         int mode = parse_mode(read());\n\
         ptr buf = alloc(4);\n\
         buf[mode] = 1;\n\
         print(buf[mode]);\n\
         free(buf);\n\
         return 0;\n\
     }";

#[test]
fn instrument_prints_sites_and_source() {
    let p = tmp("bin1.mc", PROG);
    let out = cbi()
        .args(["instrument", p.to_str().unwrap(), "--scheme", "returns"])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("__obs_sign"), "{stdout}");
    assert!(stdout.contains("parse_mode()"), "{stdout}");
}

#[test]
fn run_reports_outcome_and_observations() {
    let p = tmp("bin2.mc", PROG);
    let out = cbi()
        .args([
            "run",
            p.to_str().unwrap(),
            "--scheme",
            "returns",
            "--density",
            "1",
            "--input",
            "2",
        ])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("outcome: success"), "{stdout}");
    assert!(stdout.contains("parse_mode() > 0"), "{stdout}");
}

#[test]
fn crashing_run_is_reported_not_an_error() {
    let p = tmp("bin3.mc", PROG);
    // mode 3 -> parse_mode returns -1 -> buf[-1] segfaults.
    let out = cbi()
        .args(["run", p.to_str().unwrap(), "--density", "1", "--input", "3"])
        .output()
        .expect("spawn");
    assert!(out.status.success(), "a failure is data, not a CLI failure");
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Under the default `checks` scheme, the sampled bounds check catches
    // the bad index before the segfault: an assertion failure at density 1.
    assert!(stdout.contains("assertion failure"), "{stdout}");
    assert!(stdout.contains("!(0 <= mode < len(buf))"), "{stdout}");
}

#[test]
fn campaign_then_analyze_pipeline() {
    let p = tmp("bin4.mc", PROG);
    let inputs = tmp("bin4-inputs.txt", "0\n1\n2\n3\n0\n1\n3\n2\n");
    let reports = std::env::temp_dir().join("cbi-bin-test-reports4.cbr");
    let out = cbi()
        .args([
            "campaign",
            p.to_str().unwrap(),
            inputs.to_str().unwrap(),
            "--scheme",
            "returns",
            "--density",
            "1",
            "--spool",
            reports.to_str().unwrap(),
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("8 runs"), "{stderr}");

    let out = cbi()
        .args([
            "analyze",
            reports.to_str().unwrap(),
            p.to_str().unwrap(),
            "--scheme",
            "returns",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The crashing condition is parse_mode() < 0.
    assert!(stdout.contains("parse_mode() < 0"), "{stdout}");
}

#[test]
fn bad_usage_exits_nonzero_with_usage() {
    let out = cbi().args(["frobnicate"]).output().expect("spawn");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage:"), "{stderr}");
    // The usage text documents every subcommand, including profile.
    assert!(stderr.contains("cbi profile"), "{stderr}");
    assert!(stderr.contains("--jobs"), "{stderr}");
    assert!(stderr.contains("--trace-out"), "{stderr}");
}

#[test]
fn jobs_zero_and_non_numeric_are_rejected() {
    let p = tmp("bin5.mc", PROG);
    let inputs = tmp("bin5-inputs.txt", "0\n1\n2\n3\n");
    for bad in ["0", "many"] {
        let out = cbi()
            .args([
                "campaign",
                p.to_str().unwrap(),
                inputs.to_str().unwrap(),
                "--jobs",
                bad,
            ])
            .output()
            .expect("spawn");
        assert!(!out.status.success(), "--jobs {bad} should be rejected");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("--jobs") || stderr.contains("jobs"),
            "{stderr}"
        );
    }
}

#[test]
fn profile_prints_phase_worker_and_vm_breakdown() {
    let p = tmp("bin6.mc", PROG);
    let inputs = tmp("bin6-inputs.txt", "0\n1\n2\n3\n0\n1\n3\n2\n");
    let out = cbi()
        .args([
            "profile",
            p.to_str().unwrap(),
            inputs.to_str().unwrap(),
            "--scheme",
            "returns",
            "--density",
            "1",
            "--jobs",
            "2",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("profile:"), "{stdout}");
    assert!(stdout.contains("jobs=2"), "{stdout}");
    assert!(stdout.contains("phases:"), "{stdout}");
    assert!(stdout.contains("phase.campaign"), "{stdout}");
    assert!(stdout.contains("workers:"), "{stdout}");
    assert!(stdout.contains("worker-1"), "{stdout}");
    assert!(stdout.contains("vm totals:"), "{stdout}");
    assert!(stdout.contains("steps"), "{stdout}");
    assert!(stdout.contains("fast-path"), "{stdout}");
    assert!(stdout.contains("samples taken"), "{stdout}");
}

#[test]
fn campaign_metrics_and_trace_outputs() {
    let p = tmp("bin7.mc", PROG);
    let inputs = tmp("bin7-inputs.txt", "0\n1\n2\n3\n");
    let metrics = std::env::temp_dir().join("cbi-bin-test-metrics7.jsonl");
    let trace = std::env::temp_dir().join("cbi-bin-test-trace7.json");
    let out = cbi()
        .args([
            "campaign",
            p.to_str().unwrap(),
            inputs.to_str().unwrap(),
            "--density",
            "1",
            "--jobs",
            "2",
            "--metrics",
            "--metrics-out",
            metrics.to_str().unwrap(),
            "--trace-out",
            trace.to_str().unwrap(),
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // --metrics prints the summary table on stderr.
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("campaign.trials"), "{stderr}");

    // JSONL dump: every non-empty line is a JSON object with a type tag.
    let jsonl = fs::read_to_string(&metrics).expect("metrics file");
    assert!(!jsonl.trim().is_empty());
    for line in jsonl.lines() {
        assert!(line.starts_with("{\"type\":"), "{line}");
    }
    assert!(jsonl.contains("\"vm.steps\""), "{jsonl}");

    // Chrome trace: a traceEvents array with span (X) events.
    let chrome = fs::read_to_string(&trace).expect("trace file");
    assert!(chrome.contains("\"traceEvents\""), "{chrome}");
    assert!(chrome.contains("\"ph\":\"X\""), "{chrome}");
    assert!(chrome.contains("campaign.shard"), "{chrome}");
}

#[test]
fn closed_stdout_ends_the_command_quietly() {
    // The reader goes before reading a byte, as `cbi … | head` does once
    // it has its lines; the `transform` listing (~77 KB) outgrows a pipe
    // buffer, so its write meets the closed pipe whatever the timing.
    let programs = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../workloads/programs");
    for (cmd, file, scheme) in [
        ("instrument", "treeadd.mc", "checks"),
        ("transform", "bc.mc", "scalar-pairs"),
    ] {
        let mut child = cbi()
            .args([
                cmd,
                programs.join(file).to_str().unwrap(),
                "--scheme",
                scheme,
            ])
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("spawn");
        drop(child.stdout.take());
        let out = child.wait_with_output().expect("wait");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "{cmd} {file}: {stderr}");
        assert!(
            out.status.success(),
            "{cmd} {file}: {:?} {stderr}",
            out.status
        );
    }
}

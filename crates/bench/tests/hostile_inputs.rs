//! Parsers of untrusted input never panic: the `serde::json` shim, scenario
//! files and topology files must turn any byte soup into `Ok` or `Err`, and
//! the CLIs must turn a hostile file or an out-of-range value into exit
//! code 2 before anything simulates — the same verdict, with the same
//! message, as the scenario key of the same knob.
//!
//! The mutation loop is seeded and in-tree (no fuzzing toolchain needed), so
//! a failure reproduces exactly; the offending input is printed.

use std::panic;
use std::process::Command;

use laser_bench::{CustomTopology, RunSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::json::Value;

const SCENARIO: &str = r#"{
  "name": "nightly",
  "scale": 0.25,
  "threads": 3,
  "budget_steps": 500000,
  "pipeline": true,
  "driver_lag_quanta": 1,
  "format": "csv",
  "cells": [
    {"workload": "histogram'", "tool": "laser", "topology": "8s"},
    {"workload": "swaptions", "tool": "native"}
  ],
  "sweeps": [
    {"kind": "xsocket"},
    {"kind": "grid", "workloads": ["kmeans"], "tools": ["native", "laser-detect-sav97"],
     "topologies": ["flat", "2s"]}
  ]
}"#;

const TOPOLOGY: &str = r#"{
  "name": "fat-thin",
  "core_blocks": [6, 2],
  "remote": {"remote_hitm": 220, "remote_llc": 100, "remote_dram": 310}
}"#;

/// Bytes that steer a JSON parser into its interesting branches.
const ALPHABET: &[u8] = b"{}[]:,\"\\ \n0123456789-+.eEtrufalsn\xc3\xa9";

/// Apply one to four random edits: overwrite, insert, delete, duplicate or
/// truncate.
fn mutate(rng: &mut StdRng, seed: &[u8]) -> Vec<u8> {
    let mut bytes = seed.to_vec();
    for _ in 0..rng.gen_range(1..5usize) {
        let len = bytes.len();
        let at = rng.gen_range(0..len + 1);
        let byte = if rng.gen_bool(0.8) {
            ALPHABET[rng.gen_range(0..ALPHABET.len())]
        } else {
            rng.gen::<u64>() as u8
        };
        match rng.gen_range(0..5u32) {
            0 if at < len => bytes[at] = byte,
            1 => bytes.insert(at, byte),
            2 if at < len => {
                let end = (at + rng.gen_range(1..9usize)).min(len);
                bytes.drain(at..end);
            }
            3 if at < len => {
                let end = (at + rng.gen_range(1..17usize)).min(len);
                let span = bytes[at..end].to_vec();
                bytes.splice(at..at, span);
            }
            _ => bytes.truncate(at),
        }
    }
    bytes
}

#[test]
fn seeded_mutations_never_panic_the_json_scenario_or_topology_parsers() {
    for (seed, input) in [(0x5ce0_a210, SCENARIO), (0x7090_f11e, TOPOLOGY)] {
        // The unmutated inputs are valid, so the loop starts from the
        // accepting paths.
        assert!(RunSpec::parse(SCENARIO).is_ok());
        assert!(CustomTopology::from_json(TOPOLOGY).is_ok());
        let mut rng = StdRng::seed_from_u64(seed);
        for case in 0..3_000 {
            let text = String::from_utf8_lossy(&mutate(&mut rng, input.as_bytes())).into_owned();
            let outcome = panic::catch_unwind(|| {
                let _ = Value::parse(&text);
                let _ = RunSpec::parse(&text);
                let _ = CustomTopology::from_json(&text);
            });
            assert!(
                outcome.is_ok(),
                "seed {seed:#x} case {case} panicked on {text:?}"
            );
        }
    }
}

#[test]
fn deeply_nested_topology_file_exits_two_without_overflowing() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("nested_topology.json");
    std::fs::write(&path, "[".repeat(50_000)).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["campaign", "--topology-file"])
        .arg(&path)
        .output()
        .expect("run experiments");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("nest too deeply"), "{stderr}");
}

/// One rejected command line: the arguments and a fragment of the message.
type Case = (&'static [&'static str], &'static str);

/// Every value the run-spec table rejects, on `experiments`: each must exit
/// 2 with nothing on stdout, before any cell simulates.
const EXPERIMENTS_REJECTS: &[Case] = &[
    (
        &["campaign", "--scale", "0"],
        "--scale must be a positive number, got 0",
    ),
    (
        &["campaign", "--scale", "-1"],
        "--scale must be a positive number, got -1",
    ),
    (
        &["campaign", "--scale", "nan"],
        "--scale must be a positive number, got NaN",
    ),
    (
        &["campaign", "--scale", "inf"],
        "--scale must be a positive number, got inf",
    ),
    (
        &["fig10", "--scale", "0"],
        "--scale must be a positive number, got 0",
    ),
    (
        &["campaign", "--cell-budget-steps", "0"],
        "--cell-budget-steps must be at least 1",
    ),
    (
        &["campaign", "--threads", "0"],
        "--threads must be at least 1",
    ),
    (
        &["campaign", "--driver-lag", "1025"],
        "--driver-lag must be at most 1024",
    ),
    (
        &["scenario", "s.json", "--scale", "0.5"],
        "whole run specification",
    ),
    // A missing layout file is named in the message.
    (
        &["campaign", "--topology-file", "/nonexistent/topo.json"],
        "--topology-file /nonexistent/topo.json: cannot read",
    ),
];

/// Out-of-range `bench_throughput` run values (SAV 0 would reach the PMU,
/// the lag sizes a channel): each must exit 2 without writing a report.
const BENCH_REJECTS: &[Case] = &[
    (&["--sav", "0"], "--sav must be at least 1"),
    (&["--repeats", "0"], "--repeats must be at least 1"),
    (
        &["--driver-lag", "1025"],
        "--driver-lag must be at most 1024",
    ),
    (
        &["--scale", "0"],
        "--scale must be a positive number, got 0",
    ),
];

#[test]
fn experiments_rejects_out_of_range_knobs_before_simulating() {
    for &(args, needle) in EXPERIMENTS_REJECTS {
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(args)
            .output()
            .expect("run experiments");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} wrote to stdout");
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
        assert!(!stderr.contains("cells on"), "{args:?} simulated: {stderr}");
    }
}

#[test]
fn bench_throughput_rejects_out_of_range_knobs_before_writing_a_report() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let (pipeline, hotloop) = (
        dir.join("rejected_pipeline.json"),
        dir.join("rejected_hot.json"),
    );
    for &(args, needle) in BENCH_REJECTS {
        let out = Command::new(env!("CARGO_BIN_EXE_bench_throughput"))
            .args(args)
            .arg("--output")
            .arg(&pipeline)
            .arg("--hotloop-output")
            .arg(&hotloop)
            .output()
            .expect("run bench_throughput");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
        assert!(!stderr.contains("benching"), "{args:?} simulated: {stderr}");
        assert!(
            !pipeline.exists() && !hotloop.exists(),
            "{args:?} wrote a report"
        );
    }
}

#[test]
fn a_scenario_naming_sav_zero_exits_two_before_simulating() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("sav0_scenario.json");
    std::fs::write(
        &path,
        r#"{"name": "sav0", "cells": [{"workload": "swaptions", "tool": "laser-detect-sav0"}]}"#,
    )
    .unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .arg("scenario")
        .arg(&path)
        .output()
        .expect("run experiments");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(out.stdout.is_empty());
    assert!(
        stderr.contains("unknown tool 'laser-detect-sav0'"),
        "{stderr}"
    );
}

//! Parsers of untrusted input never panic: the `serde::json` shim, scenario
//! files and topology files must turn any byte soup into `Ok` or `Err`, and
//! the CLI must turn a hostile file into exit code 2.
//!
//! The mutation loop is seeded and in-tree (no fuzzing toolchain needed), so
//! a failure reproduces exactly; the offending input is printed.

use std::panic;
use std::process::Command;

use laser_bench::{CustomTopology, Scenario};
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
        assert!(Scenario::parse(SCENARIO).is_ok());
        assert!(CustomTopology::from_json(TOPOLOGY).is_ok());
        let mut rng = StdRng::seed_from_u64(seed);
        for case in 0..3_000 {
            let text = String::from_utf8_lossy(&mutate(&mut rng, input.as_bytes())).into_owned();
            let outcome = panic::catch_unwind(|| {
                let _ = Value::parse(&text);
                let _ = Scenario::parse(&text);
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

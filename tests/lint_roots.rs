//! Every engine library root carries the panic-denying line that the
//! `tests/lint_fixtures/bad/panic.rs` fixture proves effective (the fixture
//! harness, `tests/lint_fixtures/check.py`, runs it under clippy).

use std::fs;
use std::path::Path;

const ROOT: &str = env!("CARGO_MANIFEST_DIR");

/// The `#![cfg_attr(not(test), deny(...))]` attribute in `source`, with all
/// whitespace removed so rustfmt's line breaking does not matter.
fn engine_root_attr(source: &str) -> Option<String> {
    source.match_indices("#![cfg_attr(").find_map(|(start, _)| {
        let len = source[start..].find(")]")? + 2;
        let attr: String = source[start..start + len].split_whitespace().collect();
        attr.starts_with("#![cfg_attr(not(test),deny(")
            .then_some(attr)
    })
}

/// `src/lib.rs` of the umbrella package plus every `crates/*` workspace
/// member (the shims mirror third-party APIs and are not engine code).
fn engine_lib_roots() -> Vec<String> {
    let manifest = fs::read_to_string(Path::new(ROOT).join("Cargo.toml")).unwrap();
    let members = manifest.split("members = [").nth(1).unwrap();
    let members = &members[..members.find(']').unwrap()];
    let mut roots = vec!["src/lib.rs".to_string()];
    roots.extend(
        members
            .split('"')
            .filter(|m| m.starts_with("crates/"))
            .map(|m| format!("{m}/src/lib.rs")),
    );
    roots
}

#[test]
fn every_engine_lib_root_denies_panics_like_the_fixture() {
    let fixture =
        fs::read_to_string(Path::new(ROOT).join("tests/lint_fixtures/bad/panic.rs")).unwrap();
    let want = engine_root_attr(&fixture).expect("panic.rs carries the engine-root line");
    let roots = engine_lib_roots();
    assert!(roots.len() >= 8, "engine roots: {roots:?}");
    for root in roots {
        let source = fs::read_to_string(Path::new(ROOT).join(&root)).unwrap();
        assert_eq!(
            engine_root_attr(&source).as_deref(),
            Some(want.as_str()),
            "{root} must carry the engine-root line from panic.rs verbatim"
        );
    }
}

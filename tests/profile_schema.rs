//! Validates the `descendc profile --json` document for every
//! pass-corpus program against the checked-in JSON Schema
//! (`schemas/profile.schema.json`).
//!
//! The document is read with the shared `descend_diag::json` parser and
//! checked by the shared schema-subset validator in
//! `tests/common/schema.rs`, which is driven by the schema *file* —
//! editing the schema changes what this test enforces.

#[path = "common/schema.rs"]
mod schema;

use descend::compiler::{profile, Compiler};
use descend::diag::json::parse;
use descend::sim::LaunchConfig;
use schema::validate;
use std::collections::HashMap;
use std::path::PathBuf;

fn pass_corpus() -> Vec<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples/descend");
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("corpus dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "descend"))
        .collect();
    files.sort();
    files
}

#[test]
fn profile_json_matches_schema_for_whole_corpus() {
    let schema_text = std::fs::read_to_string(
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("schemas/profile.schema.json"),
    )
    .expect("schema file");
    let schema = parse(&schema_text).unwrap();
    let compiler = Compiler::new();
    let cfg = LaunchConfig {
        detect_races: true,
        ..LaunchConfig::default()
    };
    let mut validated = 0;
    for f in pass_corpus() {
        let src = std::fs::read_to_string(&f).unwrap();
        let compiled = compiler.compile_source(&src).unwrap();
        if compiled.checked.host_fn("main").is_none() {
            continue;
        }
        let (run, traces) = compiled
            .run_host_traced("main", &HashMap::new(), &cfg)
            .unwrap_or_else(|e| panic!("{f:?} failed to run: {e}"));
        let profiles = profile::profile_launches(&src, &run.launches, &traces);
        let json = profile::render_json(&f.display().to_string(), "main", &profiles);
        let doc = parse(&json).unwrap();
        validate(&schema, &doc, "$");
        validated += 1;
    }
    assert!(validated >= 5, "corpus should exercise several programs");
}

#[test]
fn validator_rejects_broken_documents() {
    let schema = parse(
        r#"{"type": "object", "required": ["a"],
            "properties": {"a": {"type": "integer", "minimum": 0}},
            "additionalProperties": {"type": "array", "maxItems": 1}}"#,
    )
    .unwrap();
    let check = |doc: &str| {
        let doc = parse(doc).unwrap();
        std::panic::catch_unwind(|| validate(&schema, &doc, "$")).is_ok()
    };
    assert!(check(r#"{"a": 3, "b": [1]}"#));
    assert!(!check(r#"{}"#), "missing required field must fail");
    assert!(!check(r#"{"a": -1}"#), "minimum violation must fail");
    assert!(
        !check(r#"{"a": 3, "b": [1, 2]}"#),
        "additionalProperties/maxItems violation must fail"
    );
}

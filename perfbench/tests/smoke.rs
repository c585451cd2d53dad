//! Short-run smoke test of the benchmark binary, one test per workload:
//!
//! - every metric `BENCHMARK.json` names prints with its unit, and every
//!   check the run makes passes;
//! - the traced run's span tree is well formed: children lie inside
//!   their parents and do not overlap, so self times are non-negative;
//! - the deterministic counts repeat exactly across two runs with the
//!   same seed.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use descend_compiler::server::{parse_json, Json};
use std::path::Path;
use std::process::Command;

/// Per-layer metrics that count work rather than time it, so two runs
/// with one seed must agree on them exactly.
const DETERMINISTIC: &[&str] = &[
    "codegen.ir_nodes",
    "backends.bytes.",
    "compiler.hits.",
    "compiler.misses.",
    "compiler.hit_ratio",
    "gpu_sim.instructions",
    "gpu_sim.global_transactions",
    "gpu_sim.shared_replays",
    "gpu_sim.atomic_serializations",
    "gpu_sim.shuffles",
    "gpu_sim.modeled_cycles",
    "gpu_sim.descend_over_cuda",
];

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    parse_json(&text).expect("BENCHMARK.json is JSON")
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let doc = benchmark_json();
    let str_of = |m: &Json, key: &str| {
        m.get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("metric lacks `{key}`"))
            .to_string()
    };
    doc.get(list)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks `{list}`"))
        .iter()
        .map(|m| (str_of(m, "name"), str_of(m, "unit")))
        .collect()
}

fn num(v: &Json) -> f64 {
    match v {
        Json::Num(n) => *n,
        other => panic!("expected a number, got {other:?}"),
    }
}

/// Runs the benchmark briefly and returns its result object, checked
/// against the declared metrics of `list`.
fn run(workload: &str, trace: bool, list: &str) -> Vec<(String, f64)> {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.5"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    assert!(
        out.status.success(),
        "{workload} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result = parse_json(last).expect("the last line is JSON");
    let Json::Obj(fields) = &result else {
        panic!("result is not an object: {last}")
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{last}");
    assert_eq!(num(result.get("failed").expect("failed")), 0.0);
    assert!(num(result.get("attempted").expect("attempted")) >= 1.0);
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("metrics is not an object: {last}")
    };
    let printed: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| {
            let unit = m.get("unit").and_then(Json::as_str).expect("unit");
            (name.clone(), unit.to_string())
        })
        .collect();
    assert_eq!(
        printed,
        declared(list),
        "{workload}: metrics or units differ"
    );
    metrics
        .iter()
        .map(|(name, m)| (name.clone(), num(m.get("value").expect("value"))))
        .collect()
}

/// Checks the span tree the last traced run of `workload` wrote.
fn check_spans(workload: &str) {
    let exe = Path::new(env!("CARGO_BIN_EXE_perfbench"));
    let path = exe.with_file_name(format!("perfbench-spans-{workload}.jsonl"));
    let text = std::fs::read_to_string(&path).expect("spans were written");
    let spans: Vec<(u64, u64, Option<usize>)> = text
        .lines()
        .map(|line| {
            let s = parse_json(line).expect("span line is JSON");
            let field = |k: &str| num(s.get(k).unwrap_or_else(|| panic!("span lacks `{k}`")));
            let parent = match s.get("parent") {
                Some(Json::Null) => None,
                Some(p) => Some(num(p) as usize),
                None => panic!("span lacks `parent`"),
            };
            assert!(s.get("name").and_then(Json::as_str).is_some());
            assert!(s.get("request").is_some());
            (field("start_ns") as u64, field("end_ns") as u64, parent)
        })
        .collect();
    assert!(!spans.is_empty(), "{workload}: no spans recorded");
    let mut covered = vec![0u64; spans.len()];
    let mut last_end: Vec<Option<u64>> = vec![None; spans.len()];
    for (i, &(start, end, parent)) in spans.iter().enumerate() {
        assert!(start <= end, "span {i} ends before it starts");
        let Some(p) = parent else { continue };
        assert!(p < i, "span {i} names a later parent");
        let (ps, pe, _) = spans[p];
        assert!(ps <= start && end <= pe, "span {i} lies outside its parent");
        assert!(
            last_end[p].is_none_or(|e| e <= start),
            "span {i} overlaps a sibling"
        );
        last_end[p] = Some(end);
        covered[p] += end - start;
    }
    for (i, &(start, end, _)) in spans.iter().enumerate() {
        assert!(covered[i] <= end - start, "span {i} has negative self time");
    }
}

fn smoke(workload: &str) {
    let e2e = run(workload, false, "end_to_end");
    for (name, value) in &e2e {
        assert!(*value > 0.0, "{workload}: {name} is {value}");
    }
    let first = run(workload, true, "per_layer");
    check_spans(workload);
    let second = run(workload, true, "per_layer");
    for ((name, a), (_, b)) in first.iter().zip(&second) {
        if DETERMINISTIC.iter().any(|d| name.starts_with(d)) {
            assert_eq!(a, b, "{workload}: {name} differs between same-seed runs");
        }
    }
}

#[test]
fn compile_cold() {
    smoke("compile_cold");
}

#[test]
fn serve_edit() {
    smoke("serve_edit");
}

#[test]
fn fig8_exec() {
    smoke("fig8_exec");
}

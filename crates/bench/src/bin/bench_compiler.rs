//! Compiler throughput benchmark — the source of `BENCH_COMPILER.json`.
//!
//! Times the whole pass corpus (`examples/descend/*.descend`) through
//! the full pipeline (parse, typeck, IR lowering, emission for every
//! backend) in two modes:
//!
//! - **cold**: a fresh [`CompileSession`] per compile — every query
//!   misses, i.e. the historical batch-compiler cost;
//! - **warm**: one persistent session, pre-warmed with a single
//!   untimed pass — every query hits, i.e. the steady-state cost of
//!   `descendc serve` answering an unchanged program.
//!
//! Wall-clock is min-of-N per file to shrug off scheduler noise;
//! throughput is reported as programs/sec over the corpus.
//!
//! Usage:
//!   bench_compiler [--reps N] [--json PATH] [--baseline PATH]
//!
//! `--json` writes the machine-readable results (schema
//! `descend-bench-compiler/1`). `--baseline` re-reads a previously
//! committed file and exits 1 when the corpus totals regressed by more
//! than 25% wall-clock (totals under the ratchet's noise floor never
//! gate), or when the warm/cold speedup fell below the 5x the
//! incremental engine is designed to clear — the scheduled CI bench job
//! runs with `--baseline BENCH_COMPILER.json`. A baseline without
//! `summary.cold_ms`/`summary.warm_ms` exits 2.

use descend_bench::ratchet::{self, bail, load_baseline, summary, Args};
use descend_compiler::CompileSession;
use std::time::Instant;

/// The warm path must stay at least this much faster than cold. Gates
/// unconditionally: ratios are robust to machine noise in a way
/// single-digit-millisecond totals are not.
const MIN_WARM_SPEEDUP: f64 = 5.0;

struct Entry {
    file: String,
    cold_ms: f64,
    warm_ms: f64,
}

fn corpus() -> Vec<(String, String)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/descend");
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("examples/descend exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == "descend"))
        .collect();
    files.sort();
    files
        .into_iter()
        .map(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            let src = std::fs::read_to_string(&p).expect("corpus file reads");
            (name, src)
        })
        .collect()
}

fn main() {
    let args = Args::parse(|_, _| false);
    // Read the baseline before timing anything, so a bad path or a
    // drifted layout fails fast.
    let baseline = args.baseline.as_deref().map(|path| {
        let totals = load_baseline(path)
            .and_then(|b| Ok([summary(&b, "cold_ms")?, summary(&b, "warm_ms")?]));
        (
            path,
            totals.unwrap_or_else(|e| bail(&format!("{path}: {e}"))),
        )
    });

    let sources = corpus();
    assert!(!sources.is_empty(), "empty corpus");

    // Cold: a fresh session per compile, so every query misses.
    let mut entries: Vec<Entry> = sources
        .iter()
        .map(|(name, src)| {
            let cold_ms = ratchet::min_of(args.reps, || {
                let mut session = CompileSession::new();
                let t = Instant::now();
                session.compile_source(src).expect("pass corpus compiles");
                t.elapsed().as_secs_f64() * 1e3
            });
            Entry {
                file: name.clone(),
                cold_ms,
                warm_ms: 0.0,
            }
        })
        .collect();

    // Warm: one persistent session over the whole corpus, pre-warmed
    // with an untimed pass — the serve steady state.
    let mut session = CompileSession::new();
    for (_, src) in &sources {
        session.compile_source(src).expect("pass corpus compiles");
    }
    session.reset_stats();
    for (entry, (_, src)) in entries.iter_mut().zip(&sources) {
        entry.warm_ms = ratchet::min_ms(args.reps, || {
            session.compile_source(src).expect("pass corpus compiles");
        });
    }
    assert_eq!(
        session.stats().misses(),
        0,
        "the timed warm passes must be pure cache hits"
    );

    let cold_total: f64 = entries.iter().map(|e| e.cold_ms).sum();
    let warm_total: f64 = entries.iter().map(|e| e.warm_ms).sum();
    let speedup = cold_total / warm_total;
    let n = entries.len();

    println!(
        "{:<36} {:>10} {:>10} {:>9}",
        "file", "cold ms", "warm ms", "speedup"
    );
    for e in &entries {
        println!(
            "{:<36} {:>10.3} {:>10.3} {:>8.1}x",
            e.file,
            e.cold_ms,
            e.warm_ms,
            e.cold_ms / e.warm_ms
        );
    }
    println!(
        "corpus: {n} programs, cold {:.1}ms ({:.0}/s), warm {:.2}ms ({:.0}/s), speedup {speedup:.1}x",
        cold_total,
        n as f64 / (cold_total / 1e3),
        warm_total,
        n as f64 / (warm_total / 1e3),
    );

    if let Some(path) = &args.json {
        std::fs::write(path, to_json(&entries)).expect("write json");
        println!("wrote {path}");
    }

    if let Some((path, [old_cold, old_warm])) = baseline {
        let mut failed = ratchet::regressed("corpus cold_ms", old_cold, cold_total);
        failed |= ratchet::regressed("corpus warm_ms", old_warm, warm_total);
        if speedup < MIN_WARM_SPEEDUP {
            eprintln!("REGRESSION: warm speedup {speedup:.1}x fell below {MIN_WARM_SPEEDUP}x");
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        println!("no wall-clock regression >25% against {path}; warm speedup {speedup:.1}x >= {MIN_WARM_SPEEDUP}x");
    }
}

fn to_json(entries: &[Entry]) -> String {
    let cold_total: f64 = entries.iter().map(|e| e.cold_ms).sum();
    let warm_total: f64 = entries.iter().map(|e| e.warm_ms).sum();
    let n = entries.len();
    let mut s = String::from("{\n  \"schema\": \"descend-bench-compiler/1\",\n  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"file\": \"{}\", \"cold_ms\": {:.3}, \"warm_ms\": {:.3}, \"speedup\": {:.1}}}",
            e.file,
            e.cold_ms,
            e.warm_ms,
            e.cold_ms / e.warm_ms
        ));
        if i + 1 < entries.len() {
            s.push(',');
        }
        s.push('\n');
    }
    s.push_str(&format!(
        "  ],\n  \"summary\": {{\"files\": {n}, \"cold_ms\": {cold_total:.3}, \"warm_ms\": {warm_total:.3}, \
         \"cold_programs_per_sec\": {:.1}, \"warm_programs_per_sec\": {:.1}, \"warm_speedup\": {:.1}}}\n}}\n",
        n as f64 / (cold_total / 1e3),
        n as f64 / (warm_total / 1e3),
        cold_total / warm_total,
    ));
    s
}

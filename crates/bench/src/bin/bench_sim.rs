//! Simulator throughput benchmark — the source of `BENCH_SIM.json`.
//!
//! Times every Figure 8 entry through the simulator's default
//! warp-vectorized executor at two footprints (interpreter-scale, the
//! sizes the pre-warp simulator could sustain, and paper-scale, the
//! 2^20-element sizes the paper evaluates), and compares against the
//! lane-stepping reference interpreter at the largest footprint the two
//! modes have in common. Wall-clock is launch-only (allocation and
//! readback excluded), min-of-N to shrug off scheduler noise.
//!
//! Usage:
//!   bench_sim [--reps N] [--json PATH] [--baseline PATH] [--no-reference]
//!             [--trace DIR]
//!
//! `--json` writes the machine-readable results. `--baseline` re-reads a
//! previously committed file and exits 1 when any entry above the
//! ratchet's noise floor regressed by more than 25% wall-clock — the
//! scheduled CI bench job runs with `--baseline BENCH_SIM.json` as a perf
//! ratchet. A baseline that cannot be read, has no `entries`, or lacks
//! an entry this run measured exits 2.
//! `--trace DIR` additionally records one traced run per benchmark at
//! the reduced parity-test footprints and writes the raw launch-trace
//! JSON per launch into DIR (deterministic artifacts; tracing never
//! runs inside the timed section, so the timings above are unaffected).

use descend_bench::ratchet::{self, bail, load_baseline, sim_entries, sim_key, Args};
use descend_bench::SIM_BENCHES;
use descend_benchmarks::sources::{BLOCK_SIZE, HIST_BINS, HIST_BLOCK, STENCIL_BLOCK};
use descend_benchmarks::{baselines, run_benchmark_traced, trace_param, ALL_BENCHMARKS};
use gpu_sim::trace::launch_trace_json;
use gpu_sim::{ElemTy, ExecMode, Gpu, LaunchConfig};
use std::time::Instant;

#[derive(Clone, Copy, PartialEq)]
enum Scale {
    Interpreter,
    Paper,
}

impl Scale {
    fn name(self) -> &'static str {
        match self {
            Scale::Interpreter => "interpreter",
            Scale::Paper => "paper",
        }
    }
}

struct Entry {
    bench: &'static str,
    param: usize,
    scale: Scale,
    detect_races: bool,
    warp_ms: f64,
    reference_ms: Option<f64>,
    speedup: Option<f64>,
}

fn cfg(exec: ExecMode, detect_races: bool) -> LaunchConfig {
    LaunchConfig {
        exec,
        detect_races,
        ..LaunchConfig::default()
    }
}

/// Launch-only wall-clock in milliseconds for one benchmark at one
/// footprint, min over `reps` fresh GPUs (state never carries across
/// reps).
fn time_bench(bench: &str, param: usize, cfg: &LaunchConfig, reps: usize) -> f64 {
    ratchet::min_of(reps, || run_once(bench, param, cfg) * 1e3)
}

/// One full run of a benchmark; returns seconds spent inside
/// `Gpu::launch` (summed over the benchmark's kernels).
fn run_once(bench: &str, param: usize, cfg: &LaunchConfig) -> f64 {
    let mut gpu = Gpu::new();
    match bench {
        "Reduce" | "ReduceShfl" => {
            let (n, bs) = (param, BLOCK_SIZE);
            let k = if bench == "Reduce" {
                baselines::reduce(n, bs)
            } else {
                baselines::reduce_shuffle(n, bs)
            };
            let data: Vec<f64> = (0..n).map(|i| (i % 17) as f64).collect();
            let inp = gpu.alloc_f64(&data);
            let out = gpu.alloc_zeroed(ElemTy::F64, n / bs);
            let t = Instant::now();
            gpu.launch(
                &k,
                [(n / bs) as u64, 1, 1],
                [bs as u64, 1, 1],
                &[inp, out],
                cfg,
            )
            .expect(bench);
            t.elapsed().as_secs_f64()
        }
        "Scan" => {
            let (n, bs) = (param, BLOCK_SIZE);
            let nb = n / bs;
            let k1 = baselines::scan_blocks(n, bs);
            let k2 = baselines::scan_add_offsets(n, bs);
            let data: Vec<f64> = (0..n).map(|i| (i % 9) as f64).collect();
            let io = gpu.alloc_f64(&data);
            let sums = gpu.alloc_zeroed(ElemTy::F64, nb);
            let t = Instant::now();
            gpu.launch(&k1, [nb as u64, 1, 1], [bs as u64, 1, 1], &[io, sums], cfg)
                .expect("scan_blocks");
            let mut elapsed = t.elapsed().as_secs_f64();
            let block_sums = gpu.read_f64(sums);
            let mut offsets = vec![0.0; nb];
            for i in 1..nb {
                offsets[i] = offsets[i - 1] + block_sums[i - 1];
            }
            let offs = gpu.alloc_f64(&offsets);
            let t = Instant::now();
            gpu.launch(&k2, [nb as u64, 1, 1], [bs as u64, 1, 1], &[io, offs], cfg)
                .expect("scan_add_offsets");
            elapsed += t.elapsed().as_secs_f64();
            elapsed
        }
        "Histogram" => {
            let (n, bs, bins) = (param, HIST_BLOCK, HIST_BINS);
            let k = baselines::histogram(n, bs, bins);
            let data: Vec<f64> = (0..n).map(|i| (i % 4096) as f64).collect();
            let inp = gpu.alloc_scalars(ElemTy::I32, &data);
            let hist = gpu.alloc_zeroed(ElemTy::I32, bins);
            let t = Instant::now();
            gpu.launch(
                &k,
                [(n / bs) as u64, 1, 1],
                [bs as u64, 1, 1],
                &[inp, hist],
                cfg,
            )
            .expect("histogram");
            t.elapsed().as_secs_f64()
        }
        "Stencil" => {
            let (n, bs) = (param, STENCIL_BLOCK);
            let k = baselines::stencil(n, bs);
            let data: Vec<f64> = (0..n + 2).map(|i| (i % 13) as f64).collect();
            let inp = gpu.alloc_f64(&data);
            let out = gpu.alloc_zeroed(ElemTy::F64, n);
            let t = Instant::now();
            gpu.launch(
                &k,
                [(n / bs) as u64, 1, 1],
                [bs as u64, 1, 1],
                &[inp, out],
                cfg,
            )
            .expect("stencil");
            t.elapsed().as_secs_f64()
        }
        "Transpose" => {
            let n = param;
            let nb = (n / 32) as u64;
            let k = baselines::transpose(n);
            let data: Vec<f64> = (0..n * n).map(|i| (i % 11) as f64).collect();
            let inp = gpu.alloc_f64(&data);
            let out = gpu.alloc_zeroed(ElemTy::F64, n * n);
            let t = Instant::now();
            gpu.launch(&k, [nb, nb, 1], [32, 8, 1], &[inp, out], cfg)
                .expect("transpose");
            t.elapsed().as_secs_f64()
        }
        "MM" => {
            let n = param;
            let nb = (n / 32) as u64;
            let k = baselines::matmul(n);
            let a: Vec<f64> = (0..n * n).map(|i| (i % 7) as f64).collect();
            let b: Vec<f64> = (0..n * n).map(|i| (i % 5) as f64).collect();
            let da = gpu.alloc_f64(&a);
            let db = gpu.alloc_f64(&b);
            let dc = gpu.alloc_zeroed(ElemTy::F64, n * n);
            let t = Instant::now();
            gpu.launch(&k, [nb, nb, 1], [32, 32, 1], &[da, db, dc], cfg)
                .expect("matmul");
            t.elapsed().as_secs_f64()
        }
        other => panic!("unknown bench {other}"),
    }
}

fn main() {
    let mut with_reference = true;
    let mut only: Option<String> = None;
    let mut trace_dir: Option<String> = None;
    let args = Args::parse(|flag, rest| {
        match flag {
            "--no-reference" => with_reference = false,
            "--only" => only = Some(ratchet::value(rest, "--only BENCH")),
            "--trace" => trace_dir = Some(ratchet::value(rest, "--trace DIR")),
            _ => return false,
        }
        true
    });
    let reps = args.reps;
    // Read the baseline before timing anything, so a bad path or a
    // drifted layout fails fast.
    let baseline = args.baseline.as_deref().map(|path| {
        let old = load_baseline(path).and_then(|b| sim_entries(&b));
        (path, old.unwrap_or_else(|e| bail(&format!("{path}: {e}"))))
    });

    // Every entry in both race settings: `detect_races: false` is the
    // default launch config; `detect_races: true` is the race-checked
    // pipeline the test suite runs, and the mode where the old
    // interpreter paid for the append-only access log the shadow
    // detector replaced.
    let mut entries = Vec::new();
    for (bench, interp_n, paper_n) in SIM_BENCHES {
        if only.as_deref().is_some_and(|o| o != bench) {
            continue;
        }
        for (scale, n) in [(Scale::Interpreter, interp_n), (Scale::Paper, paper_n)] {
            for races in [false, true] {
                let warp_ms = time_bench(bench, n, &cfg(ExecMode::Warp, races), reps);
                // Lane-stepping comparison at the largest common
                // footprint: the same min-of-N estimator as the warp
                // side, with the rep count halved (bounded below by 2)
                // because the reference is slower by an order of
                // magnitude — asymmetric sampling would bias the ratio
                // on a machine with bursty background load.
                let ref_reps = (reps / 2).max(2);
                let reference_ms = (with_reference && scale == Scale::Paper)
                    .then(|| time_bench(bench, n, &cfg(ExecMode::Reference, races), ref_reps));
                let speedup = reference_ms.map(|r| r / warp_ms);
                entries.push(Entry {
                    bench,
                    param: n,
                    scale,
                    detect_races: races,
                    warp_ms,
                    reference_ms,
                    speedup,
                });
            }
        }
    }

    println!(
        "{:<12} {:>9} {:<12} {:>6} {:>11} {:>13} {:>8}",
        "bench", "param", "scale", "races", "warp ms", "reference ms", "speedup"
    );
    for e in &entries {
        println!(
            "{:<12} {:>9} {:<12} {:>6} {:>11.2} {:>13} {:>8}",
            e.bench,
            e.param,
            e.scale.name(),
            if e.detect_races { "on" } else { "off" },
            e.warp_ms,
            e.reference_ms.map_or("-".into(), |v| format!("{v:.1}")),
            e.speedup.map_or("-".into(), |v| format!("{v:.1}x")),
        );
    }

    if let Some((total, off, on)) = aggregate(&entries) {
        println!(
            "paper-scale aggregate speedup (total reference ms / total warp ms): \
             {total:.1}x overall, {off:.1}x races off, {on:.1}x races on"
        );
    }

    if let Some(path) = &args.json {
        std::fs::write(path, to_json(&entries)).expect("write json");
        println!("wrote {path}");
    }

    if let Some(dir) = &trace_dir {
        // Outside the timed loops by construction: fresh traced runs at
        // reduced footprints, one raw launch-trace JSON per launch.
        std::fs::create_dir_all(dir).expect("create trace dir");
        for kind in ALL_BENCHMARKS {
            if only.as_deref().is_some_and(|o| o != kind.name()) {
                continue;
            }
            let r = run_benchmark_traced(
                kind,
                trace_param(kind),
                0xC0FFEE,
                &cfg(ExecMode::Warp, false),
            );
            let sides = [("descend", &r.descend_traces), ("cuda", &r.cuda_traces)];
            for (side, traces) in sides {
                for (i, tr) in traces.iter().enumerate() {
                    let path =
                        format!("{dir}/{}-{side}-{i}.trace.json", kind.name().to_lowercase());
                    std::fs::write(&path, launch_trace_json(tr)).expect("write trace");
                    println!("wrote {path}");
                }
            }
        }
    }

    if let Some((path, old)) = baseline {
        let mut regressed = false;
        for e in &entries {
            let key = sim_key(e.bench, e.param, e.detect_races);
            let Some(&old_ms) = old.get(&key) else {
                bail(&format!("baseline {path} has no entry for {key}"));
            };
            let what = format!("{} param={} races={}", e.bench, e.param, e.detect_races);
            regressed |= ratchet::regressed(&what, old_ms, e.warp_ms);
        }
        if regressed {
            std::process::exit(1);
        }
        println!("no wall-clock regression >25% against {path}");
    }
}

fn to_json(entries: &[Entry]) -> String {
    let mut s = String::from("{\n  \"schema\": \"descend-bench-sim/1\",\n  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"bench\": \"{}\", \"param\": {}, \"scale\": \"{}\", \"detect_races\": {}, \"warp_ms\": {:.3}",
            e.bench,
            e.param,
            e.scale.name(),
            e.detect_races,
            e.warp_ms
        ));
        if let (Some(r), Some(sp)) = (e.reference_ms, e.speedup) {
            s.push_str(&format!(", \"reference_ms\": {r:.3}, \"speedup\": {sp:.2}"));
        }
        s.push('}');
        if i + 1 < entries.len() {
            s.push(',');
        }
        s.push('\n');
    }
    if let Some((total, off, on)) = aggregate(entries) {
        s.push_str(&format!(
            "  ],\n  \"summary\": {{\"paper_scale_speedup\": {total:.2}, \
             \"races_off_speedup\": {off:.2}, \"races_on_speedup\": {on:.2}}}\n}}\n"
        ));
    } else {
        s.push_str("  ]\n}\n");
    }
    s
}

/// Wall-clock improvement over the lane-stepping reference at the
/// largest common (paper-scale) footprint, aggregated over the whole
/// corpus as total reference time / total warp time — `(overall,
/// races off, races on)`. `None` until reference timings exist.
fn aggregate(entries: &[Entry]) -> Option<(f64, f64, f64)> {
    let sums = |races: Option<bool>| -> Option<f64> {
        let (mut w, mut r) = (0.0, 0.0);
        for e in entries {
            if e.scale == Scale::Paper && races.is_none_or(|want| e.detect_races == want) {
                if let Some(rm) = e.reference_ms {
                    w += e.warp_ms;
                    r += rm;
                }
            }
        }
        (w > 0.0).then(|| r / w)
    };
    Some((sums(None)?, sums(Some(false))?, sums(Some(true))?))
}

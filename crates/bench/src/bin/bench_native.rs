//! Native-speed execution benchmark: the same corpus host programs
//! through the simulator and through the C (+OpenMP) backend compiled
//! with the host toolchain.
//!
//! The simulator models a GPU and pays for that fidelity; the native
//! path is what the *generated code itself* costs on the host CPU.
//! Comparing the two bounds the simulator's interpretive overhead and
//! gives benchmarks a native-speed execution path for programs too
//! large to simulate comfortably.
//!
//! Usage:
//!   bench_native [--reps N] [--json PATH]
//!
//! Timings are min-of-N. The native figure times one full process run:
//! spawn, the binary input records on stdin, the kernel, and the binary
//! dump on stdout. No value is formatted as decimal text on either side,
//! so the figure is mostly spawn plus kernel. C compilation happens once,
//! outside the timed region, as does the Rust-side compile. Exits 0
//! with a notice when no host C compiler is installed, so scheduled CI
//! can run it unconditionally.

use descend_compiler::Compiler;
use descend_native::Toolchain;
use gpu_sim::LaunchConfig;
use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Instant;

const PROGRAMS: &[&str] = &[
    "scale.descend",
    "dot.descend",
    "histogram.descend",
    "reduce_tree.descend",
    "reduce_warp_shuffle.descend",
    "reduce_atomic.descend",
    "stencil1d_windows.descend",
];

struct Entry {
    program: String,
    sim_ms: f64,
    native_ms: f64,
}

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/descend")
}

fn min_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
    }
    best
}

fn main() {
    let mut reps = 5usize;
    let mut json_path: Option<String> = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--reps" => {
                reps = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--reps needs a number");
            }
            "--json" => {
                json_path = Some(it.next().expect("--json needs a path").clone());
            }
            other => {
                eprintln!("unknown argument `{other}`");
                std::process::exit(2);
            }
        }
    }

    let Some(tc) = Toolchain::detect() else {
        eprintln!("SKIP: no host C compiler found (tried $CC, cc, gcc, clang)");
        return;
    };
    eprintln!(
        "toolchain: {} ({})",
        tc.cc,
        if tc.openmp { "OpenMP" } else { "no OpenMP" }
    );

    let compiler = Compiler::with_backends(&["c"]).expect("c backend registered");
    let cfg = LaunchConfig::default();
    let inputs: HashMap<String, Vec<f64>> = HashMap::new();
    let mut entries = Vec::new();
    for file in PROGRAMS {
        let src = std::fs::read_to_string(corpus_dir().join(file))
            .unwrap_or_else(|e| panic!("{file}: {e}"));
        let compiled = compiler
            .compile_source(&src)
            .unwrap_or_else(|e| panic!("{file}: compile failed:\n{e}"));
        let exe = tc
            .compile(compiled.target_source("c").expect("c selected"))
            .unwrap_or_else(|e| panic!("{file}: {e}"));

        let sim_ms = min_ms(reps, || {
            compiled
                .run_host("main", &inputs, &cfg)
                .expect("simulated run");
        });
        let native_ms = min_ms(reps, || {
            exe.run("main", &inputs).expect("native run");
        });
        entries.push(Entry {
            program: file.trim_end_matches(".descend").to_string(),
            sim_ms,
            native_ms,
        });
    }

    println!(
        "{:<22} {:>12} {:>12} {:>9}",
        "program", "sim ms", "native ms", "ratio"
    );
    for e in &entries {
        println!(
            "{:<22} {:>12.3} {:>12.3} {:>8.1}x",
            e.program,
            e.sim_ms,
            e.native_ms,
            e.sim_ms / e.native_ms
        );
    }

    if let Some(path) = json_path {
        let mut out =
            String::from("{\n  \"schema\": \"descend-bench-native/1\",\n  \"entries\": [\n");
        for (i, e) in entries.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"program\": \"{}\", \"sim_ms\": {:.6}, \"native_ms\": {:.6}}}{}\n",
                e.program,
                e.sim_ms,
                e.native_ms,
                if i + 1 < entries.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        std::fs::write(&path, out).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        eprintln!("wrote {path}");
    }
}

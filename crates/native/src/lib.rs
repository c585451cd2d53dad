//! Host C toolchain driver for the executable C backend.
//!
//! The C backend (`CBackend` in `descend_backends`) emits a portable
//! C11 (+OpenMP) translation unit whose host functions speak a tiny
//! binary stdin/stdout protocol. Both directions use the same record:
//! an ASCII header `name count\n`, then `count` native-endian IEEE-754
//! `f64`s. Input records seed the CPU buffers, and every CPU buffer's
//! final contents come back as one record, widened to `f64`. No value
//! is ever formatted or parsed as decimal text, so the transfer is
//! bit-exact by construction (`-0.0`, subnormals, NaN payloads).
//!
//! This crate closes the loop on a developer machine: it finds a
//! working host C compiler, probes OpenMP support, compiles the emitted
//! source in a scratch directory, runs the binary on the same inputs
//! the simulator consumes, and parses the dump back into
//! `HashMap<String, Vec<f64>>` — the simulator's own buffer
//! representation — so callers can compare the two executions value
//! for value.
//!
//! Everything degrades gracefully: [`Toolchain::detect`] returns
//! `None` when no compiler answers `--version` (CI and tests skip with
//! a notice), and a compiler without OpenMP still works — the probe
//! falls back to `-Wno-unknown-pragmas`, which turns the `#pragma omp`
//! lines into no-ops and runs the kernels sequentially. The phased
//! execution model is correct either way; OpenMP only adds block-level
//! parallelism.

#![deny(missing_docs)]

use std::collections::HashMap;
use std::fmt;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};

/// Errors from compiling or running an emitted translation unit.
#[derive(Debug)]
pub enum NativeError {
    /// The C compiler exited nonzero; carries its stderr.
    Compile(String),
    /// The compiled binary exited nonzero; carries its stderr.
    Run(String),
    /// A buffer name cannot be encoded, or the binary's stdout is not a
    /// sequence of well-formed `name count\n` + `f64` records.
    Protocol(String),
    /// Filesystem or process-spawn failure.
    Io(std::io::Error),
}

impl fmt::Display for NativeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NativeError::Compile(s) => write!(f, "C compilation failed:\n{s}"),
            NativeError::Run(s) => write!(f, "native binary failed:\n{s}"),
            NativeError::Protocol(s) => write!(f, "malformed buffer dump: {s}"),
            NativeError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for NativeError {}

impl From<std::io::Error> for NativeError {
    fn from(e: std::io::Error) -> Self {
        NativeError::Io(e)
    }
}

/// A detected host C compiler and whether it accepts `-fopenmp`.
#[derive(Debug, Clone)]
pub struct Toolchain {
    /// Compiler executable (`$CC`, `cc`, `gcc`, or `clang`).
    pub cc: String,
    /// Whether `-fopenmp` compiled and linked a probe program.
    pub openmp: bool,
}

static SCRATCH_SEQ: AtomicU64 = AtomicU64::new(0);

/// A process-unique scratch directory under the system temp dir.
fn scratch_dir(tag: &str) -> Result<PathBuf, NativeError> {
    let n = SCRATCH_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("descend-native-{}-{n}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Probe `cc --version`; a zero exit means the executable exists and
/// behaves like a compiler driver.
fn answers_version(cc: &str) -> bool {
    Command::new(cc)
        .arg("--version")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .map(|s| s.success())
        .unwrap_or(false)
}

impl Toolchain {
    /// Find a host C compiler: `$CC` if set, then `cc`, `gcc`, `clang`.
    /// Returns `None` if none answers `--version` — callers should skip
    /// native execution with a notice rather than fail.
    pub fn detect() -> Option<Toolchain> {
        let mut candidates: Vec<String> = Vec::new();
        if let Ok(cc) = std::env::var("CC") {
            if !cc.trim().is_empty() {
                candidates.push(cc);
            }
        }
        for cc in ["cc", "gcc", "clang"] {
            candidates.push(cc.to_string());
        }
        let cc = candidates.into_iter().find(|c| answers_version(c))?;
        let openmp = probe_openmp(&cc);
        Some(Toolchain { cc, openmp })
    }

    /// The flag set every compile uses: strict C11 with warnings as
    /// errors, plus `-fopenmp` when the probe succeeded (otherwise the
    /// OpenMP pragmas are silenced and the program runs sequentially).
    pub fn flags(&self) -> Vec<&'static str> {
        let mut flags = vec!["-std=c11", "-Wall", "-Werror", "-O1"];
        if self.openmp {
            flags.push("-fopenmp");
        } else {
            flags.push("-Wno-unknown-pragmas");
        }
        flags
    }

    /// Compile a full translation unit (one with a generated `main`)
    /// to an executable in a scratch directory.
    pub fn compile(&self, c_source: &str) -> Result<CompiledNative, NativeError> {
        let dir = scratch_dir("exe")?;
        let src = dir.join("program.c");
        let exe = dir.join("program");
        std::fs::write(&src, c_source)?;
        let out = Command::new(&self.cc)
            .args(self.flags())
            .arg("-o")
            .arg(&exe)
            .arg(&src)
            .arg("-lm")
            .output()?;
        if !out.status.success() {
            let err = String::from_utf8_lossy(&out.stderr).into_owned();
            let _ = std::fs::remove_dir_all(&dir);
            return Err(NativeError::Compile(err));
        }
        Ok(CompiledNative { dir, exe })
    }

    /// Compile-check a kernel-only translation unit (no host `main`)
    /// as an object file. Used by the corpus-wide "everything we emit
    /// is valid C" sweep.
    pub fn compile_object(&self, c_source: &str) -> Result<(), NativeError> {
        let dir = scratch_dir("obj")?;
        let src = dir.join("unit.c");
        let obj = dir.join("unit.o");
        std::fs::write(&src, c_source)?;
        let out = Command::new(&self.cc)
            .args(self.flags())
            .arg("-c")
            .arg("-o")
            .arg(&obj)
            .arg(&src)
            .output()?;
        let ok = out.status.success();
        let err = String::from_utf8_lossy(&out.stderr).into_owned();
        let _ = std::fs::remove_dir_all(&dir);
        if ok {
            Ok(())
        } else {
            Err(NativeError::Compile(err))
        }
    }
}

/// Whether an emitted translation unit carries a generated host `main`
/// (and can therefore be linked and run) or is kernel-only (compile as
/// an object with [`Toolchain::compile_object`]).
pub fn has_host_main(c_source: &str) -> bool {
    c_source.contains("int main(")
}

/// Test-compile a one-line OpenMP program; failure means the driver
/// lacks `-fopenmp` (or libgomp) and we fall back to sequential.
fn probe_openmp(cc: &str) -> bool {
    let Ok(dir) = scratch_dir("probe") else {
        return false;
    };
    let src = dir.join("probe.c");
    let exe = dir.join("probe");
    let program = "#include <omp.h>\nint main(void) {\n    int n = 0;\n#pragma omp parallel\n    {\n        n += omp_get_thread_num() >= 0;\n    }\n    return n > 0 ? 0 : 1;\n}\n";
    if std::fs::write(&src, program).is_err() {
        let _ = std::fs::remove_dir_all(&dir);
        return false;
    }
    let ok = Command::new(cc)
        .args(["-std=c11", "-fopenmp"])
        .arg("-o")
        .arg(&exe)
        .arg(&src)
        .output()
        .map(|o| o.status.success())
        .unwrap_or(false);
    let _ = std::fs::remove_dir_all(&dir);
    ok
}

/// A compiled native binary in its scratch directory; the directory is
/// removed on drop.
#[derive(Debug)]
pub struct CompiledNative {
    dir: PathBuf,
    exe: PathBuf,
}

impl CompiledNative {
    /// Path of the executable (inside the scratch directory).
    pub fn exe(&self) -> &Path {
        &self.exe
    }

    /// Run one host function on the given inputs and parse the buffer
    /// dump. `inputs` uses the simulator's representation: every buffer
    /// is `Vec<f64>` regardless of element type; the binary quantizes
    /// exactly like the simulator's `scalar_to_bits`.
    pub fn run(
        &self,
        host_fn: &str,
        inputs: &HashMap<String, Vec<f64>>,
    ) -> Result<HashMap<String, Vec<f64>>, NativeError> {
        parse_dump(&self.run_bytes(host_fn, &encode_inputs(inputs)?)?)
    }

    /// Run one host function with `stdin` as its raw input stream and
    /// return its raw stdout. A binary that rejects the stream exits
    /// nonzero, which surfaces as [`NativeError::Run`] with its stderr.
    pub fn run_bytes(&self, host_fn: &str, stdin: &[u8]) -> Result<Vec<u8>, NativeError> {
        let mut child = Command::new(&self.exe)
            .arg(host_fn)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()?;
        // Feed the whole stream, then close stdin so the loader sees
        // EOF. A binary that bails out early closes the pipe; its exit
        // status is the better error, so check that first.
        let fed = child.stdin.take().expect("piped stdin").write_all(stdin);
        let out = child.wait_with_output()?;
        if !out.status.success() {
            return Err(NativeError::Run(
                String::from_utf8_lossy(&out.stderr).into_owned(),
            ));
        }
        fed?;
        Ok(out.stdout)
    }
}

impl Drop for CompiledNative {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Longest buffer name the generated loader accepts (its `%63s`).
const MAX_NAME: usize = 63;

/// [`format_inputs`], rejecting names that would desynchronise the
/// stream: empty, longer than [`MAX_NAME`] bytes, or with whitespace.
fn encode_inputs(inputs: &HashMap<String, Vec<f64>>) -> Result<Vec<u8>, NativeError> {
    let mut names: Vec<&String> = inputs.keys().collect();
    names.sort();
    let mut out = Vec::new();
    for name in names {
        if name.is_empty() || name.len() > MAX_NAME || name.contains(char::is_whitespace) {
            return Err(NativeError::Protocol(format!(
                "buffer name {name:?} must be 1 to {MAX_NAME} bytes without whitespace"
            )));
        }
        let vals = &inputs[name];
        out.extend_from_slice(format!("{name} {}\n", vals.len()).as_bytes());
        out.extend(vals.iter().flat_map(|v| v.to_ne_bytes()));
    }
    Ok(out)
}

/// Render simulator-style inputs as the stdin stream the generated
/// `main` reads: per buffer, a `name count\n` header and `count`
/// native-endian `f64`s. Records are name-sorted so the stream is
/// deterministic.
///
/// # Panics
///
/// If a buffer name is empty, longer than 63 bytes or contains
/// whitespace; [`CompiledNative::run`] reports those as
/// [`NativeError::Protocol`] instead.
pub fn format_inputs(inputs: &HashMap<String, Vec<f64>>) -> Vec<u8> {
    encode_inputs(inputs).unwrap_or_else(|e| panic!("{e}"))
}

/// Parse the binary's stdout, the same records [`format_inputs`]
/// writes, back into the simulator's buffer representation.
pub fn parse_dump(mut dump: &[u8]) -> Result<HashMap<String, Vec<f64>>, NativeError> {
    let bad = NativeError::Protocol;
    let mut out = HashMap::new();
    while !dump.is_empty() {
        // A header is at most a name, a space, 20 digits and `\n`.
        let nl = dump
            .iter()
            .take(MAX_NAME + 22)
            .position(|&b| b == b'\n')
            .ok_or_else(|| bad(format!("{} bytes left, no record header", dump.len())))?;
        let header = String::from_utf8_lossy(&dump[..nl]);
        let (name, count) = header
            .split_once(' ')
            .ok_or_else(|| bad(format!("record header {header:?} has no count")))?;
        let count: usize = count
            .parse()
            .map_err(|_| bad(format!("`{name}`: non-numeric count {count:?}")))?;
        let (body, rest) = count
            .checked_mul(8)
            .ok_or_else(|| bad(format!("`{name}`: count {count} overflows")))
            .and_then(|len| {
                dump[nl + 1..]
                    .split_at_checked(len)
                    .ok_or_else(|| bad(format!("`{name}`: body shorter than its {count} values")))
            })?;
        let vals = body
            .chunks_exact(8)
            .map(|c| f64::from_ne_bytes(c.try_into().expect("8 bytes")));
        out.insert(name.to_string(), vals.collect());
        dump = rest;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One dump record: header plus native-endian body.
    fn record(name: &str, vals: &[f64]) -> Vec<u8> {
        let mut out = format!("{name} {}\n", vals.len()).into_bytes();
        for v in vals {
            out.extend_from_slice(&v.to_ne_bytes());
        }
        out
    }

    fn protocol_error(dump: &[u8]) -> String {
        match parse_dump(dump) {
            Err(NativeError::Protocol(msg)) => msg,
            other => panic!("expected a protocol error, got {other:?}"),
        }
    }

    /// Records round-trip bit for bit, edge values included.
    #[test]
    fn inputs_round_trip_through_the_protocol() {
        let edge = vec![
            -0.0,
            0.0,
            f64::from_bits(1), // smallest subnormal
            f64::MIN_POSITIVE / 4.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            f64::MIN,
            f64::from_bits(0x7ff8_0000_dead_beef), // NaN with a payload
            f64::from_bits(0xfff0_0000_0000_0001), // signalling NaN
            0.1,
        ];
        let mut inputs = HashMap::new();
        inputs.insert("h".to_string(), edge);
        inputs.insert("a".to_string(), vec![7.0]);
        inputs.insert("empty".to_string(), vec![]);
        let bytes = format_inputs(&inputs);
        // Name-sorted records, one header line each.
        let mut want = record("a", &[7.0]);
        want.extend(record("empty", &[]));
        want.extend(record("h", &inputs["h"]));
        assert_eq!(bytes, want);
        // The dump format is the same; parse_dump inverts it bit for bit.
        let parsed = parse_dump(&bytes).unwrap();
        assert_eq!(parsed.len(), inputs.len());
        for (name, vals) in &inputs {
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&parsed[name]), bits(vals), "{name}");
        }
        assert!(parse_dump(b"").unwrap().is_empty());
    }

    #[test]
    fn parse_dump_rejects_a_truncated_body() {
        let mut dump = record("h", &[1.0, 2.0, 3.0]);
        dump.truncate(dump.len() - 1);
        assert!(protocol_error(&dump).contains("shorter than its 3 values"));
    }

    #[test]
    fn parse_dump_rejects_a_header_without_newline() {
        assert!(protocol_error(b"h 3").contains("no record header"));
        // The body must not be mistaken for the rest of the header.
        let mut dump = b"h 1".to_vec();
        dump.extend_from_slice(&1.0f64.to_ne_bytes());
        assert!(matches!(parse_dump(&dump), Err(NativeError::Protocol(_))));
    }

    #[test]
    fn parse_dump_rejects_a_non_numeric_count() {
        assert!(protocol_error(b"h two\n").contains("non-numeric count"));
        assert!(protocol_error(b"h -1\n").contains("non-numeric count"));
        assert!(protocol_error(b"h\n").contains("no count"));
    }

    #[test]
    fn parse_dump_rejects_trailing_bytes() {
        let mut dump = record("h", &[1.0]);
        dump.extend_from_slice(b"xyz");
        assert!(protocol_error(&dump).contains("3 bytes"));
        let mut dump = record("h", &[1.0]);
        dump.push(b'\n');
        assert!(protocol_error(&dump).contains("no count"));
    }

    #[test]
    fn parse_dump_rejects_an_overflowing_count() {
        let dump = format!("h {}\n", usize::MAX);
        assert!(protocol_error(dump.as_bytes()).contains("overflows"));
    }

    #[test]
    fn encoding_rejects_names_that_desynchronise_the_stream() {
        for name in ["a b", "a\tb", "a\nb", "a\x0bb", "", &"n".repeat(64)] {
            let inputs = HashMap::from([(name.to_string(), vec![1.0])]);
            assert!(
                matches!(encode_inputs(&inputs), Err(NativeError::Protocol(_))),
                "{name:?}"
            );
        }
        let longest = HashMap::from([("n".repeat(63), vec![1.0])]);
        assert!(encode_inputs(&longest).is_ok());
    }

    #[test]
    #[should_panic(expected = "without whitespace")]
    fn format_inputs_panics_on_an_unencodable_name() {
        format_inputs(&HashMap::from([("a b".to_string(), vec![])]));
    }

    #[test]
    fn main_detection_distinguishes_kernel_only_units() {
        assert!(has_host_main("int main(int argc, char** argv) {"));
        assert!(!has_host_main("void kernel(double* v) {}"));
    }
}

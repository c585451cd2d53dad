//! `descendc serve` — a long-running compile server over stdin/stdout.
//!
//! The protocol is line-delimited JSON: one request object per input
//! line, one response object per output line, in request order. Requests
//! carry the program *source* (not a path), so editors and build daemons
//! can feed unsaved buffers:
//!
//! ```text
//! {"cmd":"check","src":"fn main() -[t: cpu.thread]-> () { }"}
//! {"cmd":"emit","src":"...","targets":["cuda","wgsl"]}
//! {"cmd":"profile","src":"...","fn":"main"}
//! {"cmd":"batch","requests":[{"cmd":"check","src":"..."}, ...]}
//! {"cmd":"stats"}
//! ```
//!
//! Responses always carry `"ok"`: `{"ok":true,...}` with
//! command-specific payload (`kernels`/`host_fns` for `check`,
//! `sources` for `emit`, `profile` — the `descend-profile/1` document —
//! for `profile`), or `{"ok":false,"error":"..."}` with the same
//! rendered diagnostic the CLI prints. Compile failures additionally
//! carry `"diagnostics"`: an array of structured diagnostics (stable
//! `code`, labelled `spans`, `help` notes) shaped like the
//! `descend-diagnostics/1` schema's `diagnostics[]` items, so clients
//! need not scrape the rendering. A malformed request line answers with
//! an error response; the server keeps serving.
//!
//! Sequential requests share one persistent [`CompileSession`], so an
//! edit-recheck loop re-runs only the queries whose inputs changed.
//! `batch` fans its requests out over the vendored [`workpool`] with a
//! fresh session per worker (results in request order) — the shape a
//! build daemon submitting a whole project wants. `stats` reports the
//! persistent session's cumulative query hit/miss counters.
//!
//! JSON goes through the tree's one JSON module, `descend_diag::json`,
//! re-exported here as [`Json`] and [`parse_json`]. Its parser refuses
//! documents nested deeper than
//! [`MAX_DEPTH`](descend_diag::json::MAX_DEPTH) and malformed `\u`
//! escapes, so a hostile request line gets an error response instead of
//! aborting the server and every client's warm cache with it.

use crate::profile;
use crate::{CompileSession, Compiled, QueryCounter};
pub use descend_diag::json::{parse as parse_json, Json};
use gpu_sim::LaunchConfig;
use std::collections::HashMap;
use std::io::{BufRead, Write};

fn err_response(msg: impl Into<String>) -> Json {
    Json::Obj(vec![
        ("ok".into(), Json::Bool(false)),
        ("error".into(), Json::Str(msg.into())),
    ])
}

fn compile(session: &mut CompileSession, req: &Json) -> Result<Compiled, Json> {
    let src = req
        .get("src")
        .and_then(Json::as_str)
        .ok_or_else(|| err_response("request needs a string `src` field"))?;
    session.compile_source(src).map_err(|e| {
        // Alongside the legacy rendered `error` string, ship the
        // structured diagnostic (code, spans, help) so clients need not
        // scrape the human rendering. One object per the
        // `descend-diagnostics/1` schema's `diagnostics[]` items.
        Json::Obj(vec![
            ("ok".into(), Json::Bool(false)),
            ("error".into(), Json::Str(e.rendered.trim_end().into())),
            (
                "diagnostics".into(),
                Json::Arr(vec![e.diag.to_json_value(src)]),
            ),
        ])
    })
}

/// Handles one non-batch request against a session, producing the
/// response object.
fn handle_single(session: &mut CompileSession, req: &Json) -> Json {
    let Some(cmd) = req.get("cmd").and_then(Json::as_str) else {
        return err_response("request needs a string `cmd` field");
    };
    match cmd {
        "check" => match compile(session, req) {
            Ok(c) => Json::Obj(vec![
                ("ok".into(), Json::Bool(true)),
                ("kernels".into(), Json::Num(c.kernels.len() as f64)),
                (
                    "host_fns".into(),
                    Json::Num(c.checked.host_fns.len() as f64),
                ),
            ]),
            Err(e) => e,
        },
        "emit" => {
            let targets: Vec<String> = match req.get("targets").and_then(Json::as_arr) {
                Some(items) => {
                    let mut names = Vec::new();
                    for t in items {
                        match t.as_str() {
                            Some(s) => names.push(s.to_string()),
                            None => return err_response("`targets` must be an array of strings"),
                        }
                    }
                    names
                }
                None => session.backends().to_vec(),
            };
            for t in &targets {
                if !session.backends().iter().any(|b| b == t) {
                    return err_response(format!("unknown backend `{t}`"));
                }
            }
            match compile(session, req) {
                Ok(c) => {
                    let sources = targets
                        .iter()
                        .map(|t| {
                            let text = c.target_source(t).expect("targets validated above");
                            (t.clone(), Json::Str(text.to_string()))
                        })
                        .collect();
                    Json::Obj(vec![
                        ("ok".into(), Json::Bool(true)),
                        ("sources".into(), Json::Obj(sources)),
                    ])
                }
                Err(e) => e,
            }
        }
        "profile" => {
            let host_fn = req
                .get("fn")
                .and_then(Json::as_str)
                .unwrap_or("main")
                .to_string();
            let file = req.get("file").and_then(Json::as_str).unwrap_or("<serve>");
            let src = match req.get("src").and_then(Json::as_str) {
                Some(s) => s.to_string(),
                None => return err_response("request needs a string `src` field"),
            };
            let compiled = match compile(session, req) {
                Ok(c) => c,
                Err(e) => return e,
            };
            let cfg = LaunchConfig {
                detect_races: true,
                ..LaunchConfig::default()
            };
            match compiled.run_host_traced(&host_fn, &HashMap::new(), &cfg) {
                Ok((run, traces)) => {
                    let profiles = profile::profile_launches(&src, &run.launches, &traces);
                    let doc = profile::render_json(file, &host_fn, &profiles);
                    let value = parse_json(&doc)
                        .expect("render_json emits valid JSON (schema-checked in CI)");
                    Json::Obj(vec![
                        ("ok".into(), Json::Bool(true)),
                        ("profile".into(), value),
                    ])
                }
                Err(e) => err_response(format!("runtime error: {e}")),
            }
        }
        "stats" => Json::Obj(vec![
            ("ok".into(), Json::Bool(true)),
            ("stats".into(), stats_json(session)),
        ]),
        "batch" => err_response("`batch` cannot nest"),
        other => err_response(format!(
            "unknown cmd `{other}` (use check, emit, profile, batch, stats)"
        )),
    }
}

fn stats_json(session: &CompileSession) -> Json {
    let s = session.stats();
    let counter = |c: QueryCounter| {
        Json::Obj(vec![
            ("hits".into(), Json::Num(c.hits as f64)),
            ("misses".into(), Json::Num(c.misses as f64)),
        ])
    };
    Json::Obj(vec![
        ("parse".into(), counter(s.parse)),
        ("typeck".into(), counter(s.typeck)),
        ("lower".into(), counter(s.lower)),
        ("emit".into(), counter(s.emit)),
        ("emit_program".into(), counter(s.emit_program)),
    ])
}

/// Handles one request line (any form, including `batch`).
fn handle_request(session: &mut CompileSession, line: &str) -> Json {
    let req = match parse_json(line) {
        Ok(v) => v,
        Err(e) => return err_response(format!("malformed request: {e}")),
    };
    if req.get("cmd").and_then(Json::as_str) == Some("batch") {
        let Some(requests) = req.get("requests").and_then(Json::as_arr) else {
            return err_response("`batch` needs a `requests` array");
        };
        // Fan out over the workpool with a fresh session per worker;
        // results come back in request order. The batch does not warm
        // the persistent session (worker sessions are dropped), but
        // requests within the batch share each worker's caches.
        let pool = workpool::Pool::new(workpool::Pool::available_workers());
        let results = pool.run_with(requests.len(), CompileSession::new, |worker_session, i| {
            handle_single(worker_session, &requests[i])
        });
        return Json::Obj(vec![
            ("ok".into(), Json::Bool(true)),
            ("results".into(), Json::Arr(results)),
        ]);
    }
    handle_single(session, &req)
}

/// Runs the serve loop: reads request lines from `input` until EOF,
/// writing one response line per request to `output`. Blank lines are
/// skipped. The persistent session serving sequential requests lives
/// for the whole loop.
///
/// # Errors
///
/// Only I/O errors on the transport; every protocol-level problem is
/// reported in-band as an `{"ok":false,...}` response.
pub fn serve(input: impl BufRead, mut output: impl Write) -> std::io::Result<()> {
    let mut session = CompileSession::new();
    for line in input.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let response = handle_request(&mut session, &line);
        writeln!(output, "{}", response.to_string_compact())?;
        output.flush()?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const OK_SRC: &str = r#"
        fn scale(v: &uniq gpu.global [f64; 64]) -[grid: gpu.grid<X<2>, X<32>>]-> () {
            sched(X) block in grid {
                sched(X) thread in block {
                    (*v).group::<32>[[block]][[thread]] =
                        (*v).group::<32>[[block]][[thread]] * 3.0;
                }
            }
        }

        fn main() -[t: cpu.thread]-> () {
            let h = alloc::<cpu.mem, [f64; 64]>();
            let d = gpu_alloc_copy(&h);
            scale<<<X<2>, X<32>>>>(&uniq d);
            copy_mem_to_host(&uniq h, &d);
        }
    "#;

    fn roundtrip(text: &str) -> String {
        parse_json(text).expect("parses").to_string_compact()
    }

    #[test]
    fn json_roundtrips() {
        assert_eq!(roundtrip("null"), "null");
        assert_eq!(roundtrip("[1, 2.5, -3]"), "[1,2.5,-3]");
        assert_eq!(
            roundtrip(r#"{"a": true, "b": [false, null]}"#),
            r#"{"a":true,"b":[false,null]}"#
        );
        assert_eq!(roundtrip(r#""a\nb\u0041\ud83d\ude00""#), "\"a\\nbA😀\"");
        assert_eq!(roundtrip("{ }"), "{}");
        assert_eq!(roundtrip("[ ]"), "[]");
    }

    #[test]
    fn json_rejects_garbage() {
        assert!(parse_json("").is_err());
        assert!(parse_json("{").is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("nul").is_err());
        assert!(parse_json("{} {}").is_err());
        assert!(parse_json("\"\\q\"").is_err());
    }

    fn request(session: &mut CompileSession, line: &str) -> Json {
        handle_request(session, line)
    }

    #[test]
    fn check_and_emit_respond() {
        let mut s = CompileSession::new();
        let req = Json::Obj(vec![
            ("cmd".into(), Json::Str("check".into())),
            ("src".into(), Json::Str(OK_SRC.into())),
        ]);
        let resp = request(&mut s, &req.to_string_compact());
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(resp.get("kernels"), Some(&Json::Num(1.0)));
        assert_eq!(resp.get("host_fns"), Some(&Json::Num(1.0)));

        let req = Json::Obj(vec![
            ("cmd".into(), Json::Str("emit".into())),
            ("src".into(), Json::Str(OK_SRC.into())),
            ("targets".into(), Json::Arr(vec![Json::Str("cuda".into())])),
        ]);
        let resp = request(&mut s, &req.to_string_compact());
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
        let cuda = resp
            .get("sources")
            .and_then(|s| s.get("cuda"))
            .and_then(Json::as_str)
            .expect("cuda source");
        assert!(cuda.contains("__global__"), "{cuda}");

        // The emit served typeck from the check's cache.
        assert_eq!(s.stats().typeck.hits, 2);
    }

    #[test]
    fn errors_are_in_band() {
        let mut s = CompileSession::new();
        let resp = request(&mut s, "not json at all");
        assert_eq!(resp.get("ok"), Some(&Json::Bool(false)));
        let resp = request(&mut s, r#"{"cmd":"frobnicate"}"#);
        assert_eq!(resp.get("ok"), Some(&Json::Bool(false)));
        let resp = request(&mut s, r#"{"cmd":"check","src":"fn"}"#);
        assert_eq!(resp.get("ok"), Some(&Json::Bool(false)));
        assert!(
            resp.get("error")
                .and_then(Json::as_str)
                .is_some_and(|e| e.contains("syntax error")),
            "{resp:?}"
        );
        // Compile failures also ship the structured diagnostic.
        let diags = resp
            .get("diagnostics")
            .and_then(Json::as_arr)
            .expect("diagnostics array");
        assert_eq!(diags.len(), 1);
        assert_eq!(
            diags[0].get("code"),
            Some(&Json::Str("E0002".into())),
            "{resp:?}"
        );
        assert!(diags[0].get("spans").and_then(Json::as_arr).is_some());
        // Protocol errors (not compile errors) have no diagnostics.
        let resp = request(&mut s, r#"{"cmd":"frobnicate"}"#);
        assert!(resp.get("diagnostics").is_none());
    }

    #[test]
    fn deep_nesting_is_a_malformed_request_not_an_abort() {
        let input = format!("{}\n{}\n", "[".repeat(200_000), r#"{"cmd":"stats"}"#);
        let mut out = Vec::new();
        serve(input.as_bytes(), &mut out).expect("io");
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
        assert_eq!(lines.len(), 2, "{lines:?}");
        let bad = parse_json(lines[0]).unwrap();
        assert_eq!(bad.get("ok"), Some(&Json::Bool(false)));
        let msg = bad.get("error").and_then(Json::as_str).unwrap();
        assert!(msg.starts_with("malformed request"), "{msg}");
        let stats = parse_json(lines[1]).unwrap();
        assert_eq!(stats.get("ok"), Some(&Json::Bool(true)));
        assert!(stats.get("stats").and_then(|s| s.get("parse")).is_some());
    }

    #[test]
    fn batch_preserves_order() {
        let mut s = CompileSession::new();
        let bad = Json::Obj(vec![
            ("cmd".into(), Json::Str("check".into())),
            ("src".into(), Json::Str("fn ???".into())),
        ]);
        let good = Json::Obj(vec![
            ("cmd".into(), Json::Str("check".into())),
            ("src".into(), Json::Str(OK_SRC.into())),
        ]);
        let req = Json::Obj(vec![
            ("cmd".into(), Json::Str("batch".into())),
            ("requests".into(), Json::Arr(vec![bad, good])),
        ]);
        let resp = request(&mut s, &req.to_string_compact());
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
        let results = resp.get("results").and_then(Json::as_arr).expect("results");
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].get("ok"), Some(&Json::Bool(false)));
        assert_eq!(results[1].get("ok"), Some(&Json::Bool(true)));
    }

    #[test]
    fn serve_loop_round_trips() {
        let req = Json::Obj(vec![
            ("cmd".into(), Json::Str("check".into())),
            ("src".into(), Json::Str(OK_SRC.into())),
        ]);
        let input = format!("{}\n\n{}\n", req.to_string_compact(), r#"{"cmd":"stats"}"#);
        let mut out = Vec::new();
        serve(input.as_bytes(), &mut out).expect("io");
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
        assert_eq!(lines.len(), 2, "blank line skipped");
        let check = parse_json(lines[0]).unwrap();
        assert_eq!(check.get("ok"), Some(&Json::Bool(true)));
        let stats = parse_json(lines[1]).unwrap();
        let typeck = stats.get("stats").and_then(|s| s.get("typeck")).unwrap();
        assert_eq!(typeck.get("misses"), Some(&Json::Num(2.0)));
    }
}

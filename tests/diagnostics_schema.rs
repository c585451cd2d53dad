//! Validates the `descendc check --json` document against the
//! checked-in JSON Schema (`schemas/diagnostics.schema.json`) for the
//! whole corpus: every failing example, every conformance program, and
//! every passing example (whose documents must be `ok: true` with an
//! empty diagnostics array). A `descendc serve` batch of failing
//! programs is validated the same way — the in-band `diagnostics`
//! objects of a compile-failure response are the same items the schema
//! describes.
//!
//! Documents are read with the shared `descend_diag::json` parser and
//! checked by the shared schema-subset validator in
//! `tests/common/schema.rs`.

#[path = "common/schema.rs"]
mod schema;

use descend::compiler::{server, Compiler};
use descend::diag::json::{parse, Json};
use schema::validate;
use std::path::PathBuf;

fn repo_dir(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(rel)
}

fn descend_files(dir: &str) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(repo_dir(dir))
        .unwrap_or_else(|_| panic!("missing {dir}"))
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "descend"))
        .collect();
    files.sort();
    files
}

fn schema() -> Json {
    let text =
        std::fs::read_to_string(repo_dir("schemas/diagnostics.schema.json")).expect("schema file");
    parse(&text).unwrap()
}

/// Every failing program in the tree — the fail corpus and the
/// conformance suite — must produce a schema-valid document with
/// `ok: false` and at least one registry-coded diagnostic.
#[test]
fn failing_corpus_documents_match_schema() {
    let schema = schema();
    let compiler = Compiler::new();
    let mut validated = 0;
    for f in [
        descend_files("examples/descend/fail"),
        descend_files("conformance"),
    ]
    .concat()
    {
        let src = std::fs::read_to_string(&f).unwrap();
        let err = compiler
            .compile_source(&src)
            .map(|_| ())
            .expect_err("fail corpus must fail");
        let json = descend::diag::render_json(
            &f.display().to_string(),
            &src,
            std::slice::from_ref(err.diag.as_ref()),
        );
        let doc = parse(&json).unwrap();
        validate(&schema, &doc, "$");
        assert_eq!(doc.get("ok"), Some(&Json::Bool(false)), "{f:?}");
        let Some(Json::Arr(diags)) = doc.get("diagnostics") else {
            panic!("{f:?}: diagnostics not an array");
        };
        assert!(!diags.is_empty(), "{f:?}: no diagnostics in failing doc");
        validated += 1;
    }
    assert!(validated >= 30, "only {validated} failing documents");
}

/// Every passing program's document is `ok: true` with an empty
/// diagnostics array — and still schema-valid.
#[test]
fn passing_corpus_documents_match_schema() {
    let schema = schema();
    let compiler = Compiler::new();
    let mut validated = 0;
    for f in descend_files("examples/descend") {
        let src = std::fs::read_to_string(&f).unwrap();
        compiler
            .compile_source(&src)
            .unwrap_or_else(|e| panic!("{f:?} must pass: {e}"));
        let json = descend::diag::render_json(&f.display().to_string(), &src, &[]);
        let doc = parse(&json).unwrap();
        validate(&schema, &doc, "$");
        assert_eq!(doc.get("ok"), Some(&Json::Bool(true)), "{f:?}");
        assert_eq!(doc.get("diagnostics"), Some(&Json::Arr(vec![])), "{f:?}");
        validated += 1;
    }
    assert!(validated >= 5, "only {validated} passing documents");
}

/// A `descendc serve` batch over the fail corpus: every response's
/// in-band `diagnostics` array must hold objects that validate against
/// the schema's diagnostic item subschema.
#[test]
fn serve_batch_errors_are_schema_valid_diagnostics() {
    let schema = schema();
    let item_schema = schema
        .get("properties")
        .and_then(|p| p.get("diagnostics"))
        .and_then(|d| d.get("items"))
        .expect("schema has a diagnostic item subschema")
        .clone();

    // One batch request holding every failing example.
    let fails = descend_files("examples/descend/fail");
    let requests = fails
        .iter()
        .map(|f| {
            Json::Obj(vec![
                ("cmd".into(), Json::Str("check".into())),
                ("src".into(), Json::Str(std::fs::read_to_string(f).unwrap())),
            ])
        })
        .collect();
    let batch = Json::Obj(vec![
        ("cmd".into(), Json::Str("batch".into())),
        ("requests".into(), Json::Arr(requests)),
    ])
    .to_string_compact();

    // The exact loop `descendc serve` runs, on an in-memory pipe.
    let input = format!("{batch}\n");
    let mut out = Vec::new();
    server::serve(input.as_bytes(), &mut out).expect("serve runs");
    let line = String::from_utf8(out).expect("utf8 response");
    let resp = parse(line.trim()).unwrap();
    let Some(Json::Arr(results)) = resp.get("results") else {
        panic!("batch response missing `results`: {line}");
    };
    assert_eq!(results.len(), fails.len());
    for (f, r) in fails.iter().zip(results) {
        assert_eq!(r.get("ok"), Some(&Json::Bool(false)), "{f:?} must fail");
        let Some(Json::Arr(diags)) = r.get("diagnostics") else {
            panic!("{f:?}: response has no diagnostics array: {r:?}");
        };
        assert!(!diags.is_empty(), "{f:?}: empty diagnostics");
        for (i, d) in diags.iter().enumerate() {
            validate(&item_schema, d, &format!("{}[{i}]", f.display()));
        }
    }
}

/// The extended validator features (union types, pattern) actually
/// reject violations, and a schema keyword the validator does not
/// implement is an error rather than silently ignored — guards against
/// the validator rotting into a yes-machine.
#[test]
fn validator_rejects_broken_documents() {
    let schema = parse(
        r#"{"type": "object", "required": ["code"],
            "properties": {"code": {"type": ["string", "null"], "pattern": "^E[0-9]{4}$"}}}"#,
    )
    .unwrap();
    let check = |schema: &Json, doc: &str| {
        let doc = parse(doc).unwrap();
        std::panic::catch_unwind(|| validate(schema, &doc, "$")).is_ok()
    };
    assert!(check(&schema, r#"{"code": "E0104"}"#));
    assert!(check(&schema, r#"{"code": null}"#));
    assert!(
        !check(&schema, r#"{"code": 7}"#),
        "union type violation must fail"
    );
    assert!(
        !check(&schema, r#"{"code": "X123"}"#),
        "pattern violation must fail"
    );
    let unknown = parse(r#"{"enum": ["E0104"]}"#).unwrap();
    assert!(
        !check(&unknown, r#""E0104""#),
        "an unimplemented keyword must fail even on a conforming document"
    );
}

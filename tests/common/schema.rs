//! The one JSON Schema validator of the test suite, shared by
//! `tests/profile_schema.rs` and `tests/diagnostics_schema.rs`.
//!
//! It implements the draft-07 subset the checked-in `schemas/*.json`
//! use: `type` (a name or a union of names), `const`, `pattern`,
//! `minimum`, `required`, `properties`, `additionalProperties`, `items`,
//! `minItems` and `maxItems`. Validation is driven by the schema *file*,
//! not a hard-coded mirror, so editing a schema changes what the tests
//! enforce. Any other keyword panics: a keyword added to a schema can
//! never be silently ignored.

use descend::diag::json::Json;

/// Every keyword the validator implements, then the annotations that
/// constrain nothing.
const KEYWORDS: &str = "type const pattern minimum required properties additionalProperties \
                        items minItems maxItems $schema $id title description";

fn type_name(doc: &Json) -> &'static str {
    match doc {
        Json::Null => "null",
        Json::Bool(_) => "boolean",
        Json::Num(n) if n.fract() == 0.0 => "integer",
        Json::Num(_) => "number",
        Json::Str(_) => "string",
        Json::Arr(_) => "array",
        Json::Obj(_) => "object",
    }
}

/// The regular expressions the schemas use. A general engine is not
/// warranted in a test validator; any new pattern must be taught here
/// explicitly (the panic below enforces that).
fn matches_pattern(pattern: &str, s: &str) -> bool {
    match pattern {
        "^E[0-9]{4}$" => {
            s.len() == 5 && s.starts_with('E') && s[1..].chars().all(|c| c.is_ascii_digit())
        }
        other => panic!("validator does not know pattern `{other}`; teach it here"),
    }
}

/// Validates `doc` against `schema`; panics with a path on the first
/// violation, and on any schema keyword this validator does not
/// implement.
pub fn validate(schema: &Json, doc: &Json, path: &str) {
    let Json::Obj(keywords) = schema else {
        panic!("{path}: a schema must be an object, got {schema:?}");
    };
    for (keyword, _) in keywords {
        assert!(
            KEYWORDS.split_whitespace().any(|k| k == keyword),
            "{path}: validator does not implement schema keyword `{keyword}`"
        );
    }
    if let Some(want) = schema.get("type") {
        let got = type_name(doc);
        // A union lists several names; an integer is also a "number".
        let ok = match want {
            Json::Arr(union) => union.iter().collect(),
            single => vec![single],
        }
        .iter()
        .any(|w| w.as_str() == Some(got) || (w.as_str() == Some("number") && got == "integer"));
        assert!(ok, "{path}: expected type {want:?}, got {got}");
    }
    if let Some(want) = schema.get("const") {
        assert_eq!(doc, want, "{path}: const mismatch");
    }
    if let (Some(Json::Str(pattern)), Json::Str(s)) = (schema.get("pattern"), doc) {
        assert!(
            matches_pattern(pattern, s),
            "{path}: `{s}` does not match pattern `{pattern}`"
        );
    }
    if let (Some(Json::Num(min)), Json::Num(n)) = (schema.get("minimum"), doc) {
        assert!(n >= min, "{path}: {n} below minimum {min}");
    }
    for key in schema.get("required").and_then(Json::as_arr).unwrap_or(&[]) {
        let key = key.as_str().expect("`required` lists strings");
        assert!(doc.get(key).is_some(), "{path}: missing required `{key}`");
    }
    if let Json::Obj(fields) = doc {
        let named = schema.get("properties");
        for (key, value) in fields {
            let sub = match named.and_then(|p| p.get(key)) {
                Some(sub) => Some(sub),
                None => schema.get("additionalProperties"),
            };
            if let Some(sub) = sub {
                validate(sub, value, &format!("{path}.{key}"));
            }
        }
    }
    if let Json::Arr(items) = doc {
        let n = items.len() as f64;
        if let Some(Json::Num(min)) = schema.get("minItems") {
            assert!(n >= *min, "{path}: {n} items below minItems {min}");
        }
        if let Some(Json::Num(max)) = schema.get("maxItems") {
            assert!(n <= *max, "{path}: {n} items above maxItems {max}");
        }
        if let Some(item_schema) = schema.get("items") {
            for (i, item) in items.iter().enumerate() {
                validate(item_schema, item, &format!("{path}[{i}]"));
            }
        }
    }
}

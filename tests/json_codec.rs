//! Byte compatibility of the workspace's JSON codec (`fairwos_obs::json`)
//! with the files already on disk:
//!
//! * every committed experiment record under `results/` re-emits pretty,
//!   byte for byte;
//! * a sealed model file and a sealed training checkpoint written by an
//!   earlier build (`tests/fixtures/`, NBA at scale 0.2) decode and
//!   re-encode to the same bytes;
//! * nesting beyond the parser's limit is an error, never a stack overflow.

use fairwos::core::checkpoint::{decode_checkpoint, encode_checkpoint};
use fairwos::core::{FairwosModelFile, PersistError};
use fairwos_chaos::FaultSchedule;
use fairwos_obs::json::{self, Value};
use std::path::Path;

const ROOT: &str = env!("CARGO_MANIFEST_DIR");

#[test]
fn committed_results_re_emit_pretty_byte_for_byte() {
    let mut checked = 0;
    let mut failures = Vec::new();
    let mut entries: Vec<_> = std::fs::read_dir(Path::new(ROOT).join("results"))
        .expect("results/ is readable")
        .map(|e| e.expect("directory entry").path())
        .collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if !name.ends_with(".json") {
            continue;
        }
        checked += 1;
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) => {
                failures.push(format!("{name}: {e}"));
                continue;
            }
        };
        match Value::parse(&text) {
            Ok(value) if json::to_string_pretty(&value) == text => {}
            Ok(_) => failures.push(format!("{name}: does not re-emit byte for byte")),
            Err(e) => failures.push(format!("{name}: {e}")),
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {checked} result files fail:\n{}",
        failures.len(),
        failures.join("\n")
    );
    assert!(checked >= 9, "only {checked} result files found");
}

fn fixture(name: &str) -> Vec<u8> {
    std::fs::read(Path::new(ROOT).join("tests/fixtures").join(name)).expect("fixture is readable")
}

#[test]
fn sealed_model_fixture_re_encodes_to_the_same_bytes() {
    let bytes = fixture("model_nba.sealed");
    let file = FairwosModelFile::from_bytes(&bytes, "fixture").expect("fixture decodes");
    let path = std::env::temp_dir().join(format!(
        "fairwos-json-codec-model-{}.fwm",
        std::process::id()
    ));
    file.save(&path).expect("save succeeds");
    let again = std::fs::read(&path).expect("saved model is readable");
    let _ = std::fs::remove_file(&path);
    assert!(
        again == bytes,
        "re-sealed model file differs from the fixture"
    );
}

#[test]
fn sealed_checkpoint_fixture_re_encodes_to_the_same_bytes() {
    let bytes = fixture("checkpoint_nba.sealed");
    let ckpt = decode_checkpoint(&bytes).expect("fixture decodes");
    assert_eq!(ckpt.stage, 3);
    assert!(ckpt.cf.is_some() && !ckpt.finetune.is_empty());
    let again = encode_checkpoint(&ckpt).expect("checkpoint encodes");
    assert!(
        again == bytes,
        "re-encoded checkpoint differs from the fixture"
    );
}

#[test]
fn a_weight_with_too_few_values_is_a_parse_error() {
    let bytes = fixture("model_nba.sealed");
    let text = FairwosModelFile::from_bytes(&bytes, "fixture")
        .expect("fixture decodes")
        .to_json()
        .expect("model encodes");
    let mut doc = Value::parse(&text).expect("model JSON parses");
    let Value::Obj(members) = &mut doc else {
        panic!("a model file encodes as an object")
    };
    let (_, weights) = members
        .iter_mut()
        .find(|(k, _)| k == "gnn_weights")
        .expect("gnn_weights member");
    let Value::Arr(weights) = weights else {
        panic!("gnn_weights encodes as an array")
    };
    let Value::Obj(matrix) = &mut weights[0] else {
        panic!("a matrix encodes as an object")
    };
    let (_, data) = matrix
        .iter_mut()
        .find(|(k, _)| k == "data")
        .expect("data member");
    *data = Value::Arr(vec![Value::Num("1.0")]);
    match FairwosModelFile::from_json(&json::to_string(&doc)) {
        Err(PersistError::Parse(msg)) => assert!(msg.contains("Matrix"), "{msg}"),
        other => panic!("expected a parse error, got {other:?}"),
    }
}

#[test]
fn deep_nesting_is_an_error_not_a_stack_overflow() {
    let deep = "[".repeat(100_000);
    assert!(Value::parse(&deep).is_err());
    assert!(FaultSchedule::from_json(&deep).is_err());
    assert!(matches!(
        FairwosModelFile::from_json(&deep),
        Err(PersistError::Parse(_))
    ));
}

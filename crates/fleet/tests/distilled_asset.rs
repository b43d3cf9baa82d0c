//! The distilled decision artifact as a fleet asset: the service
//! distils the shared DBN at startup (through the JSON serde path a
//! pre-built asset would take), serves `distilled` scenarios from the
//! `Arc`-shared artifact, and degrades cleanly when the config never
//! built one.

use std::io::Cursor;

use helio_fleet::{serve, FleetError};

/// Tiny everything: one 4-period day keeps the startup DBN training
/// and the distillation pass fast enough for debug-mode CI.
const CONFIG: &str = r#"{"grid":{"days":1,"periods":4,"slots":10},"capacitors_farads":[2.0,15.0],"threads":2,"dbn":{"seed":7,"bp_epochs":10},"distill":{"seed":7,"depth_const":3,"depth_vary":3,"samples":1024,"holdout":256}}"#;

fn session(config: &str, requests: &[&str]) -> Vec<u8> {
    let mut bytes = config.as_bytes().to_vec();
    bytes.push(b'\n');
    for r in requests {
        bytes.extend_from_slice(r.as_bytes());
        bytes.push(b'\n');
    }
    bytes
}

#[test]
fn distilled_scenarios_serve_from_the_shared_artifact() {
    let input = session(
        CONFIG,
        &[
            // The artifact row next to its own fallback tier, plus a
            // resilient wrapping — the full chain the robustness
            // suite exercises.
            r#"{"id":1,"scenarios":[{"planner":"distilled"},{"planner":"compiled-dbn"},{"planner":"distilled","resilient":true}]}"#,
        ],
    );
    let mut out = Vec::new();
    let service = serve(Cursor::new(input), &mut out).expect("session serves");
    assert_eq!(service.scenarios_served(), 3);
    let out = String::from_utf8(out).expect("utf-8 output");
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 3, "one report per scenario: {out}");
    assert!(
        lines[0].contains(r#""planner":"distilled""#),
        "{}",
        lines[0]
    );
    assert!(
        lines[1].contains(r#""planner":"compiled-dbn""#),
        "{}",
        lines[1]
    );
    assert!(
        lines[2].contains(r#""planner":"resilient""#),
        "{}",
        lines[2]
    );
}

#[test]
fn distilled_runs_are_deterministic_across_sessions() {
    // The serde round-trip at startup must not perturb the artifact:
    // two fresh services answer a distilled request byte-identically.
    let run = || {
        let input = session(
            CONFIG,
            &[r#"{"id":9,"scenarios":[{"planner":"distilled","seed":5}]}"#],
        );
        let mut out = Vec::new();
        serve(Cursor::new(input), &mut out).expect("session serves");
        out
    };
    assert_eq!(run(), run());
}

#[test]
fn distilled_without_a_distill_spec_degrades_inline() {
    let config =
        r#"{"grid":{"days":1,"periods":4,"slots":10},"capacitors_farads":[2.0],"threads":1}"#;
    let input = session(
        config,
        &[r#"{"id":2,"scenarios":[{"planner":"distilled"}]}"#],
    );
    let mut out = Vec::new();
    serve(Cursor::new(input), &mut out).expect("session keeps serving");
    let out = String::from_utf8(out).expect("utf-8 output");
    assert!(
        out.starts_with(r#"{"id":2,"error":"#) && out.contains("no `distill` spec"),
        "{out}"
    );
}

#[test]
fn distill_without_a_dbn_is_a_config_error() {
    let config =
        r#"{"grid":{"days":1,"periods":4,"slots":10},"capacitors_farads":[2.0],"distill":{}}"#;
    let input = session(config, &[]);
    let mut out = Vec::new();
    let err = serve(Cursor::new(input), &mut out).err();
    assert!(
        err.as_ref()
            .is_some_and(|e| e.to_string().contains("requires a `dbn` spec")),
        "config with a distill spec and no dbn must be refused, got {err:?}"
    );
}

#[test]
fn oversized_distill_spec_is_a_config_error() {
    // `samples` at `u64::MAX` once overflowed the sample-matrix
    // capacity and aborted the service; it must be refused as a config
    // error before anything is allocated.
    let config = CONFIG.replace(r#""samples":1024"#, r#""samples":18446744073709551615"#);
    let input = session(&config, &[]);
    let mut out = Vec::new();
    let err = serve(Cursor::new(input), &mut out).err();
    assert!(
        matches!(&err, Some(FleetError::Config(msg)) if msg.contains("distillation failed")),
        "an oversized distill spec must be a config error, got {err:?}"
    );
}

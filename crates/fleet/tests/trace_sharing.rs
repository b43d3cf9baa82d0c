//! A request builds each distinct `(seed, days)` trace once and every
//! lane that asks for it borrows the one copy. Sharing must change no
//! byte: a request answers exactly as its scenarios sent one by one.

use std::io::Cursor;

use helio_fleet::serve;

/// One 24-period day with a small DBN and artifact, so the start-up
/// stays quick in debug builds.
const CONFIG: &str = r#"{"grid":{"days":1,"periods":24,"slots":10},"capacitors_farads":[2.0,15.0],"threads":2,"dbn":{"seed":7,"bp_epochs":10},"distill":{"seed":7,"depth_const":3,"depth_vary":3,"samples":1024,"holdout":256}}"#;

/// The `fleet-whatif` mix on one trace seed: five planner kinds, each
/// under six fault plans (none, a solar blackout, random blackouts,
/// aging, a DBN `Unavailable` window and a DBN `Nan` window).
fn whatif_lanes(seed: u64) -> Vec<String> {
    let kinds = [
        r#""planner":"distilled""#,
        r#""planner":"distilled","resilient":true"#,
        r#""planner":"dbn","resilient":true"#,
        r#""planner":"inter""#,
        r#""planner":"intra""#,
    ];
    let plans = [
        "",
        r#","faults":{"solar":[{"window":{"start":8,"periods":8},"factor":0.0}]}"#,
        r#","faults":{"seed":5,"random_blackouts":{"per_period_probability":0.05,"min_periods":1,"max_periods":4}}"#,
        r#","faults":{"aging":{"capacitance_fade_per_day":0.99,"leakage_growth_per_day":1.05}}"#,
        r#","faults":{"dbn":[{"window":{"start":3,"periods":6},"mode":"Unavailable"}]}"#,
        r#","faults":{"dbn":[{"window":{"start":12,"periods":6},"mode":"Nan"}]}"#,
    ];
    kinds
        .iter()
        .flat_map(|kind| {
            plans
                .iter()
                .map(move |plan| format!(r#"{{"seed":{seed},{kind}{plan}}}"#))
        })
        .collect()
}

/// Serves `requests` (each a list of scenario specs, all with id 1)
/// in one session and returns every answer's `"report":…` text.
fn reports(requests: &[Vec<String>]) -> Vec<String> {
    let mut input = format!("{CONFIG}\n");
    for lanes in requests {
        input.push_str(&format!(r#"{{"id":1,"scenarios":[{}]}}"#, lanes.join(",")));
        input.push('\n');
    }
    let mut out = Vec::new();
    serve(Cursor::new(input), &mut out).expect("session serves");
    let out = String::from_utf8(out).expect("utf-8 output");
    out.lines()
        .map(|l| {
            assert!(l.contains(r#""report":"#), "not a report line: {l}");
            let (_, report) = l.split_once(r#""report":"#).expect("a report");
            report.to_string()
        })
        .collect()
}

#[test]
fn a_shared_trace_answers_like_one_request_per_scenario() {
    let lanes = whatif_lanes(42);
    assert_eq!(lanes.len(), 30);
    let batched = reports(std::slice::from_ref(&lanes));
    let alone = reports(&lanes.iter().map(|l| vec![l.clone()]).collect::<Vec<_>>());
    assert_eq!(batched.len(), 30);
    assert_eq!(batched, alone);
}

#[test]
fn the_same_seed_on_other_days_is_another_trace() {
    let clear = r#"{"seed":5,"planner":"inter","days":["Clear"]}"#.to_string();
    let storm = r#"{"seed":5,"planner":"inter","days":["Storm"]}"#.to_string();
    let batched = reports(&[vec![clear.clone(), storm.clone()]]);
    let alone = reports(&[vec![clear], vec![storm]]);
    assert_eq!(batched, alone);
    assert_ne!(batched[0], batched[1], "two day lists shared one trace");
}

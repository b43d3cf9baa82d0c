//! Workload inputs, generated from the workload seed alone: the fleet
//! config and request lines, the sweep's trace seeds and the offline
//! pipeline's held-out trace seeds. The program under test only ever sees what
//! these functions produce.

/// The seed of every run's warm-up inputs, whatever `--seed` is. The
/// warm-up's outputs feed `dmr`, so that metric repeats exactly from
/// run to run and moves only when scheduling behaviour changes.
pub const REFERENCE_SEED: u64 = 0;

/// Scenarios per `fleet-distinct` request.
pub const DISTINCT_LANES: usize = 64;

/// Planner kinds of a `fleet-whatif` request, as scenario-spec JSON
/// fragments; each kind runs once under every fault plan.
const WHATIF_KINDS: [&str; 5] = [
    r#""planner":"distilled""#,
    r#""planner":"distilled","resilient":true"#,
    r#""planner":"dbn","resilient":true"#,
    r#""planner":"inter""#,
    r#""planner":"intra""#,
];

/// Fault plans per `fleet-whatif` request (the first is "none").
const WHATIF_PLANS: usize = 6;

/// Scenarios per `fleet-whatif` request.
pub const WHATIF_LANES: usize = WHATIF_KINDS.len() * WHATIF_PLANS;

/// Flat periods of the fleet grid (2 days x 48 periods).
pub const FLEET_PERIODS: u64 = 96;

/// SplitMix64 finaliser: a well-mixed 64-bit hash of `x`.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A small deterministic stream over [`mix`].
struct Stream(u64);

impl Stream {
    fn new(key: u64) -> Self {
        Self(mix(key))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(1);
        mix(self.0)
    }

    /// Uniform in `lo..hi` (`hi > lo`).
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo)
    }
}

/// The fleet service configuration shared by both fleet workloads: ECG
/// on a 2-day x 48-period x 10-slot x 60 s grid over a [2, 15] F bank,
/// with a DBN trained at start-up (150 back-propagation epochs) and
/// distilled, served on `threads` worker threads. Training and
/// distillation seeds are fixed, so every seed serves the same artifact
/// and set-up does the same work.
pub fn fleet_config_line(threads: usize) -> String {
    format!(
        r#"{{"grid":{{"days":2,"periods":48,"slots":10,"slot_seconds":60.0}},"capacitors_farads":[2.0,15.0],"benchmark":"ecg","delta":0.5,"dp":{{"voltage_buckets":6,"keep_per_level":1}},"dbn":{{"seed":11,"bp_epochs":150}},"distill":{{"seed":11}},"threads":{threads}}}"#
    )
}

/// Request `id` of `fleet-distinct`: 64 `distilled` scenarios, each on
/// a trace seed no other scenario of the session uses.
pub fn distinct_request(seed: u64, id: u64) -> String {
    let base = mix(seed ^ 0xD157_1AC7) >> 1;
    let mut line = format!(r#"{{"id":{id},"scenarios":["#);
    for lane in 0..DISTINCT_LANES as u64 {
        if lane > 0 {
            line.push(',');
        }
        let trace = base.wrapping_add(id * DISTINCT_LANES as u64 + lane);
        line.push_str(&format!(r#"{{"seed":{trace},"planner":"distilled"}}"#));
    }
    line.push_str("]}");
    line
}

/// Request `id` of `fleet-whatif`: one trace seed shared by 30 lanes,
/// five planner kinds under six fault plans (none, an 8-period solar
/// blackout, random blackouts, capacitor aging, a DBN `Unavailable`
/// window and a DBN `Nan` window). Window positions and the blackout
/// seed vary per request.
pub fn whatif_request(seed: u64, id: u64) -> String {
    let mut s = Stream::new(seed ^ mix(id ^ 0x3A7F_11F0));
    let trace = s.next() >> 1;
    let plans: [String; WHATIF_PLANS] = [
        String::new(),
        format!(
            r#","faults":{{"solar":[{{"window":{{"start":{},"periods":8}},"factor":0.0}}]}}"#,
            s.range(8, FLEET_PERIODS - 16)
        ),
        format!(
            r#","faults":{{"seed":{},"random_blackouts":{{"per_period_probability":0.05,"min_periods":1,"max_periods":4}}}}"#,
            s.next() >> 1
        ),
        r#","faults":{"aging":{"capacitance_fade_per_day":0.99,"leakage_growth_per_day":1.05}}"#
            .to_string(),
        format!(
            r#","faults":{{"dbn":[{{"window":{{"start":{},"periods":6}},"mode":"Unavailable"}}]}}"#,
            s.range(0, FLEET_PERIODS - 6)
        ),
        format!(
            r#","faults":{{"dbn":[{{"window":{{"start":{},"periods":6}},"mode":"Nan"}}]}}"#,
            s.range(0, FLEET_PERIODS - 6)
        ),
    ];
    let mut lanes = Vec::with_capacity(WHATIF_LANES);
    for kind in WHATIF_KINDS {
        for plan in &plans {
            lanes.push(format!(r#"{{"seed":{trace},{kind}{plan}}}"#));
        }
    }
    format!(r#"{{"id":{id},"scenarios":[{}]}}"#, lanes.join(","))
}

/// Trace seed of sweep column `column`.
pub fn sweep_trace_seed(seed: u64, column: u64) -> u64 {
    (mix(seed ^ 0x5EE9_0000) >> 1).wrapping_add(column)
}

/// Seed of held-out evaluation trace `k` of the offline pipeline.
pub fn offline_holdout_seed(seed: u64, k: u64) -> u64 {
    (mix(seed ^ 0x401D_0000) >> 1).wrapping_add(k)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_lines_other_seed_other_lines() {
        for id in [1, 2, 17] {
            assert_eq!(distinct_request(5, id), distinct_request(5, id));
            assert_eq!(whatif_request(5, id), whatif_request(5, id));
            assert_ne!(distinct_request(5, id), distinct_request(6, id));
            assert_ne!(whatif_request(5, id), whatif_request(6, id));
        }
        assert_ne!(distinct_request(5, 1), distinct_request(5, 2));
        assert_eq!(sweep_trace_seed(3, 4), sweep_trace_seed(3, 4));
        assert_ne!(sweep_trace_seed(3, 4), sweep_trace_seed(4, 4));
        assert_ne!(offline_holdout_seed(3, 0), offline_holdout_seed(3, 1));
        assert_ne!(sweep_trace_seed(3, 0), sweep_trace_seed(3, 1));
    }

    #[test]
    fn request_lines_parse_as_fleet_requests() {
        let req: helio_fleet::FleetRequest =
            serde_json::from_str(&distinct_request(9, 3)).expect("distinct line parses");
        assert_eq!(req.id, 3);
        assert_eq!(req.scenarios.len(), DISTINCT_LANES);
        let mut seeds: Vec<u64> = req.scenarios.iter().map(|s| s.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), DISTINCT_LANES, "every lane has its own trace");

        let req: helio_fleet::FleetRequest =
            serde_json::from_str(&whatif_request(9, 3)).expect("whatif line parses");
        assert_eq!(req.scenarios.len(), WHATIF_LANES);
        assert!(req
            .scenarios
            .iter()
            .all(|s| s.seed == req.scenarios[0].seed));
        assert_eq!(
            req.scenarios.iter().filter(|s| s.faults.is_some()).count(),
            WHATIF_KINDS.len() * (WHATIF_PLANS - 1)
        );
        let cfg: helio_fleet::FleetConfig =
            serde_json::from_str(&fleet_config_line(3)).expect("config line parses");
        assert_eq!(cfg.threads, Some(3));
        assert!(cfg.dbn.is_some() && cfg.distill.is_some());
    }
}

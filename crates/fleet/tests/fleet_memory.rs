//! Counting-allocator proof that a fleet session's live heap follows
//! the request, not the session: what-if requests on fresh traces leave
//! nothing behind, so the live heap after the tenth request is where it
//! was after the third. The distilled lanes' folds are what a session
//! would otherwise keep — up to the fold table's capacity, a few KiB
//! per daylight prefix of every request ever served.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

use helio_fleet::{FleetConfig, FleetRequest, FleetService};

struct LiveBytes;

static LIVE: AtomicI64 = AtomicI64::new(0);

unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: LiveBytes = LiveBytes;

/// Four days of 24 periods and a distilled artifact with five varying
/// levels: a fold is 32 leaves x 8 outputs x 2 chains of `f32`, 2 KiB,
/// as in the benchmark's fleet workloads.
const CONFIG: &str = r#"{"grid":{"days":4,"periods":24,"slots":10},"capacitors_farads":[2.0,15.0],"threads":1,"dbn":{"seed":7,"bp_epochs":10},"distill":{"seed":7,"depth_const":3,"depth_vary":5,"samples":2048,"holdout":256}}"#;

/// A what-if request: one fresh trace, distilled lanes under several
/// fault plans, and an inter-task lane beside them.
fn whatif(id: u64, seed: u64) -> FleetRequest {
    let blackouts = |p: f64| {
        format!(
            r#"{{"seed":{seed},"random_blackouts":{{"per_period_probability":{p},"min_periods":1,"max_periods":2}}}}"#
        )
    };
    let line = format!(
        r#"{{"id":{id},"scenarios":[{{"planner":"distilled","seed":{seed}}},{{"planner":"distilled","seed":{seed},"resilient":true}},{{"planner":"distilled","seed":{seed},"faults":{}}},{{"planner":"distilled","seed":{seed},"faults":{}}},{{"planner":"inter","seed":{seed}}}]}}"#,
        blackouts(0.1),
        blackouts(0.3)
    );
    serde_json::from_str(&line).expect("request parses")
}

#[test]
fn live_heap_stays_flat_across_whatif_requests() {
    let cfg: FleetConfig = serde_json::from_str(CONFIG).expect("config parses");
    let mut service = FleetService::new(&cfg).expect("service starts");
    let mut after = Vec::new();
    for k in 1..=10_u64 {
        let reports = service.handle(&whatif(k, 100 + k)).expect("request runs");
        assert_eq!(reports.len(), 5);
        drop(reports);
        after.push(LIVE.load(Ordering::Relaxed));
    }
    let (third, tenth) = (after[2], after[9]);
    assert!(
        (tenth - third).abs() <= 256 << 10,
        "live heap moved {} bytes from request 3 to request 10 (per request: {after:?})",
        tenth - third
    );
}

//! The six evaluation benchmarks (paper Section 6.1).
//!
//! Three real applications — wild-animal monitoring (WAM, 8 tasks),
//! electrocardiogram processing (ECG, 6 tasks) and structural-health
//! monitoring (SHM, 5 tasks) — with the task names given in the paper's
//! footnotes, plus three random benchmarks drawn from the paper's
//! stated ranges (4–8 tasks, 0–2 edges, 2–6 NVPs) with fixed seeds.
//!
//! All benchmarks are designed for the 10-minute period / 60-second
//! slot grid used throughout the evaluation; execution times and powers
//! sit in the ranges a 130 nm NVP sensor platform exhibits.

use helio_common::units::{Seconds, Watts};

use crate::graph::TaskGraph;
use crate::random::{random_graph, RandomGraphConfig};
use crate::task::TaskId;

fn t(
    g: &mut TaskGraph,
    name: &str,
    exec_s: f64,
    deadline_s: f64,
    power_mw: f64,
    nvp: usize,
) -> TaskId {
    g.add_task(crate::task::Task::new(
        name,
        Seconds::new(exec_s),
        Seconds::new(deadline_s),
        Watts::from_milliwatts(power_mw),
        nvp,
    ))
}

/// Adds a benchmark's literal edge list. `add_edge` only rejects
/// unknown ids, self-loops and duplicates, none of which a literal list
/// between freshly added tasks holds; the tests pin every benchmark's
/// edge count.
fn link(g: &mut TaskGraph, edges: &[(TaskId, TaskId)]) {
    for &(from, to) in edges {
        let added = g.add_edge(from, to);
        debug_assert!(added.is_ok(), "static benchmark edge {from} -> {to}");
    }
}

/// Wild-animal monitoring: the paper's eight tasks — periodic locating,
/// heart-rate sampling, voice recordation, audio process, emergency
/// response, audio compression, local storage, data transmission.
pub fn wam() -> TaskGraph {
    let mut g = TaskGraph::new("wam");
    let locating = t(&mut g, "periodic_locating", 120.0, 300.0, 25.0, 0);
    let heart = t(&mut g, "heart_rate_sampling", 60.0, 150.0, 10.0, 0);
    let voice = t(&mut g, "voice_recordation", 120.0, 240.0, 15.0, 1);
    let audio = t(&mut g, "audio_process", 120.0, 420.0, 35.0, 1);
    let emergency = t(&mut g, "emergency_response", 60.0, 300.0, 20.0, 0);
    let compress = t(&mut g, "audio_compression", 120.0, 480.0, 30.0, 2);
    let storage = t(&mut g, "local_storage", 60.0, 540.0, 12.0, 2);
    let transmit = t(&mut g, "data_transmission", 60.0, 600.0, 45.0, 0);
    let _ = locating;
    link(
        &mut g,
        &[
            (voice, audio),
            (heart, emergency),
            (audio, compress),
            (compress, storage),
            (storage, transmit),
        ],
    );
    g
}

/// Electrocardiogram processing: low-pass filter, high-pass filter 1/2,
/// QRS-wave detection, FFT, AES encoder (six tasks).
pub fn ecg() -> TaskGraph {
    let mut g = TaskGraph::new("ecg");
    let lpf = t(&mut g, "low_pass_filter", 60.0, 180.0, 18.0, 0);
    let hpf1 = t(&mut g, "high_pass_filter_1", 60.0, 240.0, 18.0, 0);
    let hpf2 = t(&mut g, "high_pass_filter_2", 60.0, 300.0, 18.0, 0);
    let qrs = t(&mut g, "qrs_detection", 120.0, 480.0, 28.0, 1);
    let fft = t(&mut g, "fft", 120.0, 540.0, 32.0, 1);
    let aes = t(&mut g, "aes_encoder", 60.0, 600.0, 30.0, 0);
    link(
        &mut g,
        &[
            (lpf, hpf1),
            (hpf1, hpf2),
            (hpf2, qrs),
            (hpf2, fft),
            (qrs, aes),
        ],
    );
    g
}

/// Structural-health monitoring: temperature sensing, acceleration
/// sensing, FFT, data receiving, data transmitting (five tasks).
pub fn shm() -> TaskGraph {
    let mut g = TaskGraph::new("shm");
    let temp = t(&mut g, "temperature_sensing", 60.0, 180.0, 8.0, 0);
    let accel = t(&mut g, "acceleration_sensing", 120.0, 300.0, 22.0, 0);
    let fft = t(&mut g, "fft", 180.0, 540.0, 35.0, 1);
    let recv = t(&mut g, "data_receiving", 60.0, 300.0, 38.0, 1);
    let tx = t(&mut g, "data_transmitting", 120.0, 600.0, 45.0, 0);
    let _ = (temp, recv);
    link(&mut g, &[(accel, fft), (fft, tx)]);
    g
}

/// Random benchmark `k ∈ {1, 2, 3}` with the paper's stated ranges and a
/// fixed per-benchmark seed.
///
/// # Panics
///
/// Panics for `k` outside `1..=3`.
pub fn random_case(k: usize) -> TaskGraph {
    assert!((1..=3).contains(&k), "random benchmarks are numbered 1..=3");
    let cfg = RandomGraphConfig::paper_ranges();
    random_graph(&format!("random{k}"), 100 + k as u64, &cfg)
}

/// All six benchmarks in the paper's presentation order: the three
/// random cases then WAM, ECG, SHM.
pub fn all_six() -> Vec<TaskGraph> {
    vec![
        random_case(1),
        random_case(2),
        random_case(3),
        wam(),
        ecg(),
        shm(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_benchmarks_have_paper_task_counts() {
        assert_eq!(wam().len(), 8);
        assert_eq!(ecg().len(), 6);
        assert_eq!(shm().len(), 5);
    }

    #[test]
    fn all_benchmarks_validate_against_standard_period() {
        for g in all_six() {
            g.validate(Seconds::new(600.0))
                .unwrap_or_else(|e| panic!("{} invalid: {e}", g.name()));
        }
    }

    #[test]
    fn wam_has_audio_pipeline() {
        let g = wam();
        // voice -> audio -> compression -> storage -> transmission chain.
        let names: Vec<&str> = g.tasks().iter().map(|t| t.name.as_str()).collect();
        assert!(names.contains(&"voice_recordation"));
        assert!(names.contains(&"data_transmission"));
        assert_eq!(g.edge_count(), 5);
    }

    #[test]
    fn static_benchmarks_keep_every_edge() {
        assert_eq!(wam().edge_count(), 5);
        assert_eq!(ecg().edge_count(), 5);
        assert_eq!(shm().edge_count(), 2);
    }

    #[test]
    fn benchmark_energies_are_in_sensor_node_range() {
        // Per-period energies must be commensurate with a ~95 mW panel on
        // a 600 s period (tens of joules).
        for g in all_six() {
            let e = g.total_energy().value();
            assert!(
                (2.0..40.0).contains(&e),
                "{}: per-period energy {e} J out of range",
                g.name()
            );
        }
    }

    #[test]
    fn random_cases_stay_within_paper_ranges() {
        for k in 1..=3 {
            let g = random_case(k);
            assert!(
                (4..=8).contains(&g.len()),
                "{}: {} tasks",
                g.name(),
                g.len()
            );
            assert!(
                g.edge_count() <= 2,
                "{}: {} edges",
                g.name(),
                g.edge_count()
            );
            assert!(
                (2..=6).contains(&g.nvp_count()),
                "{}: {} NVPs",
                g.name(),
                g.nvp_count()
            );
        }
    }

    #[test]
    fn random_cases_are_distinct_and_deterministic() {
        assert_eq!(random_case(1), random_case(1));
        assert_ne!(random_case(1), random_case(2));
        assert_ne!(random_case(2), random_case(3));
    }

    #[test]
    #[should_panic(expected = "numbered 1..=3")]
    fn random_case_rejects_bad_index() {
        random_case(4);
    }

    #[test]
    fn all_six_order_matches_paper() {
        let names: Vec<String> = all_six().iter().map(|g| g.name().to_string()).collect();
        assert_eq!(
            names,
            ["random1", "random2", "random3", "wam", "ecg", "shm"]
        );
    }
}

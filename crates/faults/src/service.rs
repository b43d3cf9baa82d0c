//! Service-level chaos: fault descriptions for the *fleet service*
//! rather than the simulated node.
//!
//! The node-level [`FaultPlan`](crate::FaultPlan) perturbs harvest,
//! storage and inference inside one simulation; a [`ServiceFaultPlan`]
//! perturbs the long-running `helio-fleet` process around it by
//! killing it at a period boundary mid-request. [`corrupt_line`] and
//! [`SlowWriter`] mangle protocol lines and stall the response writer.
//! The service and its robustness tests consume these; this crate
//! stays a pure data + helper layer with no dependency on the engine.

use std::io::Write;

/// Chaos to inflict on a fleet-service session. All fields are
/// optional; the default plan is a no-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceFaultPlan {
    /// 1-based ordinal of the request line to kill the service in.
    pub kill_request: Option<u64>,
    /// Flat period boundary to "crash" at while running that request:
    /// the service flushes its checkpoint and exits as if power-failed.
    pub kill_at_period: Option<usize>,
}

impl ServiceFaultPlan {
    /// Whether the plan perturbs anything at all.
    pub fn is_empty(&self) -> bool {
        *self == Self::default()
    }

    /// The kill point as `(request ordinal, period)`, when both halves
    /// are configured.
    pub fn kill_point(&self) -> Option<(u64, usize)> {
        match (self.kill_request, self.kill_at_period) {
            (Some(r), Some(p)) => Some((r, p)),
            _ => None,
        }
    }
}

/// Ways a protocol line can be mangled on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineCorruption {
    /// Cut the line mid-token (client died mid-write).
    Truncate,
    /// Replace the line with non-JSON noise.
    Garbage,
    /// Pad the line with filler until it exceeds any sane bound.
    Oversize,
    /// Splice raw non-UTF8 bytes into the line.
    NonUtf8,
}

impl LineCorruption {
    /// Every corruption kind, for sweeps.
    pub const ALL: [LineCorruption; 4] = [
        LineCorruption::Truncate,
        LineCorruption::Garbage,
        LineCorruption::Oversize,
        LineCorruption::NonUtf8,
    ];
}

/// Deterministically corrupts one protocol line (no trailing newline
/// in or out). `seed` varies the cut point / noise so sweeps cover
/// different shapes without pulling in an RNG dependency.
pub fn corrupt_line(line: &str, kind: LineCorruption, seed: u64) -> Vec<u8> {
    let bytes = line.as_bytes();
    match kind {
        LineCorruption::Truncate => {
            let cut = if bytes.len() <= 1 {
                0
            } else {
                1 + (seed as usize) % (bytes.len() - 1)
            };
            bytes.iter().take(cut).copied().collect()
        }
        LineCorruption::Garbage => {
            let mut out = Vec::with_capacity(24);
            let mut x = seed | 1;
            for _ in 0..24 {
                // Tiny LCG over printable ASCII that can never form
                // valid JSON (starts with ')').
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                out.push(b')' + (x >> 33) as u8 % 64);
            }
            out
        }
        LineCorruption::Oversize => {
            let mut out = bytes.to_vec();
            out.extend(std::iter::repeat_n(b' ', 1 << 20));
            out.extend_from_slice(b"\"pad\"");
            out
        }
        LineCorruption::NonUtf8 => {
            let mut out = bytes.to_vec();
            let at = (seed as usize) % (out.len() + 1);
            out.splice(at..at, [0xff, 0xfe, 0x80]);
            out
        }
    }
}

/// A writer that stalls on every flush — a client that reads its
/// responses slowly. Wraps any `Write`; the service must keep making
/// progress (and honouring deadlines) regardless.
#[derive(Debug)]
pub struct SlowWriter<W> {
    inner: W,
    stall: std::time::Duration,
    /// Flushes observed (stalls applied).
    pub flushes: usize,
}

impl<W: Write> SlowWriter<W> {
    /// Wraps `inner`, stalling `stall_ms` milliseconds per flush.
    pub fn new(inner: W, stall_ms: u64) -> Self {
        Self {
            inner,
            stall: std::time::Duration::from_millis(stall_ms),
            flushes: 0,
        }
    }

    /// Unwraps the inner writer.
    pub fn into_inner(self) -> W {
        self.inner
    }
}

impl<W: Write> Write for SlowWriter<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.inner.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.flushes += 1;
        if !self.stall.is_zero() {
            std::thread::sleep(self.stall);
        }
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_empty() {
        let plan = ServiceFaultPlan::default();
        assert!(plan.is_empty());
        assert_eq!(plan.kill_point(), None);
    }

    #[test]
    fn kill_point_needs_both_halves() {
        let half = ServiceFaultPlan {
            kill_request: Some(1),
            kill_at_period: None,
        };
        assert_eq!(half.kill_point(), None);
        assert!(!half.is_empty());
        let plan = ServiceFaultPlan {
            kill_request: Some(1),
            kill_at_period: Some(12),
        };
        assert_eq!(plan.kill_point(), Some((1, 12)));
        assert!(!plan.is_empty());
    }

    #[test]
    fn corruptions_are_deterministic_and_break_the_line() {
        let line = r#"{"id":1,"scenarios":[{"planner":"inter"}]}"#;
        for kind in LineCorruption::ALL {
            let a = corrupt_line(line, kind, 9);
            let b = corrupt_line(line, kind, 9);
            assert_eq!(a, b, "{kind:?} must be deterministic");
            assert_ne!(a, line.as_bytes(), "{kind:?} must change the line");
        }
        assert!(corrupt_line(line, LineCorruption::Oversize, 0).len() > 1 << 20);
        assert!(std::str::from_utf8(&corrupt_line(line, LineCorruption::NonUtf8, 3)).is_err());
        let trunc = corrupt_line(line, LineCorruption::Truncate, 7);
        assert!(trunc.len() < line.len());
    }

    #[test]
    fn slow_writer_counts_flushes() {
        let mut w = SlowWriter::new(Vec::new(), 0);
        w.write_all(b"hi").expect("write");
        w.flush().expect("flush");
        assert_eq!(w.flushes, 1);
        assert_eq!(w.into_inner(), b"hi");
    }
}

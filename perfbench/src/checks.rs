//! Correctness checks. A failed check is counted as a failed operation
//! and named in the output; it never panics the run.

use mcbp::serve::ServeReport;

#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what.to_owned());
        }
    }

    /// Conservation laws every report obeys: each request sent is either
    /// completed or dropped, and every handoff byte that left a prefill
    /// device landed on a decode device.
    pub fn conserved(&mut self, what: &str, report: &ServeReport, sent: usize) {
        self.check(
            &format!("{what}: completed + dropped == sent"),
            report.completed + report.dropped == sent,
        );
        let h = &report.handoff;
        self.check(
            &format!("{what}: handoff bytes_out == bytes_in"),
            h.bytes_out == h.bytes_in && h.handoffs_out == h.handoffs_in,
        );
    }
}

/// 64-bit FNV-1a.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn failures_are_counted_not_raised() {
        let mut c = Checks::default();
        c.check("holds", true);
        c.check("breaks", false);
        assert_eq!((c.attempted, c.failed), (2, 1));
        assert_eq!(c.failures, ["breaks"]);
    }
}

//! Expected output digests (64-bit FNV-1a) per workload and seed, read
//! from `expected_digests.txt`. A seed without an entry is unchecked,
//! not failed; the in-run checks (reference passes, agreement between
//! iterations) still apply to it.

const TABLE: &str = include_str!("../expected_digests.txt");

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    Match,
    Mismatch { expected: u64 },
    Unchecked,
}

/// The expected digest of `workload` at `seed` in `table`, if listed.
/// Lines are `workload seed hex`; `#` starts a comment.
pub fn lookup(table: &str, workload: &str, seed: u64) -> Option<u64> {
    table.lines().map(|l| l.split('#').next().unwrap_or("")).find_map(|line| {
        let mut fields = line.split_whitespace();
        let (w, s, d) = (fields.next()?, fields.next()?, fields.next()?);
        (w == workload && s.parse::<u64>().ok()? == seed)
            .then(|| u64::from_str_radix(d, 16).ok())
            .flatten()
    })
}

/// Checks `digest` against the committed table.
pub fn check(workload: &str, seed: u64, digest: u64) -> Verdict {
    match lookup(TABLE, workload, seed) {
        None => Verdict::Unchecked,
        Some(expected) if expected == digest => Verdict::Match,
        Some(expected) => Verdict::Mismatch { expected },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "# workload seed fnv1a64\n\
                          repro_full 42 00000000000000ff\n\
                          serve_churn 7 abcdef0123456789  # trailing note\n";

    #[test]
    fn known_seeds_are_found() {
        assert_eq!(lookup(SAMPLE, "repro_full", 42), Some(0xff));
        assert_eq!(lookup(SAMPLE, "serve_churn", 7), Some(0xabcd_ef01_2345_6789));
    }

    #[test]
    fn unknown_seeds_and_workloads_are_absent() {
        assert_eq!(lookup(SAMPLE, "repro_full", 7), None);
        assert_eq!(lookup(SAMPLE, "whatif_growth", 42), None);
        assert_eq!(lookup("", "repro_full", 42), None);
    }

    #[test]
    fn committed_table_covers_the_listed_seeds() {
        for w in ["repro_full", "whatif_growth"] {
            for seed in [42, 7] {
                assert!(lookup(TABLE, w, seed).is_some(), "{w} seed {seed}");
            }
        }
        // serve_churn always serves the seed-42 world.
        assert!(lookup(TABLE, "serve_churn", 42).is_some());
        assert_eq!(check("repro_full", 123_456_789, 0), Verdict::Unchecked);
    }
}

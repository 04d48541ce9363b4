//! Named counters accumulated over a traced pass.

use std::collections::BTreeMap;

/// Counts keyed by metric name.
#[derive(Debug, Default, Clone)]
pub struct Tally(BTreeMap<&'static str, u64>);

impl Tally {
    /// Add `v` to `name`.
    pub fn add(&mut self, name: &'static str, v: u64) {
        *self.0.entry(name).or_insert(0) += v;
    }

    /// Add every count of `other`.
    pub fn absorb(&mut self, other: &Tally) {
        for (&k, &v) in &other.0 {
            self.add(k, v);
        }
    }

    /// The count of `name` (0 when never added).
    #[must_use]
    pub fn get(&self, name: &str) -> u64 {
        self.0.get(name).copied().unwrap_or(0)
    }
}

//! The shapes the no-nesting rule accepts: sequential acquisitions whose
//! guards never overlap, an explicit `drop(guard)` hand-off, and one
//! nesting waived by a reasoned suppression. The graph records the waived
//! edge; the tree still lints clean.

use std::sync::Mutex;

pub struct State {
    pub conns: Mutex<u64>,
    pub stats: Mutex<u64>,
}

impl State {
    /// Temporaries: each guard drops at the end of its statement.
    pub fn sequential(&self) -> u64 {
        let c = *self.conns.lock().unwrap();
        c + *self.stats.lock().unwrap()
    }

    /// A bound guard released before the next acquisition.
    pub fn handoff(&self) -> u64 {
        let c = self.conns.lock().unwrap();
        let n = *c;
        drop(c);
        let s = self.stats.lock().unwrap();
        n + *s
    }

    pub fn both(&self) -> u64 {
        let c = self.conns.lock().unwrap();
        // lint: allow(lock-order) fixture: a waived nesting stays in the graph but is not reported.
        let s = self.stats.lock().unwrap();
        *c + *s
    }
}

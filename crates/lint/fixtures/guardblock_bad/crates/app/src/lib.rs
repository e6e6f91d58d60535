//! Guards held across blocking work: every other worker contending for the
//! lock stalls for the full duration of the blocking call — a channel recv,
//! or a batched model run through a kernel entry.

use std::sync::mpsc::Receiver;
use std::sync::Mutex;

pub struct Queue {
    rx: Mutex<Receiver<u64>>,
}

impl Queue {
    pub fn next(&self) -> Option<u64> {
        let rx = self.rx.lock().ok()?;
        rx.recv().ok()
    }
}

pub trait Model {
    fn curve_batch(&self, rows: &[u64]) -> Vec<u64>;
}

pub struct Cache {
    rows: Mutex<Vec<u64>>,
}

impl Cache {
    pub fn refresh(&self, model: &dyn Model) -> Option<usize> {
        let rows = self.rows.lock().ok()?;
        Some(model.curve_batch(&rows).len())
    }
}

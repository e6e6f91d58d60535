//! Three nestings, each a finding at its own site: `fwd` nests `a` then
//! `b`, `rev` nests `b` then `a` (together a two-lock cycle), and `outer`
//! holds `a` across a call to `inner`, which takes `c` — a nesting only
//! visible through one level of call expansion.

use std::sync::Mutex;

pub struct Pair {
    pub a: Mutex<u64>,
    pub b: Mutex<u64>,
    pub c: Mutex<u64>,
}

impl Pair {
    pub fn fwd(&self) -> u64 {
        let x = self.a.lock().unwrap();
        let y = self.b.lock().unwrap();
        *x + *y
    }

    pub fn rev(&self) -> u64 {
        let y = self.b.lock().unwrap();
        let x = self.a.lock().unwrap();
        *x + *y
    }

    pub fn outer(&self) -> u64 {
        let x = self.a.lock().unwrap();
        *x + self.inner()
    }

    fn inner(&self) -> u64 {
        *self.c.lock().unwrap()
    }
}

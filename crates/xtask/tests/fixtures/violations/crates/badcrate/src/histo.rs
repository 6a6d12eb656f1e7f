//! Seeded violation: a hot-path-tagged latency histogram that allocates
//! on its record path — the failure mode the `lint:hot-path` tag exists
//! to prevent.
// lint:hot-path

/// A histogram whose record path touches the allocator.
pub struct AllocHisto {
    samples: Vec<u64>,
}

impl AllocHisto {
    /// Records by boxing the sample and growing a spill vector — two
    /// allocation events per call where the real histogram has zero.
    pub fn record(&mut self, us: u64) {
        let boxed = Box::new(us);
        self.samples.push(*boxed);
        let spill = vec![us; 4];
        drop(spill);
    }
}

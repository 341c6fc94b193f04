//! Fixture for the atomic-ordering pass: the Relaxed counter passes,
//! the SeqCst store and the Acquire load are the two violations, and
//! the SeqCst in the test module stays clean. A SeqCst named in this
//! comment is not a token.

use std::sync::atomic::{AtomicU64, Ordering};

pub struct Cell {
    hits: AtomicU64,
    epoch: AtomicU64,
}

impl Cell {
    pub fn hit(&self) -> u64 {
        self.hits.fetch_add(1, Ordering::Relaxed)
    }

    pub fn publish(&self, epoch: u64) {
        self.epoch.store(epoch, Ordering::SeqCst) // violation
    }

    pub fn observe(&self) -> u64 {
        self.epoch.load(Ordering::Acquire) // violation
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tests_may_use_any_ordering() {
        let cell = Cell { hits: AtomicU64::new(0), epoch: AtomicU64::new(0) };
        cell.epoch.store(1, Ordering::SeqCst);
        assert_eq!(cell.hits.load(Ordering::Relaxed), 0);
    }
}

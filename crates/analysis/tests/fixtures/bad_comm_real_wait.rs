use parking_lot::{Condvar, Mutex};
use std::time::{Duration, Instant};

const REAL_WAIT: Duration = Duration::from_millis(2);

pub struct Store {
    state: Mutex<Vec<u8>>,
    cond: Condvar,
}

impl Store {
    pub fn take(&self) -> Vec<u8> {
        let mut state = self.state.lock();
        let deadline = Instant::now() + REAL_WAIT;
        while state.is_empty() && Instant::now() < deadline {
            self.cond.wait_for(&mut state, REAL_WAIT);
        }
        std::mem::take(&mut *state)
    }
}

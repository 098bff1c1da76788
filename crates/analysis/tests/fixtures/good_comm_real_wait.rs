use crate::mailbox::Mailbox;

pub struct Store {
    state: Mailbox<Vec<u8>>,
}

impl Store {
    pub fn put(&self, byte: u8) {
        self.state.update(|state| state.push(byte));
    }

    pub fn take(&self) -> Vec<u8> {
        let mut state = self.state.wait(|state| !state.is_empty());
        std::mem::take(&mut *state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn take_returns_within_a_second() {
        let start = Instant::now();
        let _ = store().take();
        assert!(start.elapsed() < Duration::from_secs(1));
    }
}

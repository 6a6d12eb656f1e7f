//! Seeded violation: a unit test module that sleeps as a rendezvous. The
//! same call outside the test module is not the rule's business.

pub fn pace() {
    std::thread::sleep(std::time::Duration::from_millis(1));
}

#[cfg(test)]
mod tests {
    #[test]
    fn waker_runs_after_the_sleeper_parks() {
        let sleeper = std::thread::spawn(super::pace);
        std::thread::sleep(std::time::Duration::from_millis(30));
        sleeper.join().unwrap();
    }
}

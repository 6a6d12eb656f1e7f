//! Seeded violation: an integration test that waits for another thread
//! by sleeping, then assumes it got there.

#[test]
fn consumer_parks_then_producer_commits() {
    let consumer = std::thread::spawn(|| park_until_woken());
    std::thread::sleep(std::time::Duration::from_millis(2)); // "long enough"
    commit();
    consumer.join().unwrap();
}

#[test]
fn bounded_poll_is_waived() {
    while !ready() {
        std::thread::sleep(std::time::Duration::from_millis(1)); // lint:allow poll interval
    }
}

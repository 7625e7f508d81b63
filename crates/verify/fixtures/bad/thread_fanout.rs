// lint-fixture-path: crates/integrate/src/fixture.rs
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

// A second hand-rolled pool beside the one fan-out helper: the finding.
pub fn square_all(items: &[u64], threads: usize) -> Vec<u64> {
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let tx = tx.clone();
            let next = &next;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() || tx.send((i, items[i] * items[i])).is_err() {
                    break;
                }
            });
        }
    });
    drop(tx);
    let mut done: Vec<(usize, u64)> = rx.into_iter().collect();
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, v)| v).collect()
}

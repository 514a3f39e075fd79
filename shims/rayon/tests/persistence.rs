//! Pool threads persist across par calls. Kept in its own test binary so
//! no other test grows the shared pool past the size this one installs.

use rayon::prelude::*;
use std::collections::HashSet;
use std::sync::Mutex;

#[test]
fn repeated_calls_reuse_the_same_threads() {
    let pool = rayon::ThreadPoolBuilder::new().num_threads(2).build().unwrap();
    let seen = Mutex::new(HashSet::new());
    pool.install(|| {
        for _ in 0..100 {
            let v: Vec<usize> = (0..16)
                .into_par_iter()
                .map(|i| {
                    seen.lock().unwrap().insert(std::thread::current().id());
                    i
                })
                .collect();
            assert_eq!(v, (0..16).collect::<Vec<_>>());
        }
    });
    // The caller plus one persistent helper; spawning per call would
    // have touched about 200 threads.
    let seen = seen.lock().unwrap().len();
    assert!((1..=2).contains(&seen), "distinct threads: {seen}");
}

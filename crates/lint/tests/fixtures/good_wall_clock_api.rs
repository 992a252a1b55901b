//! Fixture: the api.rs clock door; every other timer goes through it.
use std::time::Instant;

pub(crate) fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64())
}

pub fn draw_seconds(draw: impl FnOnce()) -> f64 {
    timed(draw).1
}

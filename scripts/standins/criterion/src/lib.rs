//! Offline stand-in for `criterion`: enough API for `crates/bench/benches`
//! to build and run with no registry. It times each function for the
//! group's measurement time and prints mean ns/iter — no statistics, no
//! reports. CI's registry build uses the published crate.

use std::marker::PhantomData;
use std::time::{Duration, Instant};

pub mod measurement {
    pub struct WallTime;
}

#[derive(Default)]
pub struct Criterion;

impl Criterion {
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_, measurement::WallTime> {
        BenchmarkGroup {
            name: name.into(),
            warm_up: Duration::from_millis(100),
            measure: Duration::from_millis(500),
            _c: PhantomData,
        }
    }
}

pub struct BenchmarkGroup<'a, M> {
    name: String,
    warm_up: Duration,
    measure: Duration,
    _c: PhantomData<(&'a mut Criterion, M)>,
}

impl<M> BenchmarkGroup<'_, M> {
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.measure = d;
        self
    }
    pub fn warm_up_time(&mut self, d: Duration) -> &mut Self {
        self.warm_up = d;
        self
    }
    pub fn bench_function(&mut self, id: impl AsRef<str>, mut f: impl FnMut(&mut Bencher)) -> &mut Self {
        let mut b = Bencher { budget: self.warm_up, iters: 0, elapsed: Duration::ZERO };
        f(&mut b);
        b = Bencher { budget: self.measure, iters: 0, elapsed: Duration::ZERO };
        f(&mut b);
        let ns = b.elapsed.as_nanos() as f64 / b.iters.max(1) as f64;
        println!("{}/{}: {:.1} ns/iter ({} iters)", self.name, id.as_ref(), ns, b.iters);
        self
    }
    pub fn finish(self) {}
}

pub struct Bencher {
    budget: Duration,
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    pub fn iter<O>(&mut self, mut routine: impl FnMut() -> O) {
        let start = Instant::now();
        loop {
            std::hint::black_box(routine());
            self.iters += 1;
            self.elapsed = start.elapsed();
            if self.elapsed >= self.budget {
                break;
            }
        }
    }
}

#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut c = $crate::Criterion::default();
            $($target(&mut c);)+
        }
    };
}

#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

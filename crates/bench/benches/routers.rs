//! Benchmarks the practical routers of §6 (route + max-min allocation).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;

use clos_core::routers::{
    macro_demands, AnnealingRouter, EcmpRouter, GreedyRouter, LocalSearchRouter, Router,
};
use clos_net::{ClosNetwork, MacroSwitch};
use clos_sim::rate_ratio_study;
use clos_workloads::Workload;

fn bench_routers(c: &mut Criterion) {
    let mut group = c.benchmark_group("rate_study");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(300));
    for n in [4usize, 8] {
        let clos = ClosNetwork::standard(n);
        let ms = MacroSwitch::standard(n);
        let hosts = clos.tor_count() * clos.hosts_per_tor();
        let flows = Workload::UniformRandom { flows: 2 * hosts }.generate(&clos, 9);

        group.bench_with_input(BenchmarkId::new("ecmp", n), &n, |b, _| {
            b.iter(|| {
                let mut r = EcmpRouter::new(1);
                black_box(rate_ratio_study(&clos, &ms, &flows, &mut r))
            });
        });
        group.bench_with_input(BenchmarkId::new("greedy", n), &n, |b, _| {
            b.iter(|| {
                let mut r = GreedyRouter::new();
                black_box(rate_ratio_study(&clos, &ms, &flows, &mut r))
            });
        });
        group.bench_with_input(BenchmarkId::new("local_search", n), &n, |b, _| {
            b.iter(|| {
                let mut r = LocalSearchRouter::new(4);
                black_box(rate_ratio_study(&clos, &ms, &flows, &mut r))
            });
        });
        // 800 proposed moves, the budget E6 gives the annealing router.
        group.bench_with_input(BenchmarkId::new("annealing", n), &n, |b, _| {
            b.iter(|| {
                let mut r = AnnealingRouter::new(1, 800);
                black_box(rate_ratio_study(&clos, &ms, &flows, &mut r))
            });
        });
        // Give `Router` object safety a workout too.
        group.bench_with_input(BenchmarkId::new("dyn_dispatch", n), &n, |b, _| {
            let mut routers: Vec<Box<dyn Router>> =
                vec![Box::new(EcmpRouter::new(2)), Box::new(GreedyRouter::new())];
            let demands = macro_demands(&clos, &ms, &flows);
            b.iter(|| {
                for r in &mut routers {
                    black_box(r.route(&clos, &demands, &flows));
                }
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_routers);
criterion_main!(benches);

//! Benchmarks the flow-level FCT simulator (§7 experiment substrate).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;

use clos_net::ClosNetwork;
use clos_sim::{simulate_fct, FctConfig, SizeDist, Transport};

fn bench_fct(c: &mut Criterion) {
    let mut group = c.benchmark_group("fct_sim");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(300));
    let clos = ClosNetwork::standard(2);
    for flows in [200usize, 800] {
        let config = FctConfig {
            arrival_rate: 8.0,
            size_dist: SizeDist::Exponential(1.0),
            flow_count: flows,
            seed: 3,
        };
        group.bench_with_input(BenchmarkId::new("fair_sharing", flows), &flows, |b, _| {
            b.iter(|| black_box(simulate_fct(&clos, &config, Transport::FairSharing)));
        });
        group.bench_with_input(BenchmarkId::new("scheduling", flows), &flows, |b, _| {
            b.iter(|| black_box(simulate_fct(&clos, &config, Transport::Scheduling)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fct);
criterion_main!(benches);

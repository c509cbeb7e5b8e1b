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
    // E7's hardest cell: C_3 at offered load 1.6 with 2000 fixed-size
    // flows, where the scheduling transport's waiting set is largest.
    let clos = ClosNetwork::standard(3);
    let hosts = (clos.tor_count() * clos.hosts_per_tor()) as f64;
    let config = FctConfig {
        arrival_rate: 1.6 * hosts,
        size_dist: SizeDist::Fixed(1.0),
        flow_count: 2000,
        seed: 1,
    };
    group.bench_function("scheduling_e7_c3_load1.6", |b| {
        b.iter(|| black_box(simulate_fct(&clos, &config, Transport::Scheduling)));
    });
    group.finish();
}

criterion_group!(benches, bench_fct);
criterion_main!(benches);

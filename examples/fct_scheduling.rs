//! Flow completion times: max-min fair congestion control versus
//! admission scheduling across offered loads (§7, discussion of R1).
//!
//! ```text
//! cargo run --release -p clos-bench --example fct_scheduling
//! ```

use clos_bench::table::Table;
use clos_net::ClosNetwork;
use clos_sim::{simulate_fct, FctConfig, SizeDist, Transport};

fn main() {
    let clos = ClosNetwork::standard(2);
    let hosts = (clos.tor_count() * clos.hosts_per_tor()) as f64;

    let mut table = Table::new(vec![
        "load",
        "sizes",
        "transport",
        "mean FCT",
        "p99 FCT",
        "mean slowdown",
    ]);
    for &(size_dist, label) in &[
        (SizeDist::Fixed(1.0), "fixed(1)"),
        (SizeDist::Exponential(1.0), "exp(1)"),
    ] {
        for &load in &[0.4, 0.8, 1.2, 1.6] {
            let config = FctConfig {
                arrival_rate: load * hosts,
                size_dist,
                flow_count: 600,
                seed: 17,
            };
            for transport in [Transport::FairSharing, Transport::Scheduling] {
                let stats = simulate_fct(&clos, &config, transport);
                table.row(vec![
                    format!("{load:.1}"),
                    label.to_string(),
                    match transport {
                        Transport::FairSharing => "fair-sharing".into(),
                        Transport::Scheduling => "scheduling".into(),
                    },
                    format!("{:.3}", stats.mean_fct),
                    format!("{:.3}", stats.p99_fct),
                    format!("{:.3}", stats.mean_slowdown),
                ]);
            }
        }
    }
    println!("FCT on C_2, Poisson arrivals, greedy online path selection:\n");
    println!("{}", table.render());
    println!("As §7 argues, once the fabric saturates, delaying some flows so");
    println!("others run at link rate (scheduling) beats max-min fair sharing");
    println!("on mean FCT.");
}

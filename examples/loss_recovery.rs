//! Loss recovery in action (§5.3): run the same bulk transfer across a
//! clean and a lossy link and watch go-back-N + the single out-of-order
//! interval recover.
//!
//! ```sh
//! cargo run --release --example loss_recovery
//! ```

use flextoe_apps::{Arrival, ClientSpec, ServerSpec, Wire};
use flextoe_bench::harness::*;
use flextoe_netsim::Faults;
use flextoe_sim::{Duration, Time};

fn main() {
    for loss in [0.0, 0.001, 0.01] {
        let opts = PairOpts {
            faults: Faults {
                drop_chance: loss,
                ..Default::default()
            },
            ..Default::default()
        };
        let (sim, res) = run_echo(
            99,
            Stack::FlexToe,
            Stack::FlexToe,
            opts,
            ServerSpec {
                wire: Wire::Fixed {
                    req: 1 << 20,
                    resp: 32,
                },
                ..Default::default()
            },
            ClientSpec {
                n_conns: 4,
                wire: Wire::Fixed {
                    req: 1 << 20,
                    resp: 32,
                },
                arrival: Arrival::Closed { pipeline: 1 },
                warmup: Time::from_ms(2),
                connect_spacing: Duration::from_us(5),
                ..Default::default()
            },
            Time::from_ms(40),
        );
        println!(
            "loss {:>5.2}%  goodput {:>7.2} Gbps  fast-retx {:>4}  rto-retx {:>4}  ooo-segs {:>5}",
            loss * 100.0,
            res.rps * (1u64 << 20) as f64 * 8.0 / 1e9,
            sim.stats.get_named("proto.fast_retx"),
            sim.stats.get_named("proto.rto_retx"),
            sim.stats.get_named("proto.ooo"),
        );
    }
    println!(
        "\n1 MB transfers keep completing under loss: go-back-N + OOO-interval reassembly at work"
    );
}

//! Wall-clock self-profile of the end-to-end echo scenario (FlexTOE to
//! FlexTOE, 16 connections, 64 B echo, 30 ms simulated): per-node-type
//! nanoseconds and event counts, and delivered events per `Msg` kind.
//!
//! ```sh
//! FLEXTOE_SIM_PROF=1 cargo run --release --example prof_echo
//! ```
//!
//! This is the tool that located the Carousel `earliest_work` linear
//! scan (69% of wall time pre-fix). Without the env var the engine skips
//! the per-event timestamps and the table prints empty.

use flextoe_apps::{ClientConfig, LoadMode, ServerConfig};
use flextoe_bench::harness::*;
use flextoe_sim::{Duration, Time};

fn main() {
    let t0 = std::time::Instant::now();
    let (sim, res) = run_echo(
        7,
        Stack::FlexToe,
        Stack::FlexToe,
        PairOpts::default(),
        ServerConfig {
            msg_size: 64,
            resp_size: 64,
            app_cycles: 0,
            ..Default::default()
        },
        ClientConfig {
            n_conns: 16,
            msg_size: 64,
            resp_size: 64,
            mode: LoadMode::Closed { pipeline: 4 },
            warmup: Time::from_ms(2),
            connect_spacing: Duration::from_us(3),
            ..Default::default()
        },
        Time::from_ms(30),
    );
    let wall = t0.elapsed().as_secs_f64();
    let ev = sim.events_processed();
    println!(
        "rps {:.0}  events {}  wall {:.2}s  ({:.2}M ev/s)",
        res.rps,
        ev,
        wall,
        ev as f64 / wall / 1e6
    );
    let total_ns: u64 = sim.prof.iter().map(|p| p.0).sum();
    println!("accounted: {:.2}s", total_ns as f64 / 1e9);
    println!(
        "{:<18} {:>12} {:>10} {:>8} {:>6}",
        "node", "ns", "events", "ns/ev", "%"
    );
    for (name, ns, n) in sim.prof_dump() {
        println!(
            "{:<18} {:>12} {:>10} {:>8} {:>5.1}%",
            name,
            ns,
            n,
            ns / n.max(1),
            ns as f64 / total_ns as f64 * 100.0
        );
    }
    println!("\n{:<12} {:>10} {:>6}", "msg kind", "events", "%");
    for (kind, n) in sim.prof_kind_dump() {
        println!(
            "{:<12} {:>10} {:>5.1}%",
            kind,
            n,
            n as f64 / ev as f64 * 100.0
        );
    }
}

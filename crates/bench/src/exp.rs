//! One runner per table and figure of the paper's evaluation (§5).
//! Absolute numbers come from the simulation substrate; the reproduction
//! target is the *shape*. Each runner prints paper-vs-measured to stdout;
//! nothing checks it yet (ROADMAP item 7).

use flextoe_apps::{Arrival, ClientSpec, ServerSpec, Wire};
use flextoe_control::CcAlgo;
use flextoe_core::module::{xdp_with_maps, DataPathModule, Hook, TcpdumpModule};
use flextoe_core::stages::pre::PreStage;
use flextoe_core::PipeCfg;
use flextoe_ebpf::{programs, Insn};
use flextoe_hoststack::HostStackNode;
use flextoe_netsim::{Faults, PortConfig, WredParams};
use flextoe_sim::{Duration, Sim, Tick, Time};

use crate::harness::*;

/// Table 1: Memcached spends 0.89 kc per request on FlexTOE (the true
/// application work, identical across stacks): the KV-like RPC's
/// application cost.
const KV_APP_CYCLES: u64 = 890;

fn client(n_conns: u32, msg: u32, resp: u32, pipeline: u32, warmup_ms: u64) -> ClientSpec {
    ClientSpec {
        n_conns,
        wire: Wire::Fixed { req: msg, resp },
        arrival: Arrival::Closed { pipeline },
        warmup: Time::from_ms(warmup_ms),
        connect_spacing: Duration::from_us(3),
        ..Default::default()
    }
}

fn server(msg: u32, resp: u32, app_cycles: u64) -> ServerSpec {
    ServerSpec {
        wire: Wire::Fixed { req: msg, resp },
        app_cycles,
        ..Default::default()
    }
}

/// Saturating closed-loop KV-like RPC rate of one `stack` server core,
/// driven from a fast (TAS) client: the measured column of Tables 1 and 6.
fn kv_echo_rps(stack: Stack) -> f64 {
    let (_sim, res) = run_echo(
        1,
        Stack::Tas,
        stack,
        PairOpts::default(),
        server(64, 64, KV_APP_CYCLES),
        client(16, 64, 64, 4, 2),
        Time::from_ms(12),
    );
    res.rps
}

// ---------------------------------------------------------------------------

/// Table 1: per-request CPU impact of TCP processing (modeled costs +
/// measured single-core memcached-style throughput).
pub fn table1() {
    println!("# Table 1 — per-request CPU impact of TCP processing");
    println!("# (kc = kilocycles @ 2 GHz per request; measured 1-core RPC rate alongside)");
    println!(
        "{:<14} {:>8} {:>8} {:>9} {:>6} {:>7} {:>8} {:>12}",
        "stack", "driver", "tcp/ip", "sockets", "app", "other", "total", "measured"
    );
    for stack in Stack::all4() {
        let (driver, tcpip, sockets, other) = match stack {
            Stack::Linux => (0.71, 4.25, 2.48, 3.42),
            Stack::Chelsio => (1.28, 0.40, 2.61, 3.28),
            Stack::Tas => (0.18, 1.44, 0.79, 0.09),
            Stack::FlexToe => (0.0, 0.0, 0.74, 0.04),
            _ => unreachable!(),
        };
        let app = match stack {
            Stack::Linux => 1.26,
            Stack::Chelsio => 1.31,
            Stack::Tas => 0.85,
            _ => 0.89,
        };
        let total = driver + tcpip + sockets + app + other;
        println!(
            "{:<14} {:>8.2} {:>8.2} {:>9.2} {:>6.2} {:>7.2} {:>8.2} {:>12}",
            stack.name(),
            driver,
            tcpip,
            sockets,
            app,
            other,
            total,
            fmt_ops(kv_echo_rps(stack))
        );
    }
}

/// Table 2: data-path throughput with flexible extensions.
pub fn table2() {
    println!("# Table 2 — performance with flexible extensions (echo, 64 conns)");
    type Module = Box<dyn DataPathModule>;
    let xdp = |name, prog: fn() -> Vec<Insn>| -> Option<Module> {
        Some(Box::new(xdp_with_maps(name, Hook::RxIngress, |_| prog()).0))
    };
    let tcpdump: Module = Box::new(TcpdumpModule::new(Hook::RxIngress));
    // (label, tracepoints, module on the server NIC's RX-ingress hook)
    let rows = [
        ("Baseline FlexTOE", false, None),
        ("Statistics and profiling", true, None),
        ("tcpdump (no filter)", false, Some(tcpdump)),
        ("XDP (null)", false, xdp("null", programs::null_pass)),
        ("XDP (vlan-strip)", false, xdp("vlan", programs::vlan_strip)),
    ];
    for (label, tracepoints, module) in rows {
        let cfg = PipeCfg {
            tracepoints,
            ..PipeCfg::agilio_full()
        };
        let opts = PairOpts {
            cfg,
            ..Default::default()
        };
        let mut sim = Sim::new(5);
        let (ea, eb) = build_pair(&mut sim, Stack::FlexToe, Stack::FlexToe, &opts);
        if let Some(module) = module {
            let pre = eb.flextoe.as_ref().unwrap().0.pre;
            sim.node_mut::<PreStage>(pre).ingress.push(module);
        }
        let ends = ((&ea, Stack::FlexToe), (&eb, Stack::FlexToe));
        let (srv, cli) = (server(32, 32, 0), client(64, 32, 32, 4, 2));
        let res = echo_between(&mut sim, ends, srv, cli, Time::from_ms(12));
        println!("{:<28} {:>12}", label, fmt_ops(res.rps));
    }
}

/// Table 3: data-path parallelism breakdown (64 conns, 2 KB echo, 1 in
/// flight each).
pub fn table3() {
    println!("# Table 3 — FlexTOE data-path parallelism breakdown");
    println!(
        "{:<24} {:>12} {:>10} {:>12}",
        "design", "tput", "p50 us", "p99.99 us"
    );
    let mut base_tput = 0.0;
    let mut run = |label: &str, stack: Stack, cfg: PipeCfg| {
        let (_sim, res) = run_echo(
            3,
            stack,
            stack,
            PairOpts {
                cfg,
                ..Default::default()
            },
            server(2048, 2048, 0),
            client(64, 2048, 2048, 1, 3),
            Time::from_ms(15),
        );
        let bps = res.goodput_bps * 2.0; // bidirectional echo: count both dirs
        if base_tput == 0.0 {
            base_tput = bps;
        }
        println!(
            "{:<24} {:>12} {:>10.0} {:>12.0}   (x{:.0})",
            label,
            fmt_bps(bps),
            res.latency.median() as f64 / 1000.0,
            res.latency.p9999() as f64 / 1000.0,
            bps / base_tput
        );
    };
    run(
        "Baseline (run-to-compl.)",
        Stack::FlexBaselineFpc,
        PipeCfg::agilio_full(),
    );
    run(
        "+ Pipelining",
        Stack::FlexToe,
        PipeCfg::agilio_pipelined_only(),
    );
    run(
        "+ Intra-FPC parallelism",
        Stack::FlexToe,
        PipeCfg::agilio_intra_fpc(),
    );
    run(
        "+ Replicated pre/post",
        Stack::FlexToe,
        PipeCfg::agilio_replicated(),
    );
    run(
        "+ Flow-group islands",
        Stack::FlexToe,
        PipeCfg::agilio_full(),
    );
}

/// Table 4: congestion control under incast.
pub fn table4() {
    println!("# Table 4 — FlexTOE congestion control under incast");
    println!(
        "{:<6} {:>6} {:>5} {:>12} {:>14} {:>7}",
        "deg", "conns", "cc", "tput", "p99.99 ms", "JFI"
    );
    for (deg, conns_per_client) in [(4u8, 4u32), (8, 2)] {
        for cc_on in [true, false] {
            let opts = PairOpts {
                cc: if cc_on { CcAlgo::Dctcp } else { CcAlgo::None },
                ..Default::default()
            };
            let mut sim = Sim::new(17);
            // shaped server port: line/deg, WRED tail-drops on exhaustion
            let port = PortConfig {
                rate_bps: 40_000_000_000 / deg as u64,
                buf_bytes: 128 * 1024,
                ecn_threshold: Some(24 * 1024),
                wred: Some(WredParams {
                    min_bytes: 64 * 1024,
                    max_bytes: 128 * 1024,
                    max_p: 0.3,
                }),
            };
            let (clients, srv_ep, _sw) = build_star(&mut sim, Stack::FlexToe, deg, port, &opts);
            let srv = sim.add_node(DynServer::new(
                server(65_536, 32, 0),
                srv_ep.stack_init(Stack::FlexToe, 1),
            ));
            sim.schedule(Time::ZERO, srv, Tick);
            let mut client_nodes = Vec::new();
            for (i, ep) in clients.iter().enumerate() {
                let c = sim.add_node(DynClient::new(
                    ClientSpec {
                        server_ip: srv_ep.ip,
                        ..client(conns_per_client, 65_536, 32, 1, 5)
                    },
                    ep.stack_init(Stack::FlexToe, 1),
                ));
                sim.schedule(Time::from_us(30 + i as u64), c, Tick);
                client_nodes.push(c);
            }
            sim.run_until(Time::from_ms(40));
            let mut bytes = Vec::new();
            let mut lat = flextoe_sim::Histogram::new();
            let mut total_resp = 0u64;
            let mut span = Duration::ZERO;
            for &c in &client_nodes {
                let cl = sim.node_ref::<DynClient>(c);
                // goodput counts the 64KB requests delivered
                bytes.extend(cl.per_conn_bytes().iter().map(|&b| b / 32 * 65_536));
                lat.merge(&cl.latency);
                total_resp += cl.measured;
                span = span.max(cl.last_measured_at.saturating_since(cl.first_measured_at));
            }
            let tput = if span > Duration::ZERO {
                total_resp as f64 * 65_536.0 * 8.0 / span.as_secs_f64()
            } else {
                0.0
            };
            println!(
                "{:<6} {:>6} {:>5} {:>12} {:>14.2} {:>7.2}",
                deg,
                deg as u32 * conns_per_client,
                if cc_on { "on" } else { "off" },
                fmt_bps(tput),
                lat.p9999() as f64 / 1e6,
                jain_index(&bytes)
            );
        }
    }
}

/// Table 5: connection state partitioning (static check).
pub fn table5() {
    use flextoe_core::{PostState, PreState, ProtoState, CONN_STATE_BYTES};
    println!("# Table 5 — connection state partitioning");
    println!("pre-processor  {:>3} B (paper: 15 B)", PreState::WIRE_SIZE);
    // snd_max is a known deviation: 4 B the paper's state does not have
    let snd_max = ProtoState::WIRE_SIZE - 43;
    println!(
        "protocol       {:>3} B (paper: 43 B; +{snd_max} B snd_max, the go-back-N ACK bound)",
        ProtoState::WIRE_SIZE
    );
    println!("post-processor {:>3} B (paper: 51 B)", PostState::WIRE_SIZE);
    println!(
        "total          {:>3} B (paper: 108 B)",
        CONN_STATE_BYTES + snd_max
    );
}

/// Table 6: TAS per-packet TCP/IP processing breakdown (model inputs).
pub fn table6() {
    println!("# Table 6 — TAS TCP/IP per-packet breakdown (cycles, model)");
    for (f, c, pct) in [
        ("Segment generation", 130, 9),
        ("Loss detection (and recovery)", 606, 42),
        ("Payload transfer", 10, 1),
        ("Application notification", 381, 26),
        ("Flow scheduling", 172, 12),
        ("Miscellaneous", 141, 10),
    ] {
        println!("{:<32} {:>5}  {:>3}%", f, c, pct);
    }
    println!("{:<32} {:>5}  100%", "Total", 1440);
    let rps = kv_echo_rps(Stack::Tas);
    println!("measured TAS 1-core echo rate: {}", fmt_ops(rps));
}

/// Fig. 8: memcached-style throughput scalability with server cores.
pub fn fig8() {
    println!("# Fig. 8 — RPC server throughput scalability (MOps vs cores)");
    print!("{:<10}", "cores");
    let cores_list = [1u32, 2, 4, 8, 12, 16];
    for c in cores_list {
        print!(" {:>9}", c);
    }
    println!();
    for stack in Stack::all4() {
        print!("{:<10}", stack.name());
        for cores in cores_list {
            // one server app per core (per-core context queues / ports)
            let opts = PairOpts::default();
            let mut sim = Sim::new(23 + cores as u64);
            let (ea, eb) = build_pair(&mut sim, Stack::Tas, stack, &opts);
            if let Some(node) = eb.baseline {
                sim.node_mut::<HostStackNode>(node).n_app_cores = cores;
            }
            let mut client_nodes = Vec::new();
            for core in 0..cores {
                let port = 7800 + core as u16;
                let srv = sim.add_node(DynServer::new(
                    ServerSpec {
                        port,
                        ..server(64, 64, KV_APP_CYCLES)
                    },
                    eb.stack_init(stack, 1 + core as u16),
                ));
                sim.schedule(Time::ZERO, srv, Tick);
                let cli = sim.add_node(DynClient::new(
                    ClientSpec {
                        server_ip: eb.ip,
                        server_port: port,
                        ..client(8, 64, 64, 4, 2)
                    },
                    ea.stack_init(Stack::Tas, 100 + core as u16),
                ));
                sim.schedule(Time::from_us(20 + core as u64), cli, Tick);
                client_nodes.push(cli);
            }
            sim.run_until(Time::from_ms(10));
            let total: f64 = client_nodes
                .iter()
                .map(|&c| sim.node_ref::<DynClient>(c).throughput_rps())
                .sum();
            print!(" {:>9.2}", total / 1e6);
        }
        println!();
    }
}

/// Fig. 9: RPC latency for all server/client stack combinations.
pub fn fig9() {
    println!("# Fig. 9 — echo latency, all server x client combinations (us)");
    println!(
        "{:<10} {:<10} {:>8} {:>8} {:>10}",
        "server", "client", "p50", "p99", "p99.99"
    );
    for server_stack in Stack::all4() {
        for client_stack in Stack::all4() {
            let (_sim, res) = run_echo(
                9,
                client_stack,
                server_stack,
                PairOpts::default(),
                server(32, 32, KV_APP_CYCLES),
                client(1, 32, 32, 1, 1),
                Time::from_ms(10),
            );
            println!(
                "{:<10} {:<10} {:>8.1} {:>8.1} {:>10.1}",
                server_stack.name(),
                client_stack.name(),
                res.latency.median() as f64 / 1000.0,
                res.latency.p99() as f64 / 1000.0,
                res.latency.p9999() as f64 / 1000.0
            );
        }
    }
}

/// Fig. 10: RX/TX RPC throughput for a saturated single-core server.
pub fn fig10() {
    println!("# Fig. 10 — RPC throughput, saturated server (Gbps of payload)");
    for app_cycles in [250u64, 1000] {
        println!("## {} cycles/message", app_cycles);
        println!("{:<10} {:>6} {:>12} {:>12}", "stack", "size", "RX", "TX");
        for stack in Stack::all4() {
            for size in [32u32, 128, 512, 2048] {
                let echo = |seed, req: u32, resp: u32| {
                    let (_sim, res) = run_echo(
                        seed,
                        Stack::Tas,
                        stack,
                        PairOpts::default(),
                        server(req, resp, app_cycles),
                        client(128, req, resp, 2, 2),
                        Time::from_ms(10),
                    );
                    res
                };
                // RX: clients send `size`, server replies 32 B; TX: the reverse
                let (rx, tx) = (echo(31, size, 32), echo(32, 32, size));
                println!(
                    "{:<10} {:>6} {:>12} {:>12}",
                    stack.name(),
                    size,
                    fmt_bps(rx.rps * size as f64 * 8.0),
                    fmt_bps(tx.goodput_bps)
                );
            }
        }
    }
}

/// Fig. 11: single-connection RPC RTT percentiles vs message size.
pub fn fig11() {
    println!("# Fig. 11 — single-connection RPC RTT (us)");
    println!(
        "{:<10} {:>6} {:>8} {:>8} {:>10}",
        "stack", "size", "p50", "p99", "p99.99"
    );
    for stack in Stack::all4() {
        for size in [32u32, 256, 1024, 2048] {
            let (_s, res) = run_echo(
                41,
                stack,
                stack,
                PairOpts::default(),
                server(size, size, 0),
                client(1, size, size, 1, 1),
                Time::from_ms(10),
            );
            println!(
                "{:<10} {:>6} {:>8.1} {:>8.1} {:>10.1}",
                stack.name(),
                size,
                res.latency.median() as f64 / 1000.0,
                res.latency.p99() as f64 / 1000.0,
                res.latency.p9999() as f64 / 1000.0
            );
        }
    }
}

/// Fig. 12: large-RPC per-connection goodput, uni- and bidirectional.
pub fn fig12() {
    println!("# Fig. 12 — large-RPC goodput (client->server transfer)");
    println!(
        "{:<10} {:>8} {:>14} {:>14}",
        "stack", "size", "unidirectional", "bidirectional"
    );
    for stack in Stack::all4() {
        for size in [128 * 1024u32, 1 << 20, 8 << 20] {
            let echo = |seed, resp: u32| {
                let (srv, cli) = (server(size, resp, 0), client(1, size, resp, 1, 2));
                let deadline = Time::from_ms(60);
                run_echo(seed, stack, stack, PairOpts::default(), srv, cli, deadline).1
            };
            let uni = echo(51, 32).rps * size as f64 * 8.0;
            let bidi = echo(52, size).goodput_bps;
            println!(
                "{:<10} {:>7}K {:>14} {:>14}",
                stack.name(),
                size / 1024,
                fmt_bps(uni),
                fmt_bps(bidi)
            );
        }
    }
}

/// Fig. 13: connection scalability (single 64 B RPC in flight per conn).
pub fn fig13() {
    println!("# Fig. 13 — connection scalability (64 B echo, 1 in flight)");
    print!("{:<10}", "conns");
    let conn_counts = [512u32, 2048, 4096, 8192];
    for n in conn_counts {
        print!(" {:>10}", n);
    }
    println!();
    for stack in Stack::all4() {
        print!("{:<10}", stack.name());
        for n in conn_counts {
            let (_s, res) = run_echo(
                61,
                Stack::Tas,
                stack,
                PairOpts::default(),
                server(64, 64, 0),
                ClientSpec {
                    connect_spacing: Duration::from_ns(800),
                    ..client(n, 64, 64, 1, 12)
                },
                Time::from_ms(28),
            );
            print!(" {:>9.2}M", res.rps / 1e6);
        }
        println!();
    }
}

/// Fig. 14: data-path parallelism generalization (x86 / BlueField ports).
pub fn fig14() {
    println!("# Fig. 14 — single-connection pipelined RPC goodput on the ports");
    for (pname, platform, tas_clock, tas_copy) in [
        (
            "x86",
            flextoe_nfp::x86_port(),
            flextoe_sim::clocks::X86_2350MHZ,
            0.06f64,
        ),
        (
            "bluefield",
            flextoe_nfp::bluefield_port(),
            flextoe_sim::clocks::BLUEFIELD_800MHZ,
            0.5,
        ),
    ] {
        println!("## {pname}");
        println!(
            "{:<16} {:>6} {:>6} {:>6} {:>6}  (MSS; Gbps)",
            "config", "1448", "512", "128", "64"
        );
        for (label, kind) in [
            ("TAS", Some(false)),
            ("TAS-nocopy", Some(true)),
            ("FlexTOE-scalar", None),
            ("FlexTOE", None),
        ] {
            let replicated = label == "FlexTOE";
            print!("{:<16}", label);
            for mss in [1448u32, 512, 128, 64] {
                let gbps = match kind {
                    Some(nocopy) => {
                        // TAS on this platform's cores
                        let opts = PairOpts::default();
                        let mut sim = Sim::new(71);
                        let (ea, eb) = build_pair(&mut sim, Stack::Tas, Stack::Tas, &opts);
                        for ep in [&ea, &eb] {
                            let n = ep.baseline.unwrap();
                            let h = sim.node_mut::<HostStackNode>(n);
                            h.set_platform(tas_clock, platform.mac_bps);
                            h.copy_cycles_per_byte = if nocopy { 0.0 } else { tas_copy };
                        }
                        run_sink(&mut sim, &ea, &eb, Stack::Tas)
                    }
                    None => {
                        let cfg = PipeCfg {
                            mss,
                            ..PipeCfg::port(platform, replicated)
                        };
                        let opts = PairOpts {
                            cfg,
                            ..Default::default()
                        };
                        let mut sim = Sim::new(72);
                        let (ea, eb) = build_pair(&mut sim, Stack::FlexToe, Stack::FlexToe, &opts);
                        run_sink(&mut sim, &ea, &eb, Stack::FlexToe)
                    }
                };
                print!(" {:>6.2}", gbps / 1e9);
            }
            println!();
        }
    }
}

/// Helper: single-connection pipelined RPC sink throughput.
fn run_sink(sim: &mut Sim, ea: &Endpoint, eb: &Endpoint, stack: Stack) -> f64 {
    let (srv, cli) = (server(16_384, 32, 0), client(1, 16_384, 32, 4, 3));
    let res = echo_between(sim, ((ea, stack), (eb, stack)), srv, cli, Time::from_ms(25));
    res.rps * 16_384.0 * 8.0
}

/// Fig. 15: throughput under random packet loss.
pub fn fig15() {
    let rates = [0.0f64, 1e-5, 1e-4, 1e-3, 0.02];
    for (title, bulk) in [
        ("15a — 100 conns, 64 B echo x8 pipelined", false),
        ("15b — 8 conns, unidirectional 1 MB RPCs", true),
    ] {
        // 15a echoes the request, 15b answers a bulk request with 32 B
        let (seed, conns, msg, resp, pipeline, ms, width) = if bulk {
            (82, 8, 1 << 20, 32, 1, 40, 12)
        } else {
            (81, 100, 64u32, 64, 8, 24, 10)
        };
        println!("# Fig. {title}, vs loss rate");
        print!("{:<10}", "loss");
        for r in rates {
            print!(" {:>width$}", format!("{}%", r * 100.0));
        }
        println!();
        for stack in Stack::all4() {
            print!("{:<10}", stack.name());
            for rate in rates {
                let opts = PairOpts {
                    faults: Faults {
                        drop_chance: rate,
                        ..Default::default()
                    },
                    ..Default::default()
                };
                let (srv, cli) = (server(msg, resp, 0), client(conns, msg, resp, pipeline, 4));
                let res = run_echo(seed, stack, stack, opts, srv, cli, Time::from_ms(ms)).1;
                let cell = if bulk {
                    fmt_bps(res.rps * msg as f64 * 8.0)
                } else {
                    fmt_ops(res.rps)
                };
                print!(" {cell:>width$}");
            }
            println!();
        }
    }
}

/// Fig. 16: per-connection fairness at line rate.
pub fn fig16() {
    println!("# Fig. 16 — goodput/fair-share distribution (bulk flows)");
    println!(
        "{:<10} {:>6} {:>8} {:>8} {:>7}",
        "stack", "conns", "p50/fs", "p1/fs", "JFI"
    );
    for stack in [Stack::FlexToe, Stack::Linux] {
        for conns in [64u32, 256, 1024] {
            let (_s, res) = run_echo(
                91,
                stack,
                stack,
                PairOpts::default(),
                server(16_384, 32, 0),
                ClientSpec {
                    connect_spacing: Duration::from_us(1),
                    ..client(conns, 16_384, 32, 1, 8)
                },
                Time::from_ms(30),
            );
            let mut per: Vec<u64> = res.per_conn_bytes;
            per.sort_unstable();
            let n = per.len().max(1);
            let total: u64 = per.iter().sum();
            let fair = total as f64 / n as f64;
            let p50 = per[n / 2] as f64 / fair.max(1.0);
            let p1 = per[n / 100] as f64 / fair.max(1.0);
            println!(
                "{:<10} {:>6} {:>8.2} {:>8.2} {:>7.2}",
                stack.name(),
                conns,
                p50,
                p1,
                jain_index(&per)
            );
        }
    }
}

/// Bonus ablation: sequencing/reordering disabled (§3.2).
pub fn ablate_reorder() {
    println!("# Ablation — §3.2 sequencing/reordering on vs off (2 KB echo, 64 conns)");
    for reorder in [true, false] {
        let cfg = PipeCfg {
            reorder,
            ..PipeCfg::agilio_full()
        };
        let (sim, res) = run_echo(
            95,
            Stack::FlexToe,
            Stack::FlexToe,
            PairOpts {
                cfg,
                ..Default::default()
            },
            server(2048, 2048, 0),
            client(64, 2048, 2048, 1, 3),
            Time::from_ms(15),
        );
        println!(
            "reorder={:<5}  tput {:>12}  spurious-OOO {:>8}  p99.99 {:>8.0} us",
            reorder,
            fmt_bps(res.goodput_bps * 2.0),
            sim.stats.get_named("proto.ooo"),
            res.latency.p9999() as f64 / 1000.0,
        );
    }
}

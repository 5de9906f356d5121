//! Data-path packet capture (the Table 2 "tcpdump" extension).
//!
//! ```sh
//! cargo run --release --example packet_capture
//! ```
//!
//! Installs a tcpdump module (with a port filter) at the RX-ingress hook
//! of a FlexTOE NIC, runs echo traffic through the pipeline, and writes a
//! Wireshark-compatible `capture.pcap`.

use flextoe_apps::{ClientConfig, LoadMode, ServerConfig};
use flextoe_bench::harness::*;
use flextoe_core::module::{Hook, TcpdumpModule};
use flextoe_core::stages::pre::PreStage;
use flextoe_sim::{Sim, Tick, Time};
use flextoe_wire::{SegmentView, TcpPacket, ETH_HDR_LEN, IPV4_HDR_LEN};

fn main() {
    let mut sim = Sim::new(7);
    let opts = PairOpts::default();
    let (ea, eb) = build_pair(&mut sim, Stack::FlexToe, Stack::FlexToe, &opts);

    // install tcpdump on the server NIC, filtering on the echo port
    let pre = eb.flextoe.as_ref().unwrap().0.pre;
    let filter = Box::new(|frame: &[u8]| {
        let tcp_off = ETH_HDR_LEN + IPV4_HDR_LEN;
        TcpPacket::new_checked(&frame[tcp_off..])
            .map(|t| t.dst_port() == 7777 || t.src_port() == 7777)
            .unwrap_or(false)
    });
    sim.node_mut::<PreStage>(pre)
        .ingress
        .push(Box::new(TcpdumpModule::with_filter(
            Hook::RxIngress,
            filter,
        )));

    // echo traffic through the pipeline
    let srv = sim.add_node(DynServer::new(
        ServerConfig {
            msg_size: 128,
            resp_size: 128,
            ..Default::default()
        },
        eb.stack_init(Stack::FlexToe, 1),
    ));
    let cli = sim.add_node(DynClient::new(
        ClientConfig {
            server_ip: eb.ip,
            n_conns: 2,
            msg_size: 128,
            resp_size: 128,
            mode: LoadMode::Closed { pipeline: 1 },
            stop_after: Some(50),
            ..Default::default()
        },
        ea.stack_init(Stack::FlexToe, 1),
    ));
    sim.schedule(Time::ZERO, srv, Tick);
    sim.schedule(Time::from_us(20), cli, Tick);
    sim.run_until(Time::from_ms(100));

    // harvest the capture
    let pre_stage = sim.node_mut::<PreStage>(pre);
    let module = pre_stage
        .ingress
        .get_mut("tcpdump")
        .expect("module installed");
    let tcpdump = module
        .as_any_mut()
        .and_then(|a| a.downcast_mut::<TcpdumpModule>())
        .expect("tcpdump module");
    let bytes = tcpdump.pcap.bytes().to_vec();
    std::fs::write("capture.pcap", &bytes).expect("write capture.pcap");
    let records = flextoe_wire::pcap::parse(&bytes).unwrap();
    println!(
        "captured {} frames -> capture.pcap ({} bytes)",
        records.len(),
        bytes.len()
    );
    for rec in records.iter().take(5) {
        let v = SegmentView::parse(&rec.data, false).unwrap();
        println!(
            "  t={}.{:06}s  {}:{} -> {}:{}  seq={} ack={} len={} {:?}",
            rec.sec,
            rec.usec,
            v.src_ip,
            v.src_port,
            v.dst_ip,
            v.dst_port,
            v.seq,
            v.ack,
            v.payload_len,
            v.flags
        );
    }
    assert!(records.len() >= 100, "both requests and ACKs captured");
}

//! Network substrate for the Cluster Of Desktop computers (COD).
//!
//! The original system (Huang et al., ICDCS 2001) ran its Communication
//! Backbone over a 100 Mbit Ethernet LAN connecting eight desktop PCs. This
//! crate provides the equivalent substrate in three interchangeable flavours,
//! all implementing the [`Transport`] trait the CB is written against:
//!
//! * [`SimLan`] / [`SimTransport`] — a deterministic discrete-event LAN model
//!   with configurable latency, jitter, bandwidth and loss. All protocol tests
//!   and benches run on this, so results are reproducible.
//! * [`LoopbackHub`] / [`LoopbackTransport`] — zero-latency in-process channels
//!   (crossbeam) for threaded, real-time examples.
//! * [`UdpTransport`] — real UDP datagrams on the local host, demonstrating
//!   that the same CB code runs over genuine sockets.
//!
//! # Example
//!
//! ```
//! use cod_net::{LanConfig, SimLan, Transport, Destination, Port};
//!
//! let lan = SimLan::shared(LanConfig::fast_ethernet(42));
//! let mut a = SimLan::attach(&lan, "display-1");
//! let mut b = SimLan::attach(&lan, "dynamics");
//!
//! // Endpoints created by `attach` listen on the default CB port, `Port(1)`.
//! a.send(Destination::Broadcast(Port(1)), b"hello cluster").unwrap();
//! SimLan::advance(&lan, cod_net::Micros::from_millis(10));
//! let mut received = Vec::new();
//! b.poll(&mut received).unwrap();
//! assert_eq!(received.len(), 1);
//! assert_eq!(&received[0].payload[..], b"hello cluster");
//! ```

pub mod addr;
pub mod datagram;
pub mod error;
pub mod fault;
pub mod link;
pub mod loopback;
pub mod plans;
pub mod simnet;
pub mod stats;
pub mod time;
pub mod transport;
pub mod udp;

pub use addr::{Addr, NodeId, Port};
pub use datagram::{Datagram, Destination};
pub use error::NetError;
pub use fault::{FaultPlan, LatencySpike, LinkFaultRule, PartitionWindow};
pub use link::{LanConfig, LinkModel};
pub use loopback::{LoopbackHub, LoopbackTransport};
pub use plans::NamedPlan;
pub use simnet::{SharedLan, SimLan, SimTransport};
pub use stats::{LanStats, NodeStats};
pub use time::{Micros, SimClock};
pub use transport::Transport;
pub use udp::{UdpPeerTable, UdpTransport};

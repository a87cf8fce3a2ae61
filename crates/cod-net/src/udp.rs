//! Real UDP transport on the local host.
//!
//! The simulated LAN is used for all deterministic tests and benches; this
//! transport exists to demonstrate that the Communication Backbone runs
//! unchanged over genuine sockets, as it did on the original eight-PC rack.
//!
//! Because IP broadcast is unreliable inside containers and CI environments,
//! "broadcast" is implemented as iterated unicast over a peer table that every
//! node shares — functionally identical for a closed cluster whose membership
//! is known (the rack of Figure 11).

use std::collections::BTreeMap;
use std::io::ErrorKind;
use std::net::{SocketAddr, UdpSocket};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::RwLock;

use crate::addr::{Addr, NodeId, Port};
use crate::datagram::{Datagram, Destination};
use crate::error::NetError;
use crate::time::Micros;
use crate::transport::Transport;

/// Maximum UDP payload this transport accepts (classic safe maximum).
pub const UDP_MTU: usize = 65_000;

/// Shared table mapping cluster addresses to socket addresses.
#[derive(Debug, Clone, Default)]
pub struct UdpPeerTable {
    inner: Arc<RwLock<BTreeMap<Addr, SocketAddr>>>,
}

impl UdpPeerTable {
    /// Creates an empty peer table.
    pub fn new() -> UdpPeerTable {
        UdpPeerTable::default()
    }

    /// Registers (or replaces) the socket address for a cluster address.
    pub fn insert(&self, addr: Addr, sock: SocketAddr) {
        self.inner.write().insert(addr, sock);
    }

    /// Looks up the socket address of a cluster address.
    pub fn lookup(&self, addr: Addr) -> Option<SocketAddr> {
        self.inner.read().get(&addr).copied()
    }

    /// All peers listening on `port`, excluding `except`.
    pub fn peers_on_port(&self, port: Port, except: Addr) -> Vec<(Addr, SocketAddr)> {
        self.inner
            .read()
            .iter()
            .filter(|(a, _)| a.port == port && **a != except)
            .map(|(a, s)| (*a, *s))
            .collect()
    }

    /// Number of registered peers.
    pub fn len(&self) -> usize {
        self.inner.read().len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.read().is_empty()
    }
}

/// A [`Transport`] backed by a non-blocking UDP socket on the local host.
#[derive(Debug)]
pub struct UdpTransport {
    socket: UdpSocket,
    addr: Addr,
    peers: UdpPeerTable,
}

impl UdpTransport {
    /// Binds a new UDP socket on `127.0.0.1` (ephemeral port), registers it in
    /// the peer table under `addr`, and returns the transport.
    ///
    /// # Errors
    ///
    /// Returns an error if the socket cannot be bound or configured.
    pub fn bind(addr: Addr, peers: UdpPeerTable) -> Result<UdpTransport, NetError> {
        let socket = UdpSocket::bind(("127.0.0.1", 0))?;
        socket.set_nonblocking(true)?;
        let local = socket.local_addr()?;
        peers.insert(addr, local);
        Ok(UdpTransport { socket, addr, peers })
    }

    /// The OS socket address this transport is bound to.
    ///
    /// # Errors
    ///
    /// Returns an error if the socket address cannot be queried.
    pub fn socket_addr(&self) -> Result<SocketAddr, NetError> {
        Ok(self.socket.local_addr()?)
    }

    fn encode(&self, payload: &[u8]) -> Vec<u8> {
        // 4-byte header carrying the sender's cluster address.
        let mut buf = Vec::with_capacity(payload.len() + 4);
        buf.extend_from_slice(&self.addr.node.0.to_be_bytes());
        buf.extend_from_slice(&self.addr.port.0.to_be_bytes());
        buf.extend_from_slice(payload);
        buf
    }

    fn decode(buf: &[u8]) -> Option<(Addr, Bytes)> {
        if buf.len() < 4 {
            return None;
        }
        let node = NodeId(u16::from_be_bytes([buf[0], buf[1]]));
        let port = Port(u16::from_be_bytes([buf[2], buf[3]]));
        Some((Addr::new(node, port), Bytes::copy_from_slice(&buf[4..])))
    }
}

impl Transport for UdpTransport {
    fn send(&mut self, dst: Destination, payload: &[u8]) -> Result<(), NetError> {
        if payload.len() > UDP_MTU {
            return Err(NetError::PayloadTooLarge { size: payload.len(), max: UDP_MTU });
        }
        let frame = self.encode(payload);
        match dst {
            Destination::Unicast(to) => {
                let sock = self.peers.lookup(to).ok_or(NetError::UnknownEndpoint(to))?;
                self.socket.send_to(&frame, sock)?;
            }
            Destination::Broadcast(port) => {
                for (_, sock) in self.peers.peers_on_port(port, self.addr) {
                    self.socket.send_to(&frame, sock)?;
                }
            }
        }
        Ok(())
    }

    fn poll(&mut self, out: &mut Vec<Datagram>) -> Result<(), NetError> {
        let mut buf = [0u8; UDP_MTU + 4];
        loop {
            match self.socket.recv_from(&mut buf) {
                Ok((len, _from)) => {
                    if let Some((src, payload)) = Self::decode(&buf[..len]) {
                        out.push(Datagram {
                            src,
                            dst: Destination::Unicast(self.addr),
                            payload,
                            delivered_at: Micros::ZERO,
                        });
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) => return Err(NetError::Io(e)),
            }
        }
        Ok(())
    }

    fn local_addr(&self) -> Addr {
        self.addr
    }

    fn mtu(&self) -> usize {
        UDP_MTU
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::polled;
    use std::time::{Duration, Instant};

    fn wait_for<T: Transport>(t: &mut T, n: usize) -> Vec<Datagram> {
        let deadline = Instant::now() + Duration::from_secs(2);
        let mut got = Vec::new();
        while got.len() < n && Instant::now() < deadline {
            t.poll(&mut got).unwrap();
            std::thread::sleep(Duration::from_millis(1));
        }
        got
    }

    #[test]
    fn udp_unicast_roundtrip() {
        let peers = UdpPeerTable::new();
        let mut a = UdpTransport::bind(Addr::new(NodeId(0), Port(1)), peers.clone()).unwrap();
        let mut b = UdpTransport::bind(Addr::new(NodeId(1), Port(1)), peers.clone()).unwrap();
        a.send(Destination::Unicast(b.local_addr()), b"over real udp").unwrap();
        let got = wait_for(&mut b, 1);
        assert_eq!(got.len(), 1);
        assert_eq!(&got[0].payload[..], b"over real udp");
        assert_eq!(got[0].src, a.local_addr());
    }

    #[test]
    fn udp_broadcast_reaches_all_peers_on_port() {
        let peers = UdpPeerTable::new();
        let mut a = UdpTransport::bind(Addr::new(NodeId(0), Port(1)), peers.clone()).unwrap();
        let mut b = UdpTransport::bind(Addr::new(NodeId(1), Port(1)), peers.clone()).unwrap();
        let mut c = UdpTransport::bind(Addr::new(NodeId(2), Port(1)), peers.clone()).unwrap();
        let mut other_port =
            UdpTransport::bind(Addr::new(NodeId(3), Port(2)), peers.clone()).unwrap();

        a.send(Destination::Broadcast(Port(1)), b"bcast").unwrap();
        assert_eq!(wait_for(&mut b, 1).len(), 1);
        assert_eq!(wait_for(&mut c, 1).len(), 1);
        std::thread::sleep(Duration::from_millis(20));
        assert!(polled(&mut other_port).is_empty());
    }

    #[test]
    fn unknown_peer_is_error() {
        let peers = UdpPeerTable::new();
        let mut a = UdpTransport::bind(Addr::new(NodeId(0), Port(1)), peers).unwrap();
        let err = a.send(Destination::Unicast(Addr::new(NodeId(9), Port(1))), b"x").unwrap_err();
        assert!(matches!(err, NetError::UnknownEndpoint(_)));
    }

    #[test]
    fn oversized_payload_rejected() {
        let peers = UdpPeerTable::new();
        let mut a = UdpTransport::bind(Addr::new(NodeId(0), Port(1)), peers).unwrap();
        let err = a.send(Destination::Broadcast(Port(1)), &vec![0u8; UDP_MTU + 1]).unwrap_err();
        assert!(matches!(err, NetError::PayloadTooLarge { .. }));
    }
}

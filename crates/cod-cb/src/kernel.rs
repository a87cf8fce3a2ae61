//! The Communication Backbone kernel that every computer of the COD executes.
//!
//! One [`CbKernel`] runs per computer. Local Logical Processes register with it,
//! declare what they publish and subscribe (paper §2.1), and the kernel takes
//! care of discovering matching publishers/subscribers on other computers,
//! establishing virtual channels with them, and routing attribute updates both
//! locally (co-resident LPs) and remotely (across the LAN) — the LPs themselves
//! never need to know where their peers run.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::ops::Range;

use crate::channel::{ChannelId, ChannelRole, ChannelTable, VirtualChannel};
use crate::codec::Writer;
use crate::error::CbError;
use crate::fom::{AttributeValues, ClassRegistry, InteractionClassId, ObjectClassId};
use crate::protocol::PendingSubscription;
use crate::stats::CbStats;
use crate::tables::{PublicationTable, SubscriptionTable};
use crate::wire::{write_update, WireMessage};
use cod_net::{Addr, Datagram, Destination, Micros, Transport};
use serde::{Deserialize, Serialize};

/// Identifies a Logical Process cluster-wide.
///
/// The high 32 bits carry the node id of the CB the LP registered with, the low
/// 32 bits a per-CB counter, so ids are globally unique without coordination.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct LpId(pub u64);

impl LpId {
    /// Composes an LP id from its home node and local sequence number.
    pub fn compose(node: u16, seq: u32) -> LpId {
        LpId(((node as u64) << 32) | seq as u64)
    }

    /// The node the LP registered on.
    pub fn node(self) -> u16 {
        (self.0 >> 32) as u16
    }
}

/// Identifies an object instance cluster-wide (same composition scheme as [`LpId`]).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct ObjectId(pub u64);

impl ObjectId {
    /// Composes an object id from its home node and local sequence number.
    pub fn compose(node: u16, seq: u32) -> ObjectId {
        ObjectId(((node as u64) << 32) | seq as u64)
    }
}

/// A *Reflect Attribute Values* delivery pulled by a subscriber LP.
#[derive(Debug, Clone, PartialEq)]
pub struct Reflection {
    /// The object instance that was updated.
    pub object: ObjectId,
    /// The object's class.
    pub class: ObjectClassId,
    /// The updated attribute values.
    pub values: AttributeValues,
    /// Simulation timestamp attached by the publisher.
    pub timestamp: Micros,
    /// Virtual channel the update arrived on; `None` when the publisher is
    /// co-resident and the update never touched the network.
    pub channel: Option<ChannelId>,
}

/// An interaction (transient event) delivered to a subscriber LP.
#[derive(Debug, Clone, PartialEq)]
pub struct InteractionMessage {
    /// Interaction class.
    pub class: InteractionClassId,
    /// The LP that sent the interaction.
    pub sender: LpId,
    /// Parameter values.
    pub parameters: AttributeValues,
    /// Simulation timestamp attached by the sender.
    pub timestamp: Micros,
}

/// Tunable parameters of the initialization protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CbConfig {
    /// Interval between SUBSCRIPTION broadcasts while unmatched (paper: "a constant time interval").
    pub subscription_broadcast_interval: Micros,
    /// Interval between re-advertisements once at least one channel exists,
    /// allowing late-joining publishers to be discovered.
    pub readvertise_interval: Micros,
}

impl Default for CbConfig {
    fn default() -> Self {
        CbConfig {
            subscription_broadcast_interval: Micros::from_millis(50),
            readvertise_interval: Micros::from_secs(2),
        }
    }
}

/// Wire messages queued for the next flush, encoded back to back into one
/// buffer that is reused from tick to tick.
#[derive(Debug, Default)]
struct Outbox {
    bytes: Vec<u8>,
    messages: Vec<(Destination, Range<usize>)>,
}

impl Outbox {
    fn push(&mut self, dst: Destination, msg: &WireMessage) {
        let start = self.bytes.len();
        msg.encode_into(&mut self.bytes);
        self.messages.push((dst, start..self.bytes.len()));
    }

    fn push_update(
        &mut self,
        remote: Addr,
        channel: ChannelId,
        object: ObjectId,
        class: ObjectClassId,
        timestamp: Micros,
        values: &AttributeValues,
    ) {
        let start = self.bytes.len();
        write_update(&mut Writer::new(&mut self.bytes), channel, object, class, timestamp, values);
        self.messages.push((Destination::Unicast(remote), start..self.bytes.len()));
    }

    fn clear(&mut self) {
        self.bytes.clear();
        self.messages.clear();
    }
}

#[derive(Debug)]
struct LocalLp {
    name: String,
    reflections: VecDeque<Reflection>,
    interactions: VecDeque<InteractionMessage>,
    interaction_subscriptions: BTreeSet<InteractionClassId>,
}

/// The Communication Backbone kernel for one computer of the cluster.
#[derive(Debug)]
pub struct CbKernel<T: Transport> {
    transport: T,
    addr: Addr,
    fom: ClassRegistry,
    config: CbConfig,
    now: Micros,
    lps: BTreeMap<LpId, LocalLp>,
    next_lp_seq: u32,
    next_object_seq: u32,
    next_channel_seq: u32,
    publications: PublicationTable,
    subscriptions: SubscriptionTable,
    pending: Vec<PendingSubscription>,
    channels: ChannelTable,
    objects: BTreeMap<ObjectId, (LpId, ObjectClassId)>,
    channel_time_bounds: BTreeMap<ChannelId, Micros>,
    connect_last_sent: BTreeMap<ChannelId, Micros>,
    outbox: Outbox,
    /// Receive buffer reused by every [`CbKernel::tick`].
    inbox: Vec<Datagram>,
    stats: CbStats,
}

impl<T: Transport> CbKernel<T> {
    /// Creates a kernel with the default protocol configuration.
    pub fn new(transport: T, fom: ClassRegistry) -> CbKernel<T> {
        CbKernel::with_config(transport, fom, CbConfig::default())
    }

    /// Creates a kernel with an explicit protocol configuration.
    pub fn with_config(transport: T, fom: ClassRegistry, config: CbConfig) -> CbKernel<T> {
        let addr = transport.local_addr();
        CbKernel {
            transport,
            addr,
            fom,
            config,
            now: Micros::ZERO,
            lps: BTreeMap::new(),
            next_lp_seq: 0,
            next_object_seq: 0,
            next_channel_seq: 0,
            publications: PublicationTable::new(),
            subscriptions: SubscriptionTable::new(),
            pending: Vec::new(),
            channels: ChannelTable::new(),
            objects: BTreeMap::new(),
            channel_time_bounds: BTreeMap::new(),
            connect_last_sent: BTreeMap::new(),
            outbox: Outbox::default(),
            inbox: Vec::new(),
            stats: CbStats::default(),
        }
    }

    /// Address of this CB on the cluster network.
    pub fn local_addr(&self) -> Addr {
        self.addr
    }

    /// The federation object model this CB was created with.
    pub fn fom(&self) -> &ClassRegistry {
        &self.fom
    }

    /// Current simulation time as seen by this CB (set by the last `tick`).
    pub fn now(&self) -> Micros {
        self.now
    }

    /// Snapshot of the kernel counters.
    pub fn stats(&self) -> &CbStats {
        &self.stats
    }

    /// Number of fully established virtual channels (both roles).
    pub fn established_channel_count(&self) -> usize {
        self.channels.established_count()
    }

    /// Read access to the full virtual-channel table (used by invariant
    /// checkers to audit cluster-wide channel consistency).
    pub fn channels(&self) -> &ChannelTable {
        &self.channels
    }

    /// The conservative lower bound on future message timestamps for a channel,
    /// derived from data messages and Chandy–Misra null messages received on it.
    pub fn channel_time_bound(&self, channel: ChannelId) -> Option<Micros> {
        self.channel_time_bounds.get(&channel).copied()
    }

    /// Ids of established subscriber-side channels feeding a local LP.
    pub fn incoming_channels(&self, lp: LpId) -> Vec<ChannelId> {
        self.channels
            .iter()
            .filter(|c| c.established && c.role == ChannelRole::Subscriber && c.subscriber_lp == lp)
            .map(|c| c.id)
            .collect()
    }

    /// Resets the kernel's session-evolving state to the canonical session
    /// epoch: pending reflections/interactions are discarded, channel time
    /// bounds and connection-retry timers are cleared, the protocol broadcast
    /// timers are re-anchored at `epoch` and the counters are zeroed. The
    /// long-lived topology — registered LPs, publications, subscriptions,
    /// object instances and established virtual channels — is kept, which is
    /// what makes recycling a simulator cheap: the initialization protocol
    /// does not have to run again.
    ///
    /// Called once at the end of cluster initialization *and* on every session
    /// reset, so a recycled kernel and a freshly initialized one start each
    /// session from bit-identical state.
    pub fn begin_session(&mut self, epoch: Micros) {
        self.now = epoch;
        for lp in self.lps.values_mut() {
            lp.reflections.clear();
            lp.interactions.clear();
        }
        self.channel_time_bounds.clear();
        self.connect_last_sent.clear();
        self.outbox.clear();
        for pending in self.pending.iter_mut() {
            pending.begin_session(epoch);
        }
        self.stats = CbStats::default();
    }

    // ------------------------------------------------------------------
    // LP registration and declaration services
    // ------------------------------------------------------------------

    /// Registers a Logical Process with this CB and returns its id.
    pub fn register_lp(&mut self, name: &str) -> LpId {
        let id = LpId::compose(self.addr.node.0, self.next_lp_seq);
        self.next_lp_seq += 1;
        self.lps.insert(
            id,
            LocalLp {
                name: name.to_owned(),
                reflections: VecDeque::new(),
                interactions: VecDeque::new(),
                interaction_subscriptions: BTreeSet::new(),
            },
        );
        id
    }

    /// Name of a locally registered LP.
    pub fn lp_name(&self, lp: LpId) -> Option<&str> {
        self.lps.get(&lp).map(|l| l.name.as_str())
    }

    /// Removes an LP: its publications, subscriptions and channels are torn
    /// down and a withdrawal notice is broadcast to the other CBs.
    ///
    /// # Errors
    ///
    /// Returns [`CbError::UnknownLp`] if the LP is not registered here.
    pub fn deregister_lp(&mut self, lp: LpId) -> Result<(), CbError> {
        if self.lps.remove(&lp).is_none() {
            return Err(CbError::UnknownLp(lp.0));
        }
        self.publications.remove_lp(lp);
        self.subscriptions.remove_lp(lp);
        self.pending.retain(|p| p.lp != lp);
        self.channels.remove_for_lp(lp);
        self.objects.retain(|_, (owner, _)| *owner != lp);
        self.outbox.push(Destination::Broadcast(self.addr.port), &WireMessage::Withdraw { lp });
        Ok(())
    }

    /// *Publish Object Class*: declares that `lp` will produce updates of `class`.
    ///
    /// # Errors
    ///
    /// Returns an error if the LP or the class is unknown.
    pub fn publish_object_class(&mut self, lp: LpId, class: ObjectClassId) -> Result<(), CbError> {
        self.check_lp(lp)?;
        self.check_object_class(class)?;
        self.publications.insert(lp, class);
        Ok(())
    }

    /// *Subscribe Object Class*: declares that `lp` wants reflections of `class`.
    ///
    /// The CB starts broadcasting the subscription on the next [`CbKernel::tick`].
    ///
    /// # Errors
    ///
    /// Returns an error if the LP or the class is unknown.
    pub fn subscribe_object_class(
        &mut self,
        lp: LpId,
        class: ObjectClassId,
    ) -> Result<(), CbError> {
        self.check_lp(lp)?;
        self.check_object_class(class)?;
        if self.subscriptions.insert(lp, class) {
            self.pending.push(PendingSubscription::new(lp, class, self.now));
        }
        Ok(())
    }

    /// Subscribes `lp` to an interaction class (collision events, alarms, ...).
    ///
    /// # Errors
    ///
    /// Returns an error if the LP or the interaction class is unknown.
    pub fn subscribe_interaction_class(
        &mut self,
        lp: LpId,
        class: InteractionClassId,
    ) -> Result<(), CbError> {
        self.check_lp(lp)?;
        if !self.fom.contains_interaction_class(class) {
            return Err(CbError::UnknownInteractionClass(class));
        }
        self.lps.get_mut(&lp).expect("checked above").interaction_subscriptions.insert(class);
        Ok(())
    }

    /// Registers a new object instance of `class` owned by `lp`.
    ///
    /// # Errors
    ///
    /// Returns an error if the LP does not publish `class`.
    pub fn register_object_instance(
        &mut self,
        lp: LpId,
        class: ObjectClassId,
    ) -> Result<ObjectId, CbError> {
        self.check_lp(lp)?;
        self.check_object_class(class)?;
        if !self.publications.publishes(lp, class) {
            return Err(CbError::NotPublished { class });
        }
        let id = ObjectId::compose(self.addr.node.0, self.next_object_seq);
        self.next_object_seq += 1;
        self.objects.insert(id, (lp, class));
        Ok(id)
    }

    // ------------------------------------------------------------------
    // Data plane: push and pull
    // ------------------------------------------------------------------

    /// *Update Attribute Values*: the publisher pushes new state for `object`.
    ///
    /// The update is routed immediately to co-resident subscribers and queued
    /// for transmission over every established virtual channel whose publisher
    /// is `lp`; remote datagrams leave on the next [`CbKernel::tick`].
    ///
    /// # Errors
    ///
    /// Returns an error if the LP is unknown, the object is unknown, or the
    /// object is not owned by `lp`'s published class.
    pub fn update_attribute_values(
        &mut self,
        lp: LpId,
        object: ObjectId,
        values: AttributeValues,
        timestamp: Micros,
    ) -> Result<(), CbError> {
        self.check_lp(lp)?;
        let (owner, class) = *self.objects.get(&object).ok_or(CbError::UnknownObject(object.0))?;
        if owner != lp {
            return Err(CbError::NotPublished { class });
        }
        self.stats.updates_published += 1;

        // Local routing: co-resident subscribers get the reflection without
        // touching the network (paper §2.1: "no matter that the corresponded
        // LP is in the same machine or across network").
        for sub in self.subscriptions.subscribers_of(class) {
            if sub == lp {
                continue;
            }
            if let Some(entry) = self.lps.get_mut(&sub) {
                entry.reflections.push_back(Reflection {
                    object,
                    class,
                    values: values.clone(),
                    timestamp,
                    channel: None,
                });
                self.stats.updates_routed_locally += 1;
                self.stats.reflections_delivered += 1;
            }
        }

        // Remote routing: push over every established outgoing channel. The
        // record is encoded straight from `values`, once per channel.
        for vc in self.channels.outgoing(lp, class) {
            self.outbox.push_update(vc.remote_cb, vc.id, object, class, timestamp, &values);
            self.stats.updates_sent_remote += 1;
        }
        Ok(())
    }

    /// Sends an interaction: delivered to co-resident subscribers immediately
    /// and broadcast to every other CB on the next tick.
    ///
    /// # Errors
    ///
    /// Returns an error if the LP or the interaction class is unknown.
    pub fn send_interaction(
        &mut self,
        lp: LpId,
        class: InteractionClassId,
        parameters: AttributeValues,
        timestamp: Micros,
    ) -> Result<(), CbError> {
        self.check_lp(lp)?;
        if !self.fom.contains_interaction_class(class) {
            return Err(CbError::UnknownInteractionClass(class));
        }
        self.stats.interactions_sent += 1;
        let message =
            InteractionMessage { class, sender: lp, parameters: parameters.clone(), timestamp };
        for (id, entry) in self.lps.iter_mut() {
            if *id != lp && entry.interaction_subscriptions.contains(&class) {
                entry.interactions.push_back(message.clone());
                self.stats.interactions_delivered += 1;
            }
        }
        self.outbox.push(
            Destination::Broadcast(self.addr.port),
            &WireMessage::Interaction { class, sender_lp: lp, timestamp, parameters },
        );
        Ok(())
    }

    /// *Reflect Attribute Values* (pull side): drains the reflections queued for `lp`.
    pub fn reflections(&mut self, lp: LpId) -> Vec<Reflection> {
        match self.lps.get_mut(&lp) {
            Some(entry) => entry.reflections.drain(..).collect(),
            None => Vec::new(),
        }
    }

    /// Drains the interactions queued for `lp`.
    pub fn interactions(&mut self, lp: LpId) -> Vec<InteractionMessage> {
        match self.lps.get_mut(&lp) {
            Some(entry) => entry.interactions.drain(..).collect(),
            None => Vec::new(),
        }
    }

    /// Sends a Chandy–Misra null message on every established outgoing channel
    /// of `lp`, promising that no update earlier than `lower_bound` will follow.
    ///
    /// # Errors
    ///
    /// Returns an error if the LP is unknown.
    pub fn send_null_messages(&mut self, lp: LpId, lower_bound: Micros) -> Result<(), CbError> {
        self.check_lp(lp)?;
        for vc in self.channels.iter() {
            if vc.established && vc.role == ChannelRole::Publisher && vc.publisher_lp == lp {
                self.outbox.push(
                    Destination::Unicast(vc.remote_cb),
                    &WireMessage::NullMessage { channel: vc.id, time: lower_bound },
                );
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // The kernel pump
    // ------------------------------------------------------------------

    /// Advances the kernel to simulation time `now`: receives and processes
    /// wire messages, runs the initialization-protocol timers, and flushes
    /// queued outgoing messages onto the transport.
    ///
    /// # Errors
    ///
    /// Returns an error if the transport fails. Malformed datagrams are counted
    /// in the statistics but do not abort the tick. When a send fails, the
    /// messages queued behind it are dropped rather than retried on the next
    /// tick.
    pub fn tick(&mut self, now: Micros) -> Result<(), CbError> {
        self.now = now;

        // 1. Receive.
        let mut inbox = std::mem::take(&mut self.inbox);
        let polled = self.transport.poll(&mut inbox);
        for dgram in inbox.drain(..) {
            match WireMessage::decode(&dgram.payload) {
                Ok(msg) => {
                    self.stats.wire_messages_received += 1;
                    self.handle_wire_message(msg, dgram.src);
                }
                Err(_) => {
                    self.stats.decode_errors += 1;
                }
            }
        }
        self.inbox = inbox;
        polled?;

        // 2. Initialization-protocol timers: broadcast due subscriptions.
        let interval = self.config.subscription_broadcast_interval;
        let readvertise = self.config.readvertise_interval;
        let cb_addr = self.addr;
        for pending in self.pending.iter_mut() {
            // A co-resident publisher already serves the subscription; keep the
            // broadcast only at the slow re-advertisement pace so late remote
            // publishers can still be discovered.
            pending.locally_matched =
                self.publications.publishers_of(pending.class).any(|p| p != pending.lp);
            if pending.broadcast_due(now, interval, readvertise) {
                pending.record_broadcast(now);
                self.stats.subscription_broadcasts += 1;
                self.outbox.push(
                    Destination::Broadcast(cb_addr.port),
                    &WireMessage::Subscription {
                        subscriber_cb: cb_addr,
                        subscriber_lp: pending.lp,
                        class: pending.class,
                    },
                );
            }
        }

        // 2b. Retransmit CHANNEL CONNECTION for half-open subscriber-side
        // channels (the LAN may have lost either the connection request or the
        // confirming acknowledgement).
        for vc in self.channels.iter() {
            if vc.role != ChannelRole::Subscriber || vc.established {
                continue;
            }
            let last = self.connect_last_sent.get(&vc.id).copied().unwrap_or(Micros::ZERO);
            if now.saturating_sub(last) >= interval {
                self.connect_last_sent.insert(vc.id, now);
                self.outbox.push(
                    Destination::Unicast(vc.remote_cb),
                    &WireMessage::ChannelConnection {
                        channel: vc.id,
                        subscriber_cb: cb_addr,
                        subscriber_lp: vc.subscriber_lp,
                        publisher_lp: vc.publisher_lp,
                        class: vc.class,
                    },
                );
            }
        }

        // 3. Flush. A failed send drops the rest of the outbox with it.
        let mut sent = Ok(());
        for (dst, range) in &self.outbox.messages {
            sent = self.transport.send(*dst, &self.outbox.bytes[range.clone()]);
            if sent.is_err() {
                break;
            }
        }
        self.outbox.clear();
        Ok(sent?)
    }

    fn handle_wire_message(&mut self, msg: WireMessage, _from: Addr) {
        match msg {
            WireMessage::Subscription { subscriber_cb, subscriber_lp, class } => {
                if subscriber_cb == self.addr {
                    return;
                }
                for publisher_lp in self.publications.publishers_of(class) {
                    if self.channels.has_equivalent(publisher_lp, subscriber_lp, class) {
                        continue;
                    }
                    self.stats.acknowledges_sent += 1;
                    self.outbox.push(
                        Destination::Unicast(subscriber_cb),
                        &WireMessage::Acknowledge { publisher_cb: self.addr, publisher_lp, class },
                    );
                }
            }
            WireMessage::Acknowledge { publisher_cb, publisher_lp, class } => {
                let node = self.addr.node.0;
                let mut new_channels = Vec::new();
                for pending in self.pending.iter_mut() {
                    if pending.class != class {
                        continue;
                    }
                    if self.channels.has_equivalent(publisher_lp, pending.lp, class) {
                        continue;
                    }
                    let channel = ChannelId::compose(node, self.next_channel_seq);
                    self.next_channel_seq += 1;
                    pending.record_connecting(channel);
                    new_channels.push(VirtualChannel {
                        id: channel,
                        class,
                        publisher_lp,
                        subscriber_lp: pending.lp,
                        remote_cb: publisher_cb,
                        role: ChannelRole::Subscriber,
                        established: false,
                    });
                }
                for vc in new_channels {
                    self.outbox.push(
                        Destination::Unicast(publisher_cb),
                        &WireMessage::ChannelConnection {
                            channel: vc.id,
                            subscriber_cb: self.addr,
                            subscriber_lp: vc.subscriber_lp,
                            publisher_lp: vc.publisher_lp,
                            class: vc.class,
                        },
                    );
                    self.connect_last_sent.insert(vc.id, self.now);
                    self.channels.insert(vc);
                }
            }
            WireMessage::ChannelConnection {
                channel,
                subscriber_cb,
                subscriber_lp,
                publisher_lp,
                class,
            } => {
                if !self.publications.publishes(publisher_lp, class) {
                    return;
                }
                // Idempotent: a retransmitted CHANNEL CONNECTION (lost ack)
                // only re-sends the acknowledgement.
                if self.channels.get(channel).is_none() {
                    self.channels.insert(VirtualChannel {
                        id: channel,
                        class,
                        publisher_lp,
                        subscriber_lp,
                        remote_cb: subscriber_cb,
                        role: ChannelRole::Publisher,
                        established: true,
                    });
                    self.stats.channels_established += 1;
                }
                self.outbox.push(
                    Destination::Unicast(subscriber_cb),
                    &WireMessage::ChannelAck { channel },
                );
            }
            WireMessage::ChannelAck { channel } => {
                self.connect_last_sent.remove(&channel);
                if let Some(vc) = self.channels.get_mut(channel) {
                    if !vc.established {
                        vc.established = true;
                        self.stats.channels_established += 1;
                    }
                }
                let now = self.now;
                for pending in self.pending.iter_mut() {
                    if pending.channels.contains_key(&channel) {
                        if let Some(latency) = pending.record_established(channel, now) {
                            self.stats.setup_latencies.push(latency);
                        }
                    }
                }
            }
            WireMessage::UpdateAttributes { channel, object, class, timestamp, values } => {
                let bound = self.channel_time_bounds.entry(channel).or_insert(Micros::ZERO);
                if timestamp > *bound {
                    *bound = timestamp;
                }
                let subscriber = match self.channels.get(channel) {
                    Some(vc) if vc.role == ChannelRole::Subscriber => vc.subscriber_lp,
                    _ => return,
                };
                if let Some(entry) = self.lps.get_mut(&subscriber) {
                    entry.reflections.push_back(Reflection {
                        object,
                        class,
                        values,
                        timestamp,
                        channel: Some(channel),
                    });
                    self.stats.reflections_delivered += 1;
                }
            }
            WireMessage::Interaction { class, sender_lp, timestamp, parameters } => {
                let message =
                    InteractionMessage { class, sender: sender_lp, parameters, timestamp };
                for entry in self.lps.values_mut() {
                    if entry.interaction_subscriptions.contains(&class) {
                        entry.interactions.push_back(message.clone());
                        self.stats.interactions_delivered += 1;
                    }
                }
            }
            WireMessage::NullMessage { channel, time } => {
                let bound = self.channel_time_bounds.entry(channel).or_insert(Micros::ZERO);
                if time > *bound {
                    *bound = time;
                }
            }
            WireMessage::Withdraw { lp } => {
                self.channels.remove_for_lp(lp);
            }
        }
    }

    fn check_lp(&self, lp: LpId) -> Result<(), CbError> {
        if self.lps.contains_key(&lp) {
            Ok(())
        } else {
            Err(CbError::UnknownLp(lp.0))
        }
    }

    fn check_object_class(&self, class: ObjectClassId) -> Result<(), CbError> {
        if self.fom.contains_object_class(class) {
            Ok(())
        } else {
            Err(CbError::UnknownObjectClass(class))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fom::Value;
    use cod_net::{LanConfig, SharedLan, SimLan, SimTransport};

    struct Cluster {
        lan: SharedLan,
        now: Micros,
    }

    impl Cluster {
        fn new(seed: u64) -> Cluster {
            Cluster { lan: SimLan::shared(LanConfig::fast_ethernet(seed)), now: Micros::ZERO }
        }

        fn kernel(&self, name: &str, fom: &ClassRegistry) -> CbKernel<SimTransport> {
            CbKernel::new(SimLan::attach(&self.lan, name), fom.clone())
        }

        /// Runs `steps` rounds of 10 ms, ticking every kernel each round.
        fn run(&mut self, kernels: &mut [&mut CbKernel<SimTransport>], steps: usize) {
            for _ in 0..steps {
                for k in kernels.iter_mut() {
                    k.tick(self.now).unwrap();
                }
                self.now += Micros::from_millis(10);
                SimLan::advance_to(&self.lan, self.now);
            }
        }
    }

    fn crane_fom() -> (ClassRegistry, ObjectClassId, InteractionClassId) {
        let mut fom = ClassRegistry::new();
        let crane = fom
            .register_object_class("CraneState", &["position", "boom_angle", "cable_length"])
            .unwrap();
        let collision = fom.register_interaction_class("Collision", &["location"]).unwrap();
        (fom, crane, collision)
    }

    #[test]
    fn channel_established_between_two_computers() {
        let (fom, crane, _) = crane_fom();
        let mut cluster = Cluster::new(1);
        let mut publisher = cluster.kernel("dynamics-pc", &fom);
        let mut subscriber = cluster.kernel("visual-pc", &fom);

        let dynamics = publisher.register_lp("dynamics");
        let visual = subscriber.register_lp("visual");
        publisher.publish_object_class(dynamics, crane).unwrap();
        subscriber.subscribe_object_class(visual, crane).unwrap();

        cluster.run(&mut [&mut publisher, &mut subscriber], 20);

        assert_eq!(publisher.established_channel_count(), 1);
        assert_eq!(subscriber.established_channel_count(), 1);
        assert_eq!(subscriber.stats().setup_latencies.len(), 1);
        assert!(publisher.stats().acknowledges_sent >= 1);
        assert_eq!(subscriber.incoming_channels(visual).len(), 1);
    }

    #[test]
    fn update_flows_from_publisher_to_remote_subscriber() {
        let (fom, crane, _) = crane_fom();
        let mut cluster = Cluster::new(2);
        let mut publisher = cluster.kernel("dynamics-pc", &fom);
        let mut subscriber = cluster.kernel("visual-pc", &fom);
        let dynamics = publisher.register_lp("dynamics");
        let visual = subscriber.register_lp("visual");
        publisher.publish_object_class(dynamics, crane).unwrap();
        subscriber.subscribe_object_class(visual, crane).unwrap();
        cluster.run(&mut [&mut publisher, &mut subscriber], 20);

        let object = publisher.register_object_instance(dynamics, crane).unwrap();
        let angle = fom.attribute_id(crane, "boom_angle").unwrap();
        publisher
            .update_attribute_values(
                dynamics,
                object,
                [(angle, Value::F64(0.7))].into(),
                cluster.now,
            )
            .unwrap();
        cluster.run(&mut [&mut publisher, &mut subscriber], 5);

        let reflections = subscriber.reflections(visual);
        assert_eq!(reflections.len(), 1);
        assert_eq!(reflections[0].object, object);
        assert_eq!(reflections[0].values[&angle], Value::F64(0.7));
        assert!(reflections[0].channel.is_some());
        assert_eq!(publisher.stats().updates_sent_remote, 1);
        assert_eq!(publisher.stats().updates_routed_locally, 0);
    }

    #[test]
    fn co_resident_lps_are_routed_locally_without_network() {
        let (fom, crane, _) = crane_fom();
        let cluster = Cluster::new(3);
        let mut kernel = cluster.kernel("single-pc", &fom);
        let dynamics = kernel.register_lp("dynamics");
        let visual = kernel.register_lp("visual");
        kernel.publish_object_class(dynamics, crane).unwrap();
        kernel.subscribe_object_class(visual, crane).unwrap();

        let object = kernel.register_object_instance(dynamics, crane).unwrap();
        let angle = fom.attribute_id(crane, "boom_angle").unwrap();
        kernel
            .update_attribute_values(dynamics, object, [(angle, Value::F64(1.5))].into(), Micros(5))
            .unwrap();

        let reflections = kernel.reflections(visual);
        assert_eq!(reflections.len(), 1);
        assert!(reflections[0].channel.is_none());
        assert_eq!(kernel.stats().updates_routed_locally, 1);
        assert_eq!(kernel.stats().updates_sent_remote, 0);
        assert!((kernel.stats().local_routing_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dynamic_join_of_an_extra_display_without_restart() {
        let (fom, crane, _) = crane_fom();
        let mut cluster = Cluster::new(4);
        let mut publisher = cluster.kernel("dynamics-pc", &fom);
        let mut display1 = cluster.kernel("display-1", &fom);
        let dynamics = publisher.register_lp("dynamics");
        let d1 = display1.register_lp("display-1");
        publisher.publish_object_class(dynamics, crane).unwrap();
        display1.subscribe_object_class(d1, crane).unwrap();
        cluster.run(&mut [&mut publisher, &mut display1], 20);
        assert_eq!(publisher.established_channel_count(), 1);

        // A new display computer joins the running system (paper §2.3).
        let mut display2 = cluster.kernel("display-2", &fom);
        let d2 = display2.register_lp("display-2");
        display2.subscribe_object_class(d2, crane).unwrap();
        cluster.run(&mut [&mut publisher, &mut display1, &mut display2], 30);
        assert_eq!(publisher.established_channel_count(), 2);

        let object = publisher.register_object_instance(dynamics, crane).unwrap();
        let angle = fom.attribute_id(crane, "boom_angle").unwrap();
        publisher
            .update_attribute_values(
                dynamics,
                object,
                [(angle, Value::F64(0.2))].into(),
                cluster.now,
            )
            .unwrap();
        cluster.run(&mut [&mut publisher, &mut display1, &mut display2], 5);
        assert_eq!(display1.reflections(d1).len(), 1);
        assert_eq!(display2.reflections(d2).len(), 1);
    }

    #[test]
    fn interactions_are_broadcast_to_subscribed_lps_everywhere() {
        let (fom, crane, collision) = crane_fom();
        let mut cluster = Cluster::new(5);
        let mut a = cluster.kernel("dynamics-pc", &fom);
        let mut b = cluster.kernel("audio-pc", &fom);
        let dynamics = a.register_lp("dynamics");
        let local_audio = a.register_lp("local-audio");
        let audio = b.register_lp("audio");
        a.publish_object_class(dynamics, crane).unwrap();
        a.subscribe_interaction_class(local_audio, collision).unwrap();
        b.subscribe_interaction_class(audio, collision).unwrap();
        cluster.run(&mut [&mut a, &mut b], 5);

        let location = fom.parameter_id(collision, "location").unwrap();
        a.send_interaction(
            dynamics,
            collision,
            [(location, Value::Vec3([1.0, 0.0, 2.0]))].into(),
            cluster.now,
        )
        .unwrap();
        cluster.run(&mut [&mut a, &mut b], 5);

        assert_eq!(a.interactions(local_audio).len(), 1);
        let remote = b.interactions(audio);
        assert_eq!(remote.len(), 1);
        assert_eq!(remote[0].sender, dynamics);
        // The sender itself does not receive its own interaction.
        assert!(a.interactions(dynamics).is_empty());
    }

    #[test]
    fn service_calls_validate_their_arguments() {
        let (fom, crane, collision) = crane_fom();
        let cluster = Cluster::new(6);
        let mut kernel = cluster.kernel("pc", &fom);
        let lp = kernel.register_lp("lp");
        let ghost = LpId(0xdead_beef);

        assert!(matches!(kernel.publish_object_class(ghost, crane), Err(CbError::UnknownLp(_))));
        assert!(matches!(
            kernel.publish_object_class(lp, ObjectClassId(42)),
            Err(CbError::UnknownObjectClass(_))
        ));
        assert!(matches!(
            kernel.register_object_instance(lp, crane),
            Err(CbError::NotPublished { .. })
        ));
        assert!(matches!(
            kernel.subscribe_interaction_class(lp, InteractionClassId(9)),
            Err(CbError::UnknownInteractionClass(_))
        ));
        kernel.publish_object_class(lp, crane).unwrap();
        let object = kernel.register_object_instance(lp, crane).unwrap();
        let other = kernel.register_lp("other");
        assert!(matches!(
            kernel.update_attribute_values(other, object, AttributeValues::new(), Micros::ZERO),
            Err(CbError::NotPublished { .. })
        ));
        assert!(matches!(
            kernel.send_interaction(ghost, collision, AttributeValues::new(), Micros::ZERO),
            Err(CbError::UnknownLp(_))
        ));
    }

    #[test]
    fn withdraw_tears_down_remote_channels() {
        let (fom, crane, _) = crane_fom();
        let mut cluster = Cluster::new(7);
        let mut publisher = cluster.kernel("dynamics-pc", &fom);
        let mut subscriber = cluster.kernel("visual-pc", &fom);
        let dynamics = publisher.register_lp("dynamics");
        let visual = subscriber.register_lp("visual");
        publisher.publish_object_class(dynamics, crane).unwrap();
        subscriber.subscribe_object_class(visual, crane).unwrap();
        cluster.run(&mut [&mut publisher, &mut subscriber], 20);
        assert_eq!(publisher.established_channel_count(), 1);

        subscriber.deregister_lp(visual).unwrap();
        cluster.run(&mut [&mut publisher, &mut subscriber], 5);
        assert_eq!(publisher.established_channel_count(), 0);
        assert_eq!(subscriber.established_channel_count(), 0);
    }

    #[test]
    fn null_messages_advance_channel_time_bounds() {
        let (fom, crane, _) = crane_fom();
        let mut cluster = Cluster::new(8);
        let mut publisher = cluster.kernel("dynamics-pc", &fom);
        let mut subscriber = cluster.kernel("visual-pc", &fom);
        let dynamics = publisher.register_lp("dynamics");
        let visual = subscriber.register_lp("visual");
        publisher.publish_object_class(dynamics, crane).unwrap();
        subscriber.subscribe_object_class(visual, crane).unwrap();
        cluster.run(&mut [&mut publisher, &mut subscriber], 20);

        publisher.send_null_messages(dynamics, Micros(500_000)).unwrap();
        cluster.run(&mut [&mut publisher, &mut subscriber], 5);
        let channel = subscriber.incoming_channels(visual)[0];
        assert_eq!(subscriber.channel_time_bound(channel), Some(Micros(500_000)));
    }

    /// A transport that logs every payload it sends and fails its
    /// `fail_at`-th send (counting from 1).
    struct FailingTransport {
        sent: std::sync::Arc<std::sync::Mutex<Vec<Vec<u8>>>>,
        sends: usize,
        fail_at: usize,
    }

    impl Transport for FailingTransport {
        fn send(&mut self, _dst: Destination, payload: &[u8]) -> Result<(), cod_net::NetError> {
            self.sends += 1;
            if self.sends == self.fail_at {
                return Err(cod_net::NetError::Disconnected);
            }
            self.sent.lock().expect("test log lock").push(payload.to_vec());
            Ok(())
        }

        fn poll(&mut self, _out: &mut Vec<cod_net::Datagram>) -> Result<(), cod_net::NetError> {
            Ok(())
        }

        fn local_addr(&self) -> Addr {
            Addr::new(cod_net::NodeId(0), cod_net::Port(1))
        }
    }

    #[test]
    fn a_failed_send_drops_the_rest_of_the_outbox() {
        let (fom, _, collision) = crane_fom();
        let location = fom.parameter_id(collision, "location").unwrap();
        let sent = std::sync::Arc::default();
        let transport =
            FailingTransport { sent: std::sync::Arc::clone(&sent), sends: 0, fail_at: 2 };
        let mut kernel = CbKernel::new(transport, fom);
        let lp = kernel.register_lp("dynamics");
        let parameters =
            |x: f64| -> AttributeValues { [(location, Value::Vec3([x, 0.0, 0.0]))].into() };
        let encoded = |x: f64| {
            let parameters = parameters(x);
            WireMessage::Interaction {
                class: collision,
                sender_lp: lp,
                timestamp: Micros(7),
                parameters,
            }
            .encode()
        };
        for x in [1.0, 2.0, 3.0] {
            kernel.send_interaction(lp, collision, parameters(x), Micros(7)).unwrap();
        }

        // The second send fails: the tick reports it, and the third message,
        // queued behind it, is dropped with it.
        assert!(matches!(kernel.tick(Micros(10)), Err(CbError::Net(_))));
        assert_eq!(*sent.lock().unwrap(), vec![encoded(1.0)]);

        // Nothing stale goes out on the next ticks, only what is queued anew.
        kernel.tick(Micros(20)).unwrap();
        assert_eq!(sent.lock().unwrap().len(), 1);
        kernel.send_interaction(lp, collision, parameters(4.0), Micros(7)).unwrap();
        kernel.tick(Micros(30)).unwrap();
        assert_eq!(*sent.lock().unwrap(), vec![encoded(1.0), encoded(4.0)]);
    }

    #[test]
    fn lossy_lan_still_converges_thanks_to_rebroadcast() {
        let (fom, crane, _) = crane_fom();
        let lan = SimLan::shared(LanConfig::fast_ethernet(11).with_loss(0.3));
        let mut cluster = Cluster { lan, now: Micros::ZERO };
        let mut publisher = cluster.kernel("dynamics-pc", &fom);
        let mut subscriber = cluster.kernel("visual-pc", &fom);
        let dynamics = publisher.register_lp("dynamics");
        let visual = subscriber.register_lp("visual");
        publisher.publish_object_class(dynamics, crane).unwrap();
        subscriber.subscribe_object_class(visual, crane).unwrap();
        // Lossy network: allow plenty of protocol rounds.
        cluster.run(&mut [&mut publisher, &mut subscriber], 300);
        assert!(
            subscriber.established_channel_count() >= 1,
            "channel never established over lossy LAN"
        );
    }
}

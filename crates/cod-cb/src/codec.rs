//! Compact binary codec for Communication Backbone wire messages.
//!
//! The original CB spoke raw datagrams on the LAN; this module provides the
//! equivalent hand-rolled binary encoding. Only the approved `bytes` crate is
//! used — no serialization framework — so the exact wire cost of every message
//! is visible and is charged faithfully by the simulated LAN's bandwidth model.

use bytes::{Buf, BufMut};

use crate::error::CbError;
use crate::fom::{AttributeId, AttributeValues, Value};
use cod_net::{Addr, Micros, NodeId, Port};

/// A bounds-checked reader over a received payload.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Wraps a payload for decoding.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf }
    }

    /// Remaining bytes.
    pub fn remaining(&self) -> usize {
        self.buf.remaining()
    }

    fn need(&self, n: usize) -> Result<(), CbError> {
        if self.buf.remaining() < n {
            Err(CbError::Codec(format!(
                "truncated message: needed {n} more bytes, {} available",
                self.buf.remaining()
            )))
        } else {
            Ok(())
        }
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, CbError> {
        self.need(1)?;
        Ok(self.buf.get_u8())
    }

    /// Reads a big-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, CbError> {
        self.need(2)?;
        Ok(self.buf.get_u16())
    }

    /// Reads a big-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CbError> {
        self.need(4)?;
        Ok(self.buf.get_u32())
    }

    /// Reads a big-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CbError> {
        self.need(8)?;
        Ok(self.buf.get_u64())
    }

    /// Reads a big-endian `f64`.
    pub fn f64(&mut self) -> Result<f64, CbError> {
        self.need(8)?;
        Ok(self.buf.get_f64())
    }

    /// Reads a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<Vec<u8>, CbError> {
        let len = self.u32()? as usize;
        self.need(len)?;
        let mut v = vec![0u8; len];
        self.buf.copy_to_slice(&mut v);
        Ok(v)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String, CbError> {
        let raw = self.bytes()?;
        String::from_utf8(raw).map_err(|e| CbError::Codec(format!("invalid utf-8: {e}")))
    }

    /// Reads a cluster address.
    pub fn addr(&mut self) -> Result<Addr, CbError> {
        let node = self.u16()?;
        let port = self.u16()?;
        Ok(Addr::new(NodeId(node), Port(port)))
    }

    /// Reads a simulated timestamp.
    pub fn micros(&mut self) -> Result<Micros, CbError> {
        Ok(Micros(self.u64()?))
    }

    /// Reads one typed [`Value`].
    pub fn value(&mut self) -> Result<Value, CbError> {
        match self.u8()? {
            0 => Ok(Value::Bool(self.u8()? != 0)),
            1 => Ok(Value::U32(self.u32()?)),
            2 => Ok(Value::F64(self.f64()?)),
            3 => Ok(Value::Vec3([self.f64()?, self.f64()?, self.f64()?])),
            4 => Ok(Value::Text(self.string()?)),
            5 => Ok(Value::Bytes(self.bytes()?)),
            tag => Err(CbError::Codec(format!("unknown value tag {tag}"))),
        }
    }

    /// Reads an attribute-value record.
    ///
    /// The declared count reserves room only for as many entries as the
    /// remaining payload can hold, so a hostile count cannot force a large
    /// allocation. Entries may arrive in any id order; a repeated id keeps
    /// its last value.
    pub fn attribute_values(&mut self) -> Result<AttributeValues, CbError> {
        let count = self.u16()? as usize;
        let mut pairs = Vec::with_capacity(count.min(self.remaining() / MIN_ATTRIBUTE_BYTES));
        for _ in 0..count {
            let id = AttributeId(self.u16()?);
            pairs.push((id, self.value()?));
        }
        Ok(AttributeValues::from_pairs(pairs))
    }
}

/// The fewest bytes one encoded attribute occupies: a 2-byte id, a 1-byte
/// value tag and at least one byte of value (a `Bool`).
const MIN_ATTRIBUTE_BYTES: usize = 4;

/// A writer that appends an encoded payload to a caller-owned buffer, so a
/// sender can reuse one buffer for every message it encodes.
#[derive(Debug)]
pub struct Writer<'a> {
    buf: &'a mut Vec<u8>,
}

impl<'a> Writer<'a> {
    /// Creates a writer that appends to `buf`.
    pub fn new(buf: &'a mut Vec<u8>) -> Writer<'a> {
        Writer { buf }
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.put_u8(v);
        self
    }

    /// Writes a big-endian `u16`.
    pub fn u16(&mut self, v: u16) -> &mut Self {
        self.buf.put_u16(v);
        self
    }

    /// Writes a big-endian `u32`.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.put_u32(v);
        self
    }

    /// Writes a big-endian `u64`.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.put_u64(v);
        self
    }

    /// Writes a big-endian `f64`.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.buf.put_f64(v);
        self
    }

    /// Writes a length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) -> &mut Self {
        self.buf.put_u32(v.len() as u32);
        self.buf.put_slice(v);
        self
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn string(&mut self, v: &str) -> &mut Self {
        self.bytes(v.as_bytes())
    }

    /// Writes a cluster address.
    pub fn addr(&mut self, a: Addr) -> &mut Self {
        self.u16(a.node.0).u16(a.port.0)
    }

    /// Writes a simulated timestamp.
    pub fn micros(&mut self, t: Micros) -> &mut Self {
        self.u64(t.0)
    }

    /// Writes one typed [`Value`].
    pub fn value(&mut self, v: &Value) -> &mut Self {
        match v {
            Value::Bool(b) => {
                self.u8(0).u8(u8::from(*b));
            }
            Value::U32(x) => {
                self.u8(1).u32(*x);
            }
            Value::F64(x) => {
                self.u8(2).f64(*x);
            }
            Value::Vec3(x) => {
                self.u8(3).f64(x[0]).f64(x[1]).f64(x[2]);
            }
            Value::Text(s) => {
                self.u8(4).string(s);
            }
            Value::Bytes(b) => {
                self.u8(5).bytes(b);
            }
        }
        self
    }

    /// Writes an attribute-value record in ascending id order.
    pub fn attribute_values(&mut self, values: &AttributeValues) -> &mut Self {
        self.u16(values.len() as u16);
        for (id, value) in values.iter() {
            self.u16(id.0);
            self.value(value);
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;
    use std::time::Duration;

    fn value_of(tag: u8, x: u32) -> Value {
        match tag % 6 {
            0 => Value::Bool(x % 2 == 1),
            1 => Value::U32(x),
            2 => Value::F64(f64::from(x) * 0.5),
            3 => Value::Vec3([f64::from(x), -1.0, 0.25]),
            4 => Value::Text(format!("t{x}")),
            _ => Value::Bytes(x.to_be_bytes().to_vec()),
        }
    }

    /// The wire encoding of an ordered map, written field by field: what
    /// [`Writer::attribute_values`] must produce for the same contents.
    fn encode_model(model: &BTreeMap<AttributeId, Value>) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut w = Writer::new(&mut buf);
        w.u16(model.len() as u16);
        for (id, value) in model {
            w.u16(id.0).value(value);
        }
        buf
    }

    proptest! {
        #[test]
        fn attribute_values_behave_like_an_ordered_map(
            ops in proptest::collection::vec((0u16..24, 0u8..6, any::<u32>()), 0..48)
        ) {
            let mut record = AttributeValues::new();
            let mut model = BTreeMap::new();
            for &(id, tag, x) in &ops {
                let id = AttributeId(id);
                prop_assert_eq!(record.insert(id, value_of(tag, x)), model.insert(id, value_of(tag, x)));
            }
            let pairs: Vec<(AttributeId, &Value)> = record.iter().collect();
            let expected: Vec<(AttributeId, &Value)> = model.iter().map(|(k, v)| (*k, v)).collect();
            prop_assert_eq!(pairs, expected);
            prop_assert_eq!(record.len(), model.len());
            for id in (0..26).map(AttributeId) {
                prop_assert_eq!(record.get(&id), model.get(&id));
            }
            let mut buf = Vec::new();
            Writer::new(&mut buf).attribute_values(&record);
            prop_assert_eq!(&buf, &encode_model(&model));
            prop_assert_eq!(&Reader::new(&buf).attribute_values().unwrap(), &record);
            // A peer may send ids out of order or repeated; decoding keeps the
            // last value of each id, in ascending order, like the map does.
            let mut raw = Vec::new();
            let mut w = Writer::new(&mut raw);
            w.u16(ops.len() as u16);
            for &(id, tag, x) in &ops {
                w.u16(id).value(&value_of(tag, x));
            }
            prop_assert_eq!(Reader::new(&raw).attribute_values().unwrap(), record);
        }
    }

    /// A record of `Bool` attributes with the ids and values in the order given.
    fn bool_record(entries: impl IntoIterator<Item = (u16, bool)>) -> Vec<u8> {
        let entries: Vec<_> = entries.into_iter().collect();
        let mut buf = Vec::new();
        let mut w = Writer::new(&mut buf);
        w.u16(entries.len() as u16);
        for (id, b) in entries {
            w.u16(id).value(&Value::Bool(b));
        }
        buf
    }

    /// The shortest of a few runs of `f`, for comparing the cost of two
    /// inputs within one test.
    fn fastest(runs: usize, f: impl Fn()) -> Duration {
        (0..runs)
            .map(|_| {
                // audit:allow(wall-clock): a test-only cost ratio; no report reads it.
                let start = std::time::Instant::now();
                f();
                // audit:allow(wall-clock): a test-only cost ratio; no report reads it.
                start.elapsed()
            })
            .min()
            .expect("at least one run")
    }

    #[test]
    fn decoding_a_full_datagram_of_descending_ids_is_not_quadratic() {
        // 16,000 `Bool` entries of 4 bytes: about what one 65,507-byte
        // datagram holds.
        const N: u16 = 16_000;
        // 8,000 ids, each sent twice in descending order: false, then true.
        let repeated = bool_record((0..N / 2).rev().flat_map(|id| [(id, false), (id, true)]));
        assert!(repeated.len() <= 65_507);
        let decoded = Reader::new(&repeated).attribute_values().unwrap();
        assert_eq!(decoded.len(), usize::from(N / 2));
        for (i, (id, value)) in decoded.iter().enumerate() {
            assert_eq!((usize::from(id.0), value), (i, &Value::Bool(true)));
        }

        // Decoding descending ids costs about what decoding ascending ones does.
        let decode = |buf: &[u8]| {
            std::hint::black_box(Reader::new(buf).attribute_values().unwrap());
        };
        let ascending = bool_record((0..N).map(|id| (id, true)));
        let descending = bool_record((0..N).rev().map(|id| (id, true)));
        let base = fastest(5, || decode(&ascending));
        let reversed = fastest(5, || decode(&descending));
        assert!(reversed < base * 10, "descending {reversed:?} vs ascending {base:?}");

        // The control: one `insert` per entry in descending order, which
        // shifts the whole record each time, is caught by the same bound.
        let inserted = fastest(3, || {
            let mut record = AttributeValues::with_capacity(usize::from(N));
            for id in (0..N).rev() {
                record.insert(AttributeId(id), Value::Bool(true));
            }
            std::hint::black_box(record);
        });
        assert!(inserted > base * 10, "inserting {inserted:?} vs decoding {base:?}");
    }

    #[test]
    fn decoding_unsorted_and_repeated_ids_keeps_the_last_value() {
        let mut buf = Vec::new();
        let mut w = Writer::new(&mut buf);
        w.u16(3).u16(7).value(&Value::U32(1)).u16(2).value(&Value::U32(2));
        w.u16(7).value(&Value::U32(3));
        let decoded = Reader::new(&buf).attribute_values().unwrap();
        let pairs: Vec<_> = decoded.iter().collect();
        assert_eq!(pairs, vec![(AttributeId(2), &Value::U32(2)), (AttributeId(7), &Value::U32(3))]);
    }

    #[test]
    fn primitive_roundtrip() {
        let mut buf = Vec::new();
        Writer::new(&mut buf)
            .u8(7)
            .u16(300)
            .u32(70_000)
            .u64(1 << 40)
            .f64(-2.5)
            .string("crane")
            .addr(Addr::new(NodeId(3), Port(9)));
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 300);
        assert_eq!(r.u32().unwrap(), 70_000);
        assert_eq!(r.u64().unwrap(), 1 << 40);
        assert_eq!(r.f64().unwrap(), -2.5);
        assert_eq!(r.string().unwrap(), "crane");
        assert_eq!(r.addr().unwrap(), Addr::new(NodeId(3), Port(9)));
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn value_roundtrip_all_variants() {
        let values = vec![
            Value::Bool(true),
            Value::U32(42),
            Value::F64(3.125),
            Value::Vec3([1.0, -2.0, 0.5]),
            Value::Text("lift the cargo".to_owned()),
            Value::Bytes(vec![0, 1, 2, 255]),
        ];
        let mut buf = Vec::new();
        let mut w = Writer::new(&mut buf);
        for v in &values {
            w.value(v);
        }
        let mut r = Reader::new(&buf);
        for v in &values {
            assert_eq!(&r.value().unwrap(), v);
        }
    }

    #[test]
    fn attribute_values_roundtrip() {
        let mut values = AttributeValues::new();
        values.insert(AttributeId(0), Value::F64(1.25));
        values.insert(AttributeId(3), Value::Vec3([0.0, 9.8, 0.0]));
        values.insert(AttributeId(7), Value::Text("ok".into()));
        let mut buf = Vec::new();
        Writer::new(&mut buf).attribute_values(&values);
        let decoded = Reader::new(&buf).attribute_values().unwrap();
        assert_eq!(decoded, values);
    }

    #[test]
    fn truncated_message_is_a_codec_error() {
        let mut buf = Vec::new();
        Writer::new(&mut buf).u64(99);
        let mut r = Reader::new(&buf[..4]);
        assert!(matches!(r.u64(), Err(CbError::Codec(_))));
    }

    #[test]
    fn unknown_value_tag_is_an_error() {
        let buf = [200u8, 0, 0];
        let mut r = Reader::new(&buf);
        assert!(matches!(r.value(), Err(CbError::Codec(_))));
    }

    #[test]
    fn invalid_utf8_is_an_error() {
        let mut buf = Vec::new();
        Writer::new(&mut buf).bytes(&[0xff, 0xfe]);
        assert!(matches!(Reader::new(&buf).string(), Err(CbError::Codec(_))));
    }
}

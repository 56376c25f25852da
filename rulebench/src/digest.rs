//! SQL-level state digests: FNV-1a over a canonical encoding of result
//! rows. The engine side feeds `Value`s from a query result; the model
//! side feeds the same fields from the generator's own tables, so equal
//! digests mean equal rows in equal order.

use setrules_query::Relation;
use setrules_storage::Value;

/// Incremental FNV-1a (64-bit) over canonically encoded fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest::new()
    }
}

impl Digest {
    /// The empty digest.
    pub fn new() -> Digest {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// An integer field.
    pub fn int(&mut self, v: i64) -> &mut Self {
        self.bytes(b"i");
        self.bytes(&v.to_le_bytes());
        self
    }

    /// A float field, by bit pattern (the generators only produce values
    /// whose arithmetic is exact, so bit equality is the right test).
    pub fn float(&mut self, v: f64) -> &mut Self {
        self.bytes(b"f");
        self.bytes(&v.to_bits().to_le_bytes());
        self
    }

    /// A text field, length-prefixed so adjacent fields cannot run together.
    pub fn text(&mut self, v: &str) -> &mut Self {
        self.bytes(b"t");
        self.bytes(&(v.len() as u64).to_le_bytes());
        self.bytes(v.as_bytes());
        self
    }

    /// End of a row.
    pub fn end_row(&mut self) -> &mut Self {
        self.bytes(b"\n");
        self
    }

    /// One engine value.
    pub fn value(&mut self, v: &Value) -> &mut Self {
        match v {
            Value::Null => {
                self.bytes(b"n");
                self
            }
            Value::Bool(b) => {
                self.bytes(if *b { b"b1" } else { b"b0" });
                self
            }
            Value::Int(i) => self.int(*i),
            Value::Float(x) => self.float(*x),
            Value::Text(s) => self.text(s),
        }
    }

    /// Every row of a result, in the order the engine returned them.
    pub fn relation(&mut self, rel: &Relation) -> &mut Self {
        for row in &rel.rows {
            for v in row {
                self.value(v);
            }
            self.end_row();
        }
        self
    }

    /// The digest value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest of one result relation.
pub fn of_relation(rel: &Relation) -> u64 {
    Digest::new().relation(rel).finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_and_engine_encodings_agree() {
        let rel = Relation {
            columns: vec!["a".into(), "b".into(), "c".into()],
            rows: vec![
                vec![Value::Int(7), Value::Float(2.5), Value::Text("x'y".into())],
                vec![
                    Value::Int(-1),
                    Value::Float(0.0),
                    Value::Text(String::new()),
                ],
            ],
        };
        let mut model = Digest::new();
        model.int(7).float(2.5).text("x'y").end_row();
        model.int(-1).float(0.0).text("").end_row();
        assert_eq!(of_relation(&rel), model.finish());
    }

    #[test]
    fn field_boundaries_and_order_matter() {
        let mut a = Digest::new();
        a.text("ab").text("c").end_row();
        let mut b = Digest::new();
        b.text("a").text("bc").end_row();
        assert_ne!(a.finish(), b.finish());

        let mut c = Digest::new();
        c.int(1).end_row().int(2).end_row();
        let mut d = Digest::new();
        d.int(2).end_row().int(1).end_row();
        assert_ne!(c.finish(), d.finish());
    }
}

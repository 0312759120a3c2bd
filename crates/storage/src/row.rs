//! Typed values and row (de)serialization against a schema.
//!
//! Covers the column types of the paper's Table 5: `INTEGER`, `FLOAT8`,
//! `VARCHAR`/`TEXT`, and `OID` (blob reference), plus inline `BYTEA` for
//! short binary values kept in the row. Rows are encoded schema-directed
//! (no per-value tags): fixed-width for `Int`/`Float`/`Blob`,
//! length-prefixed for `Text`/`Bytes`.

use crate::error::StorageError;
use crate::PageId;

/// Column type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnType {
    /// 64-bit signed integer (`INTEGER`).
    Int,
    /// 64-bit float (`FLOAT8`).
    Float,
    /// Variable-length string (`VARCHAR`/`TEXT`).
    Text,
    /// Blob reference (`OID`).
    Blob,
    /// Inline binary value (`BYTEA`), stored in the row itself.
    Bytes,
}

/// A table schema: named, typed columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    /// Column definitions in order.
    pub cols: Vec<(String, ColumnType)>,
}

impl Schema {
    /// Build a schema from `(name, type)` pairs.
    pub fn new(cols: &[(&str, ColumnType)]) -> Schema {
        Schema {
            cols: cols.iter().map(|(n, t)| (n.to_string(), *t)).collect(),
        }
    }

    /// Index of a named column.
    pub fn col(&self, name: &str) -> Option<usize> {
        self.cols.iter().position(|(n, _)| n == name)
    }
}

/// A single value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Integer.
    Int(i64),
    /// Double-precision float.
    Float(f64),
    /// Text.
    Text(String),
    /// Blob id (first page of the chain).
    Blob(PageId),
    /// Inline bytes.
    Bytes(Vec<u8>),
}

impl Value {
    /// The integer inside, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        if let Value::Int(v) = self {
            Some(*v)
        } else {
            None
        }
    }

    /// The float inside, if this is a `Float`.
    pub fn as_float(&self) -> Option<f64> {
        if let Value::Float(v) = self {
            Some(*v)
        } else {
            None
        }
    }

    /// The text inside, if this is a `Text`.
    pub fn as_text(&self) -> Option<&str> {
        if let Value::Text(v) = self {
            Some(v)
        } else {
            None
        }
    }

    /// The blob id inside, if this is a `Blob`.
    pub fn as_blob(&self) -> Option<PageId> {
        if let Value::Blob(v) = self {
            Some(*v)
        } else {
            None
        }
    }
}

/// A row of values.
pub type Row = Vec<Value>;

/// Encode a row against its schema.
pub fn encode_row(schema: &Schema, row: &Row) -> Result<Vec<u8>, StorageError> {
    if row.len() != schema.cols.len() {
        return Err(StorageError::SchemaMismatch("wrong column count"));
    }
    let mut out = Vec::with_capacity(row.len() * 9);
    for ((_, ty), val) in schema.cols.iter().zip(row) {
        match (ty, val) {
            (ColumnType::Int, Value::Int(v)) => out.extend_from_slice(&v.to_le_bytes()),
            (ColumnType::Float, Value::Float(v)) => out.extend_from_slice(&v.to_le_bytes()),
            (ColumnType::Blob, Value::Blob(v)) => out.extend_from_slice(&v.to_le_bytes()),
            (ColumnType::Text, Value::Text(s)) => {
                out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            }
            (ColumnType::Bytes, Value::Bytes(b)) => {
                out.extend_from_slice(&(b.len() as u32).to_le_bytes());
                out.extend_from_slice(b);
            }
            _ => {
                return Err(StorageError::SchemaMismatch(
                    "value type does not match column",
                ))
            }
        }
    }
    Ok(out)
}

/// Decode a row against its schema.
pub fn decode_row(schema: &Schema, bytes: &[u8]) -> Result<Row, StorageError> {
    let mut pos = 0usize;
    let mut row = Vec::with_capacity(schema.cols.len());
    let take = |pos: &mut usize, n: usize| -> Result<&[u8], StorageError> {
        if bytes.len() - *pos < n {
            return Err(StorageError::SchemaMismatch("row too short"));
        }
        let s = &bytes[*pos..*pos + n];
        *pos += n;
        Ok(s)
    };
    for (_, ty) in &schema.cols {
        match ty {
            ColumnType::Int => row.push(Value::Int(i64::from_le_bytes(
                take(&mut pos, 8)?.try_into().expect("len"),
            ))),
            ColumnType::Float => row.push(Value::Float(f64::from_le_bytes(
                take(&mut pos, 8)?.try_into().expect("len"),
            ))),
            ColumnType::Blob => row.push(Value::Blob(u64::from_le_bytes(
                take(&mut pos, 8)?.try_into().expect("len"),
            ))),
            ColumnType::Text => {
                let len = u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("len")) as usize;
                let s = take(&mut pos, len)?;
                row.push(Value::Text(
                    std::str::from_utf8(s)
                        .map_err(|_| StorageError::SchemaMismatch("text is not UTF-8"))?
                        .to_string(),
                ));
            }
            ColumnType::Bytes => {
                let len = u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("len")) as usize;
                row.push(Value::Bytes(take(&mut pos, len)?.to_vec()));
            }
        }
    }
    if pos != bytes.len() {
        return Err(StorageError::SchemaMismatch("trailing bytes after row"));
    }
    Ok(row)
}

/// Borrowed, allocation-free row reader: walks a row's encoded bytes
/// field by field against the schema, lending `&str` text slices instead
/// of allocating `String`s the way [`decode_row`] does. The scan hot path
/// decodes every MAP/k-MAP row through this, so a filescan performs zero
/// per-row string allocations.
///
/// Call the typed readers in schema order, then [`RowReader::finish`] to
/// assert the row was fully consumed; every check [`decode_row`] performs
/// (length, UTF-8, type agreement, trailing bytes) is performed here with
/// the same errors.
#[derive(Debug)]
pub struct RowReader<'a> {
    schema: &'a Schema,
    bytes: &'a [u8],
    pos: usize,
    col: usize,
}

impl<'a> RowReader<'a> {
    /// Start reading `bytes` as a row of `schema`.
    pub fn new(schema: &'a Schema, bytes: &'a [u8]) -> RowReader<'a> {
        RowReader {
            schema,
            bytes,
            pos: 0,
            col: 0,
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StorageError> {
        if self.bytes.len() - self.pos < n {
            return Err(StorageError::SchemaMismatch("row too short"));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn expect(&mut self, ty: ColumnType) -> Result<(), StorageError> {
        match self.schema.cols.get(self.col) {
            Some((_, t)) if *t == ty => {
                self.col += 1;
                Ok(())
            }
            _ => Err(StorageError::SchemaMismatch(
                "value type does not match column",
            )),
        }
    }

    /// Read the next column as an `Int`.
    pub fn int(&mut self) -> Result<i64, StorageError> {
        self.expect(ColumnType::Int)?;
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("len")))
    }

    /// Read the next column as a `Float`.
    pub fn float(&mut self) -> Result<f64, StorageError> {
        self.expect(ColumnType::Float)?;
        Ok(f64::from_le_bytes(self.take(8)?.try_into().expect("len")))
    }

    /// Read the next column as a `Blob` reference.
    pub fn blob(&mut self) -> Result<PageId, StorageError> {
        self.expect(ColumnType::Blob)?;
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len")))
    }

    /// Read the next column as `Bytes`, borrowing from the row bytes.
    pub fn bytes(&mut self) -> Result<&'a [u8], StorageError> {
        self.expect(ColumnType::Bytes)?;
        let len = u32::from_le_bytes(self.take(4)?.try_into().expect("len")) as usize;
        self.take(len)
    }

    /// Read the next column as `Text`, borrowing from the row bytes.
    pub fn text(&mut self) -> Result<&'a str, StorageError> {
        self.expect(ColumnType::Text)?;
        let len = u32::from_le_bytes(self.take(4)?.try_into().expect("len")) as usize;
        std::str::from_utf8(self.take(len)?)
            .map_err(|_| StorageError::SchemaMismatch("text is not UTF-8"))
    }

    /// Assert every column was read and no bytes trail the row — the same
    /// completeness checks [`decode_row`] applies.
    pub fn finish(self) -> Result<(), StorageError> {
        if self.col != self.schema.cols.len() {
            return Err(StorageError::SchemaMismatch("row read ended early"));
        }
        if self.pos != self.bytes.len() {
            return Err(StorageError::SchemaMismatch("trailing bytes after row"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn claims_schema() -> Schema {
        // The paper's §2.1 Claims(DocID, Year, Loss, DocData) example.
        Schema::new(&[
            ("DocID", ColumnType::Int),
            ("Year", ColumnType::Int),
            ("Loss", ColumnType::Float),
            ("DocData", ColumnType::Blob),
        ])
    }

    #[test]
    fn roundtrip_all_types() {
        let schema = Schema::new(&[
            ("i", ColumnType::Int),
            ("f", ColumnType::Float),
            ("t", ColumnType::Text),
            ("b", ColumnType::Blob),
            ("y", ColumnType::Bytes),
        ]);
        let row: Row = vec![
            Value::Int(-42),
            Value::Float(2.75),
            Value::Text("U.S.C. 2345".into()),
            Value::Blob(9001),
            Value::Bytes(vec![0, 0xFF, 7]),
        ];
        let bytes = encode_row(&schema, &row).unwrap();
        assert_eq!(decode_row(&schema, &bytes).unwrap(), row);
        let mut r = RowReader::new(&schema, &bytes);
        r.int().unwrap();
        r.float().unwrap();
        r.text().unwrap();
        r.blob().unwrap();
        assert_eq!(r.bytes().unwrap(), &[0, 0xFF, 7]);
        r.finish().unwrap();
    }

    #[test]
    fn claims_row_roundtrip() {
        let schema = claims_schema();
        let row: Row = vec![
            Value::Int(7),
            Value::Int(2010),
            Value::Float(1200.50),
            Value::Blob(3),
        ];
        let bytes = encode_row(&schema, &row).unwrap();
        let back = decode_row(&schema, &bytes).unwrap();
        assert_eq!(back[1].as_int(), Some(2010));
        assert_eq!(back[2].as_float(), Some(1200.50));
        assert_eq!(back[3].as_blob(), Some(3));
    }

    #[test]
    fn wrong_arity_rejected() {
        let schema = claims_schema();
        let row: Row = vec![Value::Int(7)];
        assert!(matches!(
            encode_row(&schema, &row),
            Err(StorageError::SchemaMismatch(_))
        ));
    }

    #[test]
    fn wrong_type_rejected() {
        let schema = Schema::new(&[("i", ColumnType::Int)]);
        assert!(matches!(
            encode_row(&schema, &vec![Value::Text("no".into())]),
            Err(StorageError::SchemaMismatch(_))
        ));
    }

    #[test]
    fn truncated_and_trailing_bytes_rejected() {
        let schema = Schema::new(&[("t", ColumnType::Text)]);
        let bytes = encode_row(&schema, &vec![Value::Text("hello".into())]).unwrap();
        assert!(decode_row(&schema, &bytes[..bytes.len() - 1]).is_err());
        let mut extra = bytes.clone();
        extra.push(0);
        assert!(decode_row(&schema, &extra).is_err());
    }

    #[test]
    fn empty_text_roundtrip() {
        let schema = Schema::new(&[("t", ColumnType::Text)]);
        let bytes = encode_row(&schema, &vec![Value::Text(String::new())]).unwrap();
        assert_eq!(decode_row(&schema, &bytes).unwrap()[0].as_text(), Some(""));
    }

    #[test]
    fn row_reader_borrows_and_agrees_with_decode_row() {
        let schema = Schema::new(&[
            ("i", ColumnType::Int),
            ("f", ColumnType::Float),
            ("t", ColumnType::Text),
            ("b", ColumnType::Blob),
        ]);
        let row: Row = vec![
            Value::Int(-42),
            Value::Float(2.75),
            Value::Text("U.S.C. 2345".into()),
            Value::Blob(9001),
        ];
        let bytes = encode_row(&schema, &row).unwrap();
        let mut r = RowReader::new(&schema, &bytes);
        assert_eq!(r.int().unwrap(), -42);
        assert_eq!(r.float().unwrap(), 2.75);
        assert_eq!(r.text().unwrap(), "U.S.C. 2345");
        assert_eq!(r.blob().unwrap(), 9001);
        r.finish().unwrap();
    }

    #[test]
    fn row_reader_rejects_misuse_and_corruption() {
        let schema = Schema::new(&[("t", ColumnType::Text), ("f", ColumnType::Float)]);
        let bytes =
            encode_row(&schema, &vec![Value::Text("hi".into()), Value::Float(0.5)]).unwrap();
        // Wrong type for the column.
        assert!(RowReader::new(&schema, &bytes).int().is_err());
        // Ending early.
        let mut r = RowReader::new(&schema, &bytes);
        r.text().unwrap();
        assert!(r.finish().is_err());
        // Trailing bytes.
        let mut extra = bytes.clone();
        extra.push(0);
        let mut r = RowReader::new(&schema, &extra);
        r.text().unwrap();
        r.float().unwrap();
        assert!(r.finish().is_err());
        // Truncated text.
        let mut r = RowReader::new(&schema, &bytes[..bytes.len() - 9]);
        assert!(r.text().is_err() || r.float().is_err());
        // Invalid UTF-8.
        let mut bad = bytes.clone();
        bad[4] = 0xFF;
        assert!(RowReader::new(&schema, &bad).text().is_err());
    }

    #[test]
    fn schema_col_lookup() {
        let schema = claims_schema();
        assert_eq!(schema.col("Year"), Some(1));
        assert_eq!(schema.col("Nope"), None);
    }
}

//! Records, schemas and field values.
//!
//! A [`Record`] is a flat tuple of named fields drawn from a [`Schema`].  The
//! ER pipeline compares records field-by-field, so fields carry a
//! [`FieldType`] that determines which similarity measure applies (paper
//! Section 6.1.2: trigram Jaccard for short text, tf–idf cosine for long
//! text, normalised absolute difference for numbers).

use std::fmt;

/// The kind of data a field holds, which selects the similarity measure used
/// to compare it across records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FieldType {
    /// Short free text (names, titles): compared with trigram Jaccard.
    ShortText,
    /// Long free text (descriptions): compared with tf–idf cosine similarity.
    LongText,
    /// Numeric value (price, year): compared with normalised absolute difference.
    Numeric,
    /// Categorical code (brand, venue): compared with exact match.
    Categorical,
}

/// A single field value. Missing values are explicit so imputation can be
/// exercised.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// A textual value.
    Text(String),
    /// A numeric value.
    Number(f64),
    /// The value is missing.
    Missing,
}

impl FieldValue {
    /// The text content, if any.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            FieldValue::Text(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric content, if any.
    pub fn as_number(&self) -> Option<f64> {
        match self {
            FieldValue::Number(x) => Some(*x),
            _ => None,
        }
    }

    /// Whether the value is missing.
    pub fn is_missing(&self) -> bool {
        matches!(self, FieldValue::Missing)
    }
}

impl fmt::Display for FieldValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldValue::Text(s) => write!(f, "{s}"),
            FieldValue::Number(x) => write!(f, "{x}"),
            FieldValue::Missing => write!(f, ""),
        }
    }
}

/// A named, typed field in a schema.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FieldSpec {
    /// Field name, e.g. `"name"` or `"price"`.
    pub name: String,
    /// The field's type.
    pub field_type: FieldType,
}

/// The schema shared by all records of a data source.
#[derive(Debug, Clone, PartialEq)]
pub struct Schema {
    fields: Vec<FieldSpec>,
}

impl Schema {
    /// Create a schema from `(name, type)` pairs.
    pub fn new(fields: Vec<(&str, FieldType)>) -> Self {
        Schema {
            fields: fields
                .into_iter()
                .map(|(name, field_type)| FieldSpec {
                    name: name.to_string(),
                    field_type,
                })
                .collect(),
        }
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// Whether the schema has no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// The field specifications, in declaration order.
    pub fn fields(&self) -> &[FieldSpec] {
        &self.fields
    }

    /// Index of the field called `name`, if it exists.
    pub fn field_index(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f.name == name)
    }
}

/// A record: an entity description from one of the data sources.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Unique identifier within the source.
    pub id: u64,
    /// Field values, aligned with the schema's field order.
    pub values: Vec<FieldValue>,
}

impl Record {
    /// Create a record with the given id and values.
    pub fn new(id: u64, values: Vec<FieldValue>) -> Self {
        Record { id, values }
    }

    /// The value of field `index`, or [`FieldValue::Missing`] if out of range.
    pub fn value(&self, index: usize) -> &FieldValue {
        static MISSING: FieldValue = FieldValue::Missing;
        self.values.get(index).unwrap_or(&MISSING)
    }

    /// Number of populated (non-missing) fields.
    pub fn populated_fields(&self) -> usize {
        self.values.iter().filter(|v| !v.is_missing()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new(vec![
            ("name", FieldType::ShortText),
            ("description", FieldType::LongText),
            ("price", FieldType::Numeric),
        ])
    }

    #[test]
    fn schema_field_lookup() {
        let s = schema();
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert_eq!(s.field_index("price"), Some(2));
        assert_eq!(s.field_index("brand"), None);
        assert_eq!(s.fields()[0].field_type, FieldType::ShortText);
    }

    #[test]
    fn field_value_accessors() {
        let t = FieldValue::Text("abc".into());
        let n = FieldValue::Number(3.5);
        let m = FieldValue::Missing;
        assert_eq!(t.as_text(), Some("abc"));
        assert_eq!(t.as_number(), None);
        assert_eq!(n.as_number(), Some(3.5));
        assert!(m.is_missing());
        assert!(!t.is_missing());
        assert_eq!(format!("{t}"), "abc");
        assert_eq!(format!("{n}"), "3.5");
        assert_eq!(format!("{m}"), "");
    }

    #[test]
    fn record_value_out_of_range_is_missing() {
        let r = Record::new(7, vec![FieldValue::Text("x".into())]);
        assert_eq!(r.value(0).as_text(), Some("x"));
        assert!(r.value(5).is_missing());
        assert_eq!(r.populated_fields(), 1);
    }

    #[test]
    fn populated_fields_ignores_missing() {
        let r = Record::new(
            1,
            vec![
                FieldValue::Text("a".into()),
                FieldValue::Missing,
                FieldValue::Number(1.0),
            ],
        );
        assert_eq!(r.populated_fields(), 2);
    }
}

//! Table schemas and the mutability classification DiffProv depends on.

use std::collections::BTreeMap;

use crate::error::Error;
use crate::sym::Sym;
use crate::tuple::Tuple;
use crate::value::Value;

/// The loose field types used for schema validation.
///
/// Validation is intentionally permissive — `Any` accepts every value — but
/// declaring concrete types catches the scenario-construction mistakes that
/// otherwise surface as confusing engine behaviour.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FieldType {
    /// Any value.
    Any,
    /// [`Value::Int`].
    Int,
    /// [`Value::Bool`].
    Bool,
    /// [`Value::Str`].
    Str,
    /// [`Value::Ip`].
    Ip,
    /// [`Value::Prefix`] (a bare IP is also accepted, as a /32).
    Prefix,
    /// [`Value::Sum`].
    Sum,
    /// [`Value::Time`].
    Time,
}

impl FieldType {
    /// Checks a value against this type.
    pub fn accepts(&self, v: &Value) -> bool {
        matches!(
            (self, v),
            (FieldType::Any, _)
                | (FieldType::Int, Value::Int(_))
                | (FieldType::Bool, Value::Bool(_))
                | (FieldType::Str, Value::Str(_))
                | (FieldType::Ip, Value::Ip(_))
                | (FieldType::Prefix, Value::Prefix(_) | Value::Ip(_))
                | (FieldType::Sum, Value::Sum(_))
                | (FieldType::Time, Value::Time(_))
        )
    }
}

/// A named, typed field of a table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FieldDecl {
    /// Field name (used in diagnostics, e.g. `nw_dst`).
    pub name: Sym,
    /// Field type.
    pub ty: FieldType,
}

/// How tuples of a table come into existence, and whether DiffProv may
/// propose changing them.
///
/// This encodes Refinement #1 of the paper's definition (Section 3.3):
/// *mutable* base tuples (configuration state, flow entries installed by the
/// operator) may appear in the output set of changes `Δ_{B→G}`; *immutable*
/// base tuples (packets arriving from outside, input files) may not — a
/// solution requiring such a change does not exist, and DiffProv reports why.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TableKind {
    /// Base tuples the operator controls; eligible for `Δ_{B→G}`.
    MutableBase,
    /// Base tuples outside the operator's control (external stimuli).
    ImmutableBase,
    /// Tuples derived by rules; never changed directly.
    Derived,
}

/// Declaration of one table: name, fields, and kind.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Schema {
    /// Table name.
    pub name: Sym,
    /// Ordered field declarations.
    pub fields: Vec<FieldDecl>,
    /// Base/derived/mutability classification.
    pub kind: TableKind,
    /// Indexes of the fields forming the primary key, if declared.
    ///
    /// DiffProv uses keys to turn "tuple X ought to exist" into a
    /// *replacement*: the tuple in the bad execution sharing X's key is the
    /// `before` of the proposed change (e.g. a flow entry is keyed by its
    /// rule id, a configuration entry by its name).
    pub key: Option<Vec<usize>>,
}

impl Schema {
    /// Builds a schema from `(field, type)` pairs.
    pub fn new(
        name: impl Into<Sym>,
        kind: TableKind,
        fields: impl IntoIterator<Item = (&'static str, FieldType)>,
    ) -> Self {
        Schema {
            name: name.into(),
            kind,
            fields: fields
                .into_iter()
                .map(|(n, ty)| FieldDecl {
                    name: Sym::new(n),
                    ty,
                })
                .collect(),
            key: None,
        }
    }

    /// Declares the primary key as a set of field indexes.
    ///
    /// Panics if an index is out of range (schema construction is static).
    pub fn with_key(mut self, key: impl IntoIterator<Item = usize>) -> Self {
        let key: Vec<usize> = key.into_iter().collect();
        for &k in &key {
            assert!(k < self.fields.len(), "key index {k} out of range");
        }
        self.key = Some(key);
        self
    }

    /// Projects a tuple onto this schema's key fields (`None` if no key is
    /// declared).
    pub fn key_of<'a>(&self, tuple: &'a Tuple) -> Option<Vec<&'a Value>> {
        let key = self.key.as_ref()?;
        Some(key.iter().filter_map(|&i| tuple.get(i)).collect())
    }

    /// Number of fields.
    pub fn arity(&self) -> usize {
        self.fields.len()
    }

    /// Validates a tuple against this schema.
    pub fn check(&self, tuple: &Tuple) -> Result<(), Error> {
        if tuple.table != self.name {
            return Err(Error::Schema {
                table: self.name,
                message: format!("tuple belongs to table {}", tuple.table),
            });
        }
        if tuple.arity() != self.arity() {
            return Err(Error::Schema {
                table: self.name,
                message: format!("arity {}, got {}", self.arity(), tuple.arity()),
            });
        }
        for (decl, value) in self.fields.iter().zip(&tuple.args) {
            if !decl.ty.accepts(value) {
                return Err(Error::Schema {
                    table: self.name,
                    message: format!(
                        "field {} expects {:?}, got {} ({})",
                        decl.name,
                        decl.ty,
                        value,
                        value.type_name()
                    ),
                });
            }
        }
        Ok(())
    }
}

/// The set of table declarations for one system model.
#[derive(Clone, Debug, Default)]
pub struct SchemaRegistry {
    tables: BTreeMap<Sym, Schema>,
}

impl SchemaRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        SchemaRegistry::default()
    }

    /// Adds (or replaces) a table declaration.
    pub fn declare(&mut self, schema: Schema) -> &mut Self {
        self.tables.insert(schema.name, schema);
        self
    }

    /// Looks up a table by name.
    pub fn get(&self, table: &Sym) -> Option<&Schema> {
        self.tables.get(table)
    }

    /// Looks up a table, erroring if undeclared.
    pub fn require(&self, table: &Sym) -> Result<&Schema, Error> {
        self.get(table).ok_or(Error::UnknownTable(*table))
    }

    /// The kind of a table; undeclared tables error.
    pub fn kind(&self, table: &Sym) -> Result<TableKind, Error> {
        Ok(self.require(table)?.kind)
    }

    /// True if the table holds base tuples (mutable or immutable).
    pub fn is_base(&self, table: &Sym) -> bool {
        matches!(
            self.get(table).map(|s| s.kind),
            Some(TableKind::MutableBase | TableKind::ImmutableBase)
        )
    }

    /// True if DiffProv may propose changes to tuples of this table.
    pub fn is_mutable(&self, table: &Sym) -> bool {
        matches!(
            self.get(table).map(|s| s.kind),
            Some(TableKind::MutableBase)
        )
    }

    /// Validates a tuple against its declared schema.
    pub fn check(&self, tuple: &Tuple) -> Result<(), Error> {
        self.require(&tuple.table)?.check(tuple)
    }

    /// Iterates over all declarations in name order.
    pub fn iter(&self) -> impl Iterator<Item = &Schema> {
        self.tables.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    fn flow_entry_schema() -> Schema {
        Schema::new(
            "flowEntry",
            TableKind::MutableBase,
            [
                ("prio", FieldType::Int),
                ("match", FieldType::Prefix),
                ("port", FieldType::Int),
            ],
        )
    }

    #[test]
    fn check_accepts_valid_tuple() {
        use crate::prefix::cidr;
        let s = flow_entry_schema();
        let t = tuple!("flowEntry", 10, cidr("4.3.2.0/24"), 6);
        assert!(s.check(&t).is_ok());
    }

    #[test]
    fn check_rejects_wrong_arity_and_type() {
        let s = flow_entry_schema();
        assert!(s.check(&tuple!("flowEntry", 10)).is_err());
        assert!(s.check(&tuple!("flowEntry", 10, true, 6)).is_err());
        assert!(s.check(&tuple!("packetIn", 1, 2, 3)).is_err());
    }

    #[test]
    fn prefix_field_accepts_bare_ip() {
        use crate::prefix::ip;
        let s = flow_entry_schema();
        let t = Tuple::new(
            "flowEntry",
            vec![Value::Int(1), Value::Ip(ip("1.2.3.4")), Value::Int(2)],
        );
        assert!(s.check(&t).is_ok());
    }

    #[test]
    fn key_projection() {
        use crate::prefix::cidr;
        let s = Schema::new(
            "flowEntry",
            TableKind::MutableBase,
            [
                ("rid", FieldType::Int),
                ("prio", FieldType::Int),
                ("match", FieldType::Prefix),
            ],
        )
        .with_key([0]);
        let t = tuple!("flowEntry", 7, 10, cidr("4.3.2.0/24"));
        assert_eq!(s.key_of(&t).unwrap(), vec![&Value::Int(7)]);
        let unkeyed = flow_entry_schema();
        assert_eq!(unkeyed.key_of(&t), None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn key_index_out_of_range_panics() {
        let _ = flow_entry_schema().with_key([9]);
    }

    #[test]
    fn registry_tracks_mutability() {
        let mut reg = SchemaRegistry::new();
        reg.declare(flow_entry_schema());
        reg.declare(Schema::new(
            "packet",
            TableKind::ImmutableBase,
            [("src", FieldType::Ip), ("dst", FieldType::Ip)],
        ));
        reg.declare(Schema::new(
            "packetOut",
            TableKind::Derived,
            [("src", FieldType::Ip), ("port", FieldType::Int)],
        ));
        let fe = Sym::new("flowEntry");
        let pkt = Sym::new("packet");
        let out = Sym::new("packetOut");
        assert!(reg.is_mutable(&fe));
        assert!(!reg.is_mutable(&pkt));
        assert!(!reg.is_mutable(&out));
        assert!(reg.is_base(&pkt));
        assert!(!reg.is_base(&out));
        assert!(reg.require(&Sym::new("nope")).is_err());
    }
}

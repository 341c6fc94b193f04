//! Offline shim of the `serde` trait surface the subsum workspace
//! names: the `Serialize`/`Deserialize` traits, a `Serializer` with the
//! scalar, sequence and map entry points the hand-written impls call,
//! `ser::Error`/`de::Error::custom`, impls for the std types those
//! impls delegate to, and (feature `derive`) the derive macros.
//!
//! The workspace ships **no data format**, so nothing ever drives these
//! traits at run time; the shim exists so the workspace type-checks
//! offline. `Serialize` impls here are real (a `Serializer` written
//! against this trait would receive the right calls); `Deserialize`
//! cannot be, because the shim's `Deserializer` has no visitor API —
//! every `Deserialize` impl reports `Error::custom`. See
//! `serde_derive` for what the derives generate.

#![forbid(unsafe_code)]

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

/// Serialization half.
pub mod ser {
    use std::fmt::Display;

    /// Errors a [`Serializer`] can raise.
    pub trait Error: Sized + std::error::Error {
        /// An error with a custom message.
        fn custom<T: Display>(msg: T) -> Self;
    }

    /// A value that can describe itself to a [`Serializer`].
    pub trait Serialize {
        /// Feeds `self` to `serializer`.
        fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error>;
    }

    /// In-progress sequence.
    pub trait SerializeSeq {
        /// Matches the parent serializer's `Ok`.
        type Ok;
        /// Matches the parent serializer's `Error`.
        type Error: Error;
        /// Appends one element.
        fn serialize_element<T: ?Sized + Serialize>(
            &mut self,
            value: &T,
        ) -> Result<(), Self::Error>;
        /// Closes the sequence.
        fn end(self) -> Result<Self::Ok, Self::Error>;
    }

    /// In-progress map.
    pub trait SerializeMap {
        /// Matches the parent serializer's `Ok`.
        type Ok;
        /// Matches the parent serializer's `Error`.
        type Error: Error;
        /// Appends one entry.
        fn serialize_entry<K: ?Sized + Serialize, V: ?Sized + Serialize>(
            &mut self,
            key: &K,
            value: &V,
        ) -> Result<(), Self::Error>;
        /// Closes the map.
        fn end(self) -> Result<Self::Ok, Self::Error>;
    }

    /// A data format's writing half.
    pub trait Serializer: Sized {
        /// Output of a successful serialization.
        type Ok;
        /// Error type.
        type Error: Error;
        /// Sequence state.
        type SerializeSeq: SerializeSeq<Ok = Self::Ok, Error = Self::Error>;
        /// Map state.
        type SerializeMap: SerializeMap<Ok = Self::Ok, Error = Self::Error>;

        /// `bool`.
        fn serialize_bool(self, v: bool) -> Result<Self::Ok, Self::Error>;
        /// Signed integers (narrower ones widen).
        fn serialize_i64(self, v: i64) -> Result<Self::Ok, Self::Error>;
        /// Unsigned integers (narrower ones widen).
        fn serialize_u64(self, v: u64) -> Result<Self::Ok, Self::Error>;
        /// Floats (`f32` widens).
        fn serialize_f64(self, v: f64) -> Result<Self::Ok, Self::Error>;
        /// Strings.
        fn serialize_str(self, v: &str) -> Result<Self::Ok, Self::Error>;
        /// `()`.
        fn serialize_unit(self) -> Result<Self::Ok, Self::Error>;
        /// `None`.
        fn serialize_none(self) -> Result<Self::Ok, Self::Error> {
            self.serialize_unit()
        }
        /// `Some(v)`.
        fn serialize_some<T: ?Sized + Serialize>(self, value: &T) -> Result<Self::Ok, Self::Error> {
            value.serialize(self)
        }
        /// Opens a sequence.
        fn serialize_seq(self, len: Option<usize>) -> Result<Self::SerializeSeq, Self::Error>;
        /// Opens a map.
        fn serialize_map(self, len: Option<usize>) -> Result<Self::SerializeMap, Self::Error>;
    }

    macro_rules! scalar {
        ($method:ident as $wide:ty: $($t:ty),*) => {$(
            impl Serialize for $t {
                fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
                    s.$method(*self as $wide)
                }
            }
        )*};
    }
    scalar!(serialize_i64 as i64: i8, i16, i32, i64, isize);
    scalar!(serialize_u64 as u64: u8, u16, u32, u64, usize);
    scalar!(serialize_f64 as f64: f32, f64);

    impl Serialize for bool {
        fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
            s.serialize_bool(*self)
        }
    }

    impl Serialize for () {
        fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
            s.serialize_unit()
        }
    }

    impl Serialize for str {
        fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
            s.serialize_str(self)
        }
    }

    impl Serialize for String {
        fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
            s.serialize_str(self)
        }
    }

    impl<T: ?Sized + Serialize> Serialize for &T {
        fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
            (**self).serialize(s)
        }
    }

    impl<T: ?Sized + Serialize> Serialize for Box<T> {
        fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
            (**self).serialize(s)
        }
    }

    impl<T: Serialize> Serialize for Option<T> {
        fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
            match self {
                Some(v) => s.serialize_some(v),
                None => s.serialize_none(),
            }
        }
    }

    impl<T: Serialize> Serialize for [T] {
        fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
            let mut seq = s.serialize_seq(Some(self.len()))?;
            for item in self {
                seq.serialize_element(item)?;
            }
            seq.end()
        }
    }

    impl<T: Serialize> Serialize for Vec<T> {
        fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
            self.as_slice().serialize(s)
        }
    }

    impl<K: Serialize, V: Serialize> Serialize for std::collections::BTreeMap<K, V> {
        fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
            let mut map = s.serialize_map(Some(self.len()))?;
            for (k, v) in self {
                map.serialize_entry(k, v)?;
            }
            map.end()
        }
    }

    impl<K: Serialize, V: Serialize, H> Serialize for std::collections::HashMap<K, V, H> {
        fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
            let mut map = s.serialize_map(Some(self.len()))?;
            for (k, v) in self {
                map.serialize_entry(k, v)?;
            }
            map.end()
        }
    }
}

/// Deserialization half.
pub mod de {
    use std::fmt::Display;

    /// Errors a [`Deserializer`] can raise.
    pub trait Error: Sized + std::error::Error {
        /// An error with a custom message.
        fn custom<T: Display>(msg: T) -> Self;
    }

    /// A data format's reading half. The shim has no visitor API: a
    /// deserializer can only name its error type.
    pub trait Deserializer<'de>: Sized {
        /// Error type.
        type Error: Error;
    }

    /// A value that can be rebuilt from a [`Deserializer`].
    pub trait Deserialize<'de>: Sized {
        /// Rebuilds a value (always `Error::custom` under the shim).
        fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error>;
    }

    /// Owned deserialization.
    pub trait DeserializeOwned: for<'de> Deserialize<'de> {}
    impl<T: for<'de> Deserialize<'de>> DeserializeOwned for T {}

    const NO_VISITOR: &str = "offline serde shim: no visitor API, nothing can be deserialized";

    macro_rules! undrivable {
        ($($t:ty),*) => {$(
            impl<'de> Deserialize<'de> for $t {
                fn deserialize<D: Deserializer<'de>>(_d: D) -> Result<Self, D::Error> {
                    Err(D::Error::custom(NO_VISITOR))
                }
            }
        )*};
    }
    undrivable!(
        bool,
        i8,
        i16,
        i32,
        i64,
        isize,
        u8,
        u16,
        u32,
        u64,
        usize,
        f32,
        f64,
        String,
        ()
    );

    impl<'de, T: Deserialize<'de>> Deserialize<'de> for Vec<T> {
        fn deserialize<D: Deserializer<'de>>(_d: D) -> Result<Self, D::Error> {
            Err(D::Error::custom(NO_VISITOR))
        }
    }

    impl<'de, T: Deserialize<'de>> Deserialize<'de> for Option<T> {
        fn deserialize<D: Deserializer<'de>>(_d: D) -> Result<Self, D::Error> {
            Err(D::Error::custom(NO_VISITOR))
        }
    }

    impl<'de, K: Deserialize<'de> + Ord, V: Deserialize<'de>> Deserialize<'de>
        for std::collections::BTreeMap<K, V>
    {
        fn deserialize<D: Deserializer<'de>>(_d: D) -> Result<Self, D::Error> {
            Err(D::Error::custom(NO_VISITOR))
        }
    }
}

pub use de::{Deserialize, Deserializer};
pub use ser::{Serialize, Serializer};

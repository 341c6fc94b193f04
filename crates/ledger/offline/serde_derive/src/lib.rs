//! Offline shim of `#[derive(Serialize, Deserialize)]`.
//!
//! The workspace contains no serde data format (no `serde_json`, no
//! `bincode`): the derives exist so that downstream users *could* plug
//! one in. Without `syn`/`quote` available offline, this shim derives
//! impls that type-check everywhere the real ones would and report
//! `Error::custom("…offline shim…")` if a format ever drives them. It
//! accepts and ignores every `#[serde(...)]` helper attribute.
//!
//! Only non-generic structs and enums are supported — that is every
//! derived type in the workspace; a generic type is a compile error
//! rather than a silently wrong impl.

use proc_macro::{TokenStream, TokenTree};

/// The name of the derived type, or a `compile_error!` stream.
fn type_name(input: TokenStream) -> Result<String, TokenStream> {
    let mut tokens = input.into_iter();
    while let Some(tt) = tokens.next() {
        let TokenTree::Ident(ident) = &tt else {
            continue;
        };
        let kw = ident.to_string();
        if kw != "struct" && kw != "enum" && kw != "union" {
            continue;
        }
        let Some(TokenTree::Ident(name)) = tokens.next() else {
            break;
        };
        if let Some(TokenTree::Punct(p)) = tokens.next() {
            if p.as_char() == '<' {
                return Err(error(
                    "the offline serde shim cannot derive for generic types",
                ));
            }
        }
        return Ok(name.to_string());
    }
    Err(error(
        "the offline serde shim found no struct or enum to derive for",
    ))
}

fn error(msg: &str) -> TokenStream {
    format!("compile_error!({msg:?});")
        .parse()
        .unwrap_or_default()
}

/// Derives a type-correct `serde::Serialize` that fails at run time.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let name = match type_name(input) {
        Ok(name) => name,
        Err(e) => return e,
    };
    format!(
        "impl ::serde::Serialize for {name} {{\
            fn serialize<S: ::serde::Serializer>(&self, _serializer: S) \
                -> ::core::result::Result<S::Ok, S::Error> {{\
                ::core::result::Result::Err(<S::Error as ::serde::ser::Error>::custom(\
                    \"offline serde shim: derived Serialize for {name} carries no field encoding\"))\
            }}\
        }}"
    )
    .parse()
    .unwrap_or_default()
}

/// Derives a type-correct `serde::Deserialize` that fails at run time.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let name = match type_name(input) {
        Ok(name) => name,
        Err(e) => return e,
    };
    format!(
        "impl<'de> ::serde::Deserialize<'de> for {name} {{\
            fn deserialize<D: ::serde::Deserializer<'de>>(_deserializer: D) \
                -> ::core::result::Result<Self, D::Error> {{\
                ::core::result::Result::Err(<D::Error as ::serde::de::Error>::custom(\
                    \"offline serde shim: derived Deserialize for {name} carries no field decoding\"))\
            }}\
        }}"
    )
    .parse()
    .unwrap_or_default()
}

//! `#[derive(Serialize, Deserialize)]` for the `serde` stand-in. The
//! traits are markers, so the derive only needs the type's name and
//! generics, which it reads from the token stream directly (no `syn`).

use proc_macro::{TokenStream, TokenTree};

/// Name and generics of the `struct` or `enum` in `input`.
struct Header {
    name: String,
    /// Parameters with their bounds, as declared (`I: Idx, T`).
    params_decl: String,
    /// Parameters as used (`I, T`).
    params_use: String,
}

fn header(input: TokenStream) -> Header {
    let mut tokens = input.into_iter();
    for tt in tokens.by_ref() {
        if matches!(&tt, TokenTree::Ident(i) if ["struct", "enum"].contains(&i.to_string().as_str()))
        {
            break;
        }
    }
    let name = match tokens.next() {
        Some(TokenTree::Ident(i)) => i.to_string(),
        other => panic!("serde stand-in derive: expected a type name, found {other:?}"),
    };
    let mut decl: Vec<String> = Vec::new();
    if matches!(tokens.next(), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        let mut depth = 1;
        for tt in tokens {
            if let TokenTree::Punct(p) = &tt {
                match p.as_char() {
                    '<' => depth += 1,
                    '>' => depth -= 1,
                    _ => {}
                }
            }
            if depth == 0 {
                break;
            }
            decl.push(tt.to_string());
        }
    }
    let params_decl = decl.join(" ");
    // Each parameter's name is the text before its first `:` or `=`;
    // a lifetime keeps its tick (`' a` → `'a`).
    let params_use = split_top_level(&decl)
        .iter()
        .map(|param| {
            let name: Vec<&str> =
                param.iter().map(String::as_str).take_while(|t| *t != ":" && *t != "=").collect();
            name.concat().trim_start_matches("const").to_string()
        })
        .collect::<Vec<_>>()
        .join(", ");
    Header { name, params_decl, params_use }
}

/// Split generic-parameter tokens at commas outside angle brackets.
fn split_top_level(tokens: &[String]) -> Vec<Vec<String>> {
    let mut out = vec![Vec::new()];
    let mut depth = 0;
    for t in tokens {
        match t.as_str() {
            "<" => depth += 1,
            ">" => depth -= 1,
            "," if depth == 0 => {
                out.push(Vec::new());
                continue;
            }
            _ => {}
        }
        out.last_mut().expect("starts non-empty").push(t.clone());
    }
    out.retain(|p| !p.is_empty());
    out
}

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let h = header(input);
    format!("impl<{}> ::serde::Serialize for {}<{}> {{}}", h.params_decl, h.name, h.params_use)
        .parse()
        .expect("generated impl parses")
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let h = header(input);
    let sep = if h.params_decl.is_empty() { "" } else { ", " };
    format!(
        "impl<'de{sep}{}> ::serde::Deserialize<'de> for {}<{}> {{}}",
        h.params_decl, h.name, h.params_use
    )
    .parse()
    .expect("generated impl parses")
}

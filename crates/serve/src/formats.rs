//! The textual instance formats shared by `lbtool` files and `lb-serve`
//! job payloads — one parser per family, one canonical serializer per
//! family, moved here from `lbtool` so the CLI and the server can never
//! drift apart on what an instance looks like.
//!
//! ```text
//! CSP files:     header `csp <num_vars> <domain_size>`, then one
//!                constraint per line: `con <v1> <v2> ... : <t>,<t> ...`
//! Database:      `rel <name> <arity>` opens a relation; each following
//!                numeric line is one row (set semantics)
//! Graph:         first line `n`, then one `u v` edge per line (0-based)
//! Query:         whitespace-separated atoms like `R(a,b) S(a,c) T(b,c)`
//! ```
//!
//! Malformed input never panics: every parser reports a positioned, typed
//! [`ParseError`] in the same `line:col` discipline as the DIMACS parser.
//! The serializers emit text the matching parser round-trips exactly, so
//! the soak job mix and the chaos storm can ship generated instances over
//! the wire.
//!
//! The database and graph parsers read their rows in two ways. A run of
//! plain rows takes the block scan (`scan_rows`): one pass over its bytes
//! that appends each row straight into a [`Table`]'s flat buffer. A plain
//! row is decimal numbers separated by spaces or tabs, none past
//! `u64::MAX`, as many as the relation's arity (for an edge, two endpoints
//! below `n`), ended by `\n`, `\r\n` or the end of the text. The first
//! line that is not one — a header, a blank or `#` line, a `+` sign, a lone
//! `\r` or other whitespace, a wrong count, an overflowing value — takes the
//! token path with its 1-based line number, and the scan resumes after it.
//! The token path accepts everything the scan accepts and more, and is the
//! only code that builds a [`ParseError`].

#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use lb_csp::{Constraint, CspInstance, Relation};
use lb_engine::parse::{tokens, ParseError, ParseErrorKind};
use lb_graph::Graph;
use lb_join::{Atom, Database, JoinQuery, Table};
use std::sync::Arc;

/// A numeric token, or a positioned [`ParseError`] naming what it was.
pub fn parse_num<T: std::str::FromStr>(
    line: usize,
    col: usize,
    tok: &str,
    what: &str,
) -> Result<T, ParseError> {
    tok.parse().map_err(|_| {
        ParseError::new(
            line,
            col,
            ParseErrorKind::InvalidNumber {
                what: what.to_string(),
                token: tok.to_string(),
            },
        )
    })
}

/// Reads the plain row at the start of `bytes` — decimal numbers separated
/// by spaces or tabs, ended by `\n`, `\r\n` or the end of the text — in
/// one pass with checked arithmetic, appending its values to `out`. Returns
/// the row's length with its line ending, or `None` for any other line (a
/// header, a comment, a `+` sign, a lone `\r`, other whitespace, a value
/// past `u64::MAX`), with part of its values possibly appended.
fn scan_line(bytes: &[u8], out: &mut Vec<u64>) -> Option<usize> {
    let mut acc = 0u64;
    let mut in_number = false;
    for (i, &b) in bytes.iter().enumerate() {
        let end = match b {
            b'0'..=b'9' => {
                acc = acc.checked_mul(10)?.checked_add(u64::from(b - b'0'))?;
                in_number = true;
                continue;
            }
            b' ' | b'\t' => None,
            b'\n' => Some(i + 1),
            b'\r' if bytes.get(i + 1) == Some(&b'\n') => Some(i + 2),
            _ => return None,
        };
        if in_number {
            out.push(acc);
            acc = 0;
            in_number = false;
        }
        if end.is_some() {
            return end;
        }
    }
    if in_number {
        out.push(acc);
    }
    Some(bytes.len())
}

/// The block scanner: reads the run of rows at the start of `text` in one
/// pass, handing `row` the bytes from each line's start on; `row` appends
/// the row (through [`scan_line`]) and returns its length, or refuses the
/// line with `None`. Returns the bytes and the lines read: the rest of the
/// text starts with the first refused line.
fn scan_rows(text: &str, mut row: impl FnMut(&[u8]) -> Option<usize>) -> (usize, usize) {
    let bytes = text.as_bytes();
    let (mut read, mut lines) = (0, 0);
    while let Some(len) = bytes
        .get(read..)
        .filter(|rest| !rest.is_empty())
        .and_then(&mut row)
    {
        read += len;
        lines += 1;
    }
    (read, lines)
}

/// Splits the first line off `text`, as [`str::lines`] would yield it, and
/// returns it with the text after its line ending.
fn split_line(text: &str) -> (&str, &str) {
    match text.split_once('\n') {
        Some((line, rest)) => (line.strip_suffix('\r').unwrap_or(line), rest),
        None => (text, ""),
    }
}

/// Parses the CSP file format (see the module docs). Every structural
/// mistake — dangling scope variables, wrong-arity or out-of-domain
/// tuples, a missing `:` — is a positioned [`ParseError`]; the constructed
/// instance always satisfies `CspInstance`'s invariants, so its
/// (panicking) constructors are never fed bad data.
pub fn parse_csp(text: &str) -> Result<CspInstance, ParseError> {
    use lb_csp::Value;
    let mut inst: Option<CspInstance> = None;
    let mut last_line = 0;
    // One token buffer serves every line.
    let mut toks: Vec<(usize, &str)> = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        last_line = lineno;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        toks.clear();
        toks.extend(tokens(raw));
        let Some(&(kw_col, kw)) = toks.first() else {
            continue;
        };
        match kw {
            "csp" => {
                if inst.is_some() {
                    return Err(ParseError::new(
                        lineno,
                        kw_col,
                        ParseErrorKind::Duplicate {
                            what: "`csp` header".to_string(),
                        },
                    ));
                }
                let [_, (vars_col, vars), (domain_col, domain_tok)] = *toks.as_slice() else {
                    return Err(ParseError::new(
                        lineno,
                        kw_col,
                        ParseErrorKind::Malformed {
                            what: "header (expected `csp <num_vars> <domain_size>`)".to_string(),
                        },
                    ));
                };
                let num_vars: usize = parse_num(lineno, vars_col, vars, "variable count")?;
                let domain: usize = parse_num(lineno, domain_col, domain_tok, "domain size")?;
                if domain > Value::MAX as usize {
                    return Err(ParseError::new(
                        lineno,
                        domain_col,
                        ParseErrorKind::OutOfRange {
                            what: "domain size".to_string(),
                            token: domain_tok.to_string(),
                            limit: format!("at most {}", Value::MAX),
                        },
                    ));
                }
                inst = Some(CspInstance::new(num_vars, domain));
            }
            "con" => {
                let Some(inst) = inst.as_mut() else {
                    return Err(ParseError::new(
                        lineno,
                        kw_col,
                        ParseErrorKind::Missing {
                            what: "`csp` header before constraints".to_string(),
                        },
                    ));
                };
                let Some(sep) = toks.iter().position(|&(_, t)| t == ":") else {
                    return Err(ParseError::new(
                        lineno,
                        kw_col,
                        ParseErrorKind::Missing {
                            what: "`:` between scope and tuples".to_string(),
                        },
                    ));
                };
                let scope_toks = toks.get(1..sep).unwrap_or_default();
                if scope_toks.is_empty() {
                    return Err(ParseError::new(
                        lineno,
                        kw_col,
                        ParseErrorKind::Missing {
                            what: "constraint scope variables".to_string(),
                        },
                    ));
                }
                let mut scope = Vec::with_capacity(scope_toks.len());
                for &(col, tok) in scope_toks {
                    let v: usize = parse_num(lineno, col, tok, "scope variable")?;
                    if v >= inst.num_vars {
                        return Err(ParseError::new(
                            lineno,
                            col,
                            ParseErrorKind::OutOfRange {
                                what: "scope variable".to_string(),
                                token: tok.to_string(),
                                limit: format!("{} variables declared", inst.num_vars),
                            },
                        ));
                    }
                    scope.push(v);
                }
                let mut tuples = Vec::new();
                for &(col, tok) in toks.get(sep + 1..).unwrap_or_default() {
                    let mut tuple = Vec::with_capacity(scope.len());
                    for part in tok.split(',') {
                        let v: Value = parse_num(lineno, col, part, "tuple value")?;
                        if (v as usize) >= inst.domain_size {
                            return Err(ParseError::new(
                                lineno,
                                col,
                                ParseErrorKind::OutOfRange {
                                    what: "tuple value".to_string(),
                                    token: part.to_string(),
                                    limit: format!("domain size {}", inst.domain_size),
                                },
                            ));
                        }
                        tuple.push(v);
                    }
                    if tuple.len() != scope.len() {
                        return Err(ParseError::new(
                            lineno,
                            col,
                            ParseErrorKind::CountMismatch {
                                what: "tuple values".to_string(),
                                declared: scope.len(),
                                found: tuple.len(),
                            },
                        ));
                    }
                    tuples.push(tuple);
                }
                let arity = scope.len();
                inst.add_constraint(Constraint::new(
                    scope,
                    Arc::new(Relation::new(arity, tuples)),
                ));
            }
            _ => {
                return Err(ParseError::new(
                    lineno,
                    kw_col,
                    ParseErrorKind::Malformed {
                        what: format!("directive `{kw}` (expected `csp` or `con`)"),
                    },
                ));
            }
        }
    }
    inst.ok_or_else(|| {
        ParseError::at_eof(
            last_line + 1,
            ParseErrorKind::Missing {
                what: "`csp` header".to_string(),
            },
        )
    })
}

/// Serializes a [`CspInstance`] in the format [`parse_csp`] reads.
pub fn format_csp(inst: &CspInstance) -> String {
    let mut out = format!("csp {} {}\n", inst.num_vars, inst.domain_size);
    for c in &inst.constraints {
        let scope: Vec<String> = c.scope.iter().map(usize::to_string).collect();
        let tuples: Vec<String> = c
            .relation
            .tuples()
            .iter()
            .map(|t| {
                t.iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<String>>()
                    .join(",")
            })
            .collect();
        out.push_str(&format!("con {} : {}\n", scope.join(" "), tuples.join(" ")));
    }
    out
}

/// Parses the relational database format (see the module docs). Every row
/// is validated against its relation's declared arity before it reaches
/// [`Table`]; rows load with set semantics (sorted, deduplicated).
pub fn parse_db(text: &str) -> Result<Database, ParseError> {
    use lb_join::Value;
    let mut db = Database::new();
    let mut open: Option<(String, Table)> = None;
    // One token buffer and one row buffer serve every token-path line.
    let mut toks: Vec<(usize, &str)> = Vec::new();
    let mut row: Vec<Value> = Vec::new();
    let mut rest = text;
    let mut lineno = 0;
    while !rest.is_empty() {
        // The open relation's run of plain rows takes the block scan; the
        // line that ends the run takes the token path below.
        if let Some((_, table)) = open.as_mut() {
            let (read, lines) =
                scan_rows(rest, |line| table.push_with(|flat| scan_line(line, flat)));
            rest = rest.get(read..).unwrap_or_default();
            lineno += lines;
            if rest.is_empty() {
                break;
            }
        }
        let (raw, next) = split_line(rest);
        rest = next;
        lineno += 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        toks.clear();
        toks.extend(tokens(raw));
        let Some(&(kw_col, kw)) = toks.first() else {
            continue;
        };
        if kw == "rel" {
            let [_, (name_col, name), (arity_col, arity_tok)] = *toks.as_slice() else {
                return Err(ParseError::new(
                    lineno,
                    kw_col,
                    ParseErrorKind::Malformed {
                        what: "relation header (expected `rel <name> <arity>`)".to_string(),
                    },
                ));
            };
            if db.table(name).is_some() || open.as_ref().is_some_and(|(open, _)| open == name) {
                return Err(ParseError::new(
                    lineno,
                    name_col,
                    ParseErrorKind::Duplicate {
                        what: format!("relation `{name}`"),
                    },
                ));
            }
            let arity: usize = parse_num(lineno, arity_col, arity_tok, "relation arity")?;
            if arity == 0 {
                return Err(ParseError::new(
                    lineno,
                    arity_col,
                    ParseErrorKind::OutOfRange {
                        what: "relation arity".to_string(),
                        token: arity_tok.to_string(),
                        limit: "at least 1".to_string(),
                    },
                ));
            }
            let opened = (name.to_string(), Table::new(arity));
            if let Some((prev_name, mut prev_table)) = open.replace(opened) {
                prev_table.normalize();
                db.insert(&prev_name, prev_table);
            }
            continue;
        }
        let Some((_, table)) = open.as_mut() else {
            return Err(ParseError::new(
                lineno,
                kw_col,
                ParseErrorKind::Missing {
                    what: "`rel` header before rows".to_string(),
                },
            ));
        };
        if toks.len() != table.arity() {
            return Err(ParseError::new(
                lineno,
                kw_col,
                ParseErrorKind::CountMismatch {
                    what: "row values".to_string(),
                    declared: table.arity(),
                    found: toks.len(),
                },
            ));
        }
        row.clear();
        for &(col, tok) in &toks {
            row.push(parse_num::<Value>(lineno, col, tok, "row value")?);
        }
        table.push(&row);
    }
    if let Some((name, mut table)) = open {
        table.normalize();
        db.insert(&name, table);
    }
    Ok(db)
}

/// Serializes the relations a query mentions, in first-mention order, in
/// the format [`parse_db`] reads. Relations the database does not hold are
/// skipped — the join engine reports those as its own typed error.
pub fn format_db(q: &JoinQuery, db: &Database) -> String {
    let mut out = String::new();
    let mut seen: Vec<&str> = Vec::new();
    for atom in &q.atoms {
        let name = atom.relation.as_str();
        if seen.contains(&name) {
            continue;
        }
        seen.push(name);
        let Some(table) = db.table(name) else {
            continue;
        };
        out.push_str(&format!("rel {} {}\n", name, table.arity()));
        for row in table.rows() {
            let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
            out.push_str(&cells.join(" "));
            out.push('\n');
        }
    }
    out
}

/// Parses the first line as a vertex count `n`, every following line as a
/// `u v` edge with both endpoints `< n`.
pub fn parse_graph(text: &str) -> Result<Graph, ParseError> {
    let mut n: Option<usize> = None;
    // The endpoints, two per edge, row-major.
    let mut ends = Table::new(2);
    // One token buffer serves every token-path line.
    let mut toks: Vec<(usize, &str)> = Vec::new();
    let mut rest = text;
    let mut lineno = 0;
    while !rest.is_empty() {
        // A run of plain in-range `u v` edges takes the block scan; the line
        // that ends the run (out-of-range endpoints included) takes the
        // token path below.
        if let Some(nv) = n {
            let in_range = |x: &u64| usize::try_from(*x).is_ok_and(|v| v < nv);
            let (read, lines) = scan_rows(rest, |line| {
                ends.push_with(|flat| {
                    let start = flat.len();
                    let len = scan_line(line, flat)?;
                    flat.get(start..)?.iter().all(in_range).then_some(len)
                })
            });
            rest = rest.get(read..).unwrap_or_default();
            lineno += lines;
            if rest.is_empty() {
                break;
            }
        }
        let (raw, next) = split_line(rest);
        rest = next;
        lineno += 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        toks.clear();
        toks.extend(tokens(raw));
        let Some(nv) = n else {
            match *toks.as_slice() {
                [(col, tok)] => n = Some(parse_num(lineno, col, tok, "vertex count")?),
                [_, (col, tok), ..] => {
                    return Err(ParseError::new(
                        lineno,
                        col,
                        ParseErrorKind::TrailingGarbage {
                            token: tok.to_string(),
                        },
                    ));
                }
                [] => {}
            }
            continue;
        };
        let [u, v] = *toks.as_slice() else {
            let col = toks.get(2).or(toks.first()).map_or(1, |&(col, _)| col);
            return Err(ParseError::new(
                lineno,
                col,
                ParseErrorKind::Malformed {
                    what: "edge line (expected `u v`)".to_string(),
                },
            ));
        };
        let endpoint = |(col, tok): (usize, &str)| -> Result<usize, ParseError> {
            let v: usize = parse_num(lineno, col, tok, "edge endpoint")?;
            if v >= nv {
                return Err(ParseError::new(
                    lineno,
                    col,
                    ParseErrorKind::OutOfRange {
                        what: "edge endpoint".to_string(),
                        token: tok.to_string(),
                        limit: format!("{nv} vertices declared"),
                    },
                ));
            }
            Ok(v)
        };
        ends.push(&[endpoint(u)? as u64, endpoint(v)? as u64]);
    }
    let Some(n) = n else {
        return Err(ParseError::at_eof(
            lineno + 1,
            ParseErrorKind::Missing {
                what: "vertex count line".to_string(),
            },
        ));
    };
    // Every endpoint is below `n`, a `usize`.
    let (pairs, _) = ends.flat().as_chunks::<2>();
    let edges: Vec<(usize, usize)> = pairs
        .iter()
        .map(|&[u, v]| (u as usize, v as usize))
        .collect();
    Ok(Graph::from_edges(n, &edges))
}

/// Serializes a [`Graph`] in the format [`parse_graph`] reads.
pub fn format_graph(g: &Graph) -> String {
    let mut out = format!("{}\n", g.num_vertices());
    for (u, v) in g.edges() {
        out.push_str(&format!("{u} {v}\n"));
    }
    out
}

/// Parses `R(a,b) S(a,c) T(b,c)` into a [`JoinQuery`]: atoms separated
/// by whitespace, relation and attribute names of ASCII letters, digits and
/// `_`. Any other character in a name (say, a comma between atoms) is an
/// error at its column, never a silently different query. The "line" of a
/// reported error is always 1 (the query is a single string); the column
/// points into that string.
pub fn parse_query(spec: &str) -> Result<JoinQuery, ParseError> {
    let mut atoms = Vec::new();
    for (col, token) in tokens(spec) {
        let malformed = |at: usize, why: &str| {
            ParseError::new(
                1,
                col + at,
                ParseErrorKind::Malformed {
                    what: format!("atom `{token}` ({why})"),
                },
            )
        };
        // A name whose `start`th byte in the token is its first: any
        // character outside [A-Za-z0-9_] is an error at its own column.
        let check_name = |name: &str, start: usize| match name
            .char_indices()
            .find(|&(_, c)| !(c.is_ascii_alphanumeric() || c == '_'))
        {
            Some((i, c)) => Err(malformed(
                start + i,
                &format!("`{c}` in a name; allowed: ASCII letters, digits, `_`"),
            )),
            None => Ok(()),
        };
        let open = token.find('(').ok_or_else(|| malformed(0, "missing `(`"))?;
        if !token.ends_with(')') {
            return Err(malformed(0, "missing `)`"));
        }
        let name = &token[..open];
        if name.is_empty() {
            return Err(malformed(0, "missing relation name"));
        }
        check_name(name, 0)?;
        let mut attrs: Vec<&str> = Vec::new();
        let mut start = open + 1;
        for attr in token[start..token.len() - 1].split(',') {
            check_name(attr, start)?;
            if attr.is_empty() {
                return Err(malformed(start, "empty attribute"));
            }
            attrs.push(attr);
            start += attr.len() + 1;
        }
        atoms.push(Atom::new(name, &attrs));
    }
    if atoms.is_empty() {
        return Err(ParseError::at_eof(
            1,
            ParseErrorKind::Missing {
                what: "query atoms".to_string(),
            },
        ));
    }
    Ok(JoinQuery::new(atoms))
}

/// Serializes a [`JoinQuery`] in the one-line format [`parse_query`] reads.
pub fn format_query(q: &JoinQuery) -> String {
    let atoms: Vec<String> = q
        .atoms
        .iter()
        .map(|a| format!("{}({})", a.relation, a.attrs.join(",")))
        .collect();
    atoms.join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csp_round_trips() {
        let inst = lb_chaos::hostile::csp(7);
        let text = format_csp(&inst);
        let back = parse_csp(&text).unwrap();
        assert_eq!(back.num_vars, inst.num_vars);
        assert_eq!(back.domain_size, inst.domain_size);
        assert_eq!(back.constraints.len(), inst.constraints.len());
    }

    #[test]
    fn graph_round_trips() {
        let g = lb_chaos::hostile::graph(11);
        let text = format_graph(&g);
        let back = parse_graph(&text).unwrap();
        assert_eq!(back.num_vertices(), g.num_vertices());
        assert_eq!(back.edges(), g.edges());
    }

    #[test]
    fn join_round_trips() {
        let (q, db) = lb_chaos::hostile::join_instance(3);
        let qtext = format_query(&q);
        let dbtext = format_db(&q, &db);
        let q2 = parse_query(&qtext).unwrap();
        let db2 = parse_db(&dbtext).unwrap();
        assert_eq!(q2.atoms.len(), q.atoms.len());
        for atom in &q.atoms {
            let orig = db.table(&atom.relation);
            let back = db2.table(&atom.relation);
            assert_eq!(orig, back, "relation {} drifted", atom.relation);
        }
    }

    #[test]
    fn parse_errors_are_positioned() {
        let err = parse_csp("csp 2 2\ncon 0 9 : 0,0\n").unwrap_err();
        assert_eq!((err.line, err.col), (2, 7));
        let err = parse_graph("3\n0 7\n").unwrap_err();
        assert_eq!((err.line, err.col), (2, 3));
        let err = parse_db("rel R 2\n1\n").unwrap_err();
        assert_eq!(err.line, 2);
        let err = parse_query("R(a,b) S(").unwrap_err();
        assert_eq!((err.line, err.col), (1, 8));
    }
}

//! Graph and weight text I/O.
//!
//! This module handles **SNAP-style text edge lists** — one `u v` pair
//! per line, `#` comments, blank lines ignored — matching the format of
//! the datasets the paper downloads from the Stanford Network Analysis
//! Platform, plus one-weight-per-line weight files.
//!
//! Binary persistence lives in the `ic-store` crate: the ad-hoc `ICG1`
//! graph-caching format that used to live here was folded into the
//! versioned, checksummed `ICS1` store format (PR 5), so generated-graph
//! caching and engine snapshots can never disagree on one graph across
//! two formats. Use `ic_store::StoreBuilder` / `ic_store::StoreFile`.

use crate::{Graph, GraphBuilder, GraphError, VertexId};
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

/// Parses a SNAP-style text edge list from a reader.
///
/// Lines starting with `#` (or `%`, used by some mirrors) are comments.
/// Each data line must contain exactly two whitespace-separated vertex ids.
pub fn read_edge_list<R: Read>(reader: R) -> Result<Graph, GraphError> {
    let mut builder = GraphBuilder::new();
    let buf = BufReader::new(reader);
    let mut line_buf = String::new();
    let mut reader = buf;
    let mut line_no = 0usize;
    loop {
        line_buf.clear();
        let n = reader.read_line(&mut line_buf)?;
        if n == 0 {
            break;
        }
        line_no += 1;
        let line = line_buf.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with('%') {
            continue;
        }
        let mut it = line.split_whitespace();
        let (Some(a), Some(b)) = (it.next(), it.next()) else {
            return Err(GraphError::Parse {
                line: line_no,
                message: format!("expected two vertex ids, got {line:?}"),
            });
        };
        if it.next().is_some() {
            return Err(GraphError::Parse {
                line: line_no,
                message: format!("expected exactly two fields, got {line:?}"),
            });
        }
        let u: VertexId = a.parse().map_err(|_| GraphError::Parse {
            line: line_no,
            message: format!("invalid vertex id {a:?}"),
        })?;
        let v: VertexId = b.parse().map_err(|_| GraphError::Parse {
            line: line_no,
            message: format!("invalid vertex id {b:?}"),
        })?;
        builder.add_edge(u, v);
    }
    Ok(builder.build())
}

/// Parses an edge list from a string (convenience for tests and examples).
pub fn parse_edge_list(text: &str) -> Result<Graph, GraphError> {
    read_edge_list(text.as_bytes())
}

/// Reads an edge list from a file path.
pub fn read_edge_list_file<P: AsRef<Path>>(path: P) -> Result<Graph, GraphError> {
    read_edge_list(std::fs::File::open(path)?)
}

/// Writes the graph as a text edge list (one `u v` per line, `u < v`).
pub fn write_edge_list<W: Write>(g: &Graph, mut writer: W) -> Result<(), GraphError> {
    writeln!(
        writer,
        "# ic-graph edge list: {} vertices, {} edges",
        g.num_vertices(),
        g.num_edges()
    )?;
    for (u, v) in g.edges() {
        writeln!(writer, "{u} {v}")?;
    }
    Ok(())
}

/// Reads vertex weights (one per line, `#` comments allowed).
pub fn read_weights<R: Read>(reader: R) -> Result<Vec<f64>, GraphError> {
    let buf = BufReader::new(reader);
    let mut out = Vec::new();
    for (i, line) in buf.lines().enumerate() {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        let w: f64 = t.parse().map_err(|_| GraphError::Parse {
            line: i + 1,
            message: format!("invalid weight {t:?}"),
        })?;
        out.push(w);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph_from_edges;

    #[test]
    fn parse_snap_style() {
        let text = "# comment\n% another comment\n\n0 1\n1 2\n2 0\n";
        let g = parse_edge_list(text).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
    }

    #[test]
    fn parse_rejects_bad_lines() {
        assert!(matches!(
            parse_edge_list("0 1\n2\n").unwrap_err(),
            GraphError::Parse { line: 2, .. }
        ));
        assert!(matches!(
            parse_edge_list("0 1 2\n").unwrap_err(),
            GraphError::Parse { line: 1, .. }
        ));
        assert!(matches!(
            parse_edge_list("a b\n").unwrap_err(),
            GraphError::Parse { line: 1, .. }
        ));
        assert!(matches!(
            parse_edge_list("0 -1\n").unwrap_err(),
            GraphError::Parse { line: 1, .. }
        ));
    }

    #[test]
    fn parse_empty_input() {
        let g = parse_edge_list("").unwrap();
        assert_eq!(g.num_vertices(), 0);
        let g = parse_edge_list("# only comments\n").unwrap();
        assert_eq!(g.num_vertices(), 0);
    }

    #[test]
    fn text_round_trip() {
        let g = graph_from_edges(5, &[(0, 1), (1, 2), (3, 4), (0, 4)]);
        let mut out = Vec::new();
        write_edge_list(&g, &mut out).unwrap();
        let g2 = read_edge_list(&out[..]).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn weights_round_trip() {
        let ws = vec![0.5, 1.25, 3.0];
        let text: String = ws.iter().map(|w| format!("{w}\n")).collect();
        let back = read_weights(text.as_bytes()).unwrap();
        assert_eq!(ws, back);
    }

    #[test]
    fn weights_reject_garbage() {
        assert!(read_weights("1.0\nbogus\n".as_bytes()).is_err());
    }
}

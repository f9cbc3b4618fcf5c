//! Plain-text and JSON graph I/O.
//!
//! The text format is the ubiquitous whitespace edge list: one `src dst`
//! pair per line, `#`-prefixed comment lines ignored. Node count is inferred
//! as `max id + 1` unless a `# nodes: N` header pins it (needed for trailing
//! isolated nodes).

use crate::coo::EdgeList;
use crate::error::GraphError;
use crate::graph::{Direction, Graph};
use serde::Deserialize;
use std::io::{BufRead, Write};

/// Parses a whitespace edge list.
///
/// # Errors
///
/// * [`GraphError::InvalidParameter`] on malformed lines or ids.
/// * Propagates [`Graph::from_edge_list`] validation errors.
///
/// # Example
///
/// ```
/// use mega_graph::io::read_edge_list;
/// use mega_graph::Direction;
///
/// let text = "# nodes: 4\n0 1\n1 2\n";
/// let g = read_edge_list(text.as_bytes(), Direction::Undirected).unwrap();
/// assert_eq!(g.node_count(), 4);
/// assert_eq!(g.edge_count(), 2);
/// ```
pub fn read_edge_list<R: BufRead>(reader: R, direction: Direction) -> Result<Graph, GraphError> {
    let mut pairs = Vec::new();
    let mut max_id = 0usize;
    let mut pinned_nodes: Option<usize> = None;
    for (lineno, line) in reader.lines().enumerate() {
        let line = line.map_err(|e| GraphError::InvalidParameter {
            name: "reader",
            reason: format!("I/O error at line {}: {e}", lineno + 1),
        })?;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        if let Some(rest) = trimmed.strip_prefix('#') {
            if let Some(n) = rest.trim().strip_prefix("nodes:") {
                pinned_nodes =
                    Some(n.trim().parse().map_err(|_| GraphError::InvalidParameter {
                        name: "nodes",
                        reason: format!("bad node-count header at line {}", lineno + 1),
                    })?);
            }
            continue;
        }
        let mut it = trimmed.split_whitespace();
        let parse = |tok: Option<&str>| -> Result<usize, GraphError> {
            tok.ok_or_else(|| GraphError::InvalidParameter {
                name: "line",
                reason: format!("expected `src dst` at line {}", lineno + 1),
            })?
            .parse()
            .map_err(|_| GraphError::InvalidParameter {
                name: "line",
                reason: format!("non-integer id at line {}", lineno + 1),
            })
        };
        let s = parse(it.next())?;
        let d = parse(it.next())?;
        max_id = max_id.max(s).max(d);
        pairs.push((s, d));
    }
    let n = match pinned_nodes {
        Some(n) => n,
        None if pairs.is_empty() => {
            return Err(GraphError::Empty);
        }
        None => max_id
            .checked_add(1)
            .ok_or_else(|| GraphError::InvalidParameter {
                name: "line",
                reason: format!("node id {max_id} leaves no room for a node count"),
            })?,
    };
    let coo = EdgeList::from_pairs(n, pairs)?;
    Graph::from_edge_list(coo, direction)
}

/// Writes the graph in the text edge-list format (with a node-count header).
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] wrapping any I/O failure.
pub fn write_edge_list<W: Write>(g: &Graph, mut writer: W) -> Result<(), GraphError> {
    let io_err = |e: std::io::Error| GraphError::InvalidParameter {
        name: "writer",
        reason: format!("I/O error: {e}"),
    };
    writeln!(writer, "# nodes: {}", g.node_count()).map_err(io_err)?;
    for (s, d) in g.edges() {
        writeln!(writer, "{s} {d}").map_err(io_err)?;
    }
    Ok(())
}

/// Serializes a graph to JSON (via serde).
///
/// # Panics
///
/// Never — the graph types serialize infallibly.
pub fn to_json(g: &Graph) -> String {
    serde_json::to_string(g).expect("graph serialization is infallible")
}

/// What [`from_json`] reads of [`to_json`]'s output: the direction and the
/// edge list. The CSR index in the document is ignored and rebuilt.
#[derive(Deserialize)]
struct GraphJson {
    direction: Direction,
    edges: EdgeListJson,
}

#[derive(Deserialize)]
struct EdgeListJson {
    node_count: usize,
    pairs: Vec<(usize, usize)>,
}

/// Deserializes a graph from JSON written by [`to_json`]. Only the direction
/// and the edge list are read; the graph is rebuilt from them through
/// [`Graph::from_edge_list`], so a document whose stored CSR disagrees with
/// its edges (or whose edges are invalid) yields an error, not a graph that
/// panics later.
///
/// # Errors
///
/// * [`GraphError::InvalidParameter`] when the JSON is malformed.
/// * The [`EdgeList::from_pairs`] and [`Graph::from_edge_list`] validation
///   errors.
pub fn from_json(json: &str) -> Result<Graph, GraphError> {
    let doc: GraphJson = serde_json::from_str(json).map_err(|e| GraphError::InvalidParameter {
        name: "json",
        reason: e.to_string(),
    })?;
    let edges = EdgeList::from_pairs(doc.edges.node_count, doc.edges.pairs)?;
    Graph::from_edge_list(edges, doc.direction)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;

    #[test]
    fn round_trip_text() {
        let g = generate::barabasi_albert(
            30,
            2,
            &mut <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(1),
        )
        .unwrap();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let back = read_edge_list(&buf[..], Direction::Undirected).unwrap();
        assert_eq!(g.node_count(), back.node_count());
        assert_eq!(g.edge_list(), back.edge_list());
    }

    #[test]
    fn header_pins_isolated_nodes() {
        let g = read_edge_list("# nodes: 10\n0 1\n".as_bytes(), Direction::Undirected).unwrap();
        assert_eq!(g.node_count(), 10);
        assert_eq!(g.degree(9), 0);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "\n# a comment\n0 1\n\n1 2\n";
        let g = read_edge_list(text.as_bytes(), Direction::Undirected).unwrap();
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn malformed_lines_rejected() {
        assert!(read_edge_list("0\n".as_bytes(), Direction::Undirected).is_err());
        assert!(read_edge_list("a b\n".as_bytes(), Direction::Undirected).is_err());
        assert!(read_edge_list("".as_bytes(), Direction::Undirected).is_err());
    }

    #[test]
    fn round_trip_json() {
        let g = generate::cycle(7).unwrap();
        let back = from_json(&to_json(&g)).unwrap();
        assert_eq!(g, back);
        assert!(from_json("{not json").is_err());
    }

    #[test]
    fn json_csr_is_rebuilt_not_trusted() {
        let g = generate::cycle(5).unwrap();
        let json = to_json(&g);
        // Offsets that disagree with the edge list: the rebuilt graph is the
        // cycle's, whatever the document's CSR says.
        let (head, tail) = json.split_once("\"offsets\":[").unwrap();
        let lied = format!("{head}\"offsets\":[0,0,0,{tail}");
        assert_eq!(from_json(&lied).unwrap(), g);
        let dangling = json.replacen("[0,1]", "[0,9]", 1);
        assert!(matches!(
            from_json(&dangling),
            Err(GraphError::NodeOutOfRange { node: 9, .. })
        ));
    }

    #[test]
    fn largest_id_is_an_error_not_an_overflow() {
        let text = format!("0 {}\n", usize::MAX);
        assert!(read_edge_list(text.as_bytes(), Direction::Undirected).is_err());
    }
}

// `scope-escape` fixture: code compiled away from its own path fires.
include!("x.rs");
#[path = "y.rs"]
mod m;
const DATA: &str = include_str!("data.txt");
const BYTES: &[u8] = include_bytes!("data.bin");
// mega-lint: allow(scope-escape, reason = "no pragma may opt out")
include!("z.rs");
// include!("w.rs") in a comment is inert, and so is a string:
const QUOTED: &str = "#[path = \"q.rs\"] include!(\"q.rs\")";

//! JSON codec for MCODE cluster sets: the `casbn cluster --json`
//! document, read back by `casbn pack --kind clusters`. Each cluster is
//! an object `{"vertices": [v…], "edges": [[u, v]…], "score": f,
//! "seed": v}`.

use crate::Cluster;
use casbn_obs::json::{parse, JsonError, JsonWriter, Value};

/// Render a cluster set as a pretty-printed JSON array (newline
/// terminated).
pub fn clusters_to_json(clusters: &[Cluster]) -> String {
    let mut w = JsonWriter::new();
    w.begin_array();
    for c in clusters {
        w.begin_object();
        w.key("vertices");
        w.begin_array();
        for &v in &c.vertices {
            w.value_u64(v.into());
        }
        w.end_array();
        w.key("edges");
        w.begin_array();
        for &(u, v) in &c.edges {
            w.begin_array();
            w.value_u64(u.into());
            w.value_u64(v.into());
            w.end_array();
        }
        w.end_array();
        w.key("score");
        w.value_f64(c.score);
        w.key("seed");
        w.value_u64(c.seed.into());
        w.end_object();
    }
    w.end_array();
    w.finish()
}

/// Parse a cluster set written by [`clusters_to_json`].
pub fn clusters_from_json(text: &str) -> Result<Vec<Cluster>, JsonError> {
    parse(text)?.map_array(|c| {
        Ok(Cluster {
            vertices: c.field("vertices")?.map_array(Value::as_u32)?,
            edges: c.field("edges")?.map_array(|e| match e.as_array()? {
                [u, v] => Ok((u.as_u32()?, v.as_u32()?)),
                _ => Err(JsonError::Schema("an edge is a [u, v] pair".into())),
            })?,
            score: c.field("score")?.as_f64()?,
            seed: c.field("seed")?.as_u32()?,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clusters_round_trip_through_json() {
        let cs = vec![
            Cluster {
                vertices: vec![0, 1, 2, 3],
                edges: vec![(0, 1), (0, 2), (1, 2), (2, 3)],
                score: 8.0 / 3.0,
                seed: 2,
            },
            Cluster {
                vertices: vec![],
                edges: vec![],
                score: 0.0,
                seed: u32::MAX,
            },
        ];
        let text = clusters_to_json(&cs);
        assert!(text.contains("\"score\": 2.6666666666666665"), "{text}");
        assert!(text.contains("\"vertices\": [],"), "{text}");
        assert_eq!(clusters_from_json(&text).unwrap(), cs);
        assert_eq!(clusters_to_json(&[]), "[]\n");
    }

    #[test]
    fn schema_violations_are_typed_errors() {
        for (text, want) in [
            ("{}", "expected an array, found an object"),
            ("[{}]", "missing field `vertices`"),
            (
                "[{\"vertices\": [4294967296], \"edges\": [], \"score\": 1.0, \"seed\": 0}]",
                "integer 4294967296 out of range for u32",
            ),
            (
                "[{\"vertices\": [], \"edges\": [[1]], \"score\": 1.0, \"seed\": 0}]",
                "an edge is a [u, v] pair",
            ),
            (
                "[{\"vertices\": [], \"edges\": [], \"score\": null, \"seed\": 0}]",
                "expected a number, found null",
            ),
        ] {
            assert_eq!(clusters_from_json(text).unwrap_err().to_string(), want);
        }
    }
}

//! The trace event model executed by the machine.

use memento_simcore::json::{self, Value};
use std::fmt;

/// A workload-level object identifier (the machine maps ids to addresses at
/// execution time, since baseline and Memento place objects differently).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ObjectId(pub u64);

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "obj{}", self.0)
    }
}

/// One trace event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Event {
    /// Allocate `size` bytes as object `id`.
    Alloc {
        /// Object id (unique per trace).
        id: ObjectId,
        /// Requested size in bytes.
        size: u32,
    },
    /// Free object `id` (for Golang this marks death; the GC model decides
    /// when storage is actually reclaimed).
    Free {
        /// Object id.
        id: ObjectId,
    },
    /// Access `len` bytes of object `id` starting at `offset`.
    Touch {
        /// Object id.
        id: ObjectId,
        /// Byte offset within the object.
        offset: u32,
        /// Bytes accessed.
        len: u32,
        /// Store (true) or load (false).
        write: bool,
    },
    /// Execute `instructions` of non-allocator application work.
    Compute {
        /// Instruction count.
        instructions: u32,
    },
    /// Function exits; the OS batch-frees remaining memory.
    Exit,
}

impl Event {
    /// Serializes to a JSON value: `{"Alloc":{"id":7,"size":24}}` for data
    /// variants, `"Exit"` for the unit variant, with object ids as bare
    /// numbers (the format serde's externally-tagged enums used, so traces
    /// saved by earlier builds still load).
    pub fn to_json(&self) -> Value {
        let tagged = |tag: &str, fields: &[(&str, u64)]| {
            let mut inner = Value::object();
            for (k, v) in fields {
                inner.set(k, *v);
            }
            let mut outer = Value::object();
            outer.set(tag, inner);
            outer
        };
        match *self {
            Event::Alloc { id, size } => tagged("Alloc", &[("id", id.0), ("size", size as u64)]),
            Event::Free { id } => tagged("Free", &[("id", id.0)]),
            Event::Touch {
                id,
                offset,
                len,
                write,
            } => {
                let mut inner = Value::object();
                inner
                    .set("id", id.0)
                    .set("offset", offset as u64)
                    .set("len", len as u64)
                    .set("write", write);
                let mut outer = Value::object();
                outer.set("Touch", inner);
                outer
            }
            Event::Compute { instructions } => {
                tagged("Compute", &[("instructions", instructions as u64)])
            }
            Event::Exit => Value::Str("Exit".into()),
        }
    }

    /// Parses a value produced by [`Event::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed field.
    pub fn from_json(v: &Value) -> Result<Self, String> {
        if v.as_str() == Some("Exit") {
            return Ok(Event::Exit);
        }
        let Value::Object(members) = v else {
            return Err(format!("expected event object, got {v}"));
        };
        let [(tag, body)] = members.as_slice() else {
            return Err("expected single-variant event object".into());
        };
        let field = |name: &str| -> Result<u64, String> {
            body.get(name)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("{tag}: missing or bad field '{name}'"))
        };
        let narrow = |name: &str| -> Result<u32, String> {
            u32::try_from(field(name)?).map_err(|_| format!("{tag}: '{name}' out of range"))
        };
        match tag.as_str() {
            "Alloc" => Ok(Event::Alloc {
                id: ObjectId(field("id")?),
                size: narrow("size")?,
            }),
            "Free" => Ok(Event::Free {
                id: ObjectId(field("id")?),
            }),
            "Touch" => Ok(Event::Touch {
                id: ObjectId(field("id")?),
                offset: narrow("offset")?,
                len: narrow("len")?,
                write: body
                    .get("write")
                    .and_then(Value::as_bool)
                    .ok_or("Touch: missing or bad field 'write'")?,
            }),
            "Compute" => Ok(Event::Compute {
                instructions: narrow("instructions")?,
            }),
            other => Err(format!("unknown event variant '{other}'")),
        }
    }
}

/// A complete generated trace.
#[derive(Clone, Debug)]
pub struct Trace {
    /// Workload name the trace was generated from.
    pub name: String,
    /// The events in program order.
    pub events: Vec<Event>,
}

impl Trace {
    /// Serializes the whole trace as one JSON value.
    pub fn to_json(&self) -> Value {
        let mut doc = Value::object();
        doc.set("name", self.name.as_str()).set(
            "events",
            Value::Array(self.events.iter().map(Event::to_json).collect()),
        );
        doc
    }

    /// Parses a value produced by [`Trace::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed field.
    pub fn from_json(v: &Value) -> Result<Self, String> {
        let name = v
            .get("name")
            .and_then(Value::as_str)
            .ok_or("trace: missing or bad field 'name'")?
            .to_owned();
        let events = v
            .get("events")
            .and_then(Value::as_array)
            .ok_or("trace: missing or bad field 'events'")?
            .iter()
            .map(Event::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Trace { name, events })
    }

    /// Serializes the trace to JSON for record/replay workflows.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_json().to_string())
    }

    /// Loads a trace previously written by [`Trace::save`].
    ///
    /// # Errors
    ///
    /// Propagates I/O and parse errors.
    pub fn load(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        let text = std::fs::read_to_string(path)?;
        let doc = json::parse(&text).map_err(std::io::Error::other)?;
        Self::from_json(&doc).map_err(std::io::Error::other)
    }

    /// Number of `Alloc` events.
    pub fn alloc_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, Event::Alloc { .. }))
            .count()
    }

    /// Number of `Free` events.
    pub fn free_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, Event::Free { .. }))
            .count()
    }

    /// Total `Compute` instructions.
    pub fn total_instructions(&self) -> u64 {
        self.events
            .iter()
            .map(|e| match e {
                Event::Compute { instructions } => *instructions as u64,
                _ => 0,
            })
            .sum()
    }

    /// Mallocs per kilo-instruction (the paper selects workloads with
    /// ≥ 0.5 MallocPKI).
    pub fn malloc_pki(&self) -> f64 {
        let insts = self.total_instructions();
        if insts == 0 {
            return 0.0;
        }
        self.alloc_count() as f64 * 1000.0 / insts as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_counters() {
        let t = Trace {
            name: "t".into(),
            events: vec![
                Event::Alloc {
                    id: ObjectId(1),
                    size: 8,
                },
                Event::Touch {
                    id: ObjectId(1),
                    offset: 0,
                    len: 8,
                    write: true,
                },
                Event::Compute { instructions: 1000 },
                Event::Free { id: ObjectId(1) },
                Event::Exit,
            ],
        };
        assert_eq!(t.alloc_count(), 1);
        assert_eq!(t.free_count(), 1);
        assert_eq!(t.total_instructions(), 1000);
        assert!((t.malloc_pki() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn save_load_roundtrip() {
        let t = Trace {
            name: "roundtrip".into(),
            events: vec![
                Event::Alloc {
                    id: ObjectId(1),
                    size: 64,
                },
                Event::Exit,
            ],
        };
        let dir = std::env::temp_dir().join("memento-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.json");
        t.save(&path).unwrap();
        let back = Trace::load(&path).unwrap();
        assert_eq!(back.name, t.name);
        assert_eq!(back.events, t.events);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn events_serialize() {
        let e = Event::Alloc {
            id: ObjectId(7),
            size: 24,
        };
        let text = e.to_json().to_string();
        assert_eq!(text, r#"{"Alloc":{"id":7,"size":24}}"#);
        let back = Event::from_json(&json::parse(&text).unwrap()).unwrap();
        assert_eq!(e, back);
        // Every variant shape survives the round trip.
        for e in [
            Event::Free { id: ObjectId(3) },
            Event::Touch {
                id: ObjectId(3),
                offset: 16,
                len: 8,
                write: true,
            },
            Event::Compute { instructions: 512 },
            Event::Exit,
        ] {
            let doc = json::parse(&e.to_json().to_string()).unwrap();
            assert_eq!(Event::from_json(&doc).unwrap(), e);
        }
    }
}

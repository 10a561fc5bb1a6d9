//! Task definitions and data instances.
//!
//! The paper (§2.1) defines four tasks over relational data, each handling
//! one record — or one pair — at a time so a prompt is easy to write.

use dprep_tabular::context::{
    contextualize_into, contextualize_selected_into, contextualize_text_into,
};
use dprep_tabular::Record;

/// The four data-preprocessing tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Task {
    /// Error detection: is cell `r_j` erroneous?
    ErrorDetection,
    /// Data imputation: infer the missing value of cell `r_j`.
    Imputation,
    /// Schema matching: do attributes `j` and `j'` refer to the same thing?
    SchemaMatching,
    /// Entity matching: do records `r` and `r'` refer to the same entity?
    EntityMatching,
}

impl Task {
    /// Short lowercase identifier (used in reports and file names).
    pub fn id(&self) -> &'static str {
        match self {
            Task::ErrorDetection => "ed",
            Task::Imputation => "di",
            Task::SchemaMatching => "sm",
            Task::EntityMatching => "em",
        }
    }

    /// Human-readable task name.
    pub fn name(&self) -> &'static str {
        match self {
            Task::ErrorDetection => "error detection",
            Task::Imputation => "data imputation",
            Task::SchemaMatching => "schema matching",
            Task::EntityMatching => "entity matching",
        }
    }
}

/// An attribute presented to schema matching as `(name, description)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttrSpec {
    /// Attribute name.
    pub name: String,
    /// Human-readable description.
    pub description: String,
}

impl AttrSpec {
    /// Builds an attribute spec.
    pub fn new(name: impl Into<String>, description: impl Into<String>) -> Self {
        AttrSpec {
            name: name.into(),
            description: description.into(),
        }
    }

    /// Appends the contextualized form, `[name: "...", description:
    /// "..."]` (§3.3), to `out`.
    pub fn contextualize_into(&self, out: &mut String) {
        contextualize_text_into(
            out,
            &[("name", &self.name), ("description", &self.description)],
        );
    }
}

/// One data instance for one task.
#[derive(Debug, Clone, PartialEq)]
pub enum TaskInstance {
    /// A record and the attribute to check for an error.
    ErrorDetection {
        /// The full record.
        record: Record,
        /// Name of the attribute under test.
        attribute: String,
    },
    /// A record with a missing cell to impute.
    Imputation {
        /// The record; the target cell should be [`Value::Missing`].
        record: Record,
        /// Name of the attribute to impute.
        attribute: String,
    },
    /// A pair of attributes to match.
    SchemaMatching {
        /// First attribute.
        a: AttrSpec,
        /// Second attribute.
        b: AttrSpec,
    },
    /// A pair of records to match.
    EntityMatching {
        /// First record.
        a: Record,
        /// Second record.
        b: Record,
    },
}

impl TaskInstance {
    /// The task this instance belongs to.
    pub fn task(&self) -> Task {
        match self {
            TaskInstance::ErrorDetection { .. } => Task::ErrorDetection,
            TaskInstance::Imputation { .. } => Task::Imputation,
            TaskInstance::SchemaMatching { .. } => Task::SchemaMatching,
            TaskInstance::EntityMatching { .. } => Task::EntityMatching,
        }
    }

    /// Renders the question body for this instance (without the
    /// `Question N:` numbering), applying feature selection when
    /// `feature_indices` is given (§3.4). For ED/DI the target attribute is
    /// always kept even if not selected.
    pub fn question_text(&self, feature_indices: Option<&[usize]>) -> String {
        let mut out = String::new();
        self.write_question(&mut out, feature_indices);
        out
    }

    /// Appends [`question_text`](Self::question_text) to `out` without
    /// allocating: the prompt builder renders a whole batch into one buffer.
    pub fn write_question(&self, out: &mut String, feature_indices: Option<&[usize]>) {
        match self {
            TaskInstance::ErrorDetection { record, attribute } => {
                out.push_str("Record is ");
                write_record(out, record, feature_indices, Some(attribute));
                out.push_str(". Is there an error in the \"");
                out.push_str(attribute);
                out.push_str("\" attribute?");
            }
            TaskInstance::Imputation { record, attribute } => {
                out.push_str("Record is ");
                write_record(out, record, feature_indices, Some(attribute));
                out.push_str(". What is the value of the \"");
                out.push_str(attribute);
                out.push_str("\" attribute?");
            }
            TaskInstance::SchemaMatching { a, b } => {
                out.push_str("Attribute A is ");
                a.contextualize_into(out);
                out.push_str(". Attribute B is ");
                b.contextualize_into(out);
                out.push_str(". Do they refer to the same attribute?");
            }
            TaskInstance::EntityMatching { a, b } => {
                out.push_str("Record A is ");
                write_record(out, a, feature_indices, None);
                out.push_str(". Record B is ");
                write_record(out, b, feature_indices, None);
                out.push_str(". Do they refer to the same entity?");
            }
        }
    }

    /// All instance text concatenated — the string embedded for cluster
    /// batching.
    pub fn flat_text(&self) -> String {
        match self {
            TaskInstance::ErrorDetection { record, .. }
            | TaskInstance::Imputation { record, .. } => flat_record(record),
            TaskInstance::SchemaMatching { a, b } => {
                format!("{} {} {} {}", a.name, a.description, b.name, b.description)
            }
            TaskInstance::EntityMatching { a, b } => {
                format!("{} {}", flat_record(a), flat_record(b))
            }
        }
    }
}

fn flat_record(record: &Record) -> String {
    let mut out = String::new();
    for v in record.values() {
        if !v.is_missing() {
            if !out.is_empty() {
                out.push(' ');
            }
            out.push_str(&v.to_string());
        }
    }
    out
}

/// Appends a record's contextualization. Under feature selection only the
/// selected attributes are kept, in selection order, followed by
/// `keep_attribute` when it was not selected.
fn write_record(
    out: &mut String,
    record: &Record,
    feature_indices: Option<&[usize]>,
    keep_attribute: Option<&str>,
) {
    let Some(indices) = feature_indices else {
        contextualize_into(out, record);
        return;
    };
    let schema = record.schema();
    let kept = keep_attribute
        .and_then(|keep| schema.index_of(keep))
        .filter(|target| !indices.contains(target));
    // Indices outside the schema are skipped by the writer.
    contextualize_selected_into(out, record, indices.iter().copied().chain(kept));
}

#[cfg(test)]
mod tests {
    use super::*;
    use dprep_tabular::{Schema, Value};

    fn restaurant() -> Record {
        let schema = Schema::all_text(&["name", "phone", "type", "city"])
            .unwrap()
            .shared();
        Record::new(
            schema,
            vec![
                Value::text("carey's corner"),
                Value::text("770-933-0909"),
                Value::text("hamburgers"),
                Value::Missing,
            ],
        )
        .unwrap()
    }

    #[test]
    fn di_question_names_the_target() {
        let inst = TaskInstance::Imputation {
            record: restaurant(),
            attribute: "city".into(),
        };
        let q = inst.question_text(None);
        assert!(q.contains("What is the value of the \"city\" attribute?"));
        assert!(q.contains("city: ???"));
        assert_eq!(inst.task(), Task::Imputation);
    }

    #[test]
    fn feature_selection_keeps_target() {
        let inst = TaskInstance::Imputation {
            record: restaurant(),
            attribute: "city".into(),
        };
        // Select only phone (index 1); target city (index 3) must survive.
        let q = inst.question_text(Some(&[1]));
        assert!(q.contains("phone"));
        assert!(q.contains("city: ???"));
        assert!(!q.contains("hamburgers"));
    }

    #[test]
    fn em_question_has_two_records() {
        let inst = TaskInstance::EntityMatching {
            a: restaurant(),
            b: restaurant(),
        };
        let q = inst.question_text(None);
        assert!(q.contains("Record A is ["));
        assert!(q.contains("Record B is ["));
        assert!(q.contains("same entity"));
    }

    #[test]
    fn sm_question_contextualizes_attr_specs() {
        let inst = TaskInstance::SchemaMatching {
            a: AttrSpec::new("zip", "postal code of address"),
            b: AttrSpec::new("postcode", "zip code"),
        };
        let q = inst.question_text(None);
        assert!(q.contains("[name: \"zip\", description: \"postal code of address\"]"));
        assert!(q.contains("same attribute"));
    }

    #[test]
    fn flat_text_skips_missing_cells() {
        let inst = TaskInstance::ErrorDetection {
            record: restaurant(),
            attribute: "phone".into(),
        };
        let flat = inst.flat_text();
        assert!(flat.contains("carey's corner"));
        assert!(!flat.contains("???"));
    }

    #[test]
    fn task_ids_are_stable() {
        assert_eq!(Task::ErrorDetection.id(), "ed");
        assert_eq!(Task::EntityMatching.name(), "entity matching");
    }
}

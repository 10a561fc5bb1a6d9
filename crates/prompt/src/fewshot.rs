//! Few-shot prompting (§3.2).
//!
//! A handful of labeled instances condition the model: they teach error
//! criteria, imputation style, and matching strictness. Examples are
//! rendered as one user turn (the numbered questions) followed by one
//! assistant turn (the numbered answers, each with its human-written
//! reasoning when chain-of-thought is on).

use std::fmt::Write;

use dprep_llm::Message;

use crate::task::TaskInstance;

/// One labeled few-shot example.
#[derive(Debug, Clone, PartialEq)]
pub struct FewShotExample {
    /// The data instance shown in the question.
    pub instance: TaskInstance,
    /// Plausible human-written reasoning (shown only under chain of
    /// thought). The paper requires users to provide this.
    pub reason: String,
    /// The gold answer.
    pub answer: String,
}

impl FewShotExample {
    /// Builds an example.
    pub fn new(
        instance: TaskInstance,
        reason: impl Into<String>,
        answer: impl Into<String>,
    ) -> Self {
        FewShotExample {
            instance,
            reason: reason.into(),
            answer: answer.into(),
        }
    }
}

/// Renders few-shot examples as a `(user, assistant)` message pair.
/// Returns `None` when `examples` is empty.
///
/// `reasoning` controls whether the assistant's answers include the
/// reasoning line, mirroring the answer format the zero-shot instruction
/// requests; `feature_indices` applies feature selection to example
/// records so examples look exactly like the batch questions.
pub fn render_examples(
    examples: &[FewShotExample],
    reasoning: bool,
    feature_indices: Option<&[usize]>,
) -> Option<(Message, Message)> {
    if examples.is_empty() {
        return None;
    }
    let mut questions = String::new();
    let mut answers = String::new();
    for (i, ex) in examples.iter().enumerate() {
        let n = i + 1;
        let _ = write!(questions, "Question {n}: ");
        ex.instance.write_question(&mut questions, feature_indices);
        questions.push('\n');
        if reasoning {
            let _ = writeln!(answers, "Answer {n}: {}\n{}", ex.reason, ex.answer);
        } else {
            let _ = writeln!(answers, "Answer {n}: {}", ex.answer);
        }
    }
    Some((Message::user(questions), Message::assistant(answers)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::AttrSpec;
    use dprep_llm::Role;

    fn example() -> FewShotExample {
        FewShotExample::new(
            TaskInstance::SchemaMatching {
                a: AttrSpec::new("zip", "postal code"),
                b: AttrSpec::new("postcode", "zip code"),
            },
            "Both name the mailing code of an address.",
            "yes",
        )
    }

    #[test]
    fn empty_examples_render_nothing() {
        assert!(render_examples(&[], true, None).is_none());
    }

    #[test]
    fn renders_numbered_pairs_with_reasoning() {
        let (user, assistant) = render_examples(&[example(), example()], true, None).unwrap();
        assert_eq!(user.role, Role::User);
        assert_eq!(assistant.role, Role::Assistant);
        assert!(user.content.contains("Question 1:"));
        assert!(user.content.contains("Question 2:"));
        assert!(assistant
            .content
            .contains("Answer 1: Both name the mailing code"));
        assert!(
            assistant.content.lines().count() >= 4,
            "two lines per answer"
        );
    }

    #[test]
    fn renders_single_line_answers_without_reasoning() {
        let (_, assistant) = render_examples(&[example()], false, None).unwrap();
        assert_eq!(assistant.content, "Answer 1: yes\n");
    }
}

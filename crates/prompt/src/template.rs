//! Prompt construction: parallel (one combined request) vs. sequential
//! (one question per follow-up request).

use nbhd_types::{Indicator, IndicatorSet};
use serde::{Deserialize, Serialize};

use crate::{format_instruction, parse_response, question_text, Language, PROMPT_ORDER};

/// How the six questions are packaged into requests.
///
/// The paper finds parallel prompting (all questions in one request) beats
/// sequential follow-ups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PromptMode {
    /// All six questions in a single request, joined with "And".
    Parallel,
    /// Six requests, one question each, in the same conversation.
    Sequential,
}

/// One request message and the questions it carries, in order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PromptMessage {
    /// The full request text sent with the image.
    pub text: String,
    /// Which indicators the message asks about, in answer order.
    pub questions: Vec<Indicator>,
}

/// A complete prompt plan for one image.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Prompt {
    /// The prompt language.
    pub language: Language,
    /// Parallel or sequential packaging.
    pub mode: PromptMode,
    /// The request messages, in send order.
    pub messages: Vec<PromptMessage>,
}

impl Prompt {
    /// Builds the study's prompt for the given language and mode.
    ///
    /// ```
    /// use nbhd_prompt::{Language, Prompt, PromptMode};
    ///
    /// let parallel = Prompt::build(Language::English, PromptMode::Parallel);
    /// assert_eq!(parallel.messages.len(), 1);
    /// assert_eq!(parallel.messages[0].questions.len(), 6);
    ///
    /// let sequential = Prompt::build(Language::English, PromptMode::Sequential);
    /// assert_eq!(sequential.messages.len(), 6);
    /// ```
    pub fn build(language: Language, mode: PromptMode) -> Prompt {
        let messages = match mode {
            PromptMode::Parallel => {
                let mut text = String::from(format_instruction(language));
                text.push('\n');
                for (i, ind) in PROMPT_ORDER.iter().enumerate() {
                    if i > 0 {
                        text.push_str(joiner(language));
                        text.push(' ');
                    }
                    text.push_str(question_text(*ind, language));
                    text.push('\n');
                }
                vec![PromptMessage {
                    text,
                    questions: PROMPT_ORDER.to_vec(),
                }]
            }
            PromptMode::Sequential => PROMPT_ORDER
                .iter()
                .map(|&ind| PromptMessage {
                    text: question_text(ind, language).to_owned(),
                    questions: vec![ind],
                })
                .collect(),
        };
        Prompt {
            language,
            mode,
            messages,
        }
    }

    /// Total number of questions across messages (always six).
    pub fn question_count(&self) -> usize {
        self.messages.iter().map(|m| m.questions.len()).sum()
    }

    /// The indicators asked about, flattened in answer order.
    pub fn question_order(&self) -> Vec<Indicator> {
        self.messages
            .iter()
            .flat_map(|m| m.questions.iter().copied())
            .collect()
    }

    /// Reads one response (a text per message) into a presence set, and
    /// whether every question got a parseable answer. Unparseable answers
    /// count as absent, as in [`crate::ParsedAnswers::to_presence`].
    ///
    /// ```
    /// use nbhd_prompt::{Language, Prompt, PromptMode};
    /// use nbhd_types::Indicator;
    ///
    /// let prompt = Prompt::build(Language::English, PromptMode::Parallel);
    /// let (set, complete) = prompt.read_presence(&["Yes, No, No, No, No, maybe"]);
    /// assert!(set.contains(Indicator::MultilaneRoad));
    /// assert_eq!(set.len(), 1);
    /// assert!(!complete);
    /// ```
    pub fn read_presence(&self, texts: &[impl AsRef<str>]) -> (IndicatorSet, bool) {
        let mut set = IndicatorSet::new();
        let mut complete = true;
        for (text, message) in texts.iter().zip(&self.messages) {
            let parsed = parse_response(text.as_ref(), self.language, message.questions.len());
            complete &= parsed.is_complete();
            for (&ind, answer) in message.questions.iter().zip(&parsed.answers) {
                if *answer == Some(true) {
                    set.insert(ind);
                }
            }
        }
        (set, complete)
    }
}

/// The conjunction used between concatenated questions.
fn joiner(language: Language) -> &'static str {
    match language {
        Language::English => "And",
        Language::Spanish => "Y",
        Language::Chinese => "并且",
        Language::Bengali => "এবং",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_text_contains_all_questions_and_joiners() {
        let p = Prompt::build(Language::English, PromptMode::Parallel);
        let text = &p.messages[0].text;
        for ind in Indicator::ALL {
            let q = question_text(ind, Language::English);
            assert!(text.contains(q), "missing question for {ind}");
        }
        assert_eq!(text.matches("And ").count(), 5);
        assert!(text.starts_with("Respond in this format"));
    }

    #[test]
    fn sequential_messages_are_single_questions() {
        let p = Prompt::build(Language::Spanish, PromptMode::Sequential);
        assert_eq!(p.messages.len(), 6);
        for m in &p.messages {
            assert_eq!(m.questions.len(), 1);
            assert!(!m.text.contains('\n'));
        }
        assert_eq!(p.question_count(), 6);
    }

    #[test]
    fn question_order_follows_prompt_order_in_both_modes() {
        for mode in [PromptMode::Parallel, PromptMode::Sequential] {
            let p = Prompt::build(Language::Bengali, mode);
            assert_eq!(p.question_order(), PROMPT_ORDER.to_vec());
        }
    }

    #[test]
    fn prompt_serializes() {
        let p = Prompt::build(Language::Chinese, PromptMode::Parallel);
        let json = serde_json::to_string(&p).unwrap();
        let back: Prompt = serde_json::from_str(&json).unwrap();
        assert_eq!(p, back);
    }
}

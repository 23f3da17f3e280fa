//! Robust parsing of model responses back into per-question answers.
//!
//! Real model output is messy: "Yes, No, No, Yes, No, Yes", "yes — there is
//! a sidewalk", missing answers, filler tokens, or a different language's
//! yes/no. The parser tokenizes the response, maps tokens through the
//! language lexicon, and aligns the resulting answer stream with the
//! expected question order.

use nbhd_types::{Indicator, IndicatorSet};
use serde::{Deserialize, Serialize};

use crate::Language;

/// The outcome of parsing one response against its expected questions.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ParsedAnswers {
    /// Per-question answers in question order; `None` when unparseable.
    pub answers: Vec<Option<bool>>,
    /// Number of questions that did not receive a parseable answer.
    pub failures: usize,
    /// Yes/no tokens found beyond the expected count (format drift).
    pub extra_tokens: usize,
}

impl ParsedAnswers {
    /// Returns `true` when every question got an answer.
    pub fn is_complete(&self) -> bool {
        self.failures == 0
    }

    /// Folds answers into a presence set given the question order.
    /// Unparseable answers default to "absent" (`treat_missing_as_no`), the
    /// evaluation convention used throughout the study harness.
    ///
    /// # Panics
    ///
    /// Panics when `order` and the parsed answers disagree in length.
    pub fn to_presence(&self, order: &[Indicator]) -> IndicatorSet {
        assert_eq!(
            order.len(),
            self.answers.len(),
            "question order and answers must align"
        );
        let mut set = IndicatorSet::new();
        for (ind, ans) in order.iter().zip(&self.answers) {
            if ans == &Some(true) {
                set.insert(*ind);
            }
        }
        set
    }
}

/// Parses a response expected to answer `expected` questions.
///
/// ```
/// use nbhd_prompt::{parse_response, Language};
///
/// let parsed = parse_response("Yes, No, no, YES, No, Yes", Language::English, 6);
/// assert!(parsed.is_complete());
/// assert_eq!(
///     parsed.answers,
///     vec![Some(true), Some(false), Some(false), Some(true), Some(false), Some(true)],
/// );
/// ```
pub fn parse_response(text: &str, language: Language, expected: usize) -> ParsedAnswers {
    let mut answers: Vec<Option<bool>> = Vec::with_capacity(expected);
    let mut extra_tokens = 0usize;
    for token in tokenize(text) {
        let answer = if is_one_of(token, language.yes_tokens()) {
            true
        } else if is_one_of(token, language.no_tokens()) {
            false
        } else {
            continue;
        };
        if answers.len() < expected {
            answers.push(Some(answer));
        } else {
            extra_tokens += 1;
        }
    }
    let failures = expected - answers.len();
    answers.resize(expected, None);
    ParsedAnswers {
        answers,
        failures,
        extra_tokens,
    }
}

/// Splits on whitespace and punctuation.
fn tokenize(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| {
        c.is_whitespace()
            || matches!(
                c,
                ',' | '.'
                    | ';'
                    | ':'
                    | '!'
                    | '?'
                    | '，'
                    | '。'
                    | '；'
                    | '：'
                    | '！'
                    | '？'
                    | '、'
                    | '\''
                    | '"'
                    | '('
                    | ')'
                    | '-'
                    | '—'
                    | '।'
            )
    })
    .filter(|t| !t.is_empty())
}

/// Whether the token, lowercased, is one of the lexicon words (which are
/// lowercase). Nothing is allocated: an ASCII token is compared ignoring
/// ASCII case, any other is lowercased char by char as it is compared.
/// Both agree with comparing `token.to_lowercase()`, whose one
/// context-dependent rule, the final sigma, yields a letter no lexicon
/// word contains.
fn is_one_of(token: &str, lexicon: &[&str]) -> bool {
    if token.is_ascii() {
        lexicon.iter().any(|word| token.eq_ignore_ascii_case(word))
    } else {
        lexicon
            .iter()
            .any(|word| token.chars().flat_map(char::to_lowercase).eq(word.chars()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_format_parses() {
        let p = parse_response("Yes, No, No, Yes, No, Yes", Language::English, 6);
        assert!(p.is_complete());
        assert_eq!(p.extra_tokens, 0);
    }

    #[test]
    fn verbose_answers_still_parse() {
        let text = "Yes, there is a multi-lane road. No. No sidewalk is visible... \
                    Yes! A streetlight is present. No. And finally: yes.";
        let p = parse_response(text, Language::English, 6);
        assert!(p.is_complete());
        assert_eq!(
            p.answers,
            vec![
                Some(true),
                Some(false),
                Some(false),
                Some(true),
                Some(false),
                Some(true)
            ]
        );
    }

    #[test]
    fn missing_answers_are_none() {
        let p = parse_response("Yes, No", Language::English, 6);
        assert_eq!(p.failures, 4);
        assert_eq!(p.answers[0], Some(true));
        assert_eq!(p.answers[2], None);
        assert!(!p.is_complete());
    }

    #[test]
    fn junk_only_response_fails_all() {
        let p = parse_response("I cannot assist with that request.", Language::English, 6);
        assert_eq!(p.failures, 6);
    }

    #[test]
    fn extra_answers_are_counted() {
        let p = parse_response("yes no yes no yes no yes yes", Language::English, 6);
        assert_eq!(p.extra_tokens, 2);
        assert!(p.is_complete());
    }

    #[test]
    fn spanish_accents_parse() {
        let p = parse_response("Sí, no, sí, NO, si, no", Language::Spanish, 6);
        assert!(p.is_complete());
        assert_eq!(p.answers[0], Some(true));
        assert_eq!(p.answers[4], Some(true));
    }

    #[test]
    fn chinese_fullwidth_punctuation_parses() {
        let p = parse_response("是，否，否，是，是，否。", Language::Chinese, 6);
        assert!(p.is_complete());
        assert_eq!(p.answers[0], Some(true));
        assert_eq!(p.answers[1], Some(false));
    }

    #[test]
    fn bengali_parses() {
        let p = parse_response("হ্যাঁ, না, না, হ্যাঁ, না, না।", Language::Bengali, 6);
        assert!(p.is_complete());
        assert_eq!(p.answers[0], Some(true));
        assert_eq!(p.answers[3], Some(true));
    }

    #[test]
    fn cross_language_words_do_not_parse() {
        // English yes/no in a Chinese-prompt context is format drift
        let p = parse_response("yes, no, yes", Language::Chinese, 6);
        assert_eq!(p.failures, 6);
    }

    #[test]
    fn presence_mapping_respects_order() {
        use nbhd_types::Indicator;
        let p = parse_response("yes no no no no yes", Language::English, 6);
        let order = crate::PROMPT_ORDER;
        let set = p.to_presence(&order);
        assert!(set.contains(Indicator::MultilaneRoad));
        assert!(set.contains(Indicator::Apartment));
        assert_eq!(set.len(), 2);
    }

    #[test]
    #[should_panic(expected = "align")]
    fn presence_mapping_validates_length() {
        let p = parse_response("yes", Language::English, 1);
        let _ = p.to_presence(&crate::PROMPT_ORDER);
    }
}

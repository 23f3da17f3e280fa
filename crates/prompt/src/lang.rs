//! Prompt languages and their lexicons.
//!
//! The study evaluates English, Spanish, simplified Chinese, and Bengali
//! prompts (Sec. IV-C3, Appendix B), translated with native-speaker review.

use serde::{Deserialize, Serialize};

/// A prompt language.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Language {
    /// English (the study's reference language).
    English,
    /// Spanish.
    Spanish,
    /// Simplified Chinese.
    Chinese,
    /// Bengali.
    Bengali,
}

impl Language {
    /// All four studied languages, English first.
    pub const ALL: [Language; 4] = [
        Language::English,
        Language::Spanish,
        Language::Chinese,
        Language::Bengali,
    ];

    /// The affirmative tokens accepted when parsing responses.
    pub fn yes_tokens(self) -> &'static [&'static str] {
        match self {
            Language::English => &["yes", "yeah", "yep"],
            Language::Spanish => &["sí", "si"],
            Language::Chinese => &["是", "有"],
            Language::Bengali => &["হ্যাঁ", "হা", "হ্যা"],
        }
    }

    /// The negative tokens accepted when parsing responses.
    pub fn no_tokens(self) -> &'static [&'static str] {
        match self {
            Language::English => &["no", "nope"],
            Language::Spanish => &["no"],
            Language::Chinese => &["否", "没有", "不是", "无"],
            Language::Bengali => &["না"],
        }
    }

    /// The canonical "Yes" word used when a model verbalizes an answer.
    pub fn yes_word(self) -> &'static str {
        match self {
            Language::English => "Yes",
            Language::Spanish => "Sí",
            Language::Chinese => "是",
            Language::Bengali => "হ্যাঁ",
        }
    }

    /// The canonical "No" word used when a model verbalizes an answer.
    pub fn no_word(self) -> &'static str {
        match self {
            Language::English => "No",
            Language::Spanish => "No",
            Language::Chinese => "否",
            Language::Bengali => "না",
        }
    }

    /// BCP-47-ish tag.
    pub fn tag(self) -> &'static str {
        match self {
            Language::English => "en",
            Language::Spanish => "es",
            Language::Chinese => "zh",
            Language::Bengali => "bn",
        }
    }
}

impl std::fmt::Display for Language {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Language::English => "English",
            Language::Spanish => "Spanish",
            Language::Chinese => "Chinese",
            Language::Bengali => "Bengali",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexicons_are_disjoint() {
        for lang in Language::ALL {
            for y in lang.yes_tokens() {
                assert!(
                    !lang.no_tokens().contains(y),
                    "{lang}: token {y:?} is both yes and no"
                );
            }
        }
    }

    #[test]
    fn lexicon_words_are_lowercase() {
        // the parser lowercases tokens, so only lowercase words can match
        for lang in Language::ALL {
            for word in lang.yes_tokens().iter().chain(lang.no_tokens()) {
                assert_eq!(word.to_lowercase(), *word, "{lang}");
            }
        }
    }

    #[test]
    fn canonical_words_parse_as_themselves() {
        for lang in Language::ALL {
            let yes = lang.yes_word().to_lowercase();
            assert!(
                lang.yes_tokens().iter().any(|t| *t == yes),
                "{lang}: canonical yes {yes:?} not in lexicon"
            );
            let no = lang.no_word().to_lowercase();
            assert!(
                lang.no_tokens().iter().any(|t| *t == no),
                "{lang}: canonical no {no:?} not in lexicon"
            );
        }
    }

    #[test]
    fn tags_are_unique() {
        let tags: std::collections::HashSet<_> = Language::ALL.iter().map(|l| l.tag()).collect();
        assert_eq!(tags.len(), 4);
    }
}
